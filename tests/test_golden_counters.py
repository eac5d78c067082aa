"""Golden counters for simulator paths the benchmark cells do not reach.

Each cell's identity is the sha256 of its sorted ``Counters.as_dict()``.
An optimisation of the simulator must keep every hash: a change in any
simulated counter is a behaviour change, not a speed-up.  The cells cover
RC consistency with the fence and selective schemes, the deferred-TLB path
(omnetpp IS-Fu), an 8-core run with critical sections and invalidations
(fluidanimate IS-Sp) and the modelled L1-I.

To print the current hashes (after an intended behaviour change)::

    PYTHONPATH=src python tests/test_golden_counters.py
"""

import hashlib
import json

import pytest

from repro import ConsistencyModel, ProcessorConfig, Scheme, SystemParams
from repro.runner import run_parsec, run_spec

PRETRAIN_OPS = 2000

#: Half the static load PCs of a synthetic trace (0x100000 + 4*k).
SELECTED_LOAD_PCS = frozenset(0x10_0000 + 4 * k for k in range(0, 4096, 2))

CELLS = {
    "spec:hmmer:Fe-Sp:RC": ("spec", "hmmer", Scheme.FENCE_SPECTRE, "RC", 1000, {}),
    "spec:mcf:Fe-Sp:RC": ("spec", "mcf", Scheme.FENCE_SPECTRE, "RC", 1000, {}),
    "spec:hmmer:Fe-Fu:RC": ("spec", "hmmer", Scheme.FENCE_FUTURE, "RC", 1000, {}),
    "spec:mcf:Fe-Fu:RC": ("spec", "mcf", Scheme.FENCE_FUTURE, "RC", 1000, {}),
    "spec:hmmer:IS-Sel:RC": ("spec", "hmmer", Scheme.SELECTIVE, "RC", 1000, {}),
    "spec:mcf:IS-Sel:RC": ("spec", "mcf", Scheme.SELECTIVE, "RC", 1000, {}),
    "spec:omnetpp:IS-Fu:TSO": ("spec", "omnetpp", Scheme.IS_FUTURE, "TSO", 1000, {}),
    "parsec:fluidanimate:IS-Sp:TSO": (
        "parsec", "fluidanimate", Scheme.IS_SPECTRE, "TSO", 300, {}),
    "spec:hmmer:IS-Sp:TSO:l1i": (
        "spec", "hmmer", Scheme.IS_SPECTRE, "TSO", 1000, {"model_l1i": True}),
}

GOLDEN = {
    "spec:hmmer:Fe-Sp:RC":
        "8e50c750c334a4fc0fe7a207ffe50115cc0ea6db873ace75ff794975955c1f5a",
    "spec:mcf:Fe-Sp:RC":
        "1cda439202751019f6e57d911ed773d0dcfc8cfcd4f97f377287495fe3116013",
    "spec:hmmer:Fe-Fu:RC":
        "6e5182769ac6c05d88ecec0ff6288f5d3da1164d480585b8cc454de94bc7a5ff",
    "spec:mcf:Fe-Fu:RC":
        "724557eae8e370b88c8491912291a10d90925890278e788440f91df80d093e56",
    "spec:hmmer:IS-Sel:RC":
        "9ae189dd72dc5f4a4bd6b18a1c7c4dbd1eac2487ec858291a12d27e2fd5f589e",
    "spec:mcf:IS-Sel:RC":
        "665ffce3b761ab648d869551126bbeeb309c86ecfff129c34deb57a4a32e5a24",
    "spec:omnetpp:IS-Fu:TSO":
        "9a09d5ce3626410e2b6b535398a4bba142a83c780652d4ff41b618ef81782a70",
    "parsec:fluidanimate:IS-Sp:TSO":
        "82944393405b0da29b683c49cab3a68413275b6ca179c6918757b2658207b908",
    "spec:hmmer:IS-Sp:TSO:l1i":
        "edf121d0d31c24d20244863788e42dd75b73aa3754742020d07b09e211a13db5",
}


def run_cell(name):
    suite, app, scheme, consistency, instructions, overrides = CELLS[name]
    config = ProcessorConfig(
        scheme=scheme,
        consistency=ConsistencyModel(consistency),
        protected_pcs=SELECTED_LOAD_PCS if scheme is Scheme.SELECTIVE else frozenset(),
    )
    if suite == "spec":
        entry, params = run_spec, SystemParams.for_spec(**overrides)
    else:
        entry, params = run_parsec, SystemParams.for_parsec(**overrides)
    result = entry(app, config, instructions=instructions, params=params,
                   pretrain_ops=PRETRAIN_OPS)
    return result.counters


def counters_sha256(counters):
    canonical = json.dumps(counters.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_counters_match_golden(name):
    assert counters_sha256(run_cell(name)) == GOLDEN[name]


def test_cells_reach_their_paths():
    """The cells exercise what they are here for."""
    omnetpp = run_cell("spec:omnetpp:IS-Fu:TSO")
    assert omnetpp["invisispec.tlb_deferred"] > 0
    fluid = run_cell("parsec:fluidanimate:IS-Sp:TSO")
    assert fluid["core.invalidations_received"] > 0
    assert fluid["core.fence_drain_stall_cycles"] > 0


if __name__ == "__main__":
    for cell in sorted(CELLS):
        print(f'    "{cell}":\n        "{counters_sha256(run_cell(cell))}",')
