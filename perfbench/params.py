"""Workload parameters and input seeds.

Imports nothing from ``repro``, so ``run.py`` can read them before the
simulator is loaded.  Changing any of them changes the inputs, so the
goldens must be re-recorded (``run.py --record``).
"""

PARAMS = {
    "spec-1core": {"apps": ["hmmer", "mcf", "libquantum"], "instructions": 2000},
    "parsec-8core": {"apps": ["canneal"], "instructions": 400},
    "fuzz-campaign": {"programs": 128, "jobs": 2, "max_minimize": 0},
    "service-mix": {
        "requests": 36, "in_flight": 2, "workers": 2,
        "apps": ["hmmer", "mcf", "libquantum"], "instructions": 300,
    },
}

#: Workload seeds with committed goldens; ``--seed n`` picks the
#: ``SET_SIZE`` of them that follow ``n`` (wrapping), so every pass holds
#: several distinct inputs and every run is checked against goldens.
SEED_POOL = tuple(range(8))
SET_SIZE = 2
#: Inputs kept out of every tuning run, reachable only with ``--held-out``.
HELD_OUT_SEEDS = (100, 101)


def input_seeds(seed, held_out=False):
    """The workload seeds one pass runs for ``--seed seed``."""
    if held_out:
        return HELD_OUT_SEEDS
    return tuple(SEED_POOL[(seed + j) % len(SEED_POOL)] for j in range(SET_SIZE))


def workers(workload):
    """Worker processes a workload keeps busy (1: it runs in-process)."""
    params = PARAMS[workload]
    return params.get("jobs", params.get("workers", 1))
