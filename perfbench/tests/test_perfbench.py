"""The benchmark's own checks: goldens, self-time arithmetic, wrappers."""

import asyncio
import json
import multiprocessing
from concurrent.futures import Future

import pytest

from perfbench import layers, run, spans
from perfbench import workloads as wl
from perfbench.hostspeed import PROBE_SHARE, REFERENCE_S, HostSpeed
from perfbench.params import HELD_OUT_SEEDS, PARAMS, SEED_POOL, input_seeds
from repro.configs import Scheme
from repro.system import System

GOLDENS = json.loads(run.GOLDENS.read_text())


# ------------------------------------------------------------------ goldens


def smoke_records():
    return wl.sim_pass("spec-1core", SEED_POOL[:1], instructions=run.SMOKE_INSTRUCTIONS)


def test_smoke_goldens_recompute():
    records = smoke_records()
    assert wl.check_cells(records, {str(SEED_POOL[0]): GOLDENS["smoke"]}) == []
    assert len(records) == len(GOLDENS["smoke"]) == 9


def test_run_clock_times_system_run_and_restores_it():
    original = vars(System)["run"]
    record = wl.run_cell("spec", "mcf", Scheme.IS_FUTURE, 0, run.SMOKE_INSTRUCTIONS)
    assert vars(System)["run"] is original
    assert record["run_s"] > 0 and record["setup_s"] > 0
    with pytest.raises(ZeroDivisionError), wl.RunClock():
        1 / 0
    assert vars(System)["run"] is original


def test_goldens_cover_every_cell_and_seed():
    for workload, cells in (("spec-1core", 9), ("parsec-8core", 3)):
        for seed in SEED_POOL + HELD_OUT_SEEDS:
            assert len(GOLDENS[workload][str(seed)]) == cells
    for seed in SEED_POOL + HELD_OUT_SEEDS:
        assert len(GOLDENS["fuzz-campaign"][str(seed)]["summary_sha256"]) == 64
    assert GOLDENS["params"] == json.loads(json.dumps(PARAMS))


def test_a_changed_counter_is_a_failed_cell():
    records = smoke_records()
    records[4]["sha256"] = "0" * 64
    failures = wl.check_cells(records, {str(SEED_POOL[0]): GOLDENS["smoke"]})
    assert len(failures) == 1 and records[4]["cell"] in failures[0]
    assert len(wl.check_cells(records[:2], {})) == 2  # no golden: failed


def test_input_seeds():
    sets = [input_seeds(n) for n in range(len(SEED_POOL))]
    assert len(set(sets)) == len(SEED_POOL)
    for seeds in sets:
        assert len(set(seeds)) == len(seeds) > 1
        assert set(seeds) <= set(SEED_POOL)
    assert input_seeds(3) == input_seeds(3 + len(SEED_POOL))
    assert input_seeds(3, held_out=True) == HELD_OUT_SEEDS
    assert not set(HELD_OUT_SEEDS) & set(SEED_POOL)


def test_service_plan_has_a_fixed_mix():
    plans = [wl.service_plan(input_seeds(n)) for n in range(3)]
    for plan in plans:
        assert len(plan) == PARAMS["service-mix"]["requests"]
        cold = [payload for payload, repeats in plan if repeats is None]
        assert len(cold) == len(plan) // 2
        combos = {(p["app"], p["scheme"]) for p in cold}
        assert len(combos) == 9 and all(
            sum(1 for p in cold if (p["app"], p["scheme"]) == combo) == 2 for combo in combos
        )
        for index, (_, repeats) in enumerate(plan):
            assert repeats is None or (repeats < index and plan[repeats][1] is None)
    assert plans[0] != plans[1]
    assert plans[0] == wl.service_plan(input_seeds(0))


def test_tail_has_ten_samples_beyond_it():
    value, pct, count = wl.tail(list(range(100)))
    assert (value, count) == (89, 100)
    assert sum(1 for x in range(100) if x > value) == 10
    assert pct == pytest.approx(90.0)


# --------------------------------------------------------- self-time sums


def test_self_time_on_a_hand_built_tree():
    # root 0..10 ├─ a 1..4 ─ a1 2..3
    #           ├─ b 3..6   (overlaps a: together they cover 1..6)
    #           └─ c 9..12  (clipped to the root: covers 9..10)
    names = ["root", "a", "a1", "b", "c"]
    parents = [-1, 0, 1, 0, 0]
    starts = [0.0, 1.0, 2.0, 3.0, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    own = spans.self_times(names, parents, starts, ends)
    assert own["root"] == pytest.approx(10 - 5 - 1)
    assert own["a"] == pytest.approx(3 - 1)
    assert own["a1"] == pytest.approx(1)
    assert own["b"] == pytest.approx(3)
    assert own["c"] == pytest.approx(3)


def test_busy_time_counts_recursion_once():
    names = ["f", "f", "g"]
    busy = spans.busy_times(names, [0.0, 1.0, 5.0], [4.0, 2.0, 6.0])
    assert busy == {"f": pytest.approx(4.0), "g": pytest.approx(1.0)}
    assert spans.covered([(0, 1), (2, 3), (2.5, 4)]) == pytest.approx(3.0)


# ----------------------------------------------------------------- wrappers


class Toy:
    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return 2 * x

    async def later(self):
        return self.inner(3)

    def lease(self):
        future = Future()
        future.set_result(7)
        return future


def test_wrappers_record_nesting_and_restore():
    originals = dict(vars(Toy))
    tracer = spans.Tracer()
    tracer.install([
        (Toy, "outer", "toy.outer", spans.SPAN),
        (Toy, "inner", "toy.inner", spans.COUNT),
        (Toy, "later", "toy.later", spans.SPAN),
        (Toy, "lease", "toy.lease", spans.FUTURE),
    ])
    toy = Toy()
    assert toy.outer(5) == 11
    assert asyncio.run(toy.later()) == 6
    assert toy.lease().result() == 7
    tracer.uninstall()
    assert dict(vars(Toy)) == originals
    names, parents, starts, ends = tracer.spans()
    assert names == ["toy.outer", "toy.later", "toy.lease"]
    assert all(end >= start for start, end in zip(starts, ends))
    assert tracer.counts["toy.inner"] == [2]
    assert tracer.calls("toy.inner") == 2 and tracer.calls("toy.outer") == 1
    # after uninstall nothing is recorded
    toy.outer(1)
    assert tracer.calls("toy.outer") == 1


def test_spans_nest_under_the_calling_span():
    tracer = spans.Tracer()
    tracer.install([
        (Toy, "outer", "toy.outer", spans.SPAN),
        (Toy, "inner", "toy.inner", spans.SPAN),
    ])
    try:
        Toy().outer(1)
        Toy().inner(1)
    finally:
        tracer.uninstall()
    names, parents, _, _ = tracer.spans()
    assert list(zip(names, parents)) == [
        ("toy.outer", -1), ("toy.inner", 0), ("toy.inner", -1),
    ]


class Sticky(type):
    """A class whose attributes stop changing once ``frozen`` is set."""

    frozen = False

    def __setattr__(cls, name, value):
        if not Sticky.frozen:
            super().__setattr__(name, value)


def test_an_unrestored_attribute_is_a_restore_error():
    class Held(metaclass=Sticky):
        def f(self):
            return 1

    tracer = spans.Tracer()
    tracer.install([(Held, "f", "held.f", spans.SPAN)])
    Sticky.frozen = True
    try:
        with pytest.raises(spans.RestoreError, match="Held.f"):
            tracer.uninstall()
    finally:
        Sticky.frozen = False


def test_forked_child_gets_the_originals_back():
    original = Toy.inner
    tracer = spans.Tracer()
    tracer.install([(Toy, "inner", "toy.inner", spans.SPAN)])
    try:
        tracer._after_fork_in_child()
        assert vars(Toy)["inner"] is original
        assert not tracer.active
    finally:
        tracer.uninstall()
    assert vars(Toy)["inner"] is original


def test_every_layer_target_is_restored():
    resolved = layers.resolve()
    before = [vars(owner)[attr] for owner, attr, _, _ in resolved]
    tracer = spans.Tracer()
    tracer.install(resolved)
    assert all(
        vars(owner)[attr] is not orig
        for (owner, attr, _, _), orig in zip(resolved, before)
    )
    tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr, _, _ in resolved] == before


def test_traced_cell_is_counter_identical():
    plain = wl.run_cell("spec", "hmmer", Scheme.IS_FUTURE, 0, run.SMOKE_INSTRUCTIONS)
    tracer, record, failures = run.traced(
        lambda: wl.run_cell("spec", "hmmer", Scheme.IS_FUTURE, 0, run.SMOKE_INSTRUCTIONS)
    )
    assert failures == []
    assert record["sha256"] == plain["sha256"]
    assert tracer.calls("cpu.tick") > 0
    assert tracer.calls("invisispec.policy.load_is_safe") > 0
    assert tracer.calls("service.submit") == 0


def test_traced_pairs_alternate_and_restore():
    resolved = layers.resolve()
    before = [vars(owner)[attr] for owner, attr, _, _ in resolved]
    seen = []

    def run_unit(unit, tracer):
        seen.append((unit, tracer is not None))
        return unit

    pairs = run.TracedPairs(["a", "b"], run_unit)
    assert seen[:4] == [("a", False), ("a", True), ("b", False), ("b", True)]
    assert len(pairs.ratios) == len(seen) // 2 >= run.MIN_PAIRS
    assert pairs.plain == pairs.traced == ["a", "b"] * 2
    assert pairs.first == 2 and pairs.failures == []
    assert [vars(owner)[attr] for owner, attr, _, _ in resolved] == before


def test_host_speed_probes_in_helpers():
    host = HostSpeed(parallel=2)
    try:
        assert len(multiprocessing.active_children()) >= 2
        host.pace(0.0)
        host.pace(10 * REFERENCE_S)
        assert sum(host.samples) >= PROBE_SHARE * 10 * REFERENCE_S
        assert host.factor == pytest.approx(REFERENCE_S / host.mean_s)
    finally:
        host.close()
    assert not host._helpers
