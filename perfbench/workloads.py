"""The four benchmark workloads: one fixed pass each, run untraced or traced.

A *pass* is a fixed amount of work over a set of input seeds
(:func:`input_seeds`), and its outputs are checked:

* ``spec-1core``   — {hmmer, mcf, libquantum} x {Base, IS-Sp, IS-Fu} x TSO
  per seed, one cell after another in this process, through
  ``runner.run_spec`` as it is: warm caches (its default warmup of half
  the budget) and a functionally pre-trained predictor;
* ``parsec-8core`` — 8-core canneal x {Base, IS-Sp, IS-Fu} x TSO per seed,
  through ``runner.run_parsec``;
* ``fuzz-campaign`` — one differential fuzz campaign per seed over
  generated gadget programs on two supervised workers;
* ``service-mix``  — one in-process ``AnalysisService`` session over a
  two-worker ``LeasePool``: a closed-loop client keeps two requests in
  flight, unique short ``sim`` requests (cold) and repeats of finished
  ones (hot), drawn from the seeds.

Parameters and seed sets are in :mod:`perfbench.params`.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import random
import shutil
import statistics
import time

from perfbench.params import PARAMS
from repro import runner
from repro.configs import ConsistencyModel, ProcessorConfig, Scheme
from repro.system import System

clock = time.perf_counter

SCHEMES = (Scheme.BASE, Scheme.IS_SPECTRE, Scheme.IS_FUTURE)
SCHEME_KEYS = {Scheme.BASE: "base", Scheme.IS_SPECTRE: "is_sp", Scheme.IS_FUTURE: "is_fu"}

SIM_WORKLOADS = {"spec-1core": "spec", "parsec-8core": "parsec"}


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def counters_sha256(counters):
    """Golden identity of one run: sha256 of its sorted ``Counters.as_dict()``."""
    return hashlib.sha256(canonical(counters.as_dict()).encode()).hexdigest()


def cell_key(app, scheme):
    return f"{app}:{scheme.value}"


# ------------------------------------------------------------------- sim cells


class RunClock:
    """Times ``System.run`` while installed, so that a cell's wall time
    splits into set-up (all ``run_spec``/``run_parsec`` do before it:
    ``System`` construction, program generation, predictor pre-training)
    and the simulated run."""

    def __init__(self):
        self.run_s = None
        self._original = None

    def __enter__(self):
        original = self._original = vars(System)["run"]
        timer = self

        @functools.wraps(original)
        def timed(system, *args, **kwargs):
            started = clock()
            try:
                return original(system, *args, **kwargs)
            finally:
                timer.run_s = clock() - started

        System.run = timed
        return self

    def __exit__(self, *exc):
        System.run = self._original
        if vars(System)["run"] is not self._original:
            raise RuntimeError("System.run not restored")
        return False


def run_cell(suite, app, scheme, seed, instructions):
    """Run one cell through the library entry point; returns its record."""
    entry = runner.run_spec if suite == "spec" else runner.run_parsec
    config = ProcessorConfig(scheme=scheme, consistency=ConsistencyModel.TSO)
    with RunClock() as timer:
        started = clock()
        result = entry(app, config, instructions=instructions, seed=seed)
        wall = clock() - started
    counters = result.counters
    return {
        "cell": cell_key(app, scheme),
        "seed": seed,
        "scheme": SCHEME_KEYS[scheme],
        "setup_s": wall - timer.run_s,
        "run_s": timer.run_s,
        "retired": counters["core.total_retired"],
        "cycles": result.cycles,
        "sha256": counters_sha256(counters),
        "counters": counters.as_dict(),
    }


def cells(workload, seeds):
    """``(seed, app, scheme)`` of every cell of a sim workload pass, in order."""
    return [
        (seed, app, scheme)
        for seed in seeds
        for app in PARAMS[workload]["apps"]
        for scheme in SCHEMES
    ]


def sim_pass(workload, seeds, instructions=None, after_cell=None):
    """Every cell of a sim workload for every seed; ``after_cell(record)``
    is called after each."""
    suite = SIM_WORKLOADS[workload]
    budget = instructions or PARAMS[workload]["instructions"]
    records = []
    for seed, app, scheme in cells(workload, seeds):
        records.append(run_cell(suite, app, scheme, seed, budget))
        if after_cell is not None:
            after_cell(records[-1])
    return records


def check_cells(records, goldens):
    """Failed cells: those whose counters hash or retired count differ
    from the committed golden (``goldens[seed][cell]``), or that have no
    golden."""
    failures = []
    for record in records:
        golden = goldens.get(str(record["seed"]), {}).get(record["cell"])
        where = f"seed {record['seed']} {record['cell']}"
        if golden is None:
            failures.append(f"{where}: no golden recorded")
        elif (golden["sha256"], golden["retired"]) != (record["sha256"], record["retired"]):
            failures.append(
                f"{where}: counters {record['sha256'][:12]}/"
                f"{record['retired']} != golden {golden['sha256'][:12]}/"
                f"{golden['retired']}"
            )
    return failures


def geomean(values):
    return statistics.geometric_mean(values) if values else 0.0


def sim_summary(passes, factor):
    """Host-speed and simulated figures over every pass of a sim workload.

    ``ops_per_s`` and ``kips.*`` are per reference second and
    ``setup_s`` in reference seconds; the ``.raw`` figures are raw."""
    cells = [record for records in passes for record in records]

    def per_s(records):
        return sum(r["retired"] for r in records) / sum(r["run_s"] for r in records)

    setup = statistics.median(sum(r["setup_s"] for r in p) for p in passes)
    out = {
        "ops_per_s": per_s(cells) / factor,
        "ops_per_s.raw": per_s(cells),
        "setup_s": setup * factor,
        "setup_s.raw": setup,
        "kips": per_s(cells) / factor / 1000.0,
    }
    for key in SCHEME_KEYS.values():
        out[f"kips.{key}"] = per_s([r for r in cells if r["scheme"] == key]) / factor / 1000.0
    first = passes[0]
    base = {
        (r["seed"], r["cell"].split(":")[0]): r["cycles"]
        for r in first if r["scheme"] == "base"
    }
    for key in ("is_sp", "is_fu"):
        out[f"norm_time.{key}"] = geomean([
            r["cycles"] / base[r["seed"], r["cell"].split(":")[0]]
            for r in first if r["scheme"] == key
        ])
    return out


def simulated_layers(records):
    """Simulated per-layer figures summed over one pass's cells."""
    total = {}
    for record in records:
        for name, value in record["counters"].items():
            total[name] = total.get(name, 0) + value

    def prefixed(prefix):
        return sum(v for k, v in total.items() if k.startswith(prefix))

    retired = total.get("core.total_retired", 0)
    squashed = total.get("core.squashed_ops", 0)
    validations = total.get("invisispec.validations", 0)
    l1_hits = prefixed("hierarchy.l1_hits.")
    l1_misses = prefixed("hierarchy.l1_misses.")
    return {
        "cpu.useful_op_ratio": retired / (retired + squashed) if retired else 0.0,
        "invisispec.validations": validations,
        "invisispec.exposures": total.get("invisispec.exposures", 0),
        "invisispec.validation_ok_ratio": (
            1.0 - total.get("invisispec.validation_failures", 0) / validations
            if validations else 0.0
        ),
        "coherence.l1_hit_ratio": (
            l1_hits / (l1_hits + l1_misses) if l1_hits + l1_misses else 0.0
        ),
        "coherence.invalidations_sent": total.get("coherence.invalidations_sent", 0),
        "noc.messages": total.get("noc.messages", 0),
        "noc.total_bytes": total.get("noc.total_bytes", 0),
    }


# ------------------------------------------------------------- fuzz campaign


def fuzz_campaign(seed, workdir, jobs=None):
    """Generate one campaign's programs (set-up), then run the campaign."""
    from repro.fuzz.campaign import run_campaign
    from repro.fuzz.generator import generate_programs

    params = PARAMS["fuzz-campaign"]
    jobs = params["jobs"] if jobs is None else jobs
    started = clock()
    programs = generate_programs(params["programs"], seed=seed)
    for program in programs:
        program.canonical_json()
    setup_s = clock() - started
    out = workdir / f"fuzz-s{seed}-j{jobs}"
    shutil.rmtree(out, ignore_errors=True)
    started = clock()
    result = run_campaign(
        programs=params["programs"], seed=seed, jobs=jobs, out_dir=str(out),
        max_minimize=params["max_minimize"],
    )
    wall_s = clock() - started
    summary = (out / "summary.json").read_bytes()
    journal = json.loads((out / "journal.json").read_text())
    worker_ms = sum(
        attempt.get("wall_ms", 0)
        for cell in journal["cells"].values()
        for attempt in cell.get("attempts", ())
    )
    shutil.rmtree(out, ignore_errors=True)
    return {
        "seed": seed,
        "programs": params["programs"],
        "jobs": jobs,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "summary_sha256": hashlib.sha256(summary).hexdigest(),
        "agree": result.summary["by_classification"].get("agree", 0),
        "safe_but_leaks": result.soundness_count,
        "failed_programs": sum(
            1 for verdict in result.verdicts
            if verdict is None or verdict.get("classification") == "error"
        ),
        "worker_s": worker_ms / 1000.0,
    }


def fuzz_pass(seeds, workdir, jobs=None, after_campaign=None):
    """One campaign per seed; ``after_campaign(record)`` after each."""
    records = []
    for seed in seeds:
        records.append(fuzz_campaign(seed, workdir, jobs))
        if after_campaign is not None:
            after_campaign(records[-1])
    return records


def check_fuzz(record, goldens):
    """Failed programs of one campaign: all of them if ``summary.json``
    differs from the recorded reference (``goldens[seed]``), else the
    leaks and lost ones."""
    golden_sha256 = goldens.get(str(record["seed"]), {}).get("summary_sha256")
    if record["summary_sha256"] != golden_sha256:
        return record["programs"], [
            f"summary.json {record['summary_sha256'][:12]} != golden "
            f"{(golden_sha256 or 'none')[:12]}"
        ]
    failed = record["safe_but_leaks"] + record["failed_programs"]
    notes = [f"{record['safe_but_leaks']} SAFE-but-leaks"] if record["safe_but_leaks"] else []
    if record["failed_programs"]:
        notes.append(f"{record['failed_programs']} programs lost to failed cells")
    return failed, notes


# --------------------------------------------------------------- service mix


def service_plan(seeds):
    """The request list: ``(payload, index of the cold request it repeats)``.

    Half the requests are unique, with every app x scheme equally often
    and a simulation seed drawn by a generator seeded with ``seeds``.  The
    other half repeat unique requests at least three uniques back, which
    with two requests in flight have nearly always finished, so a client
    seldom waits on the other.  The mix is the same for every seed; only
    the inputs differ."""
    params = PARAMS["service-mix"]
    rng = random.Random("perfbench-service-" + ",".join(map(str, seeds)))
    combos = [(app, scheme) for app in params["apps"] for scheme in SCHEMES]
    uniques = (combos * params["requests"])[: params["requests"] // 2]
    rng.shuffle(uniques)
    plan, cold = [], []
    for app, scheme in uniques:
        payload = {
            "suite": "spec",
            "app": app,
            "scheme": scheme.value,
            "seed": rng.randrange(1 << 16),
            "instructions": params["instructions"],
        }
        if len(cold) > 2:
            plan.append(rng.choice(cold[:-2]))
        cold.append((payload, len(plan)))
        plan.append((payload, None))
    while len(plan) < params["requests"]:
        plan.append(rng.choice(cold[:-2]))
    return plan


async def _session(plan, workdir):
    from repro.reliability.pool import LeasePool
    from repro.service.envelope import JobRequest
    from repro.service.server import AnalysisService
    from repro.service.store import ResultStore

    params = PARAMS["service-mix"]
    shutil.rmtree(workdir, ignore_errors=True)
    started = clock()
    service = AnalysisService(ResultStore(workdir), LeasePool(workers=params["workers"]))
    await service.start()
    setup_s = clock() - started
    done = [asyncio.Event() for _ in plan]
    responses = [None] * len(plan)
    latencies = [0.0] * len(plan)
    cursor = iter(range(len(plan)))

    async def client():
        for index in cursor:
            payload, repeats = plan[index]
            if repeats is not None:
                await done[repeats].wait()
            sent = clock()
            responses[index] = await service.submit(JobRequest("sim", payload))
            latencies[index] = clock() - sent
            done[index].set()

    try:
        started = clock()
        await asyncio.gather(*(client() for _ in range(params["in_flight"])))
        wall_s = clock() - started
    finally:
        await service.drain(timeout=5.0)
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setup_s": setup_s, "wall_s": wall_s, "responses": responses,
            "latencies": latencies}


def service_pass(seeds, workdir):
    plan = service_plan(seeds)
    record = asyncio.run(_session(plan, workdir))
    record["plan"] = plan
    return record


def direct_metrics(payload):
    """What a cold ``sim`` request must answer: ``run_spec`` in-process."""
    from repro.reliability.engine import capture_metrics

    config = ProcessorConfig(
        scheme=Scheme(payload["scheme"]), consistency=ConsistencyModel.TSO
    )
    result = runner.run_spec(
        payload["app"], config, seed=payload["seed"],
        instructions=payload["instructions"],
    )
    return json.loads(canonical(capture_metrics(result)))


def check_service(record, reference):
    """Failed requests of one session.

    ``reference`` maps a cold request's index to its verified canonical
    metrics; missing entries are computed with :func:`direct_metrics`
    and added.  A request fails if it is not ``ok``, if a cold answer
    differs from the direct run, or if a hot answer is not bit-identical
    to the cold answer it repeats.
    """
    failures = []
    for index, ((payload, repeats), response) in enumerate(
        zip(record["plan"], record["responses"])
    ):
        if response is None or response.get("status") != "ok":
            failures.append(f"request {index}: {response and response.get('status')}")
            continue
        cold = index if repeats is None else repeats
        if cold not in reference:
            reference[cold] = canonical(direct_metrics(payload))
        if canonical(response["metrics"]) != reference[cold]:
            failures.append(f"request {index}: wrong answer ({'cold' if repeats is None else 'hot'})")
    return failures


def tail(samples):
    """``(value, percentile, samples)``: the highest percentile of
    ``samples`` that still has at least ten samples above it."""
    ordered = sorted(samples)
    count = len(ordered)
    rank = max(0, count - 11)
    return ordered[rank], 100.0 * (rank + 1) / count, count


def service_summary(sessions, factor):
    """Throughput and latencies over every session: ``ops_per_s`` per
    reference second, ``setup_s`` in reference seconds and latencies in
    reference milliseconds; the ``.raw`` figures are raw."""
    cold, hot = [], []
    for session in sessions:
        for response, latency in zip(session["responses"], session["latencies"]):
            if response and response.get("status") == "ok":
                (hot if response.get("cached") else cold).append(latency * 1000.0 * factor)
    completed = len(cold) + len(hot)
    tail_ms, tail_pct, tail_n = tail(cold + hot)
    per_s = completed / sum(s["wall_s"] for s in sessions)
    setup = statistics.median(s["setup_s"] for s in sessions)
    return {
        "ops_per_s": per_s / factor,
        "ops_per_s.raw": per_s,
        "setup_s": setup * factor,
        "setup_s.raw": setup,
        "cold_latency_p50_ms": statistics.median(cold) if cold else 0.0,
        "hot_latency_p50_ms": statistics.median(hot) if hot else 0.0,
        "latency_tail_ms": tail_ms,
        "latency_tail_pct": tail_pct,
        "latency_tail_samples": tail_n,
        "service.hit_ratio": len(hot) / sum(len(s["responses"]) for s in sessions),
    }
