#!/usr/bin/env python3
"""Host-speed benchmark of the InvisiSpec model and the stack built on it.

Usage, from the repository root::

    python3 perfbench/run.py --workload spec-1core --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, a table
    python3 perfbench/run.py --workload spec-1core --held-out  # held-out inputs
    python3 perfbench/run.py --record                  # rewrite goldens.json
    python3 perfbench/run.py --record-baseline         # rewrite baseline.json

A run repeats fixed passes of its workload (``workloads.py``) for
``--seconds`` and checks every output: simulated cells against the
committed golden counter hashes, fuzz campaigns against the recorded
``summary.json`` hash, service answers against a direct ``run_spec``.
With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it then runs every unit of a
pass again, untraced and at once with the layer wrappers of
``layers.py`` installed, and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every output was correct.

Host times are reported in *reference seconds* (``hostspeed.py``), with
the raw figures next to them in the traced run.

``--seed n`` picks the set of workload seeds a pass runs
(``params.input_seeds``), all of them with goldens.  ``HELD_OUT_SEEDS``
are reachable only with ``--held-out``: a gain claimed while tuning on
the pool can be re-checked on inputs that were not used to tune it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.hostspeed import HostSpeed  # noqa: E402  (imports no repro)
from perfbench.params import (  # noqa: E402
    HELD_OUT_SEEDS, PARAMS, SEED_POOL, input_seeds, workers,
)

WORK = ROOT / ".perfbench"
GOLDENS = HERE / "goldens.json"
BASELINE = HERE / "baseline.json"

#: small-budget cells re-computed by the benchmark's own tests
SMOKE_INSTRUCTIONS = 200

clock = time.perf_counter


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed, seeds, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "workload_seeds": list(seeds),
        "seconds": seconds,
        "trace": trace,
        "params": PARAMS[workload],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def peak_rss_mb():
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def load_goldens():
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


class Tally:
    """Attempted and failed operations, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        self.notes.extend(failures)


# ---------------------------------------------------------------- tracing

#: Untraced/traced pairs the traced part of a ``--trace 1`` run takes at
#: least (whole passes of them)
MIN_PAIRS = 3


class TracedPairs:
    """Each unit of a pass run untraced and at once traced, whole passes
    until :data:`MIN_PAIRS` pairs, so ``trace_overhead`` compares runs
    made under the same conditions.

    ``tracer`` holds the first traced pass, the one the per-layer
    metrics describe; ``plain`` and ``traced`` hold every unit's results
    in order.  A wrapper left behind after a traced unit is a failure.
    """

    def __init__(self, units, run_unit):
        from perfbench.layers import resolve
        from perfbench.spans import RestoreError, Tracer

        targets = resolve()
        self.plain, self.traced, self.ratios, self.failures = [], [], [], []
        tracers = []
        while len(self.ratios) < MIN_PAIRS:
            tracer = Tracer()
            tracers.append(tracer)
            for unit in units:
                started = clock()
                self.plain.append(run_unit(unit, None))
                untraced = clock() - started
                tracer.install(targets)
                started = clock()
                try:
                    self.traced.append(run_unit(unit, tracer))
                finally:
                    wall = clock() - started
                    try:
                        tracer.uninstall()
                    except RestoreError as error:
                        self.failures.append(f"tracing-neutrality: {error}")
                self.ratios.append(wall / untraced)
        self.tracer = tracers[0]
        self.first = len(units)

    @property
    def overhead(self):
        """Median traced ÷ untraced wall time over the pairs."""
        return statistics.median(self.ratios)


def traced(fn):
    """Run ``fn()`` with every layer wrapped; returns ``(tracer, value,
    failures)`` — a failure if a wrapper was left behind."""
    from perfbench.layers import resolve
    from perfbench.spans import RestoreError, Tracer

    tracer = Tracer()
    tracer.install(resolve())
    failures = []
    try:
        value = fn()
    finally:
        try:
            tracer.uninstall()
        except RestoreError as error:
            failures.append(f"tracing-neutrality: {error}")
    return tracer, value, failures


def span_metrics(tracer):
    """Calls, busy seconds and self seconds of every traced name."""
    from perfbench.spans import busy_times, self_times

    names, parents, starts, ends = tracer.spans()
    busy = busy_times(names, starts, ends)
    own = self_times(names, parents, starts, ends)
    calls = {}
    for name in names:
        calls[name] = calls.get(name, 0) + 1
    for name, cell in tracer.counts.items():
        calls[name] = calls.get(name, 0) + cell[0]

    def prefixed(prefix):
        return sum(n for name, n in calls.items() if name.startswith(prefix))

    out = {
        "sim.kernel.self_s": own.get("sim.kernel", 0.0),
        "sim.events.run_at.self_s": own.get("sim.events.run_at", 0.0),
        "sim.events.scheduled": calls.get("sim.events.scheduled", 0),
        "workloads.pretrain_s": busy.get("workloads.pretrain", 0.0),
        "cpu.tick.self_s": own.get("cpu.tick", 0.0),
        "invisispec.valexp.tick.s": busy.get("invisispec.valexp.tick", 0.0),
        "invisispec.sb.ops": calls.get("invisispec.sb.ops", 0),
        "invisispec.llc_sb.ops": calls.get("invisispec.llc_sb.ops", 0),
        "invisispec.valexp.on_invalidation.calls": calls.get(
            "invisispec.valexp.on_invalidation", 0
        ),
        "cpu.lsq.entries.calls": calls.get("cpu.lsq.entries", 0),
        "fuzz.generate_s": busy.get("fuzz.generate", 0.0),
        "fuzz.check.s": busy.get("fuzz.check", 0.0),
        "fuzz.sim.s": busy.get("fuzz.sim", 0.0),
        "reliability.spawn_s": busy.get("reliability.spawn", 0.0),
        "reliability.engine_s": busy.get("reliability.engine", 0.0),
        "reliability.spans": prefixed("reliability."),
        "service.spans": prefixed("service."),
        "service.store.get.s": busy.get("service.store.get", 0.0),
        "service.store.put.s": busy.get("service.store.put", 0.0),
    }
    for name in (
        "workloads.next_op", "cpu.tick", "cpu.lsq.search",
        "consistency.squash_check", "invisispec.policy.load_is_safe",
        "coherence.submit", "mem.cache.lookup", "mem.tlb.lookup",
        "mem.dram.access", "network.send", "specflow.analyze",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
        if name != "cpu.tick":
            out[f"{name}.s"] = busy.get(name, 0.0)
    return out


def invisispec_calls(tracer):
    """Calls recorded so far under an ``invisispec.`` name."""
    names = tracer.names
    spans = sum(1 for nid in tracer.span_name if names[nid].startswith("invisispec."))
    return spans + sum(
        cell[0] for name, cell in tracer.counts.items() if name.startswith("invisispec.")
    )


# -------------------------------------------------------------- workloads


def repeat_for(seconds, one_pass):
    """Results of ``one_pass()`` repeated until ``seconds`` have gone by
    (whole passes, at least one)."""
    results = []
    started = clock()
    while not results or clock() - started < seconds:
        results.append(one_pass())
    return results


def host_layers(summary, host):
    """The raw figures next to the reference-second ones."""
    return {
        "ops_per_s.raw": summary["ops_per_s.raw"],
        "setup_s.raw": summary["setup_s.raw"],
        "host.ref_s": host.mean_s,
    }


def run_sim(workload, seeds, seconds, trace, tally, host):
    from perfbench import workloads as wl
    from repro.configs import Scheme

    suite = wl.SIM_WORKLOADS[workload]
    goldens = load_goldens().get(workload, {})
    # Untimed warm-up: first-call imports and lazy set-up.
    wl.run_cell(suite, PARAMS[workload]["apps"][0], Scheme.BASE, seeds[0], SMOKE_INSTRUCTIONS)

    def one_pass():
        records = wl.sim_pass(
            workload, seeds, after_cell=lambda r: host.pace(r["setup_s"] + r["run_s"])
        )
        tally.add(len(records), wl.check_cells(records, goldens))
        return records

    host.sample()
    passes = repeat_for(seconds, one_pass)
    summary = wl.sim_summary(passes, host.factor)
    metrics = {"ops_per_s": summary["ops_per_s"], "setup_s": summary["setup_s"]}
    if not trace:
        return metrics, {}

    budget = PARAMS[workload]["instructions"]
    base_calls = [0]

    def run_unit(cell, tracer):
        seed, app, scheme = cell
        before = invisispec_calls(tracer) if tracer is not None else 0
        record = wl.run_cell(suite, app, scheme, seed, budget)
        if tracer is not None and scheme is Scheme.BASE:
            base_calls[0] += invisispec_calls(tracer) - before
        return record

    # The first seed's cells: enough pairs, and a parsec-8core run with
    # tracing stays well inside its time limit.
    pairs = TracedPairs(wl.cells(workload, seeds[:1]), run_unit)
    tally.add(len(pairs.plain) + len(pairs.traced),
              wl.check_cells(pairs.plain + pairs.traced, goldens))
    neutral = list(pairs.failures)
    for mine, ref in zip(pairs.traced, pairs.plain):
        if mine["sha256"] != ref["sha256"]:
            neutral.append(
                f"tracing-neutrality: seed {mine['seed']} {mine['cell']} traced counters differ"
            )
    tally.add(1, neutral)
    WORK.mkdir(exist_ok=True)
    pairs.tracer.write(WORK / f"spans-{workload}.bin")

    first = pairs.traced[: pairs.first]
    layers = span_metrics(pairs.tracer)
    layers.update(wl.simulated_layers(first))
    layers.update(host_layers(summary, host))
    layers.update({k: v for k, v in summary.items() if k.startswith(("kips", "norm_time"))})
    run_s = statistics.median(
        sum(r["run_s"] for r in p if r["seed"] == seeds[0]) for p in passes
    )
    events = layers["sim.events.scheduled"]
    layers["sim.host_us_per_event"] = 1e6 * run_s / events if events else 0.0
    layers["invisispec.base_cell_calls"] = base_calls[0]
    layers["trace_overhead"] = pairs.overhead
    return metrics, layers


def run_fuzz(seeds, seconds, trace, tally, host):
    from perfbench import workloads as wl

    goldens = load_goldens().get("fuzz-campaign", {})
    WORK.mkdir(exist_ok=True)

    def checked(records, label=""):
        for record in records:
            failed, notes = wl.check_fuzz(record, goldens)
            tally.attempted += record["programs"]
            tally.failed += failed
            tally.notes.extend(label + note for note in notes)
        return records

    def one_pass():
        return checked(wl.fuzz_pass(
            seeds, WORK, after_campaign=lambda r: host.pace(r["setup_s"] + r["wall_s"])
        ))

    host.sample()
    passes = repeat_for(seconds, one_pass)
    runs = [record for records in passes for record in records]
    factor = host.factor
    per_s = sum(r["programs"] for r in runs) / sum(r["wall_s"] for r in runs)
    setup = statistics.median(sum(r["setup_s"] for r in p) for p in passes)
    metrics = {"ops_per_s": per_s / factor, "setup_s": setup * factor}
    if not trace:
        return metrics, {}

    # Workers run untraced (see spans.py), so a supervised campaign
    # yields the dispatch-side spans and serial ones the analysis spans.
    pool_tracer, pooled, restore = traced(
        lambda: checked([wl.fuzz_campaign(seeds[0], WORK)], "traced: ")[0]
    )
    pairs = TracedPairs(
        seeds, lambda seed, tracer: checked([wl.fuzz_campaign(seed, WORK, jobs=1)],
                                            "" if tracer is None else "traced: ")[0]
    )
    tally.add(1, restore + pairs.failures)
    pairs.tracer.write(WORK / "spans-fuzz-campaign.bin")

    first = pairs.traced[: pairs.first]
    layers = span_metrics(pairs.tracer)
    pool_layers = span_metrics(pool_tracer)
    layers.update(host_layers({"ops_per_s.raw": per_s, "setup_s.raw": setup}, host))
    layers.update({
        "reliability.spawn_s": pool_layers["reliability.spawn_s"],
        "reliability.spans": pool_layers["reliability.spans"] + layers["reliability.spans"],
        "reliability.dispatch_overhead_s": (
            pool_layers["reliability.engine_s"] - pooled["worker_s"] / pooled["jobs"]
        ),
        "programs_per_s": metrics["ops_per_s"],
        "fuzz.agree_ratio": sum(r["agree"] for r in first) / sum(r["programs"] for r in first),
        "trace_overhead": pairs.overhead,
    })
    return metrics, layers


def run_service(seeds, seconds, trace, tally, host):
    from perfbench import workloads as wl
    from repro.reliability.worker import cell_id_for
    from repro.configs import ConsistencyModel, Scheme

    store = WORK / "store"
    reference = {}

    def checked(session, label=""):
        failures = wl.check_service(session, reference)
        tally.add(len(session["plan"]), [label + f for f in failures])
        return session

    def one_pass():
        session = checked(wl.service_pass(seeds, store))
        host.pace(session["setup_s"] + session["wall_s"])
        return session

    host.sample()
    sessions = repeat_for(seconds, one_pass)
    summary = wl.service_summary(sessions, host.factor)
    metrics = {"ops_per_s": summary["ops_per_s"], "setup_s": summary["setup_s"]}
    if not trace:
        return metrics, {}

    pairs = TracedPairs(
        [seeds],
        lambda unit, tracer: checked(wl.service_pass(unit, store),
                                     "" if tracer is None else "traced: "),
    )
    tally.add(1, pairs.failures)
    tracer, session = pairs.tracer, pairs.traced[0]
    tracer.write(WORK / "spans-service-mix.bin")

    layers = span_metrics(tracer)
    layers.update(host_layers(summary, host))
    layers.update({k: v for k, v in summary.items() if k not in metrics})
    layers["req_per_s"] = summary["ops_per_s"]
    worker_ms, lease_s = {}, []
    for index, future in tracer.futures:
        result = future.result()
        worker_ms[result.cell_id] = result.wall_ms
        lease_s.append(tracer.span_end[index] - tracer.span_start[index])
    overhead = []
    for (payload, repeats), response, latency in zip(
        session["plan"], session["responses"], session["latencies"]
    ):
        if repeats is None and not response.get("cached"):
            cell = cell_id_for("spec", payload["app"], Scheme(payload["scheme"]),
                               ConsistencyModel.TSO, payload["seed"])
            overhead.append(1000.0 * latency - worker_ms[cell])
    layers["service.pool.lease_s"] = statistics.median(lease_s) if lease_s else 0.0
    layers["service.overhead_ms"] = statistics.median(overhead) if overhead else 0.0
    layers["trace_overhead"] = pairs.overhead
    return metrics, layers


def measure(workload, seeds, seconds, trace, host):
    """One benchmark run; returns the result object."""
    tally = Tally()
    if workload in ("spec-1core", "parsec-8core"):
        metrics, layers = run_sim(workload, seeds, seconds, trace, tally, host)
    elif workload == "fuzz-campaign":
        metrics, layers = run_fuzz(seeds, seconds, trace, tally, host)
    else:
        metrics, layers = run_service(seeds, seconds, trace, tally, host)
    metrics["peak_rss_mb"] = peak_rss_mb()
    bench = spec()
    if trace:
        layers["failed_frac"] = tally.failed / max(1, tally.attempted)
        chosen = {m["name"]: (layers.get(m["name"], 0.0), m["unit"]) for m in bench["per_layer"]}
    else:
        chosen = {m["name"]: (metrics[m["name"]], m["unit"]) for m in bench["end_to_end"]}
    for note in tally.notes:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }


def stop_children():
    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout=5)


# ------------------------------------------------------------ record modes


def record_goldens():
    """Rewrite ``goldens.json`` from fresh runs; the only writer of goldens."""
    from perfbench import workloads as wl

    def cells(records):
        return {r["cell"]: {"sha256": r["sha256"], "retired": r["retired"]} for r in records}

    goldens = {"params": PARAMS, "smoke_instructions": SMOKE_INSTRUCTIONS}
    seeds = SEED_POOL + HELD_OUT_SEEDS
    for workload in wl.SIM_WORKLOADS:
        goldens[workload] = {
            str(seed): cells(wl.sim_pass(workload, [seed])) for seed in seeds
        }
    goldens["smoke"] = cells(
        wl.sim_pass("spec-1core", SEED_POOL[:1], instructions=SMOKE_INSTRUCTIONS)
    )
    WORK.mkdir(exist_ok=True)
    goldens["fuzz-campaign"] = {
        str(seed): {"summary_sha256": wl.fuzz_campaign(seed, WORK)["summary_sha256"]}
        for seed in seeds
    }
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")


def run_child(workload, seed, seconds, trace, held_out):
    """Run one workload in a fresh interpreter; returns its result or None."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--held-out"] if held_out else [])
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]
    except (IndexError, ValueError, KeyError):
        return None, None


def run_all(seconds, trace, held_out, seed):
    """Every workload in its own process; prints a table of metrics."""
    ok = True
    for workload in [w["name"] for w in spec()["workloads"]]:
        result, _ = run_child(workload, seed, seconds, trace, held_out)
        if result is None:
            print(f"{workload}: no result")
            ok = False
            continue
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


def record_baseline(seconds):
    """Rewrite ``baseline.json``: every workload on the first dev seed and
    on the held-out seed, untraced and traced."""
    baseline = {}
    for workload in [w["name"] for w in spec()["workloads"]]:
        for label, held_out in (("dev", False), ("held_out", True)):
            for trace in (0, 1):
                result, prov = run_child(workload, 0, seconds, trace, held_out)
                if result is None or not result["correct"]:
                    print(f"{workload} {label} trace={trace}: failed", file=sys.stderr)
                    return 1
                baseline.setdefault(workload, {}).setdefault(label, {"provenance": prov})
                baseline[workload][label][f"trace{trace}"] = {
                    name: m["value"] for name, m in result["metrics"].items()
                }
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--record-baseline", action="store_true")
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in PARAMS:
        parser.error(f"unknown workload {args.workload!r}")
    single = not (args.record or args.record_baseline or args.workload == "all")
    # The probe helpers fork before the simulator is imported.
    host = HostSpeed(parallel=workers(args.workload)) if single else None
    try:
        return dispatch(args, host)
    finally:
        if host is not None:
            host.close()
        stop_children()


def dispatch(args, host):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the simulator from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported {repro.__file__}, not this checkout's src/",
              file=sys.stderr)
        return 2
    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.record:
        record_goldens()
        return 0
    if args.record_baseline:
        return record_baseline(seconds)
    if host is None:
        return run_all(seconds, args.trace, args.held_out, args.seed)
    seeds = input_seeds(args.seed, args.held_out)
    prov = provenance(args.workload, args.seed, seeds, seconds, args.trace)
    result = measure(args.workload, seeds, seconds, args.trace, host)
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}"
     f"{'-held-out' if args.held_out else ''}.json").write_text(
        json.dumps({"provenance": prov, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
