"""Lease pool: per-task futures, crash attribution, deadlines, fd hygiene.

Same trick as the supervisor tests: ``repro.runner.run_spec`` is
monkeypatched with small fakes and the fork start method carries the
patch into real worker processes.
"""

import gc
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.runner
from repro.configs import ConsistencyModel, Scheme
from repro.errors import WorkerCrashError
from repro.reliability import (
    CellSpec,
    LeasePool,
    PoolClosedError,
    RetryPolicy,
    RunEngine,
    RunJournal,
    Supervisor,
)


def _cell(app, **kwargs):
    return CellSpec("spec", app, Scheme.BASE, ConsistencyModel.TSO, **kwargs)


class _FakeCounters:
    def __init__(self, values):
        self._values = values

    def as_dict(self):
        return dict(self._values)


class _FakeResult:
    def __init__(self, seed):
        self.cycles = 1000 + seed
        self.instructions = 500
        self.traffic_bytes = 64
        self.traffic_breakdown = {"data": 64}
        self.counters = _FakeCounters({"fake.counter": 1})
        self.sanitizer_report = None

    def count(self, name):
        return 1 if name == "fake.counter" else 0


def _fake_ok(app, config, seed=0, **kwargs):
    return _FakeResult(seed)


def _kill_on_seed0(app, config, seed=0, **kwargs):
    if seed == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return _FakeResult(seed)


def _always_kill(app, config, seed=0, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


def _stall(app, config, seed=0, **kwargs):
    time.sleep(30)


@pytest.fixture
def pool():
    pools = []

    def make(**kwargs):
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("heartbeat_timeout", 30.0)
        kwargs.setdefault("poll_interval", 0.01)
        p = LeasePool(**kwargs).start()
        pools.append(p)
        return p

    yield make
    for p in pools:
        p.close(kill=True)


class TestLeasing:
    def test_leases_resolve_to_attempt_results(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)
        p = pool()
        futures = [p.submit(_cell("mcf"), seed=s) for s in (0, 7, 13)]
        results = [f.result(timeout=30) for f in futures]
        assert [r.status for r in results] == ["ok"] * 3
        # The seed reached the worker: the fake encodes it in cycles.
        assert [r.metrics["cycles"] for r in results] == [1000, 1007, 1013]
        assert p.stats["leases_completed"] == 3

    def test_submit_to_unstarted_or_closed_pool_fails_fast(self):
        p = LeasePool(workers=1)
        with pytest.raises(PoolClosedError):
            p.submit(_cell("mcf")).result(timeout=5)
        p.start()
        p.close(kill=True)
        with pytest.raises(PoolClosedError):
            p.submit(_cell("mcf")).result(timeout=5)

    def test_worker_crash_fails_only_its_lease(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _kill_on_seed0)
        p = pool()
        doomed = p.submit(_cell("mcf"), seed=0)
        fine = p.submit(_cell("hmmer"), seed=5)
        with pytest.raises(WorkerCrashError):
            doomed.result(timeout=30)
        assert fine.result(timeout=30).status == "ok"
        # Caller-side retry with a bumped seed lands on a fresh worker.
        retry = p.submit(_cell("mcf"), seed=9973)
        assert retry.result(timeout=30).status == "ok"
        assert p.stats["workers_crashed"] == 1
        assert p.stats["workers_spawned"] == 3  # 2 initial + 1 respawn

    def test_pool_replenishes_across_repeated_crashes(
        self, pool, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _kill_on_seed0)
        p = pool(workers=2)
        for _ in range(4):
            with pytest.raises(WorkerCrashError):
                p.submit(_cell("mcf"), seed=0).result(timeout=30)
        assert p.submit(_cell("mcf"), seed=1).result(timeout=30).status == "ok"
        assert p.stats["workers_crashed"] == 4

    def test_heartbeat_stall_kills_the_lease(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _stall)
        p = pool(heartbeat_timeout=0.4)
        with pytest.raises(WorkerCrashError) as err:
            p.submit(_cell("mcf")).result(timeout=30)
        assert err.value.kind == "heartbeat"
        assert p.stats["heartbeat_kills"] == 1

    def test_deadline_soft_path_fires_in_worker(self, pool, monkeypatch):
        # wall_clock_s reaches the worker as a WallClockGuard: the run
        # fails with a retryable SimTimeoutError, no SIGKILL involved.
        def slow_sim(app, config, seed=0, watchdog=None, **kwargs):
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if watchdog is not None:
                    watchdog(0)
                time.sleep(0.01)
            return _FakeResult(seed)

        monkeypatch.setattr(repro.runner, "run_spec", slow_sim)
        p = pool()
        result = p.submit(
            _cell("mcf"), deadline=time.monotonic() + 0.3
        ).result(timeout=30)
        assert result.status == "failed"
        assert result.error_class == "SimTimeoutError"
        assert RetryPolicy().is_retryable(result.error)
        assert p.stats["deadline_kills"] == 0  # backstop never needed

    def test_deadline_hard_backstop_kills_wedged_worker(
        self, pool, monkeypatch
    ):
        # A worker that ignores its watchdog entirely hits the pool-side
        # SIGKILL backstop: the lease fails instead of hanging forever.
        monkeypatch.setattr(repro.runner, "run_spec", _stall)
        p = pool(deadline_grace=0.2)
        with pytest.raises(WorkerCrashError) as err:
            p.submit(
                _cell("mcf"), deadline=time.monotonic() + 0.3
            ).result(timeout=30)
        assert err.value.kind == "deadline"
        assert p.stats["deadline_kills"] == 1

    def test_expired_deadline_fails_before_dispatch(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _stall)
        p = pool(workers=1, deadline_grace=0.2)
        blocker = p.submit(_cell("mcf"), deadline=time.monotonic() + 0.5)
        queued = p.submit(_cell("hmmer"), deadline=time.monotonic() + 0.1)
        with pytest.raises(WorkerCrashError) as err:
            queued.result(timeout=30)
        assert err.value.kind == "deadline"
        with pytest.raises(WorkerCrashError):
            blocker.result(timeout=30)

    def test_close_kill_fails_inflight_leases(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _stall)
        p = pool(workers=1)
        inflight = p.submit(_cell("mcf"))
        queued = p.submit(_cell("hmmer"))
        time.sleep(0.2)  # let the first lease dispatch
        p.close(kill=True)
        with pytest.raises(WorkerCrashError) as err:
            inflight.result(timeout=5)
        assert err.value.kind == "shutdown"
        with pytest.raises(PoolClosedError):
            queued.result(timeout=5)

    def test_idle_pool_wakes_on_submit_and_close(self, pool, monkeypatch):
        # The supervisor's wait is woken by submit() and close(), not
        # by its poll timeout.
        monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)
        p = pool(poll_interval=5.0)
        time.sleep(0.2)  # let the supervisor settle into an idle wait
        started = time.monotonic()
        assert p.submit(_cell("mcf")).result(timeout=30).status == "ok"
        assert time.monotonic() - started < 2.0
        started = time.monotonic()
        p.close()
        assert time.monotonic() - started < 2.0

    def test_cancel_withdraws_only_queued_leases(
        self, pool, monkeypatch, tmp_path
    ):
        def marking_sim(app, config, seed=0, **kwargs):
            (tmp_path / app).touch()
            time.sleep(0.5)
            return _FakeResult(seed)

        monkeypatch.setattr(repro.runner, "run_spec", marking_sim)
        p = pool(workers=1)
        inflight = p.submit(_cell("mcf"))
        queued = p.submit(_cell("hmmer"))
        time.sleep(0.2)  # the first lease is on the worker by now
        assert not inflight.cancel()
        assert queued.cancel()
        assert inflight.result(timeout=30).status == "ok"
        # FIFO dispatch: a later lease completing proves the withdrawn
        # one was skipped, not merely discarded after running.
        assert p.submit(_cell("bzip2")).result(timeout=30).status == "ok"
        assert not (tmp_path / "hmmer").exists()
        assert p.stats["leases_completed"] == 2

    def test_enforce_kill_respawns_before_failing_lease(
        self, pool, monkeypatch
    ):
        # Like a death found by _reap, a heartbeat kill puts the fresh
        # worker in place before the lease's caller hears of the failure.
        monkeypatch.setattr(repro.runner, "run_spec", _stall)
        p = pool(workers=1, heartbeat_timeout=0.4)
        future = p.submit(_cell("mcf"))
        spawned_at_failure = []
        future.add_done_callback(
            lambda f: spawned_at_failure.append(p.stats["workers_spawned"])
        )
        with pytest.raises(WorkerCrashError) as err:
            future.result(timeout=30)
        assert err.value.kind == "heartbeat"
        assert spawned_at_failure == [2]

    def test_snapshot_is_json_shaped(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)
        p = pool()
        p.submit(_cell("mcf")).result(timeout=30)
        snap = p.snapshot()
        assert len(snap["workers"]) == 2
        assert snap["backlog"] == 0
        assert snap["stats"]["leases_completed"] == 1


def _open_fds():
    gc.collect()
    return len(os.listdir("/proc/self/fd"))


class TestFdHygiene:
    def test_no_fd_growth_across_quarantines(self, tmp_path, monkeypatch):
        """50 quarantined cells (one worker SIGKILL each) must not grow
        the supervisor process's fd table: pipes and process handles are
        released at reap time, not left to garbage-collector timing."""
        monkeypatch.setattr(repro.runner, "run_spec", _always_kill)
        # Warm-up run: first multiprocessing use opens persistent fds
        # (resource tracker, /dev/shm arena) that are not per-quarantine.
        sup = Supervisor(
            jobs=2, heartbeat_timeout=30.0, poll_interval=0.01,
            quarantine_crashes=1,
        )
        engine = RunEngine(
            journal=RunJournal(tmp_path / "warm.json"),
            policy=RetryPolicy(max_attempts=1),
            supervisor=sup,
        )
        engine.run_specs([_cell("warmup")])

        before = _open_fds()
        sup = Supervisor(
            jobs=2, heartbeat_timeout=30.0, poll_interval=0.01,
            quarantine_crashes=1,
        )
        engine = RunEngine(
            journal=RunJournal(tmp_path / "j.json"),
            policy=RetryPolicy(max_attempts=1),
            supervisor=sup,
        )
        outcomes = engine.run_specs([_cell(f"app{i}") for i in range(50)])
        assert sup.stats["cells_quarantined"] == 50
        assert all(o.status == "poisoned" for o in outcomes)
        after = _open_fds()
        assert after <= before + 2, (
            f"fd table grew from {before} to {after} across 50 quarantines"
        )

    def test_lease_pool_releases_fds_across_crashes(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _kill_on_seed0)
        p = pool(workers=2)
        with pytest.raises(WorkerCrashError):
            p.submit(_cell("warmup"), seed=0).result(timeout=30)
        before = _open_fds()
        for _ in range(20):
            with pytest.raises(WorkerCrashError):
                p.submit(_cell("mcf"), seed=0).result(timeout=30)
        after = _open_fds()
        assert after <= before + 2, (
            f"fd table grew from {before} to {after} across 20 crashes"
        )


_ORPHAN_PARENT = """
import multiprocessing, sys, time
from repro.reliability import LeasePool
pool = LeasePool(workers=2).start()
print(*(child.pid for child in multiprocessing.active_children()), flush=True)
time.sleep(120)
"""


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


class TestOrphans:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="needs /proc"
    )
    def test_workers_exit_after_pool_process_is_killed(self):
        parent = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_PARENT],
            stdout=subprocess.PIPE, text=True,
        )
        pids = []
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2 and all(_running(pid) for pid in pids)
            parent.kill()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(map(_running, pids)):
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)], (
                "pool workers outlived their SIGKILLed pool process"
            )
        finally:
            parent.kill()
            parent.stdout.close()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
