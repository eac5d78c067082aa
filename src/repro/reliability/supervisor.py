"""Supervised parallel sweeps: a batch driver over the lease pool.

The :class:`Supervisor` runs a batch of experiment cells on a
:class:`~repro.reliability.pool.LeasePool` of ``jobs`` crash-isolated
workers, while the :class:`~repro.reliability.RunEngine` keeps owning
policy and persistence: seeds and budgets come from the engine's
:class:`~repro.reliability.RetryPolicy`, every attempt goes through the
same :class:`~repro.reliability.engine.CellAttempts` bookkeeping the
serial path uses, and outcomes land in the engine's
:class:`~repro.reliability.RunJournal`.  Worker supervision (heartbeats,
RSS ceiling, death detection, fd release) lives in the pool; the driver
only submits one lease per attempt and settles the lease futures from the
calling thread, so every journal write happens on that thread.

A crashed cell re-enters the normal seed-bump retry sequence — the
attempt index continues from the journaled count, never restarts — but a
cell that kills its worker :data:`QUARANTINE_CRASHES` times is
**quarantined**: journaled with status ``poisoned`` and reported as a gap
like any other degraded cell, so one poisonous cell cannot chew through
the whole pool.

SIGINT/SIGTERM trigger a **graceful drain**: queued leases are withdrawn,
in-flight cells finish (still under pool supervision), the journal is
flushed, and ``KeyboardInterrupt`` propagates — Ctrl-C never loses
completed work, and ``--resume`` picks up exactly where the drain
stopped.  A second signal aborts hard (workers SIGKILLed, journal kept).

Determinism: cells are submitted in spec order, retries derive only from
per-cell attempt indices, and results are merged back in spec order, so a
parallel sweep produces the same journal contents (modulo wall-clock
timing fields), figures, and tables as ``--jobs 1``.
"""

from __future__ import annotations

import queue
import signal
import sys
import time

from ..errors import WorkerCrashError
from .engine import CellAttempts, CellResult
from .pool import LeasePool

#: Worker deaths after which a cell (or service request) is quarantined
#: instead of retried.
QUARANTINE_CRASHES = 2

#: Pool counters the driver reports as its own.
_POOL_STATS = ("workers_spawned", "workers_crashed", "heartbeat_kills",
               "rss_kills")


class Supervisor:
    """Crash-isolated parallel executor for a batch of cell specs."""

    def __init__(
        self,
        jobs=1,
        max_rss=None,
        heartbeat_timeout=60.0,
        poll_interval=0.05,
        quarantine_crashes=QUARANTINE_CRASHES,
    ):
        self.jobs = max(1, int(jobs))
        self.max_rss = max_rss
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_interval = poll_interval
        self.quarantine_crashes = quarantine_crashes
        #: Lifecycle counters, exposed for tests and reporting.
        self.stats = dict.fromkeys(_POOL_STATS + ("cells_quarantined",), 0)
        self.drain_requested = False
        self.hard_abort = False
        self.drained = False
        self._old_handlers = {}

    # --------------------------------------------------------------- signals

    def request_drain(self):
        """Withdraw queued cells; finish in-flight cells; flush and stop.

        Idempotent; the second request (second Ctrl-C) escalates to a
        hard abort.  Safe to call from a signal handler or another
        thread — the run loop polls these flags every ``poll_interval``.
        """
        if self.drain_requested:
            self.hard_abort = True
        else:
            self.drain_requested = True

    def _on_signal(self, signum, frame):
        print(
            "[reliability] signal received: draining — in-flight cells "
            "finish, queued cells are left for --resume "
            "(signal again to abort hard)",
            file=sys.stderr,
        )
        self.request_drain()

    def _install_signal_handlers(self):
        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                self._old_handlers[sig] = signal.signal(sig, self._on_signal)
        except ValueError:
            # Not the main thread: drains can still be requested directly.
            self._old_handlers = {}

    def _restore_signal_handlers(self):
        for sig, handler in self._old_handlers.items():
            signal.signal(sig, handler)
        self._old_handlers = {}

    # ------------------------------------------------------------- execution

    def run_specs(self, engine, specs):
        """Execute ``specs`` on the pool; returns outcomes in spec order.

        The engine provides policy (seeds, budgets, retryability), the
        journal, resume semantics, and fault-schedule scoping; this
        method owns dispatch and deterministic merging.  Raises
        ``KeyboardInterrupt`` after a drain (completed work is journaled)
        and propagates nothing else from cell failures.
        """
        order = [spec.cell_id for spec in specs]
        outcomes = {}
        cells = []
        for spec in specs:
            cached = engine.cached_outcome(spec.cell_id)
            if cached is not None:
                outcomes[spec.cell_id] = cached
            else:
                cell = CellAttempts(engine, spec.cell_id, spec.seed)
                cells.append((spec, cell))

        if cells:
            self._execute(engine, cells, outcomes)

        completed = [outcomes[cid] for cid in order if cid in outcomes]
        engine.outcomes.extend(completed)
        if self.drained or self.hard_abort:
            raise KeyboardInterrupt(
                f"sweep drained: {len(completed)}/{len(order)} cells "
                f"journaled; re-run with --resume to continue"
            )
        return [outcomes[cid] for cid in order]

    def _execute(self, engine, cells, outcomes):
        self.drain_requested = False
        self.hard_abort = False
        self.drained = False
        pool = LeasePool(
            workers=min(self.jobs, len(cells)),
            max_rss=self.max_rss,
            heartbeat_timeout=self.heartbeat_timeout,
            poll_interval=self.poll_interval,
        )
        settled = queue.SimpleQueue()  # futures, in completion order
        leases = {}  # future -> (spec, CellAttempts, seed, max_cycles)

        def submit(spec, cell):
            index, seed, max_cycles = cell.next_attempt()
            future = pool.submit(
                spec,
                seed=seed,
                max_cycles=max_cycles,
                wall_clock_s=engine.wall_clock_s,
                attempt_index=index,
                schedule=engine.schedule_for(cell.cell_id),
            )
            leases[future] = (spec, cell, seed, max_cycles)
            future.add_done_callback(settled.put)

        self._install_signal_handlers()
        try:
            pool.start()
            for spec, cell in cells:
                submit(spec, cell)
            withdrawn = False
            while leases and not self.hard_abort:
                if self.drain_requested and not withdrawn:
                    withdrawn = True
                    for future in list(leases):
                        if future.cancel():
                            del leases[future]
                try:
                    future = settled.get(timeout=self.poll_interval)
                except queue.Empty:
                    continue
                if future not in leases:
                    continue  # withdrawn by the drain
                spec, cell, seed, max_cycles = leases.pop(future)
                outcome = self._settle(cell, future, seed, max_cycles)
                if outcome is not None:
                    outcomes[cell.cell_id] = outcome
                elif not self.drain_requested:
                    submit(spec, cell)
        finally:
            pool.close(kill=True)
            for key in _POOL_STATS:
                self.stats[key] += pool.stats[key]
            self._restore_signal_handlers()
        if self.drain_requested:
            self.drained = True

    def _settle(self, cell, future, seed, max_cycles):
        """Feed one finished lease to the cell's bookkeeping; returns the
        final outcome, or None when the cell should be retried."""
        try:
            payload = future.result()
        except WorkerCrashError as error:
            wall_ms = int(1000 * (time.monotonic() - future.dispatched_at))
            outcome = cell.crashed(
                seed, max_cycles, wall_ms, error, self.quarantine_crashes
            )
            if outcome is not None and outcome.status == "poisoned":
                self.stats["cells_quarantined"] += 1
            return outcome
        if payload.status == "ok":
            return cell.succeeded(
                payload.seed, payload.max_cycles, payload.wall_ms,
                payload.faults, CellResult(payload.metrics),
                payload.sanitizer_report,
            )
        retryable = payload.error is not None and (
            cell.engine.policy.is_retryable(payload.error)
        )
        return cell.failed(
            payload.seed, payload.max_cycles, payload.wall_ms, payload.faults,
            payload.error_class, payload.error_message, retryable,
        )
