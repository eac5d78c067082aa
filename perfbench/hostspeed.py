"""How fast this shared host runs Python right now.

The same simulator cell can take anywhere from 0.11 s to 0.31 s on a
shared 2-CPU host, depending on what other tenants do, and the level
drifts over minutes, so no estimator over one run's own timings stays
put.  A fixed reference workload timed between the measured units tracks
that drift: ``ops_per_s`` is reported per *reference second* (raw
seconds x ``REFERENCE_S`` / mean reference time), which slow phases
stretch on both sides of the ratio.

The reference runs in helper processes forked before the benchmark
imports the simulator, so nothing the code under test allocates, retains
or collects can move the probe.  A workload that keeps ``parallel``
worker processes busy is probed by that many helpers at once.

This module imports nothing from ``repro``.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time

clock = time.perf_counter

#: Seconds :func:`reference_work` takes on the host the bounds were set
#: on (2-CPU Xeon VM, Python 3.11): one *reference second* of work.
REFERENCE_S = 0.1

#: Share of the measured time the probe is given, spread over the run:
#: before each measured unit the probe runs until its total reaches this
#: share of the units' total (one sample at least).
PROBE_SHARE = 0.2


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def step(self, acc):
        return (self.value + acc) & 0xFFFF


def reference_work(n=60000):
    """Fixed interpreter-bound work, independent of the code under test:
    object allocation, attribute and dict access, calls, heap operations
    (the mix the simulator's own hot loop is made of)."""
    table, heap, acc = {}, [], 0
    for i in range(n):
        item = _Item(i, i * 3)
        table[i & 1023] = item
        acc = table.get((i * 7) & 1023, item).step(acc)
        heapq.heappush(heap, (acc, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


def _helper(conn):
    """A probe process: one :func:`reference_work` per request."""
    while conn.recv():
        reference_work()
        conn.send(True)


class HostSpeed:
    """Probe helpers, their samples, and the reference-second factor.

    Create it before the simulator is imported and :meth:`close` it when
    the run ends.
    """

    def __init__(self, parallel=1):
        self.samples = []
        self.measured = 0.0
        self._helpers = []
        if parallel == 1 and hasattr(os, "sched_setaffinity"):
            # In-process work and its probe share one CPU, so both see
            # the same neighbours.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        ctx = multiprocessing.get_context("fork")
        for _ in range(parallel):
            mine, theirs = ctx.Pipe()
            process = ctx.Process(target=_helper, args=(theirs,), daemon=True)
            process.start()
            theirs.close()
            self._helpers.append((process, mine))

    def sample(self):
        """Time one reference run on every helper at once."""
        started = clock()
        for _, conn in self._helpers:
            conn.send(True)
        for _, conn in self._helpers:
            conn.recv()
        self.samples.append(clock() - started)

    def pace(self, measured):
        """Account ``measured`` more seconds of measured work, then probe
        until the probe has had its share (one sample at least)."""
        self.measured += measured
        self.sample()
        while sum(self.samples) < PROBE_SHARE * self.measured:
            self.sample()

    def close(self):
        for process, conn in self._helpers:
            try:
                conn.send(False)
            except OSError:
                pass
            conn.close()
            process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join()
        self._helpers = []

    @property
    def factor(self):
        """Reference seconds per raw second over every sample so far."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)

    @property
    def mean_s(self):
        """Mean raw seconds of one reference sample."""
        return sum(self.samples) / len(self.samples)
