"""In-memory span tracer that wraps the public functions of each layer.

The benchmark measures end-to-end numbers with tracing off.  Its traced
units install wrappers around the layer entry points listed in
:mod:`perfbench.layers`, run the same fixed work again, and remove the
wrappers, so ``src/`` is never edited to get a per-layer split.

A span is ``(name, parent, start, end)`` held in four flat arrays; spans
are only written to disk when the pass ends.  The parent is whatever span
was current in the caller's context (a :class:`contextvars.ContextVar`),
so nesting is exact for plain calls and stays per-task under asyncio.
A layer's self time is its span minus the time its child spans cover
(:func:`self_times`); a name's busy time is the union of its spans'
intervals (:func:`busy_times`), which neither recursion nor overlapping
asyncio tasks can double count.

Worker processes forked while a tracer is installed get the original
functions back immediately after the fork, so they run untraced; their
spans are never recorded.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import time
from array import array

_clock = time.perf_counter

SPAN = "span"  # timed call; async functions get an awaiting wrapper
COUNT = "count"  # call counted, not timed
FUTURE = "future"  # call returns a concurrent Future; span ends when it resolves


class RestoreError(RuntimeError):
    """A patched attribute was not put back as it was found."""


class Tracer:
    """Spans and call counts recorded by wrappers it installs and removes."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {}
        #: ``(span index, future)`` for every FUTURE span
        self.futures = []
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._patches = []  # (owner, attr, original)
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # ----------------------------------------------------------- recording

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_span(self, name):
        """Start a span under the current one; returns ``(index, token)``."""
        index = len(self.span_start)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(self._current.get())
        self.span_end.append(0.0)
        self.span_start.append(_clock())
        return index, self._current.set(index)

    def close_span(self, index, token):
        self.span_end[index] = _clock()
        self._current.reset(token)

    def span_count(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            return 0
        return self.span_name.tolist().count(nid)

    def calls(self, name):
        """Calls seen under ``name``: spans plus counted calls."""
        return self.span_count(name) + self.counts.get(name, [0])[0]

    # ------------------------------------------------------------ wrappers

    def wrap(self, fn, name, kind=SPAN):
        """A wrapper around ``fn`` recording under ``name``."""
        tracer = self
        if kind == COUNT:
            cell = self.counts.setdefault(name, [0])

            def counted(*args, **kwargs):
                if tracer.active:
                    cell[0] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)
        if kind == FUTURE:

            def leased(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                index, token = tracer.open_span(name)
                try:
                    future = fn(*args, **kwargs)
                finally:
                    tracer._current.reset(token)
                tracer.futures.append((index, future))
                future.add_done_callback(
                    lambda _f, i=index: tracer.span_end.__setitem__(i, _clock())
                )
                return future

            return functools.wraps(fn)(leased)
        if inspect.iscoroutinefunction(fn):

            async def awaited(*args, **kwargs):
                if not tracer.active:
                    return await fn(*args, **kwargs)
                index, token = tracer.open_span(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close_span(index, token)

            return functools.wraps(fn)(awaited)

        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index, token = tracer.open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close_span(index, token)

        return functools.wraps(fn)(spanned)

    def install(self, targets):
        """Patch every ``(owner, attr, name, kind)`` target in place.

        Only attributes the owner defines itself are patched, so putting
        the original back restores exactly what was there.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, name, kind in targets:
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(original, name, kind))
                self._patches.append((owner, attr, original))
        except BaseException:
            self._put_back()
            raise
        self.active = True

    def uninstall(self):
        """Put every patched attribute back; raise if any is not restored."""
        self.active = False
        patches = list(self._patches)
        self._put_back()
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in patches
            if vars(owner).get(attr) is not original
        ]
        if wrong:
            raise RestoreError(f"not restored: {', '.join(wrong)}")

    def _put_back(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _after_fork_in_child(self):
        # A forked worker must run the untouched code: its spans could
        # never reach this process, and the wrappers would only slow it.
        self.active = False
        self._put_back()

    # ------------------------------------------------------------- output

    def spans(self):
        """The recorded spans as ``(names, parents, starts, ends)`` lists."""
        return (
            [self.names[i] for i in self.span_name],
            self.span_parent.tolist(),
            self.span_start.tolist(),
            self.span_end.tolist(),
        )

    def write(self, path):
        """Write the spans and counts: a JSON header line, then the arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "arrays": ["name:i32", "parent:i32", "start:f64", "end:f64"],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (
                self.span_name, self.span_parent, self.span_start, self.span_end,
            ):
                column.tofile(handle)


def covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def busy_times(names, starts, ends):
    """Seconds during which at least one span of each name was open."""
    by_name = {}
    for name, start, end in zip(names, starts, ends):
        by_name.setdefault(name, []).append((start, end))
    return {name: covered(spans) for name, spans in by_name.items()}


def self_times(names, parents, starts, ends):
    """Per name: Σ over its spans of (span − what its children cover).

    Children are clipped to their parent, and overlapping children (two
    asyncio tasks under one span) are counted once.
    """
    children = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    totals = {}
    for index, name in enumerate(names):
        start, end = starts[index], ends[index]
        kids = children.get(index)
        inner = 0.0
        if kids:
            inner = covered(
                (max(start, starts[k]), min(end, ends[k]))
                for k in kids
                if ends[k] > start and starts[k] < end
            )
        totals[name] = totals.get(name, 0.0) + (end - start) - inner
    return totals
