"""Cross-cutting property-based tests on core data structures."""

import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.coherence.mesi import MESIState
from repro.cpu.branch import TournamentPredictor
from repro.cpu.isa import MicroOp, OpKind
from repro.cpu.lsq import LoadQueue, StoreQueue
from repro.cpu.rob import ROBEntry
from repro.mem.cache import CacheArray
from repro.params import CacheParams


def small_cache():
    return CacheArray(
        CacheParams(size_bytes=64 * 2 * 4, line_bytes=64, ways=2), MESIState.INVALID
    )


class TestCacheArrayProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "invalidate", "lookup"]),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=60,
        )
    )
    def test_occupancy_never_exceeds_capacity(self, operations):
        cache = small_cache()
        for op, line_idx in operations:
            line = line_idx * 64
            if op == "insert" and not cache.contains(line):
                cache.insert(line, MESIState.SHARED)
            elif op == "invalidate":
                cache.invalidate(line)
            else:
                cache.lookup(line)
            assert cache.occupancy <= 8
            # Resident lines are exactly the trackable set.
            assert len(set(cache.resident_lines())) == cache.occupancy

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=40))
    def test_inserted_line_is_resident_until_displaced(self, lines):
        cache = small_cache()
        for line_idx in lines:
            line = line_idx * 64
            if not cache.contains(line):
                cache.insert(line, MESIState.EXCLUSIVE)
            assert cache.contains(line)  # at least right after touch


class TestQueueProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(["LQ", "SQ"]),
        st.lists(
            st.sampled_from(["alloc", "retire", "squash"]), max_size=60
        ),
        st.randoms(use_true_random=False),
    )
    def test_lq_pointer_discipline(self, queue_kind, actions, rng):
        """Both queues keep their live entries in virtual-index order: the
        maintained list matches a slot-by-slot scan of ``head..tail`` and
        an independent model of allocations, retirements and squashes."""
        if queue_kind == "LQ":
            queue, kind = LoadQueue(4), OpKind.LOAD
        else:
            queue, kind = StoreQueue(4), OpKind.STORE
        model = []  # live entries, oldest first
        seq = 0
        for action in actions:
            if action == "alloc" and not queue.full:
                entry = ROBEntry(MicroOp(kind), seq, seq, False, 0)
                if queue_kind == "LQ":
                    model.append(queue.allocate(entry, epoch=0))
                else:
                    model.append(queue.allocate(entry))
                seq += 1
            elif action == "retire" and len(queue):
                assert queue.retire_head() is model.pop(0)
            elif action == "squash" and len(queue):
                target = rng.randrange(queue.head, queue.tail + 1)
                dropped = queue.squash_to(target)
                assert [e.index for e in dropped] == sorted(
                    (e.index for e in model if e.index >= target), reverse=True
                )
                model = [e for e in model if e.index < target]
            assert 0 <= len(queue) <= 4
            assert queue.head <= queue.tail
            live = queue.entries()
            scan = [queue.slot(i) for i in range(queue.head, queue.tail)]
            assert live == scan == model
            assert len(live) == len(queue)
            assert [e.index for e in live] == list(range(queue.head, queue.tail))
            assert queue.slot(queue.tail) is None
            assert queue.slot(queue.head - 1) is None

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=8))
    def test_sq_allocate_retire_roundtrip(self, n):
        sq = StoreQueue(8)
        entries = []
        for i in range(n):
            entries.append(sq.allocate(ROBEntry(MicroOp(OpKind.STORE), i, i,
                                                False, 0)))
        for expected in entries:
            assert sq.retire_head() is expected
        assert len(sq) == 0


class TestPredictorProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_history_restore_is_exact(self, outcomes):
        predictor = TournamentPredictor()
        for taken in outcomes:
            predicted, checkpoint = predictor.predict(0x400)
            history_before = checkpoint[0]
            predictor.squash_restore(checkpoint)
            assert predictor.global_history == history_before
            # Redo the prediction and train normally.
            predicted, checkpoint = predictor.predict(0x400)
            predictor.update(0x400, taken, checkpoint, predicted != taken)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.booleans(), min_size=50, max_size=300))
    def test_counters_stay_saturated(self, outcomes):
        predictor = TournamentPredictor()
        for taken in outcomes:
            _p, checkpoint = predictor.predict(0x404)
            predictor.update(0x404, taken, checkpoint, False)
        assert all(0 <= c <= 3 for c in predictor._local_counters)
        assert all(0 <= c <= 3 for c in predictor._global_counters)
        assert all(0 <= c <= 3 for c in predictor._choice_counters)
