"""Deterministic synthetic trace generation from a workload profile.

The generator emits an endless correct-path stream whose statistics follow
the profile, plus wrong-path streams for mispredicted branches (derived
deterministically from the branch op's identity, so a given branch always
spills the same transient instructions).

Memory layout per core (core *c*):

* random region   — ``0x1000_0000 * (c+1)``: ``footprint_lines`` lines
  spread over ``pages`` pages; a ``hot_lines`` prefix takes
  ``hot_fraction`` of the non-streaming accesses.
* streaming region — above the random region; unit-stride walk, wraps.
* shared region   — ``0x7000_0000`` (PARSEC): common to all cores, source
  of cross-core invalidations and consistency squashes.
"""

from __future__ import annotations

import random

from ..cpu.isa import MicroOp, OpKind
from ..cpu.trace import TraceSource

_STREAM_LINES = 1 << 16  # 4 MB streaming window, larger than the L2 slice
_SHARED_BASE = 0x7000_0000
_LINE = 64


class SyntheticTrace(TraceSource):
    """Endless profile-driven instruction stream for one core."""

    def __init__(self, profile, seed=0, core_id=0):
        self.profile = profile
        self.core_id = core_id
        self.rng = random.Random((seed + 1) * 0x9E3779B1 + core_id)
        self._base = 0x1000_0000 * (core_id + 1)
        self._stream_base = self._base + 0x0800_0000
        self._stream_pos = 0
        self._lines_per_page = 4096 // _LINE
        self._recent_pages = []  # small working set of recently-touched pages
        self._branch_bias = self._make_branch_biases(profile, seed, core_id)
        self._ops_since_load = 99
        self._emitted = 0
        self._forced = []  # queued ops (critical sections)
        self._sync_countdown = profile.sync_interval or 0
        self._wp_seed_base = (seed + 1) * 2_654_435_761 + core_id * 97
        self._branch_salts = {}  # branch op uid -> emission index
        self._branches_emitted = 0
        # Op-kind thresholds on one uniform draw, summed once.
        self._load_below = profile.load_frac
        self._store_below = profile.load_frac + profile.store_frac
        self._branch_below = (
            profile.load_frac + profile.store_frac + profile.branch_frac
        )

    @staticmethod
    def _make_branch_biases(profile, seed, core_id):
        """Per-PC taken bias; the tournament predictor's asymptotic
        misprediction rate on a bias-b Bernoulli branch is ~min(b, 1-b)."""
        rng = random.Random(seed * 7919 + core_id + 13)
        target = profile.branch_mispredict_target
        biases = {}
        for i in range(profile.branch_pcs):
            pc = 0x40_0000 + 4 * i
            jitter = (rng.random() - 0.5) * min(target, 0.08)
            bias = min(max(1.0 - target + jitter, 0.5), 1.0)
            if rng.random() < 0.5:
                bias = 1.0 - bias  # mostly-not-taken branches
            biases[pc] = bias
        return biases

    # ------------------------------------------------------------- addresses

    _RECENT_PAGE_WINDOW = 48

    def _random_region_addr(self, rng, track_pages=True):
        """``track_pages=False`` for wrong-path generation: transient ops
        must not mutate generator state, or the committed stream would
        differ between schemes."""
        profile = self.profile
        if rng.random() < profile.hot_fraction:
            line = rng.randrange(min(profile.hot_lines, profile.footprint_lines))
        else:
            recent = self._recent_pages
            if recent and rng.random() < profile.tlb_locality:
                page = recent[rng.randrange(len(recent))]
                line = page * self._lines_per_page + rng.randrange(
                    self._lines_per_page
                )
                if line >= profile.footprint_lines:
                    line = rng.randrange(profile.footprint_lines)
            else:
                line = rng.randrange(profile.footprint_lines)
            if track_pages:
                page = line // self._lines_per_page
                if page not in recent:
                    recent.append(page)
                    if len(recent) > self._RECENT_PAGE_WINDOW:
                        recent.pop(0)
        return self._base + line * _LINE + 8 * rng.randrange(8)

    def _stream_addr(self):
        """Unit-stride 8-byte walk: one new line every 8 accesses, which is
        what produces streaming MPKIs in the paper's ~30/kilo-instruction
        range (Section IX-B) rather than a miss per access."""
        addr = self._stream_base + (self._stream_pos * 8) % (_STREAM_LINES * _LINE)
        self._stream_pos += 1
        return addr

    def _shared_addr(self, rng):
        line = rng.randrange(self.profile.shared_lines)
        return _SHARED_BASE + line * _LINE + 8 * rng.randrange(8)

    def _memory_addr(self, rng, allow_shared=True):
        profile = self.profile
        if allow_shared and profile.shared_fraction and (
            rng.random() < profile.shared_fraction
        ):
            return self._shared_addr(rng), True
        if profile.stride_fraction and rng.random() < profile.stride_fraction:
            return self._stream_addr(), False
        return self._random_region_addr(rng), False

    # ------------------------------------------------------------ correct path

    def next_op(self):
        if self._forced:
            return self._forced.pop(0)
        rng = self.rng
        self._emitted += 1

        sync_interval = self.profile.sync_interval
        if sync_interval:
            self._sync_countdown -= 1
            if self._sync_countdown <= 0:
                self._sync_countdown = sync_interval
                self._queue_critical_section(rng)
                return self._forced.pop(0)

        r = rng.random()
        if r < self._load_below:
            return self._make_load(rng)
        if r < self._store_below:
            return self._make_store(rng)
        if r < self._branch_below:
            return self._make_branch(rng)
        return self._make_alu(rng)

    def _make_load(self, rng):
        addr, _shared = self._memory_addr(rng)
        deps = ()
        if (
            self.profile.load_dep_fraction
            and self._ops_since_load < 8
            and rng.random() < self.profile.load_dep_fraction
        ):
            # Pointer chase: address generation waits for the last load.
            deps = (self._ops_since_load + 1,)
        self._ops_since_load = 0
        return MicroOp(
            OpKind.LOAD,
            pc=0x10_0000 + 4 * rng.randrange(4096),
            addr=addr,
            size=8,
            deps=deps,
        )

    def _make_store(self, rng):
        addr, _shared = self._memory_addr(rng)
        return MicroOp(
            OpKind.STORE,
            pc=0x20_0000 + 4 * rng.randrange(4096),
            addr=addr,
            size=8,
            store_value=rng.randrange(1 << 16),
        )

    def _make_branch(self, rng):
        profile = self.profile
        pc = 0x40_0000 + 4 * rng.randrange(profile.branch_pcs)
        taken = rng.random() < self._branch_bias[pc]
        deps = ()
        if (
            self._ops_since_load < 8
            and rng.random() < profile.branch_dep_fraction
        ):
            deps = (self._ops_since_load + 1,)
        self._ops_since_load += 1
        op = MicroOp(OpKind.BRANCH, pc=pc, taken=taken, deps=deps, latency=2)
        self._branch_salts[op.uid] = self._branches_emitted
        self._branches_emitted += 1
        return op

    def _make_alu(self, rng):
        profile = self.profile
        deps = ()
        if self._ops_since_load < 8 and rng.random() < profile.alu_dep_fraction:
            deps = (self._ops_since_load + 1,)
        self._ops_since_load += 1
        kind = OpKind.FP if rng.random() < profile.fp_fraction else OpKind.ALU
        latency = 3 if kind is OpKind.FP else 1
        return MicroOp(
            kind, pc=0x30_0000 + 4 * rng.randrange(4096), deps=deps, latency=latency
        )

    def _queue_critical_section(self, rng):
        """acquire; shared load; shared store; release."""
        addr = self._shared_addr(rng)
        line_addr = addr & ~(_LINE - 1)
        self._forced.extend(
            [
                MicroOp(OpKind.ACQUIRE, pc=0x50_0000),
                MicroOp(OpKind.LOAD, pc=0x50_0004, addr=line_addr, size=8),
                MicroOp(
                    OpKind.STORE,
                    pc=0x50_0008,
                    addr=line_addr,
                    size=8,
                    store_value=rng.randrange(1 << 16),
                ),
                MicroOp(OpKind.RELEASE, pc=0x50_000C),
            ]
        )

    # -------------------------------------------------------------- wrong path

    def wrong_path_op(self, branch_op, index):
        """Transient instructions past a mispredicted branch.

        Deterministic in (branch identity, index): re-encountering the same
        dynamic branch produces the same transient stream.
        """
        if index >= 48:
            return None  # deep enough for any realistic resolve window
        # Seed from the branch's emission index, not its global op uid:
        # transient streams must be identical regardless of how many other
        # traces were built in the process.
        salt = self._branch_salts.get(branch_op.uid, 0)
        rng = random.Random(self._wp_seed_base + salt * 1_000_003 + index)
        profile = self.profile
        r = rng.random()
        # Wrong paths are load-richer than average: the squashed side of a
        # branch typically touches data the correct path does not.
        if r < profile.load_frac + 0.10:
            # Random-region only, no state tracking: wrong-path generation
            # must not perturb the correct-path stream (streaming pointer,
            # recent pages), or the committed stream would differ across
            # schemes.
            addr = self._random_region_addr(rng, track_pages=False)
            return MicroOp(
                OpKind.LOAD,
                pc=0x60_0000 + 4 * rng.randrange(1024),
                addr=addr,
                size=8,
            )
        if r < profile.load_frac + 0.10 + profile.branch_frac:
            pc = 0x40_0000 + 4 * rng.randrange(profile.branch_pcs)
            return MicroOp(
                OpKind.BRANCH,
                pc=pc,
                taken=rng.random() < self._branch_bias[pc],
                latency=2,
            )
        return MicroOp(OpKind.ALU, pc=0x60_4000 + 4 * rng.randrange(1024))
