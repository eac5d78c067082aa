"""Load queue and store queue.

The LQ mirrors the paper's Figure 3: each entry carries the status bits
Valid, Performed, State (E/V/C/N) and Prefetch, and maps one-to-one onto a
Speculative Buffer entry (the SB itself lives in
:mod:`repro.invisispec.sb`).  Entries are identified by a monotonically
increasing *virtual index*; ``index % capacity`` is the physical slot, so
allocating, retiring from the head, and squashing from the tail are pointer
moves — exactly the property the paper exploits for the SB design.

The queues keep their live entries (virtual indices ``head..tail-1``) in
one oldest-first list, so the program-order walks behind validations,
exposures and forwarding start from a single C-level copy.
"""

from __future__ import annotations

from ..errors import SimulationError
from .isa import OpKind

#: LQ-entry State bits (Section VI-A1).
STATE_EXPOSURE = "E"  # requires an exposure at the visibility point
STATE_VALIDATION = "V"  # requires a validation at the visibility point
STATE_COMPLETE = "C"  # exposure or validation has completed
STATE_NORMAL = "N"  # invisible speculation not necessary
#: Extra state (this implementation): a USL whose D-TLB miss deferred it to
#: its visibility point (Section VI-E3); it becomes N when it issues.
STATE_DEFERRED = "D"


class LoadQueueEntry:
    """One in-flight load (or software prefetch)."""

    __slots__ = (
        "index",
        "rob",
        "seq",
        "addr",
        "size",
        "line_addr",
        "valid",
        "performed",
        "vstate",
        "prefetch",
        "issued",
        "visibility_issued",
        "visibility_done",
        "validation_inflight",
        "forwarded",
        "deferred_tlb",
        "epoch",
        "issue_cycle",
        "visibility_issue_cycle",
    )

    def __init__(self, index, rob_entry, epoch):
        self.index = index
        self.rob = rob_entry
        self.seq = rob_entry.seq
        self.addr = None
        self.size = 0
        self.line_addr = None
        self.valid = True
        self.performed = False
        self.vstate = None  # one of the STATE_* constants once issued
        self.prefetch = rob_entry.op.kind is OpKind.PREFETCH
        self.issued = False
        self.visibility_issued = False
        self.visibility_done = False
        self.validation_inflight = False
        self.forwarded = False
        self.deferred_tlb = False
        self.epoch = epoch
        self.issue_cycle = None
        self.visibility_issue_cycle = None

    @property
    def needs_visibility_action(self):
        """USL that has not yet issued its validation/exposure."""
        return (
            self.valid
            and self.vstate in (STATE_EXPOSURE, STATE_VALIDATION)
            and not self.visibility_issued
        )

    def __repr__(self):
        return (
            f"LQEntry(idx={self.index}, seq={self.seq}, addr={self.addr}, "
            f"state={self.vstate}, performed={self.performed})"
        )


class StoreQueueEntry:
    """One in-flight store (pre-commit)."""

    __slots__ = ("index", "rob", "seq", "addr", "size", "value", "addr_resolved")

    def __init__(self, index, rob_entry):
        self.index = index
        self.rob = rob_entry
        self.seq = rob_entry.seq
        self.addr = None
        self.size = 0
        self.value = 0
        self.addr_resolved = False


class _CircularQueue:
    """Virtual-index queue shared by the LQ and SQ.

    ``_live[i]`` is the entry with virtual index ``head + i``: allocation
    appends, retirement pops the front and a squash pops the back, so the
    list order is always the virtual-index (program) order.
    """

    def __init__(self, capacity, name):
        self.capacity = capacity
        self.name = name
        self.head = 0  # oldest live virtual index
        self.tail = 0  # next virtual index to allocate
        self._live = []

    def __len__(self):
        return self.tail - self.head

    @property
    def full(self):
        return self.tail - self.head >= self.capacity

    def slot(self, index):
        if not self.head <= index < self.tail:
            return None
        return self._live[index - self.head]

    def entries(self):
        """Live entries oldest-first (a copy: callers may squash mid-walk)."""
        return self._live[:]

    def _allocate_slot(self, entry):
        if self.tail - self.head >= self.capacity:
            raise SimulationError(f"{self.name} overflow; caller must check full")
        self._live.append(entry)
        self.tail += 1

    def retire_head(self):
        if self.tail == self.head:
            raise SimulationError(f"retiring from empty {self.name}")
        self.head += 1
        return self._live.pop(0)

    def squash_to(self, new_tail):
        """Drop entries with virtual index >= ``new_tail``; returns them,
        youngest first."""
        keep = max(new_tail, self.head) - self.head
        live = self._live
        dropped = live[keep:]
        dropped.reverse()
        del live[keep:]
        self.tail = self.head + len(live)
        return dropped


class LoadQueue(_CircularQueue):
    """The LQ; its virtual indices double as SB entry indices."""

    def __init__(self, capacity):
        super().__init__(capacity, "LQ")

    def allocate(self, rob_entry, epoch):
        entry = LoadQueueEntry(self.tail, rob_entry, epoch)
        self._allocate_slot(entry)
        rob_entry.lq_entry = entry
        return entry

    def loads_to_line(self, line_addr):
        """Live entries whose resolved address maps to ``line_addr``."""
        return [e for e in self._live if e.line_addr == line_addr]

    def older_pending_request(self, entry, line_addr):
        """Youngest *earlier* (program order) USL to the same line whose
        Spec-GetS will (or did) fill an SB entry — the SB-copy reuse case of
        Section V-E.  Never returns a younger load (Section VII), and never
        a deferred/normal load, which does not fill the SB."""
        best = None
        index = entry.index
        for other in self._live:
            if other.index >= index:
                break
            if (
                other.valid
                and other.issued
                and other.line_addr == line_addr
                and other.vstate in (STATE_EXPOSURE, STATE_VALIDATION)
                and not other.forwarded
            ):
                best = other
        return best


class StoreQueue(_CircularQueue):
    def __init__(self, capacity):
        super().__init__(capacity, "SQ")

    def allocate(self, rob_entry):
        entry = StoreQueueEntry(self.tail, rob_entry)
        self._allocate_slot(entry)
        rob_entry.sq_entry = entry
        return entry

    def forwarding_store(self, load_seq, addr, size):
        """Youngest older store that fully covers [addr, addr+size)."""
        best = None
        end = addr + size
        for entry in self._live:
            if entry.seq >= load_seq:
                break
            if (
                entry.addr_resolved
                and entry.addr <= addr
                and end <= entry.addr + entry.size
            ):
                best = entry
        return best

    def unresolved_older_than(self, load_seq):
        """True if an older store still has an unresolved address.

        A conventional core lets the load issue anyway (memory-dependence
        speculation) and squashes on a later alias — the Speculative Store
        Bypass surface of Section IV.
        """
        for entry in self._live:
            if entry.seq >= load_seq:
                break
            if not entry.addr_resolved:
                return True
        return False
