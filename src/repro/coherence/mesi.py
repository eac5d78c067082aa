"""MESI cache-line states.

The private L1s hold lines in M/E/S/I.  The shared L2 is inclusive and its
directory tracks, per line, the set of L1 sharers and the single L1 owner
(a core holding the line in M or E).
"""

from __future__ import annotations

import enum


class MESIState(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    def __init__(self, value):
        # Plain member attributes: every cache access asks these.
        self.readable = value != "I"
        self.writable = value in ("M", "E")
        self.dirty = value == "M"
