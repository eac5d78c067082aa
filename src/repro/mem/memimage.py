"""Global memory image: the architectural contents of memory.

The simulator separates *where* a line physically lives (cache arrays,
speculative buffers) from *what* the coherent value of memory is.  A store
updates the image at the instant it performs (merges into the cache and
becomes observable, Section II-B); a load reads the image at the instant its
data response is generated.  Each line also carries a version counter so
InvisiSpec validations can cheaply detect "the bytes I read have since
changed" while still implementing true value-based comparison (an ABA
sequence of writes that restores the original bytes passes validation,
Section VI-E4).
"""

from __future__ import annotations

from ..errors import SimulationError


class MemoryImage:
    """Sparse memory: one ``bytearray`` per touched line, plus per-line
    version counters.  Untouched bytes read as zero."""

    def __init__(self, address_space):
        self.space = address_space
        self._line_bytes = address_space.line_bytes
        self._lines = {}  # line_addr -> bytearray(line_bytes)
        self._versions = {}  # line_addr -> int
        self.stat_reads = 0
        self.stat_writes = 0

    def _get(self, addr, size):
        """The ``size`` bytes at ``addr``; one slice unless they straddle
        a line boundary."""
        line_bytes = self._line_bytes
        offset = addr & (line_bytes - 1)
        base = addr - offset
        if offset + size <= line_bytes:
            line = self._lines.get(base)
            return bytes(size) if line is None else line[offset:offset + size]
        parts = []
        while size > 0:
            chunk = min(size, line_bytes - offset)
            line = self._lines.get(base)
            parts.append(bytes(chunk) if line is None else line[offset:offset + chunk])
            size -= chunk
            base += line_bytes
            offset = 0
        return b"".join(parts)

    def _put(self, addr, data):
        line_bytes = self._line_bytes
        lines = self._lines
        offset = addr & (line_bytes - 1)
        base = addr - offset
        pos = 0
        while pos < len(data):
            chunk = min(len(data) - pos, line_bytes - offset)
            line = lines.get(base)
            if line is None:
                line = lines[base] = bytearray(line_bytes)
            line[offset:offset + chunk] = data[pos:pos + chunk]
            pos += chunk
            base += line_bytes
            offset = 0

    def _bump_versions(self, addr, size):
        versions = self._versions
        for line in self.space.lines_touched(addr, size):
            versions[line] = versions.get(line, 0) + 1

    def read_byte(self, addr):
        return self._get(addr, 1)[0]

    def read(self, addr, size):
        """Read ``size`` bytes little-endian as an unsigned integer."""
        self.stat_reads += 1
        return int.from_bytes(self._get(addr, size), "little")

    def read_bytes(self, addr, size):
        """Read ``size`` bytes as a tuple (used by validation comparison)."""
        return tuple(self._get(addr, size))

    def write(self, addr, size, value):
        """Write ``size`` bytes little-endian; bumps the line version(s)."""
        if value < 0:
            raise SimulationError(f"negative store value {value}")
        self.stat_writes += 1
        mask = (1 << (8 * size)) - 1
        self._put(addr, (value & mask).to_bytes(size, "little"))
        self._bump_versions(addr, size)

    def write_bytes(self, addr, data):
        """Write an iterable of byte values starting at ``addr``."""
        data = bytes(byte & 0xFF for byte in data)
        self._put(addr, data)
        self._bump_versions(addr, max(len(data), 1))
        self.stat_writes += 1

    def line_version(self, line_addr):
        return self._versions.get(line_addr, 0)

    def snapshot(self, addr, size):
        """Capture ``(bytes, line_version)`` for a speculative read."""
        line = addr - (addr & (self._line_bytes - 1))
        return tuple(self._get(addr, size)), self._versions.get(line, 0)

    def matches(self, addr, size, snapshot_bytes):
        """Value-based comparison used by InvisiSpec validation."""
        return self.read_bytes(addr, size) == tuple(snapshot_bytes)
