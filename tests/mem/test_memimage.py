"""Memory image: values, versions, and validation comparison."""

from hypothesis import given, strategies as st

from repro.mem.address import AddressSpace
from repro.mem.memimage import MemoryImage


def make_image():
    return MemoryImage(AddressSpace())


class TestMemoryImage:
    def test_uninitialized_reads_zero(self):
        image = make_image()
        assert image.read(0x1234, 8) == 0

    def test_write_read_roundtrip(self):
        image = make_image()
        image.write(0x1000, 8, 0x1122334455667788)
        assert image.read(0x1000, 8) == 0x1122334455667788

    def test_little_endian_byte_order(self):
        image = make_image()
        image.write(0x1000, 4, 0xAABBCCDD)
        assert image.read_byte(0x1000) == 0xDD
        assert image.read_byte(0x1003) == 0xAA

    def test_partial_overlap_write(self):
        image = make_image()
        image.write(0x1000, 8, 0)
        image.write(0x1004, 2, 0xFFFF)
        assert image.read(0x1000, 8) == 0x0000FFFF00000000

    def test_version_bumps_on_write(self):
        image = make_image()
        line = 0x2000
        v0 = image.line_version(line)
        image.write(line + 8, 8, 7)
        assert image.line_version(line) == v0 + 1

    def test_straddling_write_bumps_both_lines(self):
        image = make_image()
        image.write(0x103C, 8, 1)
        assert image.line_version(0x1000) == 1
        assert image.line_version(0x1040) == 1

    def test_straddling_write_reads_back_across_lines(self):
        image = make_image()
        image.write(0x103C, 8, 0x8877665544332211)
        assert image.read(0x103C, 8) == 0x8877665544332211
        assert image.read_byte(0x103F) == 0x44  # last byte of line 0x1000
        assert image.read_byte(0x1040) == 0x55  # first byte of line 0x1040
        assert image.read_bytes(0x103E, 4) == (0x33, 0x44, 0x55, 0x66)
        assert image.read(0x1040, 4) == 0x88776655

    def test_straddling_write_bytes(self):
        image = make_image()
        image.write_bytes(0x107E, [1, 2, 3, 0x1FF])
        assert image.read_bytes(0x107E, 4) == (1, 2, 3, 0xFF)
        assert image.line_version(0x1040) == 1
        assert image.line_version(0x1080) == 1

    def test_untouched_bytes_read_zero(self):
        image = make_image()
        image.write(0x2004, 2, 0xBEEF)
        line = image.read_bytes(0x2000, 64)
        assert line[4:6] == (0xEF, 0xBE)
        assert line[:4] == (0,) * 4 and line[6:] == (0,) * 58
        # A read straddling into a never-written line.
        assert image.read_bytes(0x203E, 4) == (0, 0, 0, 0)
        assert image.read(0x2005, 8) == 0xBE
        assert image.line_version(0x2040) == 0

    def test_snapshot_captures_bytes_and_version(self):
        image = make_image()
        image.write(0x3000, 8, 0xDEADBEEF)
        data, version = image.snapshot(0x3000, 8)
        assert data == image.read_bytes(0x3000, 8)
        assert version == image.line_version(0x3000)

    def test_matches_value_based(self):
        """ABA writes restore the value; validation passes (Section VI-E4)."""
        image = make_image()
        image.write(0x4000, 8, 111)
        snapshot = image.read_bytes(0x4000, 8)
        image.write(0x4000, 8, 222)
        assert not image.matches(0x4000, 8, snapshot)
        image.write(0x4000, 8, 111)  # ABA
        assert image.matches(0x4000, 8, snapshot)

    def test_write_bytes(self):
        image = make_image()
        image.write_bytes(0x5000, [1, 2, 3])
        assert image.read(0x5000, 3) == 0x030201

    @given(
        addr=st.integers(min_value=0, max_value=1 << 32),
        size=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_roundtrip_any_value(self, addr, size, data):
        value = data.draw(st.integers(min_value=0, max_value=(1 << (8 * size)) - 1))
        image = make_image()
        image.write(addr, size, value)
        assert image.read(addr, size) == value

    @given(st.integers(min_value=0, max_value=1 << 32))
    def test_read_does_not_change_version(self, addr):
        image = make_image()
        image.write(addr, 8, 42)
        before = image.line_version(image.space.line_of(addr))
        image.read(addr, 8)
        image.read_bytes(addr, 8)
        assert image.line_version(image.space.line_of(addr)) == before
