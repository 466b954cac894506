"""Tests for the memory bus and MMIO dispatch."""

import pytest
from hypothesis import given, strategies as st

from repro.riscv import BusError, MemoryBus


class TestRamRegions:
    def test_read_write_round_trip(self):
        bus = MemoryBus()
        bus.add_ram(0x1000, 256)
        bus.write(0x1010, 0xDEADBEEF, 4)
        assert bus.read_u32(0x1010) == 0xDEADBEEF

    def test_little_endian(self):
        bus = MemoryBus()
        bus.add_ram(0, 16)
        bus.write(0, 0x11223344, 4)
        assert bus.read(0, 1) == 0x44
        assert bus.read(3, 1) == 0x11
        assert bus.read(0, 2) == 0x3344

    def test_partial_width_write(self):
        bus = MemoryBus()
        bus.add_ram(0, 16)
        bus.write(0, 0xFFFFFFFF, 4)
        bus.write(1, 0, 1)
        assert bus.read_u32(0) == 0xFFFF00FF

    def test_unmapped_access_raises(self):
        bus = MemoryBus()
        bus.add_ram(0, 16)
        with pytest.raises(BusError):
            bus.read_u32(0x100)

    def test_read_past_region_end(self):
        bus = MemoryBus()
        bus.add_ram(0, 16)
        with pytest.raises(BusError):
            bus.read_u32(14)

    def test_overlapping_regions_rejected(self):
        bus = MemoryBus()
        bus.add_ram(0, 32)
        with pytest.raises(BusError):
            bus.add_ram(16, 32)

    def test_adjacent_regions_ok(self):
        bus = MemoryBus()
        bus.add_ram(0, 32)
        bus.add_ram(32, 32)
        bus.write(31, 1, 1)
        bus.write(32, 2, 1)
        assert bus.read(31, 1) == 1 and bus.read(32, 1) == 2

    def test_load_blob_and_dump(self):
        bus = MemoryBus()
        bus.add_ram(0x100, 64)
        bus.load_blob(0x110, b"hello")
        assert bus.dump(0x110, 5) == b"hello"

    def test_blob_too_big_rejected(self):
        bus = MemoryBus()
        bus.add_ram(0, 8)
        with pytest.raises(BusError):
            bus.load_blob(4, b"123456")

    def test_write_masks_value(self):
        bus = MemoryBus()
        bus.add_ram(0, 8)
        bus.write(0, 0x1FF, 1)
        assert bus.read(0, 1) == 0xFF

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_u32_round_trip(self, value):
        bus = MemoryBus()
        bus.add_ram(0, 8)
        bus.write(0, value, 4)
        assert bus.read_u32(0) == value


class TestMmio:
    def test_handlers_receive_offsets(self):
        bus = MemoryBus()
        log = []
        bus.add_mmio(
            0x4000,
            0x100,
            read_handler=lambda off, n: off,
            write_handler=lambda off, val, n: log.append((off, val)),
        )
        assert bus.read_u32(0x4004) == 4
        bus.write(0x4010, 99, 4)
        assert log == [(0x10, 99)]

    def test_mmio_read_masked_to_width(self):
        bus = MemoryBus()
        bus.add_mmio(0, 0x10, lambda off, n: 0x12345678, lambda off, v, n: None)
        assert bus.read(0, 1) == 0x78
        assert bus.read(0, 2) == 0x5678

    def test_load_blob_into_mmio_rejected(self):
        bus = MemoryBus()
        bus.add_mmio(0, 0x10, lambda o, n: 0, lambda o, v, n: None)
        with pytest.raises(BusError):
            bus.load_blob(0, b"x")

    def test_mmio_and_ram_coexist(self):
        bus = MemoryBus()
        bus.add_ram(0, 0x100)
        state = {}
        bus.add_mmio(
            0x1000, 0x10,
            lambda off, n: state.get(off, 0),
            lambda off, v, n: state.__setitem__(off, v),
        )
        bus.write(0x10, 5, 4)
        bus.write(0x1000, 6, 4)
        assert bus.read_u32(0x10) == 5
        assert bus.read_u32(0x1000) == 6
