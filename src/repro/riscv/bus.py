"""Memory bus with RAM regions and MMIO dispatch.

Rosebud's RPU exposes accelerators to the RISC-V core through
memory-mapped I/O (§3.3) next to ordinary instruction/data/packet
memories.  The bus maps 32-bit addresses onto registered regions; MMIO
regions call handlers instead of touching backing storage, which is how
the firewall/Pigasus accelerator register files plug in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional


class BusError(RuntimeError):
    """Raised on accesses that hit no region or violate alignment."""


@dataclass
class _Region:
    base: int
    size: int
    name: str

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


class RamRegion(_Region):
    """A byte-addressable RAM block (little-endian).

    ``write_hook`` (if set) observes every mutation — ``write`` and
    ``load_bytes`` — with the absolute address and length *after* the
    bytes land.  The CPU uses it to keep decoded/translated instruction
    caches coherent with stores into instruction memory.
    """

    def __init__(self, base: int, size: int, name: str = "ram") -> None:
        super().__init__(base, size, name)
        self.data = bytearray(size)
        self.write_hook: Optional[Callable[[int, int], None]] = None

    def read(self, addr: int, nbytes: int) -> int:
        off = addr - self.base
        if off + nbytes > self.size:
            raise BusError(f"read past end of {self.name} at {addr:#x}")
        return int.from_bytes(self.data[off : off + nbytes], "little")

    def read_u32(self, addr: int) -> int:
        """Word read without the generic slicing path (hot for fetch)."""
        off = addr - self.base
        if off + 4 > self.size:
            raise BusError(f"read past end of {self.name} at {addr:#x}")
        d = self.data
        return d[off] | (d[off + 1] << 8) | (d[off + 2] << 16) | (d[off + 3] << 24)

    # front door: the RAM half of MemoryBus.write
    def write(self, addr: int, value: int, nbytes: int) -> None:
        off = addr - self.base
        if off + nbytes > self.size:
            raise BusError(f"write past end of {self.name} at {addr:#x}")
        self.data[off : off + nbytes] = (value & ((1 << (nbytes * 8)) - 1)).to_bytes(
            nbytes, "little"
        )
        if self.write_hook is not None:
            self.write_hook(addr, nbytes)

    # offset-based twins with the MMIO handler signature, so translated
    # load/store inline caches can bind the innermost callable uniformly
    # for RAM and MMIO regions (one call frame either way)
    def _read(self, off: int, nbytes: int) -> int:
        if off + nbytes > self.size:
            raise BusError(f"read past end of {self.name} at {off + self.base:#x}")
        return int.from_bytes(self.data[off : off + nbytes], "little")

    def _write(self, off: int, value: int, nbytes: int) -> None:
        if off + nbytes > self.size:
            raise BusError(f"write past end of {self.name} at {off + self.base:#x}")
        self.data[off : off + nbytes] = (value & ((1 << (nbytes * 8)) - 1)).to_bytes(
            nbytes, "little"
        )
        if self.write_hook is not None:
            self.write_hook(self.base + off, nbytes)

    def load_bytes(self, offset: int, blob: bytes) -> None:
        if offset + len(blob) > self.size:
            raise BusError(f"blob does not fit in {self.name}")
        self.data[offset : offset + len(blob)] = blob
        if self.write_hook is not None:
            self.write_hook(self.base + offset, len(blob))

    def dump_bytes(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        if length is None:
            length = self.size - offset
        return bytes(self.data[offset : offset + length])


class MmioRegion(_Region):
    """A region backed by read/write handler callables.

    Handlers receive the *offset* within the region, so one accelerator
    wrapper can be mapped at any base.
    """

    def __init__(
        self,
        base: int,
        size: int,
        read_handler: Callable[[int, int], int],
        write_handler: Callable[[int, int, int], None],
        name: str = "mmio",
    ) -> None:
        super().__init__(base, size, name)
        self._read = read_handler
        self._write = write_handler

    def read(self, addr: int, nbytes: int) -> int:
        return self._read(addr - self.base, nbytes) & ((1 << (nbytes * 8)) - 1)

    # front door: a word fetch or load from an MMIO window
    def read_u32(self, addr: int) -> int:
        return self._read(addr - self.base, 4) & 0xFFFFFFFF

    def write(self, addr: int, value: int, nbytes: int) -> None:
        self._write(addr - self.base, value, nbytes)


class MemoryBus:
    """Routes loads/stores to registered regions.

    Regions may not overlap; lookups scan the (short) region list, which
    is plenty fast for the handful of regions an RPU has.
    """

    def __init__(self) -> None:
        self._regions: List[_Region] = []
        self._last: Optional[_Region] = None
        self._store_watch: Optional[Callable[[int, int], None]] = None

    def add_ram(self, base: int, size: int, name: str = "ram") -> RamRegion:
        region = RamRegion(base, size, name)
        self._add(region)
        if self._store_watch is not None:
            self._hook_region(region, self._store_watch)
        return region

    def watch_stores(self, callback: Callable[[int, int], None]) -> None:
        """Observe every RAM mutation (current and future regions) with
        ``callback(addr, nbytes)``.  Chains with any previous watcher."""
        previous = self._store_watch
        if previous is not None:
            # front door: a second store watcher on the same bus
            def callback(addr: int, nbytes: int, _prev=previous, _new=callback) -> None:
                _prev(addr, nbytes)
                _new(addr, nbytes)
        self._store_watch = callback
        for region in self._regions:
            if isinstance(region, RamRegion):
                self._hook_region(region, callback)

    @staticmethod
    def _hook_region(region: RamRegion, callback: Callable[[int, int], None]) -> None:
        region.write_hook = callback

    def add_mmio(
        self,
        base: int,
        size: int,
        read_handler: Callable[[int, int], int],
        write_handler: Callable[[int, int, int], None],
        name: str = "mmio",
    ) -> MmioRegion:
        region = MmioRegion(base, size, read_handler, write_handler, name)
        self._add(region)
        return region

    def _add(self, region: _Region) -> None:
        for existing in self._regions:
            if (
                region.base < existing.base + existing.size
                and existing.base < region.base + region.size
            ):
                raise BusError(
                    f"region {region.name} overlaps {existing.name}"
                )
        self._regions.append(region)

    def _find(self, addr: int) -> _Region:
        # most accesses stream into the region hit last time (imem for
        # fetch, pmem for payload walks), so try it before scanning
        region = self._last
        if region is not None and region.contains(addr):
            return region
        for region in self._regions:
            if region.contains(addr):
                self._last = region
                return region
        raise BusError(f"bus access to unmapped address {addr:#010x}")

    def read(self, addr: int, nbytes: int) -> int:
        return self._find(addr).read(addr, nbytes)

    def write(self, addr: int, value: int, nbytes: int) -> None:
        self._find(addr).write(addr, value, nbytes)

    def read_u32(self, addr: int) -> int:
        return self._find(addr).read_u32(addr)

    # front door: the host-side RAM load, the pair of dump()
    def load_blob(self, addr: int, blob: bytes) -> None:
        """Copy ``blob`` into RAM starting at ``addr`` (may span words)."""
        region = self._find(addr)
        if not isinstance(region, RamRegion):
            raise BusError("load_blob target is not RAM")
        region.load_bytes(addr - region.base, blob)

    def dump(self, addr: int, length: int) -> bytes:
        region = self._find(addr)
        if not isinstance(region, RamRegion):
            raise BusError("dump target is not RAM")
        return region.dump_bytes(addr - region.base, length)
