"""Incremental checksum-update accelerator (RFC 1624).

Header-rewriting middleboxes (NAT, L4 load balancers — the kind §8.2
expects to be built on the platform) must fix IPv4/TCP/UDP checksums
after changing addresses or ports.  Recomputing over the payload is
exactly the byte-touching work RPU software cannot afford; the RFC 1624
incremental update (``HC' = ~(~HC + ~m + m')``) needs only the old and
new field values, a perfect one-cycle accelerator.

Register map::

    0x00  OLD_WORD   (write: 16-bit field value being replaced)
    0x04  NEW_WORD   (write: its replacement)
    0x08  CHECKSUM   (write: current checksum; read: updated checksum)
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .base import Accelerator


def incremental_update(checksum: int, old_word: int, new_word: int) -> int:
    """RFC 1624 eqn. 3: update ``checksum`` for one 16-bit field edit."""
    csum = (~checksum) & 0xFFFF
    csum += ((~old_word) & 0xFFFF) + (new_word & 0xFFFF)
    while csum >> 16:
        csum = (csum & 0xFFFF) + (csum >> 16)
    return (~csum) & 0xFFFF


def update_for_fields(
    checksum: int, edits: Sequence[Tuple[int, int]]
) -> int:
    """Apply a sequence of (old, new) 16-bit field edits."""
    for old_word, new_word in edits:
        checksum = incremental_update(checksum, old_word, new_word)
    return checksum


def words_of_ip(ip_value: int) -> Tuple[int, int]:
    """An IPv4 address as the two 16-bit words checksums see."""
    return (ip_value >> 16) & 0xFFFF, ip_value & 0xFFFF


# front door: the NAT firmware's accelerator; an assembly NAT drives its registers
class ChecksumUpdateAccelerator(Accelerator):
    """The MMIO wrapper around the incremental update."""

    name = "csum_update"

    REG_OLD = 0x00
    REG_NEW = 0x04
    REG_CSUM = 0x08

    def __init__(self) -> None:
        super().__init__()
        self._old = 0
        self._new = 0
        self._csum = 0
        self.updates = 0
        self.define_register(self.REG_OLD, 4, write=self._write_old)
        self.define_register(self.REG_NEW, 4, write=self._write_new)
        self.define_register(self.REG_CSUM, 4, read=self._read_csum, write=self._write_csum)

    def _write_old(self, value: int) -> None:
        self._old = value & 0xFFFF

    def _write_new(self, value: int) -> None:
        self._new = value & 0xFFFF

    def _write_csum(self, value: int) -> None:
        # writing the checksum triggers the update with the staged pair
        self._csum = incremental_update(value & 0xFFFF, self._old, self._new)
        self.updates += 1

    def _read_csum(self) -> int:
        return self._csum
