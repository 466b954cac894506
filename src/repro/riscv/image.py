"""Firmware image format.

The artifact loads RPU instruction/data/accelerator memories "directly
from the ELF output file of GCC" (Appendix A.6).  Our toolchain is the
built-in assembler, so we define a compact equivalent — the **RFW**
(Rosebud FirmWare) image: a header, a segment table, and per-segment
payloads with CRC32 integrity, covering exactly what the host writes
at boot (imem, dmem, accelerator tables).

Layout (little-endian)::

    0x00  magic   "RFW1"
    0x04  u32     segment count
    0x08  u32     entry point
    0x0c  u32     header crc32 (over the segment table)
    0x10  segment table: per segment
            u32 kind (1=imem, 2=dmem, 3=accmem)
            u32 load address (within that memory's space)
            u32 length
            u32 payload crc32
    ....  payloads, concatenated in table order
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

MAGIC = b"RFW1"

SEG_IMEM = 1
SEG_DMEM = 2
SEG_ACCMEM = 3

_SEGMENT_KINDS = {SEG_IMEM: "imem", SEG_DMEM: "dmem", SEG_ACCMEM: "accmem"}

_HEADER = struct.Struct("<4sIII")
_SEGMENT = struct.Struct("<IIII")


class ImageError(ValueError):
    """Raised on malformed or corrupted firmware images."""


@dataclass
class Segment:
    """One loadable region of a firmware image."""

    kind: int
    address: int
    payload: bytes

    def __post_init__(self) -> None:
        if self.kind not in _SEGMENT_KINDS:
            raise ImageError(f"unknown segment kind {self.kind}")
        if self.address < 0:
            raise ImageError("negative load address")


@dataclass
class FirmwareImage:
    """A firmware image: segments + entry point."""

    segments: List[Segment] = field(default_factory=list)
    entry_point: int = 0

    def add_segment(self, kind: int, address: int, payload: bytes) -> None:
        self.segments.append(Segment(kind, address, payload))

    def segment(self, kind: int) -> Optional[Segment]:
        for seg in self.segments:
            if seg.kind == kind:
                return seg
        return None

    # -- serialization ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        table = b""
        payloads = b""
        for seg in self.segments:
            table += _SEGMENT.pack(
                seg.kind, seg.address, len(seg.payload), zlib.crc32(seg.payload)
            )
            payloads += seg.payload
        header = _HEADER.pack(
            MAGIC, len(self.segments), self.entry_point, zlib.crc32(table)
        )
        return header + table + payloads

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FirmwareImage":
        if len(blob) < _HEADER.size:
            raise ImageError("truncated header")
        magic, count, entry, table_crc = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise ImageError(f"bad magic {magic!r}")
        table_start = _HEADER.size
        table_end = table_start + count * _SEGMENT.size
        if len(blob) < table_end:
            raise ImageError("truncated segment table")
        table = blob[table_start:table_end]
        if zlib.crc32(table) != table_crc:
            raise ImageError("segment table CRC mismatch")
        image = cls(entry_point=entry)
        offset = table_end
        for index in range(count):
            kind, address, length, crc = _SEGMENT.unpack_from(table, index * _SEGMENT.size)
            payload = blob[offset : offset + length]
            if len(payload) < length:
                raise ImageError(f"truncated payload for segment {index}")
            if zlib.crc32(payload) != crc:
                raise ImageError(f"payload CRC mismatch in segment {index}")
            image.add_segment(kind, address, payload)
            offset += length
        return image

    # -- building from assembly ----------------------------------------------------

    @classmethod
    def from_asm(
        cls,
        source: str,
        data_blobs: Optional[Dict[int, Tuple[int, bytes]]] = None,
    ) -> "FirmwareImage":
        """Assemble ``source`` into the imem segment.

        ``data_blobs`` maps segment kind -> (address, payload) for
        extra dmem/accmem contents (lookup tables and the like).
        """
        from .assembler import assemble

        program = assemble(source)
        image = cls(entry_point=program.base)
        image.add_segment(SEG_IMEM, 0, program.image)
        for kind, (address, payload) in (data_blobs or {}).items():
            image.add_segment(kind, address, payload)
        return image
