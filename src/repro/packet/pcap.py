"""Minimal pcap (libpcap classic format) reader/writer.

The artifact ships packet traces as pcaps and replays them with
tcpreplay; our trace generators can persist traces the same way so the
examples have tangible artifacts on disk.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, List, Union

from .packet import Packet

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


class PcapError(ValueError):
    """Raised on malformed pcap input."""


def write_pcap(
    path: Union[str, Path],
    packets: Iterable[Packet],
    snaplen: int = 65535,
) -> int:
    """Write packets to a classic pcap file; returns the packet count.

    Packet ``born_at`` (cycles) is converted to a microsecond timestamp
    assuming the 250 MHz fabric clock (4 ns per cycle).
    """
    count = 0
    with open(path, "wb") as fh:
        fh.write(
            _GLOBAL_HEADER.pack(PCAP_MAGIC, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET)
        )
        for pkt in packets:
            ns = int(pkt.born_at * 4)  # cycles -> ns
            ts_sec, ts_usec = divmod(ns // 1000, 1_000_000)
            data = pkt.data[:snaplen]
            fh.write(_RECORD_HEADER.pack(ts_sec, ts_usec, len(data), len(pkt.data)))
            fh.write(data)
            count += 1
    return count


def read_pcap(path: Union[str, Path]) -> List[Packet]:
    """Read all packets from a classic pcap file (both endiannesses)."""
    packets = []
    with open(path, "rb") as fh:
        header = fh.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise PcapError("truncated pcap global header")
        (magic,) = struct.unpack("<I", header[:4])
        if magic == PCAP_MAGIC:
            record = _RECORD_HEADER
        elif magic == PCAP_MAGIC_SWAPPED:
            record = struct.Struct(">IIII")
        else:
            raise PcapError(f"bad pcap magic {magic:#x}")
        while True:
            rec = fh.read(record.size)
            if not rec:
                return packets
            if len(rec) < record.size:
                raise PcapError("truncated pcap record header")
            ts_sec, ts_usec, incl_len, orig_len = record.unpack(rec)
            data = fh.read(incl_len)
            if len(data) < incl_len:
                raise PcapError("truncated pcap record body")
            pkt = Packet(data)
            pkt.born_at = (ts_sec * 1_000_000 + ts_usec) * 1000 / 4.0  # us -> cycles
            packets.append(pkt)
