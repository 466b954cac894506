"""Internet checksum (RFC 1071) helpers used by IPv4/TCP/UDP headers."""

from __future__ import annotations

import struct


def ones_complement_sum(data: bytes) -> int:
    """16-bit one's-complement sum of ``data`` (zero-padded to even length).

    Word-at-a-time: one C-level unpack of the big-endian 16-bit words,
    one C-level sum, then end-around-carry folds — addition is
    associative, so deferring every carry to the end is exact, and a
    1500 B frame needs at most two folds (the running total stays under
    2**26).  The MAC checksum-verify stage calls this per received
    frame, so the old per-byte Python loop was a datapath hot spot.
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data: bytes) -> int:
    """The Internet checksum: complement of the one's-complement sum."""
    return (~ones_complement_sum(data)) & 0xFFFF


def pseudo_header(src_ip: int, dst_ip: int, protocol: int, length: int) -> bytes:
    """IPv4 pseudo-header used by TCP/UDP checksums."""
    return struct.pack("!IIBBH", src_ip, dst_ip, 0, protocol & 0xFF, length & 0xFFFF)


def transport_checksum(
    src_ip: int, dst_ip: int, protocol: int, segment: bytes
) -> int:
    """TCP/UDP checksum over pseudo-header + segment."""
    return internet_checksum(pseudo_header(src_ip, dst_ip, protocol, len(segment)) + segment)


def ipv4_header_checksum_ok(frame: bytes):
    """Validate the IPv4 header checksum of an Ethernet frame.

    Returns True/False for IPv4 frames (VLAN-tagged included) and None
    when the frame carries no parseable IPv4 header — the MAC's
    checksum-verify stage only polices packets it can classify.
    """
    offset = 14
    if len(frame) < offset + 2:
        return None
    ethertype = (frame[12] << 8) | frame[13]
    if ethertype == 0x8100:  # VLAN tag
        if len(frame) < 18:
            return None
        ethertype = (frame[16] << 8) | frame[17]
        offset = 18
    if ethertype != 0x0800:
        return None
    if len(frame) < offset + 20:
        return None
    version_ihl = frame[offset]
    if version_ihl >> 4 != 4:
        return None
    header_len = (version_ihl & 0xF) * 4
    if header_len < 20 or len(frame) < offset + header_len:
        return None
    # a valid header sums to 0xFFFF (checksum field included)
    return ones_complement_sum(frame[offset : offset + header_len]) == 0xFFFF
