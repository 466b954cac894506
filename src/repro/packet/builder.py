"""Scapy-lite packet crafting.

The paper's testbench uses Scapy to craft packets; this module provides
the small subset we need: composing Ethernet/IPv4/TCP/UDP layers with
payloads and padding to a target frame size.
"""

from __future__ import annotations

import struct
from typing import Optional

from .checksum import ones_complement_sum
from .headers import (
    ETH_HEADER_SIZE,
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    VLAN_TAG_SIZE,
    VlanTag,
    IPV4_HEADER_SIZE,
    PROTO_TCP,
    PROTO_UDP,
    TCP_HEADER_SIZE,
    UDP_HEADER_SIZE,
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    UDPHeader,
    ip_to_int,
)
from .packet import Packet

MIN_FRAME_SIZE = 60  # 64 on the wire minus 4-byte FCS
TCP_OVERHEAD = ETH_HEADER_SIZE + IPV4_HEADER_SIZE + TCP_HEADER_SIZE  # 54
UDP_OVERHEAD = ETH_HEADER_SIZE + IPV4_HEADER_SIZE + UDP_HEADER_SIZE  # 42


class BuildError(ValueError):
    """Raised for impossible packet requests (e.g. size below headers)."""


#: the IPv4 header (no options) and the TCP ports; the TCP header from seq on
_IPV4_AND_PORTS = struct.Struct("!BBHHHBBHIIHH")
_TCP_FROM_SEQ = struct.Struct("!IIBBHHH")


def _fold(total: int) -> int:
    """End-around carries of a one's-complement sum below 2**32."""
    total = (total & 0xFFFF) + (total >> 16)
    return (total & 0xFFFF) + (total >> 16)


class TcpFrameTemplate:
    """The TCP frame layout, precomputed for one flow (addresses, ports,
    ``ack``, ``flags``, payload length): the packed Ethernet + IPv4 +
    port bytes, the IPv4 checksum, and the one's-complement partial sum
    of the pseudo-header and fixed TCP fields (the header classes'
    defaults: TTL 64, window 0xFFFF).  :meth:`frame` adds ``seq`` and the
    body's sum, folds once and packs; integers in, so a source can
    afford one template per flow."""

    __slots__ = ("head", "ack", "flags", "ip_checksum", "partial", "pad")

    def __init__(self, eth: bytes, src_ip: int, dst_ip: int, src_port: int, dst_port: int,
                 payload_len: int, ack: int = 0, flags: int = TCPHeader.FLAG_ACK) -> None:
        ip_len = IPV4_HEADER_SIZE + TCP_HEADER_SIZE + payload_len
        addresses = (src_ip >> 16) + (src_ip & 0xFFFF) + (dst_ip >> 16) + (dst_ip & 0xFFFF)
        self.ip_checksum = ~_fold(0x4500 + ip_len + (64 << 8 | PROTO_TCP) + addresses) & 0xFFFF
        self.head = eth + _IPV4_AND_PORTS.pack(0x45, 0, ip_len, 0, 0, 64, PROTO_TCP,
                                               self.ip_checksum, src_ip, dst_ip, src_port, dst_port)
        self.ack, self.flags = ack & 0xFFFFFFFF, flags
        fixed = src_port + dst_port + (self.ack >> 16) + (self.ack & 0xFFFF) + (0x5000 | flags)
        self.partial = _fold(addresses + PROTO_TCP + TCP_HEADER_SIZE + payload_len + fixed + 0xFFFF)
        self.pad = b"\x00" * max(0, MIN_FRAME_SIZE - len(eth) - ip_len)

    def frame(self, seq: int, body: bytes, body_sum: int) -> bytes:
        """The frame carrying ``body`` (``payload_len`` bytes whose
        :func:`ones_complement_sum` is ``body_sum``) at ``seq`` mod 2**32."""
        seq &= 0xFFFFFFFF
        total = _fold(self.partial + (seq >> 16) + (seq & 0xFFFF) + body_sum)
        tcp = _TCP_FROM_SEQ.pack(seq, self.ack, 0x50, self.flags, 0xFFFF, ~total & 0xFFFF, 0)
        return b"".join((self.head, tcp, body, self.pad))


def _padded(payload: bytes, pad_to: Optional[int], overhead: int) -> bytes:
    if pad_to is None:
        return payload
    if pad_to < overhead:
        raise BuildError(f"pad_to={pad_to} below overhead {overhead}")
    if len(payload) > pad_to - overhead:
        raise BuildError("payload longer than pad_to allows")
    return payload + b"\x00" * (pad_to - overhead - len(payload))


def build_tcp(
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
    seq: int = 0,
    ack: int = 0,
    flags: int = TCPHeader.FLAG_ACK,
    src_mac: str = "02:00:00:00:00:01",
    dst_mac: str = "02:00:00:00:00:02",
    pad_to: Optional[int] = None,
    vlan: Optional[int] = None,
    **packet_kwargs,
) -> Packet:
    """Craft an Ethernet/IPv4/TCP frame: a one-shot
    :class:`TcpFrameTemplate`.

    ``pad_to`` pads the payload with zero bytes so the quoted frame size
    (FCS excluded) equals the requested value, like the paper's
    fixed-size packet generator.  ``vlan`` inserts an 802.1Q tag with
    that VLAN id (which adds 4 bytes of overhead before padding).
    """
    payload = _padded(payload, pad_to, TCP_OVERHEAD + (VLAN_TAG_SIZE if vlan is not None else 0))
    template = TcpFrameTemplate(_ethernet(src_mac, dst_mac, vlan), ip_to_int(src_ip),
                                ip_to_int(dst_ip), src_port, dst_port, len(payload), ack, flags)
    return Packet(template.frame(seq, payload, ones_complement_sum(payload)), **packet_kwargs)


def _ethernet(src_mac: str, dst_mac: str, vlan: Optional[int]) -> bytes:
    if vlan is None:
        return EthernetHeader(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4).pack()
    eth = EthernetHeader(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_VLAN)
    return eth.pack() + VlanTag(vid=vlan, inner_ethertype=ETHERTYPE_IPV4).pack()


def build_udp(
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
    src_mac: str = "02:00:00:00:00:01",
    dst_mac: str = "02:00:00:00:00:02",
    pad_to: Optional[int] = None,
    vlan: Optional[int] = None,
    **packet_kwargs,
) -> Packet:
    """Craft an Ethernet/IPv4/UDP frame (optionally 802.1Q-tagged)."""
    payload = _padded(payload, pad_to, UDP_OVERHEAD + (VLAN_TAG_SIZE if vlan is not None else 0))
    ip = IPv4Header(
        src=src_ip,
        dst=dst_ip,
        protocol=PROTO_UDP,
        total_length=IPV4_HEADER_SIZE + UDP_HEADER_SIZE + len(payload),
    )
    udp = UDPHeader(src_port=src_port, dst_port=dst_port)
    frame = _ethernet(src_mac, dst_mac, vlan)
    frame += ip.pack() + udp.pack_with_checksum(src_ip, dst_ip, payload)
    if len(frame) < MIN_FRAME_SIZE:
        frame = frame + b"\x00" * (MIN_FRAME_SIZE - len(frame))
    return Packet(frame, **packet_kwargs)

