"""Wire-format header structs: Ethernet, IPv4, TCP, UDP.

Each header is a dataclass with ``pack()``/``unpack()`` that round-trip
through the exact on-wire byte layout; the firmware running on the
RISC-V model parses the same bytes the paper's ``packet_headers.h``
describes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from .checksum import internet_checksum, transport_checksum

ETH_HEADER_SIZE = 14
IPV4_HEADER_SIZE = 20
TCP_HEADER_SIZE = 20
UDP_HEADER_SIZE = 8

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_IPV6 = 0x86DD
ETHERTYPE_VLAN = 0x8100  # 802.1Q TPID
VLAN_TAG_SIZE = 4

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17


class HeaderError(ValueError):
    """Raised when bytes cannot be parsed as the expected header."""


def mac_to_bytes(mac: str) -> bytes:
    parts = mac.split(":")
    if len(parts) != 6:
        raise HeaderError(f"bad MAC address {mac!r}")
    return bytes(int(p, 16) for p in parts)


def bytes_to_mac(data: bytes) -> str:
    if len(data) != 6:
        raise HeaderError("MAC must be 6 bytes")
    return ":".join(f"{b:02x}" for b in data)


def ip_to_int(ip: str) -> int:
    parts = ip.split(".")
    if len(parts) != 4:
        raise HeaderError(f"bad IPv4 address {ip!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise HeaderError(f"bad IPv4 octet in {ip!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass
class EthernetHeader:
    dst: str = "ff:ff:ff:ff:ff:ff"
    src: str = "00:00:00:00:00:00"
    ethertype: int = ETHERTYPE_IPV4

    def pack(self) -> bytes:
        return mac_to_bytes(self.dst) + mac_to_bytes(self.src) + struct.pack(
            "!H", self.ethertype
        )

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["EthernetHeader", bytes]:
        if len(data) < ETH_HEADER_SIZE:
            raise HeaderError("truncated Ethernet header")
        dst = bytes_to_mac(data[0:6])
        src = bytes_to_mac(data[6:12])
        (ethertype,) = struct.unpack("!H", data[12:14])
        return cls(dst=dst, src=src, ethertype=ethertype), data[ETH_HEADER_SIZE:]


@dataclass
class VlanTag:
    """An 802.1Q tag: priority, drop-eligible bit, VLAN id, and the
    encapsulated ethertype."""

    vid: int = 1
    pcp: int = 0
    dei: int = 0
    inner_ethertype: int = ETHERTYPE_IPV4

    def pack(self) -> bytes:
        if not 0 <= self.vid <= 0xFFF:
            raise HeaderError(f"VLAN id {self.vid} out of range")
        tci = (self.pcp << 13) | (self.dei << 12) | self.vid
        return struct.pack("!HH", tci, self.inner_ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["VlanTag", bytes]:
        if len(data) < VLAN_TAG_SIZE:
            raise HeaderError("truncated 802.1Q tag")
        tci, inner = struct.unpack("!HH", data[:VLAN_TAG_SIZE])
        return (
            cls(vid=tci & 0xFFF, pcp=tci >> 13, dei=(tci >> 12) & 1,
                inner_ethertype=inner),
            data[VLAN_TAG_SIZE:],
        )


@dataclass
class IPv4Header:
    src: str = "0.0.0.0"
    dst: str = "0.0.0.0"
    protocol: int = PROTO_TCP
    ttl: int = 64
    total_length: int = IPV4_HEADER_SIZE
    identification: int = 0
    flags: int = 0
    fragment_offset: int = 0
    dscp: int = 0
    checksum: int = 0

    def pack(self, fill_checksum: bool = True) -> bytes:
        version_ihl = (4 << 4) | 5
        flags_frag = (self.flags << 13) | (self.fragment_offset & 0x1FFF)
        header = struct.pack(
            "!BBHHHBBHII",
            version_ihl,
            self.dscp,
            self.total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.protocol,
            0,
            ip_to_int(self.src),
            ip_to_int(self.dst),
        )
        checksum = internet_checksum(header) if fill_checksum else self.checksum
        return header[:10] + struct.pack("!H", checksum) + header[12:]

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["IPv4Header", bytes]:
        if len(data) < IPV4_HEADER_SIZE:
            raise HeaderError("truncated IPv4 header")
        (
            version_ihl,
            dscp,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            checksum,
            src,
            dst,
        ) = struct.unpack("!BBHHHBBHII", data[:IPV4_HEADER_SIZE])
        version = version_ihl >> 4
        ihl = version_ihl & 0xF
        if version != 4:
            raise HeaderError(f"not IPv4 (version={version})")
        if ihl < 5:
            raise HeaderError(f"bad IHL {ihl}")
        header_len = ihl * 4
        if len(data) < header_len:
            raise HeaderError("truncated IPv4 options")
        hdr = cls(
            src=int_to_ip(src),
            dst=int_to_ip(dst),
            protocol=protocol,
            ttl=ttl,
            total_length=total_length,
            identification=identification,
            flags=flags_frag >> 13,
            fragment_offset=flags_frag & 0x1FFF,
            dscp=dscp,
            checksum=checksum,
        )
        return hdr, data[header_len:]


@dataclass
class TCPHeader:
    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: int = 0x10  # ACK
    window: int = 65535
    checksum: int = 0
    urgent: int = 0

    FLAG_FIN = 0x01
    FLAG_SYN = 0x02
    FLAG_RST = 0x04
    FLAG_PSH = 0x08
    FLAG_ACK = 0x10

    def pack(self) -> bytes:
        data_offset = (5 << 4)
        return struct.pack(
            "!HHIIBBHHH",
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            data_offset,
            self.flags,
            self.window,
            self.checksum,
            self.urgent,
        )

    def pack_with_checksum(self, src_ip: str, dst_ip: str, payload: bytes) -> bytes:
        segment = self.pack() + payload
        csum = transport_checksum(
            ip_to_int(src_ip), ip_to_int(dst_ip), PROTO_TCP, segment
        )
        return segment[:16] + struct.pack("!H", csum) + segment[18:]

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["TCPHeader", bytes]:
        if len(data) < TCP_HEADER_SIZE:
            raise HeaderError("truncated TCP header")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_byte,
            flags,
            window,
            checksum,
            urgent,
        ) = struct.unpack("!HHIIBBHHH", data[:TCP_HEADER_SIZE])
        data_offset = (offset_byte >> 4) * 4
        if data_offset < TCP_HEADER_SIZE or len(data) < data_offset:
            raise HeaderError("bad TCP data offset")
        hdr = cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            checksum=checksum,
            urgent=urgent,
        )
        return hdr, data[data_offset:]


@dataclass
class UDPHeader:
    src_port: int = 0
    dst_port: int = 0
    length: int = UDP_HEADER_SIZE
    checksum: int = 0

    def pack(self) -> bytes:
        return struct.pack(
            "!HHHH", self.src_port, self.dst_port, self.length, self.checksum
        )

    def pack_with_checksum(self, src_ip: str, dst_ip: str, payload: bytes) -> bytes:
        self.length = UDP_HEADER_SIZE + len(payload)
        segment = self.pack() + payload
        csum = transport_checksum(
            ip_to_int(src_ip), ip_to_int(dst_ip), PROTO_UDP, segment
        )
        if csum == 0:
            csum = 0xFFFF  # RFC 768: transmitted as all-ones
        return segment[:6] + struct.pack("!H", csum) + segment[8:]

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["UDPHeader", bytes]:
        if len(data) < UDP_HEADER_SIZE:
            raise HeaderError("truncated UDP header")
        src_port, dst_port, length, checksum = struct.unpack("!HHHH", data[:8])
        return (
            cls(src_port=src_port, dst_port=dst_port, length=length, checksum=checksum),
            data[UDP_HEADER_SIZE:],
        )
