"""The :class:`Packet` object that flows through the simulated datapath.

A packet is raw bytes plus simulation metadata (ingress port, timestamps,
the LB-prepended flow hash, matched rule IDs appended by the IDS
firmware).  Parsing is lazy and cached: the RPU firmware and the
accelerators both look at headers, and re-parsing per hop would dominate
Python runtime.
"""

from __future__ import annotations

import itertools
import operator
import pickle
from dataclasses import dataclass
from typing import List, Optional

from .headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    PROTO_TCP,
    PROTO_UDP,
    EthernetHeader,
    HeaderError,
    IPv4Header,
    TCPHeader,
    UDPHeader,
    VlanTag,
)

_packet_ids = itertools.count()


@dataclass
class ParsedHeaders:
    """Cache of parsed headers and payload offsets."""

    eth: Optional[EthernetHeader] = None
    vlan: Optional[VlanTag] = None
    ipv4: Optional[IPv4Header] = None
    tcp: Optional[TCPHeader] = None
    udp: Optional[UDPHeader] = None
    payload_offset: int = 0


class Packet:
    """Raw frame bytes plus metadata carried through the simulation.

    ``size`` is the quoted packet size (FCS excluded), i.e. ``len(data)``.
    """

    __slots__ = (
        "data",
        "packet_id",
        "ingress_port",
        "egress_port",
        "born_at",
        "timestamps",
        "flow_hash",
        "rule_ids",
        "dropped",
        "drop_reason",
        "dest_rpu",
        "slot",
        "is_attack",
        "flow_id",
        "seq_index",
        "route",
        "src_slot",
        "class_key",
        "_parsed",
    )

    def __init__(
        self,
        data: bytes,
        ingress_port: int = 0,
        is_attack: bool = False,
        flow_id: Optional[int] = None,
        seq_index: int = 0,
    ) -> None:
        self.data = data
        self.packet_id = next(_packet_ids)
        self.ingress_port = ingress_port
        self.egress_port: Optional[int] = None
        self.born_at: float = 0.0
        self.timestamps: dict = {}
        self.flow_hash: Optional[int] = None
        self.rule_ids: List[int] = []
        self.dropped = False
        self.drop_reason = ""
        self.dest_rpu: Optional[int] = None
        self.slot: Optional[int] = None
        self.is_attack = is_attack
        self.flow_id = flow_id
        self.seq_index = seq_index
        self.route = None  # FirmwareResult once an RPU has decided
        self.src_slot = None  # (rpu, slot) while traversing egress
        # class signature: stamped by the traffic layer when the packet
        # comes from a flyweight template (byte-identical frames share a
        # key); None means "not classifiable"
        self.class_key: Optional[object] = None
        self._parsed: Optional[ParsedHeaders] = None

    @property
    def size(self) -> int:
        return len(self.data)

    def stamp(self, label: str, time: float) -> None:
        self.timestamps[label] = time

    def drop(self, reason: str) -> None:
        self.dropped = True
        self.drop_reason = reason

    # -- lazy header parsing ------------------------------------------------

    @property
    def parsed(self) -> ParsedHeaders:
        if self._parsed is None:
            self._parsed = self._parse()
        return self._parsed

    def _parse(self) -> ParsedHeaders:
        parsed = ParsedHeaders()
        try:
            parsed.eth, rest = EthernetHeader.unpack(self.data)
        except HeaderError:
            return parsed
        offset = len(self.data) - len(rest)
        ethertype = parsed.eth.ethertype
        if ethertype == ETHERTYPE_VLAN:
            try:
                parsed.vlan, rest = VlanTag.unpack(rest)
            except HeaderError:
                parsed.payload_offset = offset
                return parsed
            ethertype = parsed.vlan.inner_ethertype
            offset = len(self.data) - len(rest)
        if ethertype != ETHERTYPE_IPV4:
            parsed.payload_offset = offset
            return parsed
        try:
            parsed.ipv4, rest = IPv4Header.unpack(rest)
        except HeaderError:
            parsed.payload_offset = offset
            return parsed
        offset = len(self.data) - len(rest)
        try:
            if parsed.ipv4.protocol == PROTO_TCP:
                parsed.tcp, rest = TCPHeader.unpack(rest)
            elif parsed.ipv4.protocol == PROTO_UDP:
                parsed.udp, rest = UDPHeader.unpack(rest)
        except HeaderError:
            pass
        parsed.payload_offset = len(self.data) - len(rest)
        return parsed

    @property
    def payload(self) -> bytes:
        return self.data[self.parsed.payload_offset :]

    @property
    def five_tuple(self):
        """(src_ip, dst_ip, proto, src_port, dst_port) or None."""
        p = self.parsed
        if p.ipv4 is None:
            return None
        if p.tcp is not None:
            return (p.ipv4.src, p.ipv4.dst, PROTO_TCP, p.tcp.src_port, p.tcp.dst_port)
        if p.udp is not None:
            return (p.ipv4.src, p.ipv4.dst, PROTO_UDP, p.udp.src_port, p.udp.dst_port)
        return (p.ipv4.src, p.ipv4.dst, p.ipv4.protocol, 0, 0)

    # -- crossing a process boundary ------------------------------------------

    # front door: pickled and unpickled only inside a shard worker
    # (`cluster._serve`); the parent forwards crossing packets undecoded
    def __getstate__(self) -> tuple:
        # the parse cache is a pure function of ``data``: it stays behind
        return _wire_state(self)

    # front door: as `__getstate__`, inside a shard worker only
    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(_WIRE_SLOTS, state):
            setattr(self, name, value)
        self._parsed = None

    # front door: as `__getstate__`, inside a shard worker only
    @staticmethod
    def from_wire(blob: bytes) -> "Packet":
        """Unpickle a packet sent by another process.  It takes a fresh id
        from this process's counter: ids count per process, so the
        sender's id may belong to a packet that is live here."""
        packet = pickle.loads(blob)
        packet.packet_id = next(_packet_ids)
        return packet

    def invalidate_parse_cache(self) -> None:
        """Call after mutating ``data`` so headers are re-parsed."""
        self._parsed = None

    def mark_mutated(self) -> None:
        """Call after mutating ``data``: drops the parse cache *and* the
        class signature, so nothing keyed on it can treat the packet as
        its original template (fault injectors corrupting bytes,
        firmware appending rule IDs, NAT rewrites)."""
        self._parsed = None
        self.class_key = None


_WIRE_SLOTS = tuple(name for name in Packet.__slots__ if name != "_parsed")
_wire_state = operator.attrgetter(*_WIRE_SLOTS)
