"""Stateful TCP flow traffic with controlled reordering (§7.1.3).

The IPS evaluation plays TCP flows with 0.3 % of packets reordered (the
"typical reordering happening for middlebox traffic") and 1 % attack
traffic mixed in.  :class:`FlowTrafficSource` maintains real per-flow
sequence numbers so the software-reordering firmware's flow table is
exercised honestly: in-order delivery, swapped pairs (reordering), and
flow expiry all occur.

Each flow owns a :class:`~repro.packet.builder.TcpFrameTemplate`, each
payload variant its padded body and sum, and each packet its parse,
seeded from the flow's fields.  Frames differ per ``seq``, so flow
packets carry no class key.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.system import RosebudSystem
from ..packet.builder import TCP_OVERHEAD, TcpFrameTemplate
from ..packet.checksum import ones_complement_sum
from ..packet.headers import ETH_HEADER_SIZE, EthernetHeader, IPv4Header, TCPHeader, ip_to_int
from ..packet.packet import Packet, ParsedHeaders
from .generator import TrafficSource

#: every flow frame's Ethernet header, one instance shared by every parse
_ETH = EthernetHeader(dst="02:00:00:00:00:02", src="02:00:00:00:00:01")
_ETH_BYTES = _ETH.pack()
_DST_IP = "10.201.0.1"
_DST_ADDR = ip_to_int(_DST_IP)
_TCP_CHECKSUM_AT = TCP_OVERHEAD - 4


class _Flow:
    """Per-flow generator state."""

    __slots__ = ("flow_id", "src_ip", "src_port", "dst_port", "seq", "template")

    def __init__(self, flow_id: int, src_ip: str, src_port: int, dst_port: int) -> None:
        self.flow_id = flow_id
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = 1
        self.template: Optional[TcpFrameTemplate] = None


class FlowTrafficSource(TrafficSource):
    """TCP flows + attack mix + reordering.

    * ``attack_fraction`` of packets carry one of ``attack_payloads``
      (fast patterns from the ruleset) in their payload.
    * ``reorder_fraction`` of packets are emitted one position late,
      swapping with their successor in the same flow.
    """

    def __init__(
        self,
        system: RosebudSystem,
        port: int,
        offered_gbps: float,
        packet_size: int,
        n_flows: int = 256,
        attack_fraction: float = 0.0,
        attack_payloads: Sequence[bytes] = (),
        reorder_fraction: float = 0.0,
        n_packets: Optional[int] = None,
        seed: int = 3,
        respect_generator_cap: bool = True,
    ) -> None:
        super().__init__(system, port, offered_gbps, n_packets, respect_generator_cap)
        if attack_fraction > 0 and not attack_payloads:
            raise ValueError("attack traffic requested but no payloads supplied")
        if packet_size < TCP_OVERHEAD + 8:
            raise ValueError(f"packet size {packet_size} too small for flow traffic")
        self.packet_size = packet_size
        self.attack_fraction = attack_fraction
        self.attack_payloads = list(attack_payloads)
        self.reorder_fraction = reorder_fraction
        self.rng = random.Random(seed)
        self.flows: List[_Flow] = [
            _Flow(
                flow_id=i,
                src_ip=f"10.{port}.{i // 250}.{i % 250 + 1}",
                src_port=1024 + self.rng.randrange(60000),
                dst_port=self.rng.choice([80, 443, 8080, 25]),
            )
            for i in range(n_flows)
        ]
        self._pending: Deque[Packet] = deque()
        #: attack pattern (None: benign) -> (padded body, its sum)
        self._variants: Dict[Optional[bytes], Tuple[bytes, int]] = {}
        self.attack_sent = 0
        self.reordered = 0

    def _variant(self, pattern: Optional[bytes]) -> Tuple[bytes, int]:
        payload_len = self.packet_size - TCP_OVERHEAD
        if pattern is None:
            payload = b"s" * payload_len
        else:
            filler = b"A" * max(0, payload_len - len(pattern) - 2)
            payload = (b"x" + pattern + filler)[:payload_len]
        body = payload + b"\x00" * (payload_len - len(payload))
        self._variants[pattern] = variant = (body, ones_complement_sum(body))
        return variant

    def _build(self, flow: _Flow, attack: bool) -> Packet:
        pattern = self.rng.choice(self.attack_payloads) if attack else None
        body, body_sum = self._variants.get(pattern) or self._variant(pattern)
        template = flow.template
        if template is None:  # first packet of the flow
            i = flow.flow_id  # src_addr == ip_to_int(flow.src_ip), without the parse
            src_addr = (10 << 24) | (self.port << 16) | ((i // 250) << 8) | (i % 250 + 1)
            template = flow.template = TcpFrameTemplate(
                _ETH_BYTES, src_addr, _DST_ADDR, flow.src_port, flow.dst_port, len(body))
        seq = flow.seq
        frame = template.frame(seq, body, body_sum)
        packet = Packet(frame, is_attack=attack, flow_id=flow.flow_id, seq_index=seq)
        checksum = (frame[_TCP_CHECKSUM_AT] << 8) | frame[_TCP_CHECKSUM_AT + 1]
        ipv4 = IPv4Header(flow.src_ip, _DST_IP, total_length=len(frame) - ETH_HEADER_SIZE,
                          checksum=template.ip_checksum)
        tcp = TCPHeader(flow.src_port, flow.dst_port, seq & 0xFFFFFFFF, checksum=checksum)
        packet._parsed = ParsedHeaders(_ETH, None, ipv4, tcp, payload_offset=TCP_OVERHEAD)
        flow.seq += len(body)  # the segment as sent, zero padding included
        return packet

    def next_packet(self) -> Packet:
        if self._pending:
            return self._pending.popleft()
        flow = self.rng.choice(self.flows)
        attack = self.rng.random() < self.attack_fraction
        if attack:
            self.attack_sent += 1
        packet = self._build(flow, attack)
        if self.rng.random() < self.reorder_fraction:
            # emit the *next* packet of this flow first, this one after
            successor = self._build(flow, False)
            self._pending.append(packet)
            self.reordered += 1
            return successor
        return packet
