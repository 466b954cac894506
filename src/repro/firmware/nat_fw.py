"""A NAT middlebox built on the Rosebud public API.

Not a paper case study — it's the kind of "future effort bolstered by
this platform" §8.2 anticipates, and it exercises parts of the
framework the two case studies don't: in-place header *rewriting* (the
shared packet memory is writable by the core, §4.1), the incremental
checksum accelerator, and per-RPU connection state behind the hash LB
(flow affinity makes the NAT table purely local, no cross-RPU
coherence needed).

Behaviour: source NAT for traffic entering port 0 ("inside") — rewrite
(src_ip, src_port) to (public_ip, allocated port) and forward out
port 1; reverse-translate traffic entering port 1 that matches an
allocated port; drop unknown outside traffic.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

from ..accel.checksum_accel import (
    ChecksumUpdateAccelerator,
    update_for_fields,
    words_of_ip,
)
from ..core.firmware_api import (
    ACTION_DROP,
    ACTION_FORWARD,
    FirmwareModel,
    FirmwareResult,
)
from ..packet.headers import ETH_HEADER_SIZE, ip_to_int
from ..packet.packet import Packet

#: Per-packet core cost: parse + table lookup + two header stores +
#: three accelerator round trips.  Comparable to the firewall's cost
#: plus the rewrite work.
NAT_HIT_CYCLES = 58
NAT_MISS_ALLOC_CYCLES = 74  # first packet of a flow allocates a port
NAT_DROP_CYCLES = 24

INSIDE_PORT = 0
OUTSIDE_PORT = 1


class NatFirmware(FirmwareModel):
    """Source NAT with per-RPU port allocation.

    Each RPU owns a disjoint public-port range (``base + index*span``),
    so no inter-RPU coordination is needed — the allocation-partitioning
    trick real scaled-out NATs use, here for free via the LB.
    """

    name = "nat"

    def __init__(
        self,
        public_ip: str = "198.51.100.1",
        port_span: int = 4096,
        port_base: int = 10_000,
    ) -> None:
        self.public_ip = public_ip
        self.public_ip_int = ip_to_int(public_ip)
        self.port_span = port_span
        self.port_base = port_base
        self.csum_accel = ChecksumUpdateAccelerator()
        # per-RPU state, created on boot
        self._forward: Dict[Tuple[str, int], int] = {}
        self._reverse: Dict[int, Tuple[str, int]] = {}
        self._next_port = 0
        self._rpu_index = 0
        self.translated = 0
        self.dropped = 0

    def on_boot(self, rpu_index: int, config) -> None:
        self._rpu_index = rpu_index
        self._forward = {}
        self._reverse = {}
        self._next_port = 0

    # -- translation helpers ---------------------------------------------------------

    def _allocate_port(self, key: Tuple[str, int]) -> Optional[int]:
        if self._next_port >= self.port_span:
            return None
        port = self.port_base + self._rpu_index * self.port_span + self._next_port
        self._next_port += 1
        self._forward[key] = port
        self._reverse[port] = key
        return port

    def _rewrite_outbound(self, packet: Packet, nat_port: int) -> None:
        """In-place rewrite of src IP/port + incremental checksums."""
        parsed = packet.parsed
        old_ip = ip_to_int(parsed.ipv4.src)
        old_port = parsed.tcp.src_port
        data = bytearray(packet.data)
        ip_off = ETH_HEADER_SIZE
        struct.pack_into("!I", data, ip_off + 12, self.public_ip_int)
        struct.pack_into("!H", data, ip_off + 20, nat_port)
        # IP header checksum: two IP words changed
        old_csum = struct.unpack_from("!H", data, ip_off + 10)[0]
        edits = list(zip(words_of_ip(old_ip), words_of_ip(self.public_ip_int)))
        new_csum = update_for_fields(old_csum, edits)
        struct.pack_into("!H", data, ip_off + 10, new_csum)
        # TCP checksum covers the pseudo-header IPs and the port
        tcp_off = ip_off + 20
        old_tcp_csum = struct.unpack_from("!H", data, tcp_off + 16)[0]
        tcp_edits = edits + [(old_port, nat_port)]
        struct.pack_into("!H", data, tcp_off + 16, update_for_fields(old_tcp_csum, tcp_edits))
        packet.data = bytes(data)
        packet.invalidate_parse_cache()
        self.csum_accel.updates += len(edits) + len(tcp_edits)

    # front door: a reply to an allocated NAT port; no bundled source,
    # trace or inject addresses one, since the port is allocated at run time
    def _rewrite_inbound(self, packet: Packet, inside: Tuple[str, int]) -> None:
        parsed = packet.parsed
        inside_ip, inside_port = inside
        old_ip = ip_to_int(parsed.ipv4.dst)
        old_port = parsed.tcp.dst_port
        data = bytearray(packet.data)
        ip_off = ETH_HEADER_SIZE
        new_ip = ip_to_int(inside_ip)
        struct.pack_into("!I", data, ip_off + 16, new_ip)
        struct.pack_into("!H", data, ip_off + 22, inside_port)
        old_csum = struct.unpack_from("!H", data, ip_off + 10)[0]
        edits = list(zip(words_of_ip(old_ip), words_of_ip(new_ip)))
        struct.pack_into("!H", data, ip_off + 10, update_for_fields(old_csum, edits))
        tcp_off = ip_off + 20
        old_tcp_csum = struct.unpack_from("!H", data, tcp_off + 16)[0]
        tcp_edits = edits + [(old_port, inside_port)]
        struct.pack_into("!H", data, tcp_off + 16, update_for_fields(old_tcp_csum, tcp_edits))
        packet.data = bytes(data)
        packet.invalidate_parse_cache()
        self.csum_accel.updates += len(edits) + len(tcp_edits)

    # -- the firmware entry point --------------------------------------------------------

    def process(self, packet: Packet, rpu_index: int) -> FirmwareResult:
        parsed = packet.parsed
        if parsed.ipv4 is None or parsed.tcp is None:
            self.dropped += 1
            return FirmwareResult(action=ACTION_DROP, sw_cycles=NAT_DROP_CYCLES)

        if packet.ingress_port == INSIDE_PORT:
            key = (parsed.ipv4.src, parsed.tcp.src_port)
            nat_port = self._forward.get(key)
            cycles = NAT_HIT_CYCLES
            if nat_port is None:
                nat_port = self._allocate_port(key)
                cycles = NAT_MISS_ALLOC_CYCLES
                if nat_port is None:
                    self.dropped += 1
                    return FirmwareResult(action=ACTION_DROP, sw_cycles=NAT_DROP_CYCLES)
            self._rewrite_outbound(packet, nat_port)
            self.translated += 1
            return FirmwareResult(
                action=ACTION_FORWARD, sw_cycles=cycles, egress_port=OUTSIDE_PORT
            )

        # outside -> inside: must match an allocated mapping
        inside = self._reverse.get(parsed.tcp.dst_port)
        if inside is None or parsed.ipv4.dst != self.public_ip:
            self.dropped += 1
            return FirmwareResult(action=ACTION_DROP, sw_cycles=NAT_DROP_CYCLES)
        self._rewrite_inbound(packet, inside)
        self.translated += 1
        return FirmwareResult(
            action=ACTION_FORWARD, sw_cycles=NAT_HIT_CYCLES, egress_port=INSIDE_PORT
        )

    def clone(self) -> "NatFirmware":
        return NatFirmware(self.public_ip, self.port_span, self.port_base)
