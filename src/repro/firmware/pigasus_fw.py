"""Pigasus IDS firmware, both reordering variants (§7.1).

*HW reorder* (``pigasus2`` in the artifact): a reassembly accelerator
in the (round-robin) LB attaches per-flow state to each packet, so the
RPU software only parses headers and manages the string matcher.  The
paper's cocotb simulation measures 61 cycles for safe TCP packets,
59 for safe UDP, and 82 for attack traffic; those constants drive the
behavioural model and the measured average (~60.2 cycles at 1 % attack
rate) emerges from the traffic mix.

*SW reorder* (``pigasus``): the hash LB steers flows to RPUs and
prepends the flow hash; the RISC-V keeps a 32 K-entry flow table in the
0.5 MB scratch pad (16 B per entry: time, sequence number, flow hash,
trailing bytes) and performs TCP reordering in software.  The flow
table walk serializes with starting the accelerator, which is why the
per-packet cost starts at ~138 cycles and grows slightly with packet
size (§7.1.4).  Collisions and reorder-buffer exhaustion punt packets
to the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..accel.pigasus.ruleset import Rule
from ..accel.pigasus.string_match import PigasusStringMatcher
from ..core.firmware_api import (
    ACTION_DROP,
    ACTION_FORWARD,
    ACTION_HOST,
    FirmwareModel,
    FirmwareResult,
)
from ..core.lb import flow_hash
from ..packet.packet import Packet

# cocotb-measured software costs from §7.1.4
TCP_SAFE_CYCLES = 61
UDP_SAFE_CYCLES = 59
ATTACK_CYCLES = 82
NON_IP_CYCLES = 20

# SW-reorder calibration: 138.4 cycles at 64 B rising to ~150 at 1500 B
SW_REORDER_BASE = 138.0
SW_REORDER_SLOPE = 12.0 / 1436.0  # per byte above 64
SW_COLLISION_EXTRA = 10
SW_OUT_OF_ORDER_EXTRA = 25
SW_RETRANSMIT_EXTRA = 8

FLOW_TABLE_BITS = 15  # 32K entries of 16 B in 0.5 MB scratch
FLOW_TIMEOUT_CYCLES = 250_000  # 1 ms: "older flows quickly time out"


class _PigasusBase(FirmwareModel):
    """Shared scan/verdict logic for both reordering variants."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules = list(rules)
        self.matcher = PigasusStringMatcher()
        self.matcher.load_rules(self.rules)
        self.matched_packets = 0

    def _share_engines(self, other: "_PigasusBase") -> None:
        """Clones share the functional matcher (identical tables in
        every RPU's accelerator)."""
        other.matcher = self.matcher
        other.rules = self.rules

    def _scan(self, packet: Packet, payload: bytes) -> List[int]:
        parsed = packet.parsed
        if parsed.tcp is not None:
            proto, sport, dport = "tcp", parsed.tcp.src_port, parsed.tcp.dst_port
        elif parsed.udp is not None:
            proto, sport, dport = "udp", parsed.udp.src_port, parsed.udp.dst_port
        else:
            return []
        return self.matcher.scan(payload, proto, sport, dport)

    def _verdict(
        self, packet: Packet, sw_cycles: float, to_host: bool = False
    ) -> FirmwareResult:
        payload = packet.payload
        sids = self._scan(packet, payload)
        accel = self.matcher.scan_cycles(len(payload))
        if sids:
            self.matched_packets += 1
            packet.rule_ids = list(sids)
            return FirmwareResult(
                action=ACTION_HOST,
                sw_cycles=ATTACK_CYCLES if sw_cycles < ATTACK_CYCLES else sw_cycles + (ATTACK_CYCLES - TCP_SAFE_CYCLES),
                accel_cycles=accel,
                appended_bytes=4 * (len(sids) + 1),
            )
        if to_host:
            return FirmwareResult(
                action=ACTION_HOST, sw_cycles=sw_cycles, accel_cycles=accel
            )
        return FirmwareResult(
            action=ACTION_FORWARD,
            sw_cycles=sw_cycles,
            accel_cycles=accel,
            egress_port=packet.ingress_port ^ 1,
        )


class PigasusHwReorderFirmware(_PigasusBase):
    """HW-reassembly variant: software is parse + accelerator management."""

    name = "pigasus_hw_reorder"

    def process(self, packet: Packet, rpu_index: int) -> FirmwareResult:
        parsed = packet.parsed
        if parsed.ipv4 is None:
            return FirmwareResult(action=ACTION_DROP, sw_cycles=NON_IP_CYCLES)
        if parsed.tcp is not None:
            return self._verdict(packet, TCP_SAFE_CYCLES)
        if parsed.udp is not None:
            return self._verdict(packet, UDP_SAFE_CYCLES)
        return FirmwareResult(action=ACTION_DROP, sw_cycles=NON_IP_CYCLES)

    def clone(self) -> "PigasusHwReorderFirmware":
        other = PigasusHwReorderFirmware.__new__(PigasusHwReorderFirmware)
        other.matched_packets = 0
        self._share_engines(other)
        return other


@dataclass
class _FlowEntry:
    """One 16-byte flow-table entry (§7.1.2)."""

    flow_hash: int
    next_seq: int
    last_time: float
    buffered: int = 0  # out-of-order packets currently held


class PigasusSwReorderFirmware(_PigasusBase):
    """SW-reassembly variant: flow table + reorder buffers on the core.

    The model tracks real per-flow sequence state and charges the
    measured software costs; out-of-order packets are accounted (and
    punted to the host on buffer exhaustion or hash collision) without
    physically retaining them, which preserves the throughput behaviour
    the benchmark measures.
    """

    name = "pigasus_sw_reorder"

    def __init__(self, rules: Sequence[Rule], max_reorder_slots: int = 8) -> None:
        super().__init__(rules)
        self.max_reorder_slots = max_reorder_slots
        self.flow_table: Dict[int, _FlowEntry] = {}
        self.collisions = 0
        self.out_of_order = 0
        self.punted_to_host = 0

    def on_boot(self, rpu_index: int, config) -> None:
        self.flow_table = {}

    def _sw_base(self, size: int) -> float:
        return SW_REORDER_BASE + SW_REORDER_SLOPE * max(0, size - 64)

    def process(self, packet: Packet, rpu_index: int) -> FirmwareResult:
        parsed = packet.parsed
        if parsed.ipv4 is None:
            return FirmwareResult(action=ACTION_DROP, sw_cycles=NON_IP_CYCLES)
        sw = self._sw_base(packet.size)
        if parsed.udp is not None:
            return self._verdict(packet, sw - 2)  # UDP skips seq handling
        if parsed.tcp is None:
            return FirmwareResult(action=ACTION_DROP, sw_cycles=NON_IP_CYCLES)

        fhash = packet.flow_hash if packet.flow_hash is not None else flow_hash(packet)
        index = (fhash >> 3) & ((1 << FLOW_TABLE_BITS) - 1)
        now = packet.timestamps.get("rpu_deliver", 0.0)
        entry = self.flow_table.get(index)
        if entry is not None and now - entry.last_time > FLOW_TIMEOUT_CYCLES:
            entry = None  # timed out; slot is reusable
        seq = parsed.tcp.seq
        seg_len = max(1, len(packet.payload))

        if entry is None:
            self.flow_table[index] = _FlowEntry(fhash, seq + seg_len, now)
            return self._verdict(packet, sw)
        if entry.flow_hash != fhash:
            # hash collision: forward to the host (rare by design)
            self.collisions += 1
            self.punted_to_host += 1
            return self._verdict(packet, sw + SW_COLLISION_EXTRA, to_host=True)

        entry.last_time = now
        if seq == entry.next_seq:
            entry.next_seq = seq + seg_len
            if entry.buffered:
                # gap closed: drain buffered packets' bookkeeping
                sw += SW_OUT_OF_ORDER_EXTRA * entry.buffered
                entry.next_seq += entry.buffered * seg_len
                entry.buffered = 0
            return self._verdict(packet, sw)
        if seq > entry.next_seq:
            self.out_of_order += 1
            if entry.buffered >= self.max_reorder_slots:
                self.punted_to_host += 1
                return self._verdict(packet, sw + SW_OUT_OF_ORDER_EXTRA, to_host=True)
            entry.buffered += 1
            return self._verdict(packet, sw + SW_OUT_OF_ORDER_EXTRA)
        # seq < expected: retransmission / already-seen data
        return self._verdict(packet, sw + SW_RETRANSMIT_EXTRA)

    def clone(self) -> "PigasusSwReorderFirmware":
        other = PigasusSwReorderFirmware.__new__(PigasusSwReorderFirmware)
        other.max_reorder_slots = self.max_reorder_slots
        other.flow_table = {}
        other.collisions = 0
        other.out_of_order = 0
        other.punted_to_host = 0
        other.matched_packets = 0
        self._share_engines(other)
        return other
