"""The Snort-on-Xeon baseline (§7.1.3).

The paper's software comparison point runs Snort with Hyperscan and
AF_PACKET on a 32-core Xeon 6130, configured to perform *only* the same
fast-pattern matching as the Pigasus accelerators.  Its packet rate
plateaus between 4.7 and 5.6 MPPS regardless of packet size — pattern
matching on the CPU is per-packet-dominated, unlike the FPGA's
byte-parallel engines.

:class:`SnortBaseline` does the matching functionally (same
Aho–Corasick automaton as the accelerator, so verdicts agree exactly)
and reports throughput from a calibrated per-packet CPU cost model.
"""

from __future__ import annotations

from typing import List, Sequence

from ..accel.pigasus.ruleset import Rule
from ..accel.pigasus.string_match import PigasusStringMatcher
from ..packet.packet import Packet
from ..sim.clock import line_rate_pps

#: Measured plateau of the paper's Snort runs (MPPS).
SNORT_MPPS_AT_64B = 5.6
SNORT_MPPS_AT_2048B = 4.7

#: The ramdisk experiment: removing AF_PACKET lifted 2048 B throughput
#: from 60 to 70 Gbps (~17 %), showing the kernel path is not the
#: primary bottleneck.
RAMDISK_SPEEDUP = 70.0 / 60.0


class SnortBaseline:
    """Software IDS with Hyperscan-style multi-pattern matching."""

    name = "snort+hyperscan"

    def __init__(self, rules: Sequence[Rule], ramdisk: bool = False) -> None:
        self.rules = list(rules)
        self.matcher = PigasusStringMatcher()
        self.matcher.load_rules(self.rules)
        self.ramdisk = ramdisk

    # -- performance model -------------------------------------------------------

    def peak_mpps(self, packet_size: int) -> float:
        """Linear interpolation of the measured 4.7-5.6 MPPS plateau."""
        size = min(max(packet_size, 64), 2048)
        frac = (size - 64) / (2048 - 64)
        mpps = SNORT_MPPS_AT_64B + frac * (SNORT_MPPS_AT_2048B - SNORT_MPPS_AT_64B)
        if self.ramdisk:
            mpps *= RAMDISK_SPEEDUP
        return mpps

    def throughput_gbps(self, packet_size: int, offered_gbps: float = 200.0) -> float:
        """Achievable rate for a packet size: CPU plateau vs line rate."""
        line_pps = line_rate_pps(offered_gbps, packet_size)
        pps = min(self.peak_mpps(packet_size) * 1e6, line_pps)
        return pps * packet_size * 8 / 1e9

    def throughput_mpps(self, packet_size: int, offered_gbps: float = 200.0) -> float:
        return self.throughput_gbps(packet_size, offered_gbps) * 1e9 / (packet_size * 8) / 1e6

    # -- functional matching ----------------------------------------------------------

    # front door: the reference that
    # `tests/test_core_variants.py::TestVerdictParity` compares the
    # Pigasus firmware's alerts against, packet by packet
    def inspect(self, packet: Packet) -> List[int]:
        """Fast-pattern + port-group match, identical to the accelerator."""
        parsed = packet.parsed
        if parsed.tcp is not None:
            return self.matcher.scan(
                packet.payload, "tcp", parsed.tcp.src_port, parsed.tcp.dst_port
            )
        if parsed.udp is not None:
            return self.matcher.scan(
                packet.payload, "udp", parsed.udp.src_port, parsed.udp.dst_port
            )
        return []
