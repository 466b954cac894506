"""Clock and rate conversions.

Rosebud's fabric runs at 250 MHz (4 ns per cycle).  Throughput figures in
the paper use Ethernet "effective" rates: the quoted packet size excludes
the 4-byte FCS, and each frame additionally occupies 8 bytes of preamble
plus 12 bytes of inter-frame gap on the wire.  These helpers centralise
that arithmetic so benchmarks and the core model agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Per-frame wire overhead in bytes: preamble (8) + IFG (12).  The FCS
#: (4) is also on the wire but excluded from quoted packet sizes, so a
#: quoted ``size``-byte packet occupies ``size + FCS + preamble + IFG``.
PREAMBLE_BYTES = 8
IFG_BYTES = 12
FCS_BYTES = 4
WIRE_OVERHEAD_BYTES = PREAMBLE_BYTES + IFG_BYTES + FCS_BYTES  # 24


@dataclass(frozen=True)
class Clock:
    """A fabric clock.

    ``freq_hz`` defaults to Rosebud's 250 MHz.
    """

    freq_hz: float = 250e6

    @property
    def period_ns(self) -> float:
        return 1e9 / self.freq_hz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.period_ns

    def ns_to_cycles(self, ns: float) -> float:
        return ns / self.period_ns

    def cycles_to_us(self, cycles: float) -> float:
        return self.cycles_to_ns(cycles) / 1e3

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.freq_hz


ROSEBUD_CLOCK = Clock(250e6)


def wire_bytes(packet_size: int) -> int:
    """Bytes a quoted ``packet_size`` packet occupies on the wire."""
    return packet_size + WIRE_OVERHEAD_BYTES


def line_rate_pps(link_gbps: float, packet_size: int) -> float:
    """Maximum packets/second of ``packet_size`` frames on a link."""
    return link_gbps * 1e9 / (wire_bytes(packet_size) * 8)


def line_rate_gbps(pps: float, packet_size: int) -> float:
    """Effective goodput (quoted-size bits/s) achieved at ``pps``."""
    return pps * packet_size * 8 / 1e9


def max_effective_gbps(link_gbps: float, packet_size: int) -> float:
    """The paper's dotted "maximum theoretical effective rate" lines."""
    return line_rate_gbps(line_rate_pps(link_gbps, packet_size), packet_size)
