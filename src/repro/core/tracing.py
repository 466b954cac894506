"""Per-packet pipeline tracing — the waveform replacement.

§2.3's complaint: hardware debugging means staring at simulation
waveforms.  The system simulator can do better: every packet already
carries stage timestamps, and :class:`PacketTracer` turns them into a
readable per-packet timeline (when it hit the MAC, when the LB labelled
it, when it landed in which RPU, when it left), plus where time was
spent.  The debugging example prints these timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..packet.packet import Packet
from .system import RosebudSystem

#: Stage label -> packet timestamp key, in pipeline order.
_STAGES: Tuple[Tuple[str, str], ...] = (
    ("mac_rx", "mac_rx_done"),
    ("lb_assign", "lb_assigned"),
    ("rpu_in", "rpu_deliver"),
    ("rpu_done", "rpu_done"),
)


@dataclass
class TraceEvent:
    """One stage crossing of one packet."""

    stage: str
    at_cycles: float
    delta_cycles: float


@dataclass
class PacketTrace:
    """The reconstructed timeline of one packet."""

    packet_id: int
    size: int
    dest_rpu: Optional[int]
    action: Optional[str]
    born_at: float
    completed_at: Optional[float]
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def total_cycles(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.born_at

    def format(self, clock_period_ns: float = 4.0) -> str:
        lines = [
            f"packet #{self.packet_id} ({self.size}B) -> "
            f"RPU {self.dest_rpu} -> {self.action or '?'}"
        ]
        for event in self.events:
            lines.append(
                f"  {event.stage:<10} @ {event.at_cycles * clock_period_ns:8.1f} ns"
                f"  (+{event.delta_cycles * clock_period_ns:6.1f} ns)"
            )
        if self.total_cycles is not None:
            lines.append(
                f"  {'total':<10}   {self.total_cycles * clock_period_ns:8.1f} ns"
            )
        return "\n".join(lines)


class PacketTracer:
    """Captures per-packet timelines from a running system.

    Attach before offering traffic; it hooks delivery and host arrival
    so completed packets are snapshotted with their stage stamps.
    """

    def __init__(self, system: RosebudSystem, max_traces: int = 1000) -> None:
        self.system = system
        self.max_traces = max_traces
        self.traces: Dict[int, PacketTrace] = {}
        self._prev_on_delivery = system.on_delivery
        system.on_delivery = self._on_complete
        self._orig_record_host = system._record_host
        system._record_host = self._on_host

    def _on_complete(self, packet: Packet) -> None:
        self._capture(packet, completed=True)
        if self._prev_on_delivery is not None:
            self._prev_on_delivery(packet)

    # front door: a traced packet that the firmware sends to the host
    def _on_host(self, packet: Packet) -> None:
        self._capture(packet, completed=True)
        self._orig_record_host(packet)

    def _capture(self, packet: Packet, completed: bool) -> None:
        if len(self.traces) >= self.max_traces and packet.packet_id not in self.traces:
            return
        trace = PacketTrace(
            packet_id=packet.packet_id,
            size=packet.size,
            dest_rpu=packet.dest_rpu,
            action=packet.route.action if packet.route else None,
            born_at=packet.born_at,
            completed_at=self.system.sim.now if completed else None,
        )
        previous = packet.born_at
        for stage, key in _STAGES:
            at = packet.timestamps.get(key)
            if at is None:
                continue
            trace.events.append(TraceEvent(stage, at, at - previous))
            previous = at
        if completed:
            trace.events.append(
                TraceEvent("egress", self.system.sim.now, self.system.sim.now - previous)
            )
        self.traces[packet.packet_id] = trace

    # -- queries -------------------------------------------------------------------

    def trace_of(self, packet_id: int) -> Optional[PacketTrace]:
        return self.traces.get(packet_id)

    # front door: interactive debugging (§3.4); no scripted caller
    def slowest(self, n: int = 5) -> List[PacketTrace]:
        done = [t for t in self.traces.values() if t.total_cycles is not None]
        return sorted(done, key=lambda t: t.total_cycles, reverse=True)[:n]

    def stage_breakdown(self) -> Dict[str, float]:
        """Mean cycles spent reaching each stage — where latency lives."""
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for trace in self.traces.values():
            for event in trace.events:
                sums[event.stage] = sums.get(event.stage, 0.0) + event.delta_cycles
                counts[event.stage] = counts.get(event.stage, 0) + 1
        return {stage: sums[stage] / counts[stage] for stage in sums}

    # front door: interactive debugging (§3.4); no scripted caller
    def detach(self) -> None:
        self.system.on_delivery = self._prev_on_delivery
        self.system._record_host = self._orig_record_host
