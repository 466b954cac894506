"""Closed-form throughput bounds.

The event simulator *measures* throughput; these formulas *predict* it
from the same constants, following the bottleneck analysis of §6.1 and
§7.1.4.  Agreement between the two (checked by tests) is the internal
consistency argument for the model; the formulas are also what the
benchmark reports print next to measured values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.config import RosebudConfig
from ..sim.clock import line_rate_pps


def rpu_cycle_budget_pps(
    clock_hz: float,
    n_rpus: int,
    sw_cycles_per_packet: float,
    accel_cycles_per_packet: float = 0.0,
) -> float:
    """Aggregate RPU packet service rate, in packets/second.

    The paper's cycle-budget formula (docs/FIRMWARE_API.md): software
    orchestration and accelerator occupancy overlap, so the RPU
    sustains ``clock / max(sw_cycles, accel_cycles)`` packets per
    second, times the number of RPUs.  This is the single source of
    truth shared by :func:`forwarding_bounds`, ``repro verify``
    (``repro.verify.budget``), and the engine pre-flight hook — any
    duplicated arithmetic would let the analyzer and the simulator
    disagree on feasibility.
    """
    return n_rpus * clock_hz / max(1.0, sw_cycles_per_packet, accel_cycles_per_packet)


def cycle_budget_per_packet(
    clock_hz: float,
    n_rpus: int,
    packet_size: int,
    target_gbps: float,
) -> float:
    """Cycles each packet may spend on an RPU while holding ``target_gbps``.

    The inverse view of :func:`rpu_cycle_budget_pps`: at the target
    line rate the cluster must retire ``line_rate_pps`` packets/s, so
    each of the ``n_rpus`` cores has ``n_rpus * clock / pps`` cycles
    per packet.  A firmware whose worst-case cycles/packet exceeds
    this budget cannot hold the target rate.
    """
    return n_rpus * clock_hz / line_rate_pps(target_gbps, packet_size)


@dataclass
class BottleneckReport:
    """Predicted packet rate and which resource binds it."""

    packet_size: int
    offered_pps: float
    predicted_pps: float
    bottleneck: str
    per_bound_pps: Dict[str, float]


def forwarding_bounds(
    config: RosebudConfig,
    packet_size: int,
    n_ports: int,
    port_gbps: float,
    sw_cycles_per_packet: float,
    accel_cycles_per_packet: float = 0.0,
    generator_pps_per_port: float = 125e6,
) -> BottleneckReport:
    """Predict forwarding rate for a packet size and firmware cost.

    Bounds considered (all in packets/second):

    * line rate of the offered ports,
    * the tester's generation cap,
    * the 125 MPPS-per-port ingress (LB labelling) limit,
    * aggregate cluster-switch service,
    * aggregate per-RPU link service,
    * aggregate RPU core (software) service,
    * aggregate RPU accelerator service.
    """
    clock = config.clock.freq_hz
    line = n_ports * line_rate_pps(port_gbps, packet_size)
    bounds: Dict[str, float] = {
        "line_rate": line,
        "generator": n_ports * generator_pps_per_port,
        "port_ingress": n_ports * clock / config.port_ingress_cycles,
        "cluster_switch": config.n_clusters
        * clock
        / config.cluster_service_cycles(packet_size),
        "rpu_link": config.n_rpus
        * clock
        / config.rpu_link_service_cycles(packet_size),
        "rpu_software": rpu_cycle_budget_pps(clock, config.n_rpus, sw_cycles_per_packet),
    }
    if accel_cycles_per_packet > 0:
        bounds["rpu_accel"] = rpu_cycle_budget_pps(
            clock, config.n_rpus, 1.0, accel_cycles_per_packet
        )
    bottleneck = min(bounds, key=bounds.get)
    return BottleneckReport(
        packet_size=packet_size,
        offered_pps=line,
        predicted_pps=bounds[bottleneck],
        bottleneck=bottleneck,
        per_bound_pps=bounds,
    )
