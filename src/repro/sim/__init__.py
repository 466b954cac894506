"""Discrete-event simulation substrate for the Rosebud reproduction."""

from .clock import (
    Clock,
    ROSEBUD_CLOCK,
    WIRE_OVERHEAD_BYTES,
    line_rate_gbps,
    line_rate_pps,
    max_effective_gbps,
    wire_bytes,
)
from .kernel import Event, SimProfile, SimulationError, Simulator
from .resources import BoundedFifo, RoundRobinArbiter, SerialLink
from .stats import Counter, CounterSet, Histogram, RateMeter

__all__ = [
    "Clock",
    "ROSEBUD_CLOCK",
    "WIRE_OVERHEAD_BYTES",
    "line_rate_gbps",
    "line_rate_pps",
    "max_effective_gbps",
    "wire_bytes",
    "Event",
    "SimProfile",
    "SimulationError",
    "Simulator",
    "BoundedFifo",
    "RoundRobinArbiter",
    "SerialLink",
    "Counter",
    "CounterSet",
    "Histogram",
    "RateMeter",
]
