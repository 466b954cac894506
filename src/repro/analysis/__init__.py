"""Measurement harness, analytic models, and report formatting."""

from .harness import ThroughputResult
from .spec import (
    ExperimentResult,
    ExperimentSpec,
    MeasurementWindow,
    SpecError,
    TrafficProfile,
)
from .engine import (
    PointOutcome,
    ResultCache,
    SweepOutcome,
    SweepRunner,
    run_experiment,
)
from .latency import (
    FIXED_LATENCY_US,
    MAC_GBPS,
    RPU_LINK_GBPS,
    SATURATED_64B_EXTRA_US,
    estimated_latency_us,
)
from .report import format_table, format_utilization_row
from .throughput import (
    BottleneckReport,
    cycle_budget_per_packet,
    forwarding_bounds,
    rpu_cycle_budget_pps,
)

__all__ = [
    "ThroughputResult",
    "ExperimentResult",
    "ExperimentSpec",
    "MeasurementWindow",
    "SpecError",
    "TrafficProfile",
    "PointOutcome",
    "ResultCache",
    "SweepOutcome",
    "SweepRunner",
    "run_experiment",
    "FIXED_LATENCY_US",
    "MAC_GBPS",
    "RPU_LINK_GBPS",
    "SATURATED_64B_EXTRA_US",
    "estimated_latency_us",
    "format_table",
    "format_utilization_row",
    "BottleneckReport",
    "cycle_budget_per_packet",
    "forwarding_bounds",
    "rpu_cycle_budget_pps",
]
