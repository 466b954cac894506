"""Workload generation: rate-controlled sources, flows, attack traces."""

from .attack import attack_trace_from_rules, firewall_trace
from .flows import FlowTrafficSource
from .generator import (
    IMIX_MIX,
    ImixSource,
    FixedSizeSource,
    GENERATOR_MAX_PPS_PER_PORT,
    ReplaySource,
    TrafficSource,
)

__all__ = [
    "attack_trace_from_rules",
    "firewall_trace",
    "FlowTrafficSource",
    "IMIX_MIX",
    "ImixSource",
    "FixedSizeSource",
    "GENERATOR_MAX_PPS_PER_PORT",
    "ReplaySource",
    "TrafficSource",
]
