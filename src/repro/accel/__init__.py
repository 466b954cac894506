"""RPU accelerators: framework, firewall IP matcher, Pigasus engines."""

from .base import Accelerator, AcceleratorError
from .checksum_accel import ChecksumUpdateAccelerator, incremental_update, update_for_fields
from .hash import FlowHashAccelerator
from .firewall import (
    IpBlacklistMatcher,
    LOOKUP_CYCLES,
    Prefix,
    generate_blacklist,
    generate_verilog,
    parse_blacklist,
)

__all__ = [
    "Accelerator",
    "AcceleratorError",
    "IpBlacklistMatcher",
    "FlowHashAccelerator",
    "ChecksumUpdateAccelerator",
    "incremental_update",
    "update_for_fields",
    "LOOKUP_CYCLES",
    "Prefix",
    "generate_blacklist",
    "generate_verilog",
    "parse_blacklist",
]
