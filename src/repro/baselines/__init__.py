"""Comparison baselines: Snort+Hyperscan on CPU and host-side full
rule verification."""

from .full_match import HostFullMatcher, Verdict
from .snort import RAMDISK_SPEEDUP, SnortBaseline

__all__ = [
    "HostFullMatcher",
    "Verdict",
    "RAMDISK_SPEEDUP",
    "SnortBaseline",
]
