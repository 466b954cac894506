"""Helpers shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

from repro.packet import EthernetHeader, Packet

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def build_raw(size, ethertype=0x88B5):
    """A non-IP Ethernet frame of exactly ``size`` bytes."""
    return Packet(EthernetHeader(ethertype=ethertype).pack() + bytes(size - 14))


def next_time(sim):
    """Time of the next live event, or None when none is pending."""
    return min((time for time, _ in sim.iter_pending()), default=None)


def load_bench_module(name):
    """Import ``benchmarks/<name>.py`` by path (benchmarks/ is not a package)."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve annotations through it
        spec.loader.exec_module(module)
    return sys.modules[name]
