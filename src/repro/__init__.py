"""repro — a Python reproduction of Rosebud (ASPLOS 2023).

Rosebud is a framework for FPGA-accelerated middleboxes built around
Reconfigurable Packet-processing Units (RPUs): RISC-V soft cores that
orchestrate custom hardware accelerators inside partially
reconfigurable FPGA regions, fed by a customizable load balancer and a
two-stage packet distribution fabric.

This package reproduces the system in simulation:

* :mod:`repro.sim` — discrete-event kernel and rate/latency arithmetic
* :mod:`repro.packet` — packets, headers, crafting, pcap
* :mod:`repro.riscv` — RV32IM assembler + instruction-set simulator
* :mod:`repro.hw` — FPGA resource/placement models (Tables 1-4)
* :mod:`repro.core` — the Rosebud framework itself
* :mod:`repro.accel` — firewall and Pigasus accelerators
* :mod:`repro.firmware` — RPU firmware (behavioural + assembly)
* :mod:`repro.traffic` — workload generation
* :mod:`repro.baselines` — Snort/Hyperscan and host-side full matching
* :mod:`repro.analysis` — measurement harness and analytic models
* :mod:`repro.serve` — online serving mode (sessions, feeds, JSON-RPC)

Stable public surface
---------------------

Everything in ``__all__`` below is the supported API — import these
from ``repro`` directly, not from deep module paths.  The surface is
versioned by :data:`__api_version__` (bumped on incompatible changes;
see ``docs/API.md`` for the migration table).  Heavier names resolve
lazily (PEP 562) so ``import repro`` stays light.
"""

__version__ = "1.1.0"
#: Version of the stable public surface declared in ``__all__``.
__api_version__ = "1"

from .core.config import CONFIG_16_RPU, CONFIG_8_RPU, RosebudConfig
from .core.system import RosebudSystem

#: name -> (module, attribute): the lazily-resolved part of the API.
_LAZY_EXPORTS = {
    "ExperimentSpec": ("repro.analysis.spec", "ExperimentSpec"),
    "ExperimentResult": ("repro.analysis.spec", "ExperimentResult"),
    "TrafficProfile": ("repro.analysis.spec", "TrafficProfile"),
    "MeasurementWindow": ("repro.analysis.spec", "MeasurementWindow"),
    "ThroughputResult": ("repro.analysis.harness", "ThroughputResult"),
    "run_experiment": ("repro.analysis.engine", "run_experiment"),
    "SweepRunner": ("repro.analysis.engine", "SweepRunner"),
    "SimSession": ("repro.serve.session", "SimSession"),
    "TrafficFeed": ("repro.serve.feed", "TrafficFeed"),
    "PcapFeed": ("repro.serve.feed", "PcapFeed"),
    "FaultSpec": ("repro.faults.spec", "FaultSpec"),
    "verify_firmware": ("repro.verify", "verify_firmware"),
    "ClusterSpec": ("repro.cluster.spec", "ClusterSpec"),
    "ClusterEngine": ("repro.cluster.engine", "ClusterEngine"),
}

__all__ = [
    "CONFIG_16_RPU",
    "CONFIG_8_RPU",
    "RosebudConfig",
    "RosebudSystem",
    "ExperimentSpec",
    "ExperimentResult",
    "TrafficProfile",
    "MeasurementWindow",
    "ThroughputResult",
    "run_experiment",
    "SweepRunner",
    "SimSession",
    "TrafficFeed",
    "PcapFeed",
    "FaultSpec",
    "verify_firmware",
    "ClusterSpec",
    "ClusterEngine",
    "__version__",
    "__api_version__",
]


def __getattr__(name):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value
