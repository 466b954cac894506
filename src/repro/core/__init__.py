"""The Rosebud framework core: config, LB, switches, RPUs, host API."""

from .config import CONFIG_16_RPU, CONFIG_8_RPU, ConfigError, RosebudConfig
from .descriptors import Descriptor, SlotError, SlotTable
from .firmware_api import (
    ACTION_DROP,
    ACTION_FORWARD,
    ACTION_HOST,
    ACTION_LOOPBACK,
    FirmwareModel,
    FirmwareResult,
)
from .funcsim import FunctionalRpu, SentPacket
from .host import HostInterface, ReconfigRecord, WatchdogEvent
from .lb import (
    HashLB,
    LBPolicy,
    LeastLoadedLB,
    LoadBalancer,
    PowerOfTwoChoicesLB,
    RoundRobinLB,
    flow_hash,
)
from .mac import MacPort
from .messaging import BroadcastMessage, BroadcastSystem, LoopbackPort
from .pcie import PCIE_GBPS, VirtualEthernet
from .profiler import Sample, StatsSampler
from .rpu import RpuModel
from .switch import DistributionFabric, PortIngress
from .system import RosebudSystem
from .tracing import PacketTrace, PacketTracer, TraceEvent

__all__ = [
    "CONFIG_16_RPU",
    "CONFIG_8_RPU",
    "ConfigError",
    "RosebudConfig",
    "Descriptor",
    "SlotError",
    "SlotTable",
    "ACTION_DROP",
    "ACTION_FORWARD",
    "ACTION_HOST",
    "ACTION_LOOPBACK",
    "FirmwareModel",
    "FirmwareResult",
    "FunctionalRpu",
    "SentPacket",
    "HostInterface",
    "ReconfigRecord",
    "WatchdogEvent",
    "HashLB",
    "LBPolicy",
    "LeastLoadedLB",
    "PowerOfTwoChoicesLB",
    "LoadBalancer",
    "RoundRobinLB",
    "flow_hash",
    "MacPort",
    "PCIE_GBPS",
    "VirtualEthernet",
    "BroadcastMessage",
    "Sample",
    "StatsSampler",
    "BroadcastSystem",
    "LoopbackPort",
    "RpuModel",
    "DistributionFabric",
    "PortIngress",
    "RosebudSystem",
    "PacketTrace",
    "PacketTracer",
    "TraceEvent",
]
