"""RPU firmware: behavioural models + assembly sources for the ISS."""

from .asm_sources import FIREWALL_ASM, FORWARDER_ASM, IO_BASE, IO_EXT_BASE, PIGASUS_ASM
from .firewall_fw import FIREWALL_CYCLES, FirewallFirmware
from .chain_fw import ChainStageFirmware, build_chain
from .nat_fw import NatFirmware
from .forwarder import FORWARDER_CYCLES, ForwarderFirmware, TwoStepForwarder
from .pigasus_fw import (
    ATTACK_CYCLES,
    PigasusHwReorderFirmware,
    PigasusSwReorderFirmware,
    SW_REORDER_BASE,
    TCP_SAFE_CYCLES,
    UDP_SAFE_CYCLES,
)

__all__ = [
    "FIREWALL_ASM",
    "FORWARDER_ASM",
    "IO_BASE",
    "IO_EXT_BASE",
    "PIGASUS_ASM",
    "FIREWALL_CYCLES",
    "FirewallFirmware",
    "FORWARDER_CYCLES",
    "NatFirmware",
    "ChainStageFirmware",
    "build_chain",
    "ForwarderFirmware",
    "TwoStepForwarder",
    "ATTACK_CYCLES",
    "PigasusHwReorderFirmware",
    "PigasusSwReorderFirmware",
    "SW_REORDER_BASE",
    "TCP_SAFE_CYCLES",
    "UDP_SAFE_CYCLES",
]
