"""The basic packet forwarder (``basic_fw`` in the artifact, §6.1).

Reads a descriptor, swaps the port bit, releases the descriptor: the
paper measures 16 cycles for this loop on the VexRiscv, which caps each
RPU at one packet per 16 cycles and the 16-RPU design at 250 MPPS.
The corresponding assembly firmware (``repro.firmware.asm_sources``)
runs on the instruction-set simulator and the funcsim tests assert its
measured loop time is consistent with this constant.
"""

from __future__ import annotations

from ..core.firmware_api import (
    ACTION_FORWARD,
    FirmwareModel,
    FirmwareResult,
)
from ..packet.packet import Packet

#: Minimum descriptor turnaround measured by the paper (§6.1).
FORWARDER_CYCLES = 16


class ForwarderFirmware(FirmwareModel):
    """Swap-port forwarder.

    ``single_port`` pins all egress to one port (the artifact's 100 G
    single-port variant built by "updating the C code to use a single
    port", Artifact D.6).
    """

    name = "basic_fw"
    replay_safe = True

    def __init__(self, sw_cycles: int = FORWARDER_CYCLES, single_port: int = -1) -> None:
        self.sw_cycles = sw_cycles
        self.single_port = single_port

    def process(self, packet: Packet, rpu_index: int) -> FirmwareResult:
        if self.single_port >= 0:
            egress = self.single_port
        else:
            egress = packet.ingress_port ^ 1
        return FirmwareResult(
            action=ACTION_FORWARD, sw_cycles=self.sw_cycles, egress_port=egress
        )

    def clone(self) -> "ForwarderFirmware":
        return ForwarderFirmware(self.sw_cycles, self.single_port)


class TwoStepForwarder(FirmwareModel):
    """The inter-core loopback benchmark firmware (§6.3).

    Half the RPUs receive from the wire and forward each packet to a
    partner RPU in the other half via the loopback port; the partner
    returns it to the link.
    """

    name = "loopback_fw"
    replay_safe = True

    def __init__(self, n_rpus: int, sw_cycles: int = FORWARDER_CYCLES) -> None:
        self.n_rpus = n_rpus
        self.sw_cycles = sw_cycles

    def process(self, packet: Packet, rpu_index: int) -> FirmwareResult:
        half = self.n_rpus // 2
        if rpu_index < half:
            return FirmwareResult(
                action="loopback",
                sw_cycles=self.sw_cycles,
                loopback_dest=rpu_index + half,
            )
        return FirmwareResult(
            action=ACTION_FORWARD,
            sw_cycles=self.sw_cycles,
            egress_port=packet.ingress_port ^ 1,
        )

    def clone(self) -> "TwoStepForwarder":
        return TwoStepForwarder(self.n_rpus, self.sw_cycles)
