"""Heterogeneous processing chains over the loopback port (§4.4).

"Inter-core packet messaging can also be used to implement a processing
chain of heterogeneous RPUs with different accelerators and
capabilities."  :class:`ChainStageFirmware` wraps any firmware model as
one stage of such a chain: packets it would *forward* are instead
looped to the next stage's RPU; packets it drops or punts to the host
leave the chain immediately.  The last stage forwards normally.

The canonical composition — firewall stages feeding IDS stages — gives
a two-function middlebox where each PR region holds only one
accelerator (useful when both don't fit in a single RPU's region).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.firmware_api import (
    ACTION_FORWARD,
    ACTION_LOOPBACK,
    FirmwareModel,
    FirmwareResult,
)
from ..packet.packet import Packet

#: Extra core cycles to request a remote slot and relabel the packet.
CHAIN_HOP_CYCLES = 8


class ChainStageFirmware(FirmwareModel):
    """One stage of a loopback chain.

    ``next_rpu`` is the RPU index of the next stage, or None for the
    final stage (whose forwards go to the wire).
    """

    name = "chain_stage"

    def __init__(self, inner: FirmwareModel, next_rpu: Optional[int]) -> None:
        self.inner = inner
        self.next_rpu = next_rpu

    def on_boot(self, rpu_index: int, config) -> None:
        self.inner.on_boot(rpu_index, config)

    def process(self, packet: Packet, rpu_index: int) -> FirmwareResult:
        result = self.inner.process(packet, rpu_index)
        if result.action == ACTION_FORWARD and self.next_rpu is not None:
            return FirmwareResult(
                action=ACTION_LOOPBACK,
                sw_cycles=result.sw_cycles + CHAIN_HOP_CYCLES,
                accel_cycles=result.accel_cycles,
                loopback_dest=self.next_rpu,
                appended_bytes=result.appended_bytes,
            )
        return result


def build_chain(
    stages: Sequence[Sequence[FirmwareModel]],
) -> list:
    """Compose per-RPU firmware for a chain.

    ``stages`` is a list of stages, each a list of firmware models (one
    per RPU in that stage).  RPU indices are assigned in order; each
    stage-``k`` RPU ``i`` forwards to stage-``k+1`` RPU ``i % width``.
    Returns the flat per-RPU firmware list for ``RosebudSystem``.
    """
    if not stages or any(not stage for stage in stages):
        raise ValueError("every stage needs at least one firmware")
    # compute the base index of every stage
    bases = []
    base = 0
    for stage in stages:
        bases.append(base)
        base += len(stage)
    firmwares = []
    for stage_idx, stage in enumerate(stages):
        last = stage_idx == len(stages) - 1
        next_base = bases[stage_idx + 1] if not last else 0
        next_width = len(stages[stage_idx + 1]) if not last else 0
        for i, inner in enumerate(stage):
            next_rpu = None if last else next_base + (i % next_width)
            firmwares.append(ChainStageFirmware(inner, next_rpu))
    return firmwares
