"""The firmware-side interface of the RPU.

Two layers live here:

* :class:`FirmwareModel` — the behavioural interface the event-driven
  system simulator drives: for each packet the firmware returns what to
  do with it and how many core/accelerator cycles it consumed.  The
  concrete middlebox firmwares (forwarder, firewall, Pigasus variants)
  live in :mod:`repro.firmware`.
* :class:`FirmwareAction` constants — what a descriptor release means.

Cycle numbers for the shipped firmwares are calibrated against the
RV32 instruction-set simulator running the corresponding assembly
firmware (see ``repro/firmware/asm_sources.py`` and the funcsim tests),
the same way the paper cross-checks its measurements against cocotb
simulations (§7.1.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..packet.packet import Packet

ACTION_FORWARD = "forward"
ACTION_DROP = "drop"
ACTION_HOST = "host"
ACTION_LOOPBACK = "loopback"


@dataclass
class FirmwareResult:
    """Outcome of firmware processing one packet.

    ``sw_cycles`` is time the RISC-V core is busy with this packet
    (orchestration); ``accel_cycles`` is time the RPU's accelerator
    pipeline is busy.  The two stages overlap across packets — the core
    can orchestrate packet N+1 while the accelerator chews packet N —
    so steady-state RPU throughput is ``1/max(sw, accel)``.
    """

    action: str
    sw_cycles: float
    accel_cycles: float = 0.0
    egress_port: int = 0
    loopback_dest: Optional[int] = None
    appended_bytes: int = 0

    def __post_init__(self) -> None:
        if self.action not in (ACTION_FORWARD, ACTION_DROP, ACTION_HOST, ACTION_LOOPBACK):
            raise ValueError(f"unknown firmware action {self.action!r}")
        if self.action == ACTION_LOOPBACK and self.loopback_dest is None:
            raise ValueError("loopback action needs a destination RPU")


class FirmwareModel:
    """Behavioural firmware loaded into an RPU.

    Subclasses override :meth:`process`; ``on_boot`` runs when the RPU
    (re)boots, e.g. after a partial reconfiguration, and is where flow
    tables are cleared.
    """

    name = "firmware"

    #: Declaration that :meth:`process` is a pure function of (packet
    #: class, ingress port, rpu index) that mutates nothing beyond
    #: ``self.x += n`` counter bumps.  ``verify.replaylint`` checks the
    #: claim against the source and the fluid gate admits only firmware
    #: that passes.  Firmware with per-flow state (NAT, flow tables)
    #: keeps the default.
    replay_safe = False

    def on_boot(self, rpu_index: int, config) -> None:
        """Called when the RPU boots; default is stateless."""

    def process(self, packet: Packet, rpu_index: int) -> FirmwareResult:
        raise NotImplementedError

    def clone(self) -> "FirmwareModel":
        """A fresh instance for another RPU (firmware state is per-RPU)."""
        return type(self)()
