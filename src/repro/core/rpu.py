"""Event-level RPU model (§4.1).

Inside an RPU the RISC-V core orchestrates (parses headers, feeds the
accelerator, releases descriptors) while the accelerator pipeline does
the heavy per-byte work.  The two overlap across packets: the core can
start orchestrating the next packet while the accelerator is still
streaming the previous payload.  The model is therefore a two-stage
tandem queue — a serial *core* stage and a serial *accelerator* stage —
whose steady-state throughput is ``1/max(sw_cycles, accel_cycles)``,
exactly the analysis of §7.1.4.

The functional counterpart — a full RV32 ISS wired to real memories and
MMIO accelerators — lives in :mod:`repro.core.funcsim`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..packet.packet import Packet
from ..sim.kernel import Simulator
from ..sim.stats import CounterSet
from .config import RosebudConfig
from .firmware_api import FirmwareModel, FirmwareResult


class RpuModel:
    """One RPU: input descriptor queue -> core stage -> accel stage."""

    def __init__(
        self,
        sim: Simulator,
        config: RosebudConfig,
        index: int,
        firmware: FirmwareModel,
        on_action: Callable[[Packet, FirmwareResult, int], None],
    ) -> None:
        self.sim = sim
        self.config = config
        self.index = index
        self.firmware = firmware
        self.on_action = on_action
        self.counters = CounterSet(["packets", "sw_cycles", "accel_cycles"])
        self._packets = self.counters["packets"]
        self._sw_cycles = self.counters["sw_cycles"]
        self.paused = False

        self._in_queue: Deque[Packet] = deque()
        self._accel_queue: Deque[Packet] = deque()
        self._results: Dict[int, FirmwareResult] = {}
        #: the packet each stage is serving (None when idle)
        self._sw_packet: Optional[Packet] = None
        self._accel_packet: Optional[Packet] = None
        #: firmware hang (infinite loop / WFI-stuck core): descriptors
        #: queue up but nothing retires until eviction or :meth:`unwedge`
        self._wedged = False
        #: set by evict() until the next reboot/resume: frames already
        #: in the fabric when the host evicted are lost on arrival
        self._evicted = False
        #: completions swallowed while wedged, replayed on unwedge
        self._stuck: list = []
        #: host-readable status word the firmware can set (§3.4: the
        #: breakpoint-like mechanism — the host watches it change)
        self.status_register = 0
        #: last cycle this RPU made forward progress (completed a packet
        #: or was idle with an empty queue); feeds the hang watchdog
        self.last_progress = 0.0
        #: bumped by evict(): stale in-flight completions are ignored
        self._generation = 0
        firmware.on_boot(index, config)

    # -- occupancy (for drain detection during reconfiguration) ---------------

    @property
    def in_flight(self) -> int:
        return (
            len(self._in_queue)
            + len(self._accel_queue)
            + (self._sw_packet is not None)
            + (self._accel_packet is not None)
        )

    # -- packet entry -----------------------------------------------------------

    def deliver(self, packet: Packet) -> None:
        """A packet has fully landed in this RPU's packet memory and
        the interconnect posts its descriptor to the core."""
        if self._evicted:
            # the PR region is mid-reload; the host already flushed this
            # packet's slot, so the frame is simply lost on arrival
            packet.drop("rpu evicted")
            return
        packet.stamp("rpu_deliver", self.sim.now)
        self._in_queue.append(packet)
        self._kick_sw()

    # -- core (software) stage -----------------------------------------------------

    def _kick_sw(self) -> None:
        if self._sw_packet is not None or self.paused or self._wedged or not self._in_queue:
            return
        packet = self._sw_packet = self._in_queue.popleft()
        result = self.firmware.process(packet, self.index)
        self._results[packet.packet_id] = result
        self._packets.add()
        self._sw_cycles.add(int(result.sw_cycles))
        generation = self._generation
        self.sim.schedule(
            result.sw_cycles,
            lambda: self._sw_done(packet, generation),
            name=f"rpu{self.index}.sw",
        )

    def _sw_done(self, packet: Packet, generation: int) -> None:
        if generation != self._generation:
            return  # evicted while in flight
        if self._wedged:
            self._stuck.append(("sw", packet))
            return  # completion swallowed by the hung core
        self._sw_packet = None
        result = self._results[packet.packet_id]
        if result.accel_cycles > 0:
            self._accel_queue.append(packet)
            self._kick_accel()
        else:
            self._finish(packet)
        self._kick_sw()

    # -- accelerator stage --------------------------------------------------------

    def _kick_accel(self) -> None:
        if self._accel_packet is not None or not self._accel_queue:
            return
        packet = self._accel_packet = self._accel_queue.popleft()
        result = self._results[packet.packet_id]
        self.counters.add("accel_cycles", int(result.accel_cycles))
        generation = self._generation
        self.sim.schedule(
            result.accel_cycles,
            lambda: self._accel_done(packet, generation),
            name=f"rpu{self.index}.accel",
        )

    def _accel_done(self, packet: Packet, generation: int) -> None:
        if generation != self._generation:
            return  # evicted while in flight
        if self._wedged:
            self._stuck.append(("accel", packet))
            return  # completion swallowed by the hung core
        self._accel_packet = None
        self._finish(packet)
        self._kick_accel()

    # -- completion ------------------------------------------------------------------

    def _finish(self, packet: Packet) -> None:
        result = self._results.pop(packet.packet_id)
        if result.appended_bytes:
            packet.data = packet.data + b"\x00" * result.appended_bytes
            packet.mark_mutated()
        packet.stamp("rpu_done", self.sim.now)
        self.last_progress = self.sim.now
        self.on_action(packet, result, self.index)

    def stalled(self, threshold_cycles: float) -> bool:
        """Hang detection (§3.4): work is pending but nothing has
        completed for ``threshold_cycles`` — the condition the RISC-V
        timer-interrupt watchdog reports to the host."""
        if self.in_flight == 0:
            return False
        return self.sim.now - self.last_progress > threshold_cycles

    # -- fault injection (firmware hang, repro.faults) ---------------------------------

    @property
    def wedged(self) -> bool:
        return self._wedged

    def wedge(self) -> None:
        """Firmware hang: the core stops picking up descriptors and
        in-flight completions never retire, so ``in_flight`` stays
        pinned and :meth:`stalled` eventually reports the hang — the
        condition the host watchdog exists to recover from."""
        self._wedged = True

    def unwedge(self) -> None:
        """The hang resolves on its own (transient livelock): swallowed
        completions retire now and queued descriptors resume."""
        if not self._wedged:
            return
        self._wedged = False
        stuck, self._stuck = self._stuck, []
        for stage, packet in stuck:
            if stage == "sw":
                self._sw_done(packet, self._generation)
            else:
                self._accel_done(packet, self._generation)
        self._kick_sw()
        self._kick_accel()

    # -- host control (pause / reboot, §3.4 & §4.1) -------------------------------------

    def pause(self) -> None:
        """Stop starting new packets (in-flight work completes)."""
        self.paused = True

    def evict(self) -> list:
        """The evict interrupt (Appendix A.8): abandon queued and
        in-flight packets so the RPU can be reloaded even when hung.
        Returns the abandoned packets (the host frees their slots)."""
        abandoned = (
            list(self._in_queue)
            + list(self._accel_queue)
            + [packet for _stage, packet in self._stuck]
        )
        self._in_queue.clear()
        self._accel_queue.clear()
        self._stuck.clear()
        self._results.clear()
        self._sw_packet = self._accel_packet = None
        self._generation += 1
        self.paused = True
        self._evicted = True
        return abandoned

    def resume(self) -> None:
        self.paused = False
        self._evicted = False
        self._kick_sw()

    def reboot(self, firmware: Optional[FirmwareModel] = None) -> None:
        """Load new firmware and boot; caller must have drained first."""
        if self.in_flight:
            raise RuntimeError(f"RPU {self.index} rebooted with packets in flight")
        if firmware is not None:
            self.firmware = firmware
        self.firmware.on_boot(self.index, self.config)
        # a fresh bitfile + boot clears any firmware hang
        self._wedged = False
        self._stuck.clear()
        self.paused = False
        self._evicted = False
        self.last_progress = self.sim.now
