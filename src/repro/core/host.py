"""Host-side control (§3.2, §4.1, Appendix A.6-A.8).

The host library talks to Rosebud over PCIe: it reads status counters,
pauses and pokes RPUs, dumps RPU memory, drives the LB's register
channel, and performs runtime partial reconfiguration of an RPU with
the drain protocol:

1. tell the LB to stop sending packets to the RPU,
2. wait for the packets inside the RPU to drain,
3. load the new bitfile and boot the RISC-V (756 ms measured average),
4. tell the LB to resume.

Because other RPUs keep absorbing traffic throughout, the update is
"no-pause" from the network's point of view — the reconfiguration
benchmark asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.firmware_api import FirmwareModel
from .system import RosebudSystem


@dataclass
class ReconfigRecord:
    """Timing of one partial-reconfiguration operation."""

    rpu: int
    requested_at: float
    drained_at: float = 0.0
    booted_at: float = 0.0

    def drain_cycles(self) -> float:
        return self.drained_at - self.requested_at

    def total_cycles(self) -> float:
        return self.booted_at - self.requested_at


@dataclass
class WatchdogEvent:
    """One automatic hang recovery: detect -> evict -> reconfigure."""

    rpu: int
    detected_at: float
    packets_lost: int
    recovered_at: float = 0.0

    @property
    def recovered(self) -> bool:
        return self.recovered_at > 0.0

    def recovery_cycles(self) -> float:
        """MTTR in cycles, from detection to the RPU serving again."""
        return self.recovered_at - self.detected_at


class HostInterface:
    """The host's view of a running Rosebud system."""

    def __init__(self, system: RosebudSystem, pr_load_ms: Optional[float] = None) -> None:
        self.system = system
        self.config = system.config
        #: PR bitfile load + boot time; defaults to the paper's 756 ms
        #: but benchmarks can scale it to keep simulations short.
        self.pr_load_ms = pr_load_ms if pr_load_ms is not None else self.config.pr_load_ms
        self.reconfig_log: List[ReconfigRecord] = []
        self.watchdog_log: List[WatchdogEvent] = []
        self._watchdog_event = None
        self._recovering: set = set()

    # -- status counters (§4.3) ----------------------------------------------------

    def read_interface_counters(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for idx, mac in enumerate(self.system.macs):
            out[f"port{idx}"] = mac.counters.snapshot()
        return out

    # front door: the host's per-RPU status counters (§4.3), read interactively
    def read_rpu_counters(self) -> List[Dict[str, int]]:
        return [rpu.counters.snapshot() for rpu in self.system.rpus]

    # -- LB register channel -----------------------------------------------------------

    def lb_write(self, addr: int, value: int) -> None:
        self.system.lb.host_write(addr, value)
        # a mask that re-enables RPUs or a flush that frees slots must
        # wake the ports blocked on the old state
        self.system.retry_blocked_ports()

    def set_receive_mask(self, mask: int) -> None:
        """The artifact's RECV= mask: which RPUs take incoming traffic."""
        self.lb_write(self.system.lb.REG_ENABLE_MASK, mask)

    # -- RPU debugging (§3.4) -------------------------------------------------------------

    def poke_rpu(self, rpu: int) -> Dict[str, int]:
        """Send a poke interrupt and read the RPU's state: it stops
        taking new packets and reports its queues."""
        model = self.system.rpus[rpu]
        model.pause()
        state = {
            "in_flight": model.in_flight,
            "packets_processed": model.counters.value("packets"),
            "paused": int(model.paused),
        }
        model.resume()
        return state

    # front door: the §3.4 status-word breakpoints, read interactively
    def read_status_registers(self) -> List[int]:
        """The breakpoint-like mechanism of §3.4: firmware sets status
        words, the host watches them change."""
        return [rpu.status_register for rpu in self.system.rpus]

    def check_watchdogs(self, threshold_cycles: float = 100_000) -> List[int]:
        """RPUs holding packets without forward progress — the hang
        condition a RISC-V timer interrupt reports (§3.4)."""
        return [
            rpu.index
            for rpu in self.system.rpus
            if rpu.stalled(threshold_cycles)
        ]

    def evict_rpu(self, rpu: int) -> int:
        """Force-evict a wedged RPU (Appendix A.8): stop LB traffic to
        it, abandon its packets, and reclaim the slot credits.  Returns
        how many packets were abandoned.  Follow with
        :meth:`reconfigure_rpu` to bring it back.

        Evicting the *last* active RPU is allowed but leaves the LB with
        no candidates: ingress traffic queues at the ports (head-of-line
        in the MAC FIFOs) until an RPU is reconfigured back in.
        """
        self.system.lb.disable_rpu(rpu)
        abandoned = self.system.rpus[rpu].evict()
        self.system.lb.slots.flush(rpu)
        # abandoned slots will never come back through the fabric; let
        # head-of-line blocked ports retry against the flushed table
        self.system.retry_blocked_ports()
        return len(abandoned)

    # -- hang watchdog (Appendix A.8 automated) ----------------------------------------

    def start_watchdog(
        self,
        firmware_factory: Callable[[], FirmwareModel],
        threshold_cycles: float = 50_000.0,
        poll_cycles: float = 5_000.0,
    ) -> None:
        """Poll :meth:`check_watchdogs` on the simulation clock and
        auto-recover stalled RPUs: evict, then reconfigure with a fresh
        ``firmware_factory()`` image.  Every recovery is logged as a
        :class:`WatchdogEvent` (detection time, packets abandoned,
        recovery completion)."""
        if self._watchdog_event is not None:
            raise RuntimeError("watchdog already running")
        sim = self.system.sim

        def poll() -> None:
            for rpu in self.check_watchdogs(threshold_cycles):
                if rpu in self._recovering:
                    continue
                self._recovering.add(rpu)
                lost = self.evict_rpu(rpu)
                event = WatchdogEvent(
                    rpu=rpu, detected_at=sim.now, packets_lost=lost
                )
                self.watchdog_log.append(event)

                def booted(record: ReconfigRecord, event: WatchdogEvent = event) -> None:
                    event.recovered_at = record.booted_at
                    self._recovering.discard(record.rpu)

                self.reconfigure_rpu(rpu, firmware_factory(), on_complete=booted)
            self._watchdog_event = sim.schedule(poll_cycles, poll, name="watchdog")

        self._watchdog_event = sim.schedule(poll_cycles, poll, name="watchdog")

    def stop_watchdog(self) -> None:
        if self._watchdog_event is not None:
            self._watchdog_event.cancel()
            self._watchdog_event = None

    # -- virtual Ethernet (Appendix A.6-A.7) -------------------------------------------

    def inject_packet(self, packet) -> None:
        """Send a frame through the virtual Ethernet interface (the
        artifact's trace-injection path)."""
        self.system.virtual_ethernet.send(packet)

    # -- partial reconfiguration ------------------------------------------------------------

    def reconfigure_rpu(
        self,
        rpu: int,
        new_firmware: FirmwareModel,
        on_complete: Optional[Callable[[ReconfigRecord], None]] = None,
    ) -> ReconfigRecord:
        """Run the drain -> load -> boot -> resume protocol.

        Returns the (eventually filled) timing record; completion is
        asynchronous in simulation time.
        """
        sim = self.system.sim
        record = ReconfigRecord(rpu=rpu, requested_at=sim.now)
        self.reconfig_log.append(record)
        self.system.lb.disable_rpu(rpu)

        def poll_drained() -> None:
            model = self.system.rpus[rpu]
            if model.in_flight > 0 or self.system.lb.slots.occupancy(rpu) > 0:
                sim.schedule(32, poll_drained, name="pr_drain_poll")
                return
            record.drained_at = sim.now
            # flush any stale slot credits, then load + boot
            self.system.lb.slots.flush(rpu)
            load_cycles = self.config.clock.ns_to_cycles(self.pr_load_ms * 1e6)
            sim.schedule(load_cycles, finish_load, name="pr_load")

        def finish_load() -> None:
            model = self.system.rpus[rpu]
            model.pause()
            model.reboot(new_firmware)
            self.system.lb.enable_rpu(rpu)
            self.system.retry_blocked_ports()
            record.booted_at = sim.now
            if on_complete is not None:
                on_complete(record)

        sim.schedule(0, poll_drained, name="pr_start")
        return record
