"""The assembled Rosebud system (Figure 2).

:class:`RosebudSystem` wires MAC ports, the load balancer, the two
unidirectional distribution fabrics, the RPUs, the loopback port, the
broadcast system, and the host/PCIe sink into one event simulation.

The packet life cycle::

    wire -> MAC RX -> RX FIFO -> port ingress (125 MPPS) -> LB assign
         -> cluster switch -> 32G RPU link -> RPU (core -> accel)
         -> firmware action:
              forward  -> RPU out link -> cluster switch -> MAC TX -> wire
              host     -> ... -> PCIe link -> host sink
              loopback -> ... -> loopback port -> dest RPU
              drop     -> slot freed

Slots are the flow-control currency: the LB only dispatches to RPUs
holding free slots, slots return when packets leave their RPU, and a
blocked head-of-line packet at a port waits in the MAC FIFO — which is
exactly the overload behaviour §6.2 measures.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from ..packet.packet import Packet
from ..sim.kernel import Simulator
from ..sim.resources import SerialLink
from ..sim.stats import CounterSet, Histogram, RateMeter
from .config import RosebudConfig
from .descriptors import SlotError
from .firmware_api import ACTION_DROP, ACTION_HOST, ACTION_LOOPBACK, FirmwareModel, FirmwareResult
from .lb import LBPolicy, LoadBalancer
from .mac import MacPort
from .messaging import BroadcastSystem, LoopbackPort
from .pcie import PCIE_GBPS, VirtualEthernet
from .rpu import RpuModel
from .switch import DistributionFabric, PortIngress


class RosebudSystem:
    """A full Rosebud instance under simulation."""

    def __init__(
        self,
        config: RosebudConfig,
        firmware: Union[FirmwareModel, Sequence[FirmwareModel]],
        lb_policy: Optional[LBPolicy] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        """``firmware`` is either one model (cloned per RPU) or a
        sequence of ``n_rpus`` models — heterogeneous RPUs with
        different accelerators, as §4.4's processing chains use."""
        self.config = config
        self.sim = sim or Simulator()
        self.lb = LoadBalancer(config, lb_policy)

        self.macs: List[MacPort] = []
        self.port_ingress: List[PortIngress] = []
        for port in range(config.n_ports):
            mac = MacPort(
                self.sim,
                config,
                port,
                on_rx=self._make_rx_kicker(port),
                on_tx_done=self._tx_done,
            )
            self.macs.append(mac)
        for port, mac in enumerate(self.macs):
            self.port_ingress.append(
                PortIngress(self.sim, config, mac, self.lb, self._dispatch)
            )

        self.fabric_in = DistributionFabric(
            self.sim, config, "in", self._deliver_to_rpu
        )
        self.fabric_out = DistributionFabric(
            self.sim, config, "out", self._egress_done, on_rpu_out=self._left_rpu
        )

        if isinstance(firmware, FirmwareModel):
            firmwares: List[FirmwareModel] = [
                firmware.clone() for _ in range(config.n_rpus)
            ]
        else:
            firmwares = list(firmware)
            if len(firmwares) != config.n_rpus:
                raise ValueError(
                    f"need {config.n_rpus} firmware models, got {len(firmwares)}"
                )
        self.rpus: List[RpuModel] = [
            RpuModel(self.sim, config, idx, firmwares[idx], self._rpu_action)
            for idx in range(config.n_rpus)
        ]
        self.loopback = LoopbackPort(self.sim, config, self._loopback_done)
        self.broadcast = BroadcastSystem(self.sim, config)

        period = config.clock.period_ns

        def pcie_service(packet: Packet, nbytes: int) -> float:
            return nbytes * 8 / PCIE_GBPS / period

        self.host_link = SerialLink(
            self.sim, "pcie", pcie_service, self._host_received
        )
        self.host_rx: List[Packet] = []
        self.virtual_ethernet = VirtualEthernet(
            self.sim, config, self._assign_from_host
        )

        # measurement state
        self.counters = CounterSet(
            ["delivered", "dropped_by_firmware", "to_host", "loopbacked"]
        )
        self._delivered = self.counters["delivered"]
        self._to_host = self.counters["to_host"]
        self._dropped_by_firmware = self.counters["dropped_by_firmware"]
        self.host_meter = RateMeter()
        self.latency_us = Histogram("forwarding_latency_us")
        #: optional hook on every MAC TX completion
        self.on_delivery: Optional[Callable[[Packet], None]] = None

        #: fluid fast-forward support: when enabled, every in-flight
        #: packet is registered so a clock warp can translate its
        #: absolute timestamps (born_at feeds the latency histogram).
        #: Off by default — the hot path pays nothing.
        self.track_live_packets = False
        self._live_packets: dict = {}

    # -- traffic entry -------------------------------------------------------------

    def offer_packet(self, port: int, packet: Packet) -> None:
        """A frame starts arriving at physical port ``port``."""
        packet.born_at = self.sim.now
        packet.ingress_port = port
        if self.track_live_packets:
            self._live_packets[packet.packet_id] = packet
        self.macs[port].receive(packet)

    # -- wiring callbacks ------------------------------------------------------------

    def _make_rx_kicker(self, port: int) -> Callable[[], None]:
        def kick() -> None:
            self.port_ingress[port].kick()

        return kick

    def _tx_done(self, packet: Packet) -> None:
        """A frame finished leaving a physical port (the MAC counts it)."""
        if self.track_live_packets:
            self._live_packets.pop(packet.packet_id, None)
        self._delivered.add()
        latency_cycles = self.sim.now - packet.born_at
        self.latency_us.record(self.config.clock.cycles_to_us(latency_cycles))
        if self.on_delivery is not None:
            self.on_delivery(packet)

    def _dispatch(self, packet: Packet) -> None:
        self.fabric_in.send_to_rpu(packet)

    def _assign_from_host(self, packet: Packet) -> bool:
        """Virtual-Ethernet ingress: LB labels host-sourced frames like
        any other ingress; False defers (no free slot)."""
        rpu = self.lb.assign(packet)
        if rpu is None:
            return False
        packet.stamp("lb_assigned", self.sim.now)
        self.fabric_in.send_to_rpu(packet, input_class="host")
        return True

    def _deliver_to_rpu(self, packet: Packet) -> None:
        assert packet.dest_rpu is not None
        self.rpus[packet.dest_rpu].deliver(packet)

    # -- firmware actions ---------------------------------------------------------------

    def _rpu_action(self, packet: Packet, result: FirmwareResult, rpu_index: int) -> None:
        packet.route = result
        if result.action == ACTION_DROP:
            if self.track_live_packets:
                self._live_packets.pop(packet.packet_id, None)
            self._dropped_by_firmware.add()
            self._free_slot(rpu_index, packet.slot)
            return
        packet.src_slot = (rpu_index, packet.slot)
        if result.action == ACTION_LOOPBACK:
            self._start_loopback(packet, rpu_index)
            return
        self.fabric_out.send_from_rpu(packet, rpu_index)

    def _start_loopback(self, packet: Packet, rpu_index: int) -> None:
        """Core asks the LB for a slot at the destination RPU; polls
        until one is free, then ships the packet out."""
        dest = packet.route.loopback_dest
        assert dest is not None
        if self.lb.slots.has_free(dest):
            new_slot = self.lb.slots.allocate(dest)
            packet.dest_rpu = dest
            packet.slot = new_slot
            self.counters.add("loopbacked")
            self.fabric_out.send_from_rpu(packet, rpu_index)
        else:
            self.sim.schedule(
                4, lambda: self._start_loopback(packet, rpu_index), name="lb_slot_poll"
            )

    def _left_rpu(self, packet: Packet, rpu_index: int) -> None:
        """Packet fully left its source RPU: return the slot credit."""
        if packet.src_slot is not None:
            src_rpu, src_slot = packet.src_slot
            packet.src_slot = None
            self._free_slot(src_rpu, src_slot)

    def _free_slot(self, rpu: int, slot: int) -> None:
        try:
            self.lb.slot_freed(rpu, slot)
        except SlotError:
            return  # slot was flushed by the host during reconfiguration
        self.retry_blocked_ports()

    def retry_blocked_ports(self) -> None:
        """Let every head-of-line blocked port retry its LB assignment:
        after anything that frees a slot or re-enables an RPU."""
        for ingress in self.port_ingress:
            ingress.slot_freed()

    def _egress_done(self, packet: Packet) -> None:
        result = packet.route
        assert result is not None
        if result.action == ACTION_HOST:
            self.host_link.offer(packet, packet.size)
        elif result.action == ACTION_LOOPBACK:
            self.loopback.send(packet)
        else:
            self.macs[result.egress_port].transmit(packet)

    def _loopback_done(self, packet: Packet) -> None:
        """Loopback port delivered the packet to the ingress fabric of
        the destination RPU."""
        self.fabric_in.send_to_rpu(packet, input_class="loopback")

    def _host_received(self, packet: Packet) -> None:
        if self.track_live_packets:
            self._live_packets.pop(packet.packet_id, None)
        self._to_host.add()
        self.host_meter.record_packet(packet.size)
        self._record_host(packet)

    def _record_host(self, packet: Packet) -> None:
        self.host_rx.append(packet)

    # -- fluid fast-forward (repro.fluid) -----------------------------------------------

    def shift_live_packets(self, delta: float) -> int:
        """Translate every in-flight packet's absolute timestamps by
        ``delta`` (a clock warp moved the simulation's epoch).  Packets
        that were dropped at the MAC level (their drop path does not
        come back through the system callbacks) are pruned lazily here.
        Returns the number of live packets shifted."""
        dead = [
            pid for pid, packet in self._live_packets.items() if packet.dropped
        ]
        for pid in dead:
            del self._live_packets[pid]
        for packet in self._live_packets.values():
            packet.born_at += delta
            if packet.timestamps:
                for key in packet.timestamps:
                    packet.timestamps[key] += delta
        return len(self._live_packets)

    # -- results -----------------------------------------------------------------------

    def total_rx_drops(self) -> int:
        return sum(mac.counters.value("rx_drops") for mac in self.macs)

    def rpu_packet_counts(self) -> List[int]:
        """Per-RPU processed-packet counters (host-visible, §4.3)."""
        return [rpu.counters.value("packets") for rpu in self.rpus]
