"""Packet distribution subsystem (§4.3).

Two stages of unidirectional switches carry packets between ports and
RPUs: full-rate 512-bit cluster switches, then 128-bit (32 Gbps) links
into each RPU.  Separate instances exist for the incoming and outgoing
directions, so they never block each other.

:class:`PortIngress` models the per-port front end: it pulls frames
from the MAC RX FIFO, spends the (calibrated) per-packet cycles that
cap each port at 125 MPPS, asks the LB for a destination, and launches
the frame into the destination cluster's ingress switch.  When no slot
is available the head frame waits — head-of-line blocking at the port,
which is what fills the MAC FIFO under overload.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Optional, Tuple

from ..packet.packet import Packet
from ..sim.kernel import Simulator
from ..sim.resources import RoundRobinArbiter, SerialLink
from ..sim.stats import CounterSet
from .config import RosebudConfig
from .lb import LoadBalancer
from .mac import MacPort


class PortIngress:
    """Per-port ingress processing + LB assignment."""

    def __init__(
        self,
        sim: Simulator,
        config: RosebudConfig,
        port: MacPort,
        lb: LoadBalancer,
        dispatch: Callable[[Packet], None],
    ) -> None:
        self.sim = sim
        self.config = config
        self.port = port
        self.lb = lb
        self.dispatch = dispatch
        #: frames too big for a packet slot, dropped here (one of the five
        #: sinks that partition every offered packet)
        self.counters = CounterSet(["oversize_drops"])
        self._current: Optional[Packet] = None
        self._busy = False
        self._waiting_for_slot = False

    def kick(self) -> None:
        """MAC signalled a frame is ready (or a slot freed)."""
        if self._busy:
            return
        if self._current is None:
            self._current = self.port.rx_pop()
            if self._current is None:
                return
        self._busy = True
        delay = self.config.port_ingress_cycles
        self.sim.schedule(delay, self._try_assign, name="port_ingress")

    def _try_assign(self) -> None:
        packet = self._current
        assert packet is not None
        # a frame must fit in one packet slot (minus the DMA offset);
        # anything bigger cannot be stored and is dropped here
        if packet.size > self.config.slot_bytes - 16:
            self.counters.add("oversize_drops")
            packet.drop("frame exceeds packet slot")
            self._current = None
            self._busy = False
            self.kick()
            return
        rpu = self.lb.assign(packet)
        if rpu is None:
            # head-of-line block until a slot frees
            self._busy = False
            self._waiting_for_slot = True
            return
        self._waiting_for_slot = False
        packet.stamp("lb_assigned", self.sim.now)
        self._current = None
        self._busy = False
        self.dispatch(packet)
        self.kick()

    def slot_freed(self) -> None:
        """Retry a head-of-line blocked frame."""
        if self._waiting_for_slot and not self._busy:
            self._busy = True
            # retry costs a cycle of re-arbitration
            self.sim.schedule(1, self._try_assign, name="port_ingress_retry")


class SwitchTiming(dict):
    """``size -> (service, cut-through)`` cycles of a frame on a 512-bit
    cluster switch (its beats plus arbitration; its head's delay)."""

    def __init__(self, config: RosebudConfig) -> None:
        super().__init__()
        self.config = config

    def __missing__(self, size: int) -> Tuple[float, float]:
        service = float(self.config.cluster_service_cycles(size))
        cut = min(service, float(self.config.cluster_cut_through_cycles))
        self[size] = (service, cut)
        return service, cut


class ClusterSwitch:
    """One cluster's 512-bit ingress switch.

    The real switch keeps a FIFO per input interface ("non-blocking
    forwarding: each FIFO provides bit-width conversion without
    blocking the other incoming interfaces", §4.3) and arbitrates only
    when two inputs target the same output.  This model keeps per-
    input-class queues and grants them round robin (§4.3).

    A grant holds the switch for the frame's :class:`SwitchTiming`
    service time; delivery is cut-through: at grant, ``on_done(packet,
    at)`` hands the frame on with the time ``at`` its head reaches the
    next stage.
    """

    #: input classes, in round-robin order
    INPUT_CLASSES = ("port", "host", "loopback")

    def __init__(
        self,
        sim: Simulator,
        config: RosebudConfig,
        name: str,
        on_done: Callable[[Packet, float], None],
    ) -> None:
        self.sim = sim
        self.config = config
        self.name = name
        self._on_done = on_done
        self._queues = {cls: deque() for cls in self.INPUT_CLASSES}
        self._queue_list = [self._queues[cls] for cls in self.INPUT_CLASSES]
        self._timing = SwitchTiming(config)
        self._busy = False
        self._arbiter = RoundRobinArbiter(len(self.INPUT_CLASSES))

    def send(self, packet: Packet, input_class: str = "port") -> None:
        if input_class not in self._queues:
            raise ValueError(f"unknown input class {input_class!r}")
        self._queues[input_class].append(packet)
        if not self._busy:
            self._grant()

    def _grant(self) -> None:
        winner = self._arbiter.select(list(map(bool, self._queue_list)))
        if winner is None:
            self._busy = False
            return
        packet = self._queue_list[winner].popleft()
        self._busy = True
        service, cut_through = self._timing[packet.size]
        self._on_done(packet, self.sim.now + cut_through)
        self.sim.schedule(service, self._grant, name=self.name)


class DistributionFabric:
    """The switches and links of one direction (ingress or egress).

    Ingress: cluster switch -> RPU link -> deliver(packet).  The switch
    arbitrates among port, host and loopback frames.

    Egress: RPU link -> cluster switch -> deliver(packet, ready), where
    ``ready`` is when the frame leaves the fabric.  Only RPU links feed
    an egress switch, so it is a FIFO server, booked like a
    :class:`SerialLink` with no kernel event: a frame whose RPU link
    finishes at ``now`` starts at ``max(now + rpu_out_fixed, free_at)``
    and is handed on at once, ``cut + dist_out_fixed`` after its start.
    Frames are booked in RPU-link finish order, which is ``ready``
    order; two frames from different clusters that reach one MAC at the
    same ``ready`` are served there in that order too.
    """

    def __init__(
        self,
        sim: Simulator,
        config: RosebudConfig,
        direction: str,
        deliver: Callable[..., None],
        on_rpu_out: Optional[Callable[[Packet, int], None]] = None,
    ) -> None:
        if direction not in ("in", "out"):
            raise ValueError("direction must be 'in' or 'out'")
        self.sim = sim
        self.config = config
        self.direction = direction
        self.deliver = deliver
        self.on_rpu_out = on_rpu_out

        def service(packet: Packet, nbytes: int) -> float:
            return float(config.rpu_link_service_cycles(nbytes))

        # one 128-bit (32 Gbps) link per RPU in this direction
        if direction == "in":
            self.rpu_links = [
                SerialLink(sim, f"rpu{i}.in", service, deliver, config.rpu_in_fixed_cycles)
                for i in range(config.n_rpus)
            ]
            self.cluster_switches = [
                ClusterSwitch(sim, config, f"cluster{c}.in", self._cluster_in_done)
                for c in range(config.n_clusters)
            ]
        else:
            #: when each cluster's egress switch is next free
            self.free_at = [0.0] * config.n_clusters
            self._timing = SwitchTiming(config)
            self.rpu_links = [
                SerialLink(sim, f"rpu{i}.out", service,
                           partial(self._rpu_out_done, i, config.rpu_cluster(i)))
                for i in range(config.n_rpus)
            ]
            sim.warp_shifts.append(self._shift)

    # -- ingress direction -------------------------------------------------

    def send_to_rpu(self, packet: Packet, input_class: str = "port") -> None:
        assert self.direction == "in" and packet.dest_rpu is not None
        cluster = self.config.rpu_cluster(packet.dest_rpu)
        self.cluster_switches[cluster].send(packet, input_class)

    def _cluster_in_done(self, packet: Packet, at: float) -> None:
        link = self.rpu_links[packet.dest_rpu]
        link.offer(packet, packet.size, at + self.config.dist_in_fixed_cycles)

    # -- egress direction ----------------------------------------------------

    def send_from_rpu(self, packet: Packet, rpu_index: int) -> None:
        assert self.direction == "out"
        self.rpu_links[rpu_index].offer(packet, packet.size)

    def _rpu_out_done(self, rpu_index: int, cluster: int, packet: Packet) -> None:
        if self.on_rpu_out is not None:
            self.on_rpu_out(packet, rpu_index)
        service, cut = self._timing[packet.size]
        ready = self.sim.now + self.config.rpu_out_fixed_cycles
        free_at = self.free_at[cluster]
        start = ready if ready > free_at else free_at
        self.free_at[cluster] = start + service
        self.deliver(packet, start + cut + self.config.dist_out_fixed_cycles)

    def _shift(self, delta: float) -> None:
        """:meth:`Simulator.warp` moved the epoch by ``delta``."""
        self.free_at = [t + delta for t in self.free_at]
