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


class DistributionFabric:
    """The cluster switches and RPU links of one direction (ingress or
    egress).

    Ingress: cluster switch -> RPU link -> deliver(packet).  Egress: RPU
    link -> cluster switch -> deliver(packet, ready), where ``ready`` is
    when the frame leaves the fabric.

    Each cluster's 512-bit switch is booked like a :class:`SerialLink`:
    :meth:`_book` starts a frame at ``max(ready, free_at)``, holds the
    switch for the frame's :class:`SwitchTiming` service and hands it on
    cut-through, its head ``cut`` cycles after its start.

    The real ingress switch keeps a FIFO per input interface ("non-
    blocking forwarding: each FIFO provides bit-width conversion without
    blocking the other incoming interfaces", §4.3) and arbitrates only
    when two inputs target the same output.  So a frame that reaches a
    free switch with no frame waiting is booked at once, with no kernel
    event; otherwise it joins its input class's queue, and one
    ``cluster{c}.in`` event at ``free_at`` grants the port, host and
    loopback queues round robin, rescheduling itself while frames wait.
    A frame that arrives at the instant its switch frees is booked at
    once if no frame waits.

    Only RPU links feed an egress switch, so it never queues: a frame
    whose RPU link finishes at ``now`` is ready ``rpu_out_fixed`` later
    and is handed on at once, ``dist_out_fixed`` after its head leaves
    the switch.  Frames are booked in RPU-link finish order, which is
    ``ready`` order; two frames from different clusters that reach one
    MAC at the same ``ready`` are served there in that order too.
    """

    #: ingress input classes, in round-robin order
    INPUT_CLASSES = ("port", "host", "loopback")

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
        #: when each cluster's switch is next free
        self.free_at = [0.0] * config.n_clusters
        self._timing = SwitchTiming(config)
        sim.warp_shifts.append(self._shift)

        def service(packet: Packet, nbytes: int) -> float:
            return float(config.rpu_link_service_cycles(nbytes))

        # one 128-bit (32 Gbps) link per RPU in this direction
        if direction == "in":
            self.rpu_links = [
                SerialLink(sim, f"rpu{i}.in", service, deliver, config.rpu_in_fixed_cycles)
                for i in range(config.n_rpus)
            ]
            #: per cluster, the frames waiting in each input class
            self.queues = [
                [deque() for _ in self.INPUT_CLASSES] for _ in range(config.n_clusters)
            ]
            self.arbiters = [
                RoundRobinArbiter(len(self.INPUT_CLASSES)) for _ in range(config.n_clusters)
            ]
        else:
            self.rpu_links = [
                SerialLink(sim, f"rpu{i}.out", service,
                           partial(self._rpu_out_done, i, config.rpu_cluster(i)))
                for i in range(config.n_rpus)
            ]

    def _book(self, cluster: int, packet: Packet, ready: float) -> float:
        """Book ``packet`` on ``cluster``'s switch; return when its head
        reaches the next stage."""
        service, cut = self._timing[packet.size]
        free_at = self.free_at[cluster]
        start = ready if ready > free_at else free_at
        self.free_at[cluster] = start + service
        return start + cut

    def _shift(self, delta: float) -> None:
        """:meth:`Simulator.warp` moved the epoch by ``delta``."""
        self.free_at = [t + delta for t in self.free_at]

    # -- ingress direction -------------------------------------------------

    def send_to_rpu(self, packet: Packet, input_class: str = "port") -> None:
        assert self.direction == "in" and packet.dest_rpu is not None
        if input_class not in self.INPUT_CLASSES:
            raise ValueError(f"unknown input class {input_class!r}")
        cluster = self.config.rpu_cluster(packet.dest_rpu)
        queues = self.queues[cluster]
        waiting = any(queues)
        queues[self.INPUT_CLASSES.index(input_class)].append(packet)
        if not waiting:  # else the pending grant serves it
            self._grant(cluster)

    def _grant(self, cluster: int) -> None:
        """Grant one waiting frame if the switch is free; while frames
        wait, grant again when it next frees."""
        queues = self.queues[cluster]
        if self.sim.now >= self.free_at[cluster]:
            packet = queues[self.arbiters[cluster].select(list(map(bool, queues)))].popleft()
            at = self._book(cluster, packet, self.sim.now)
            self.rpu_links[packet.dest_rpu].offer(
                packet, packet.size, at + self.config.dist_in_fixed_cycles
            )
            if not any(queues):
                return
        self.sim.schedule_at(
            self.free_at[cluster], partial(self._grant, cluster), name=f"cluster{cluster}.in"
        )

    # -- egress direction ----------------------------------------------------

    def send_from_rpu(self, packet: Packet, rpu_index: int) -> None:
        assert self.direction == "out"
        self.rpu_links[rpu_index].offer(packet, packet.size)

    def _rpu_out_done(self, rpu_index: int, cluster: int, packet: Packet) -> None:
        if self.on_rpu_out is not None:
            self.on_rpu_out(packet, rpu_index)
        at = self._book(cluster, packet, self.sim.now + self.config.rpu_out_fixed_cycles)
        self.deliver(packet, at + self.config.dist_out_fixed_cycles)
