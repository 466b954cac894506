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
from typing import Callable, Dict, Optional, Tuple

from ..packet.packet import Packet
from ..sim.kernel import Simulator
from ..sim.resources import PriorityArbiter, RoundRobinArbiter, SerialLink
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


class ClusterSwitch:
    """One direction of one cluster's 512-bit switch.

    The real switch keeps a FIFO per input interface ("non-blocking
    forwarding: each FIFO provides bit-width conversion without
    blocking the other incoming interfaces", §4.3) and arbitrates only
    when two inputs target the same output.  This model keeps per-
    input-class queues and a pluggable arbiter — round robin by
    default, replaceable with fixed priority "if desired" (§4.3), which
    ``config.cluster_arbitration`` selects.

    Service time is the beat count of the frame (plus internal header)
    over the 512-bit bus plus the arbitration overhead; delivery is
    cut-through while the link stays occupied for the full beat count.
    """

    #: input classes, in priority order for the priority arbiter
    INPUT_CLASSES = ("port", "host", "loopback")

    def __init__(
        self,
        sim: Simulator,
        config: RosebudConfig,
        name: str,
        on_done: Callable[[Packet], None],
    ) -> None:
        self.sim = sim
        self.config = config
        self.name = name
        self._on_done = on_done
        self._queues = {cls: deque() for cls in self.INPUT_CLASSES}
        self._queue_list = [self._queues[cls] for cls in self.INPUT_CLASSES]
        self._timing: Dict[int, Tuple[float, float]] = {}  # size -> (service, cut-through)
        self._busy = False
        if config.cluster_arbitration == "rr":
            self._arbiter = RoundRobinArbiter(len(self.INPUT_CLASSES))
        elif config.cluster_arbitration == "priority":
            self._arbiter = PriorityArbiter(len(self.INPUT_CLASSES))
        else:
            raise ValueError(
                f"unknown cluster arbitration {config.cluster_arbitration!r}"
            )

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
        size = packet.size
        if size not in self._timing:
            service = float(self.config.cluster_service_cycles(size))
            cut = min(service, float(self.config.cluster_cut_through_cycles))
            self._timing[size] = (service, cut)
        service, cut_through = self._timing[size]
        self.sim.schedule(
            cut_through, lambda: self._on_done(packet), name=self.name
        )
        self.sim.schedule(service, self._grant, name=self.name)


class DistributionFabric:
    """All switches for one direction (ingress or egress).

    Ingress: cluster switch -> RPU link -> deliver(packet, rpu).
    Egress: RPU link -> cluster switch -> deliver(packet).
    The two directions instantiate this class separately with the
    stage order expressed by the wiring below.
    """

    def __init__(
        self,
        sim: Simulator,
        config: RosebudConfig,
        direction: str,
        deliver: Callable[[Packet], None],
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
            # cluster switch feeds per-RPU links
            self.rpu_links = [
                SerialLink(sim, f"rpu{i}.in", service, self._rpu_in_done)
                for i in range(config.n_rpus)
            ]
            self.cluster_switches = [
                ClusterSwitch(sim, config, f"cluster{c}.in", self._cluster_in_done)
                for c in range(config.n_clusters)
            ]
        else:
            # per-RPU links feed cluster switches
            self.cluster_switches = [
                ClusterSwitch(sim, config, f"cluster{c}.out", self._cluster_out_done)
                for c in range(config.n_clusters)
            ]
            self.rpu_links = [
                SerialLink(sim, f"rpu{i}.out", service, partial(self._rpu_out_done, i))
                for i in range(config.n_rpus)
            ]

    # -- ingress direction -------------------------------------------------

    def send_to_rpu(self, packet: Packet, input_class: str = "port") -> None:
        assert self.direction == "in" and packet.dest_rpu is not None
        cluster = self.config.rpu_cluster(packet.dest_rpu)
        self.cluster_switches[cluster].send(packet, input_class)

    def _cluster_in_done(self, packet: Packet) -> None:
        assert packet.dest_rpu is not None
        self.sim.schedule(
            self.config.dist_in_fixed_cycles,
            lambda: self.rpu_links[packet.dest_rpu].offer(packet, packet.size),
            name="dist_in_fixed",
        )

    def _rpu_in_done(self, packet: Packet) -> None:
        self.sim.schedule(
            self.config.rpu_in_fixed_cycles,
            lambda: self.deliver(packet),
            name="rpu_in_fixed",
        )

    # -- egress direction ----------------------------------------------------

    def send_from_rpu(self, packet: Packet, rpu_index: int) -> None:
        assert self.direction == "out"
        self.rpu_links[rpu_index].offer(packet, packet.size)

    def _rpu_out_done(self, rpu_index: int, packet: Packet) -> None:
        if self.on_rpu_out is not None:
            self.on_rpu_out(packet, rpu_index)
        cluster = self.config.rpu_cluster(rpu_index)
        self.sim.schedule(
            self.config.rpu_out_fixed_cycles,
            lambda: self.cluster_switches[cluster].send(packet),
            name="rpu_out_fixed",
        )

    def _cluster_out_done(self, packet: Packet) -> None:
        self.sim.schedule(
            self.config.dist_out_fixed_cycles,
            lambda: self.deliver(packet),
            name="dist_out_fixed",
        )
