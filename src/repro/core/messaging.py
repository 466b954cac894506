"""Inter-RPU messaging (§4.4): full-packet loopback + broadcast words.

*Loopback*: a single 100 Gbps port that routes a full packet from one
RPU to another through the same distribution subsystem.  Each packet
pays a destination-header attach cost (calibrated 3 cycles — this is
the bottleneck the paper identifies at small packet sizes) on top of
line-rate serialization.

*Broadcast*: a semi-coherent memory region.  A word written to it is
eventually propagated to *all* RPUs, which observe it at the same
instant.  Each RPU has an 18-deep outbound FIFO (16 FIFO entries plus
2 PR-border registers); a round-robin arbiter grants one RPU per cycle,
so a fully contended RPU drains one message every ``n_rpus`` cycles —
the 16x18-cycle product behind the paper's saturated-latency analysis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from ..packet.packet import Packet
from ..sim.clock import wire_bytes
from ..sim.kernel import Simulator
from ..sim.resources import SerialLink
from ..sim.stats import CounterSet, Histogram
from .config import RosebudConfig


class LoopbackPort:
    """The RPU-to-RPU full-packet path."""

    def __init__(
        self,
        sim: Simulator,
        config: RosebudConfig,
        on_done: Callable[[Packet], None],
    ) -> None:
        self.counters = CounterSet(["frames", "bytes"])
        period = config.clock.period_ns

        def service(packet: Packet, nbytes: int) -> float:
            serialize = wire_bytes(nbytes) * 8 / config.loopback_gbps / period
            return max(serialize, float(config.loopback_cycles))

        def done(packet: Packet) -> None:
            self.counters.add("frames")
            self.counters.add("bytes", packet.size)
            on_done(packet)

        self.link = SerialLink(sim, "loopback", service, done)

    def send(self, packet: Packet, ready: Optional[float] = None) -> None:
        self.link.offer(packet, packet.size, ready)


@dataclass
class BroadcastMessage:
    """One word written to the broadcast region."""

    sender: int
    address: int
    value: int
    sent_at: float = 0.0
    delivered_at: float = 0.0


class BroadcastSystem:
    """The short-message broadcast fabric.

    ``send`` models the core's store to the broadcast region: if the
    sender's FIFO is full the store blocks and is retried each cycle
    (like a stalled bus write).  A round-robin arbiter drains one
    message per cycle across RPUs; drained messages pass a final
    one-per-cycle serializer (the control-channel registers/FIFOs of
    the distribution subsystem) and after a fixed propagation delay are
    delivered to every RPU simultaneously.

    Per-RPU interrupt masks filter which addresses raise an interrupt at
    the receiver (so multi-word messages can interrupt only on the last
    word, §4.4); a receive FIFO preserves notification order.
    """

    #: propagation through the control channel (calibrated: sparse
    #: latency 72-92 ns ~= 18-23 cycles, Section 6.3)
    PROPAGATION_CYCLES = 18

    def __init__(
        self,
        sim: Simulator,
        config: RosebudConfig,
        on_deliver: Optional[Callable[[int, BroadcastMessage], None]] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.on_deliver = on_deliver
        self.latency_ns = Histogram("broadcast_latency_ns")
        self.counters = CounterSet(["sent", "delivered", "blocked_retries"])
        self._fifos: List[Deque[BroadcastMessage]] = [
            deque() for _ in range(config.n_rpus)
        ]
        self._rx_fifos: List[Deque[BroadcastMessage]] = [
            deque() for _ in range(config.n_rpus)
        ]
        #: per-RPU address mask: callable(address) -> bool, interrupt or not
        self.interrupt_masks: List[Callable[[int], bool]] = [
            (lambda addr: True) for _ in range(config.n_rpus)
        ]
        self._arbiter_ptr = 0
        self._arbiter_running = False

        # one message per cycle, then the propagation delay
        self._out_serializer = SerialLink(
            sim, "bcast.serial", lambda msg, nbytes: 1.0, self._deliver, self.PROPAGATION_CYCLES
        )

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        sender: int,
        address: int,
        value: int,
        on_enqueued: Optional[Callable[[], None]] = None,
    ) -> None:
        """Core ``sender`` stores ``value`` to the broadcast region.

        The store blocks the core while the outbound FIFO is full;
        ``on_enqueued`` fires once the store retires, which is when a
        firmware send-loop would compute its *next* timestamp.
        """
        msg = BroadcastMessage(sender, address, value, sent_at=self.sim.now)
        self._attempt_enqueue(msg, on_enqueued)

    def _attempt_enqueue(
        self, msg: BroadcastMessage, on_enqueued: Optional[Callable[[], None]]
    ) -> None:
        fifo = self._fifos[msg.sender]
        if len(fifo) >= self.config.bcast_fifo_depth:
            # blocked store: retry next cycle
            self.counters.add("blocked_retries")
            self.sim.schedule(
                1, lambda: self._attempt_enqueue(msg, on_enqueued), name="bcast_block"
            )
            return
        fifo.append(msg)
        self.counters.add("sent")
        self._start_arbiter()
        if on_enqueued is not None:
            self.sim.schedule(1, on_enqueued, name="bcast_retired")

    # -- arbitration (one grant per cycle, RR across RPUs) ------------------------

    def _start_arbiter(self) -> None:
        if self._arbiter_running:
            return
        self._arbiter_running = True
        self.sim.schedule(1, self._arbiter_tick, name="bcast_arbiter")

    def _arbiter_tick(self) -> None:
        n = self.config.n_rpus
        granted = None
        for offset in range(n):
            idx = (self._arbiter_ptr + offset) % n
            if self._fifos[idx]:
                granted = idx
                break
        if granted is None:
            self._arbiter_running = False
            return
        self._arbiter_ptr = (granted + 1) % n
        msg = self._fifos[granted].popleft()
        self._out_serializer.offer(msg, 4)
        self.sim.schedule(1, self._arbiter_tick, name="bcast_arbiter")

    # -- delivery -------------------------------------------------------------------

    def _deliver(self, msg: BroadcastMessage) -> None:
        msg.delivered_at = self.sim.now
        latency_cycles = msg.delivered_at - msg.sent_at
        self.latency_ns.record(latency_cycles * self.config.clock.period_ns)
        self.counters.add("delivered")
        for rpu in range(self.config.n_rpus):
            if rpu == msg.sender:
                continue
            if self.interrupt_masks[rpu](msg.address):
                self._rx_fifos[rpu].append(msg)
                if self.on_deliver is not None:
                    self.on_deliver(rpu, msg)

    # -- receiver side --------------------------------------------------------------

    def poll(self, rpu: int) -> Optional[BroadcastMessage]:
        """Receiver pops the next notification, in order."""
        fifo = self._rx_fifos[rpu]
        return fifo.popleft() if fifo else None
