"""100 G Ethernet MAC + FIFO model (§5, §6.2).

Each physical port has an RX side — serialization at line rate followed
by a bounded receive FIFO — and a TX side that serializes outgoing
frames at line rate.  The RX FIFO is where backlog forms when the
distribution subsystem (125 MPPS per port) can't keep up with small
packets; its calibrated size reproduces the paper's +32.8 µs under
saturated 64 B traffic.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..packet.checksum import ipv4_header_checksum_ok
from ..packet.packet import Packet
from ..sim.clock import wire_bytes
from ..sim.kernel import Simulator
from ..sim.resources import BoundedFifo, SerialLink
from ..sim.stats import CounterSet
from .config import RosebudConfig

#: Bytes a frame occupies in the RX FIFO: frame + FCS.
_FIFO_BYTES_PER_FRAME = 4

#: Ethernet frame-size policing: runts (below the 64 B minimum, i.e.
#: 60 B without FCS) and giants (above the 9.6 KB jumbo ceiling) are
#: dropped by the MAC with dedicated counters, like a real CMAC.
MIN_FRAME_BYTES = 60
MAX_FRAME_BYTES = 9600


class MacPort:
    """One 100 G port: RX serializer + RX FIFO + TX serializer.

    ``on_rx`` fires when a frame has fully landed in the RX FIFO and a
    downstream consumer should be kicked; consumers pull via
    :meth:`rx_pop`.  ``on_tx_done`` fires when a frame has fully left
    the TX serializer (this is where forwarding latency is measured).
    """

    def __init__(
        self,
        sim: Simulator,
        config: RosebudConfig,
        index: int,
        on_rx: Callable[[], None],
        on_tx_done: Callable[[Packet], None],
    ) -> None:
        self.sim = sim
        self.config = config
        self.counters = CounterSet(
            ["rx_frames", "rx_bytes", "rx_drops", "rx_runts", "rx_giants",
             "rx_csum_drops", "rx_link_drops", "tx_frames", "tx_bytes"]
        )
        self._rx_frames = self.counters["rx_frames"]
        self._rx_bytes = self.counters["rx_bytes"]
        tx_frames = self.counters["tx_frames"]
        tx_bytes = self.counters["tx_bytes"]
        self._on_rx = on_rx
        #: fault-injection hook applied to every frame on the wire
        #: before policing: return a (possibly mutated) packet, or None
        #: to lose the frame entirely (repro.faults installs these)
        self.rx_fault_hook: Optional[Callable[[Packet], Optional[Packet]]] = None
        #: when True, frames whose IPv4 header checksum fails are
        #: dropped with ``rx_csum_drops`` accounting (a real CMAC's FCS
        #: policing stands in for it; corruption injectors enable this)
        self.verify_checksums = False
        #: link state: while down, RX frames are lost on the wire and
        #: the TX serializer pauses (frames back up in its FIFO)
        self.link_up = True

        period = config.clock.period_ns
        gbps = config.port_gbps
        # a 64B reference frame occupies 68B in the FIFO
        fifo_bytes = config.mac_rx_fifo_packets * (64 + _FIFO_BYTES_PER_FRAME)
        self.rx_fifo = BoundedFifo(f"mac{index}.rxfifo", capacity_bytes=fifo_bytes)

        def service(packet: Packet, nbytes: int) -> float:
            return wire_bytes(nbytes) * 8 / gbps / period  # ns -> cycles

        # the CMAC pipeline delay between the wire and the FIFO
        self._rx_link = SerialLink(
            sim, f"mac{index}.rx", service, self._rx_enqueue, config.mac_rx_fixed_cycles
        )

        def tx_done(packet: Packet) -> None:
            tx_frames.add()
            tx_bytes.add(packet.size)
            on_tx_done(packet)

        self._tx_link = SerialLink(sim, f"mac{index}.tx", service, tx_done)

    # -- RX --------------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """A frame starts arriving on the wire."""
        if not self.link_up:
            self.counters.add("rx_link_drops")
            self.counters.add("rx_drops")
            packet.drop("link down")
            return
        if self.rx_fault_hook is not None:
            mutated = self.rx_fault_hook(packet)
            if mutated is None:
                self.counters.add("rx_drops")
                packet.drop("lost on the wire")
                return
            packet = mutated
        size = packet.size
        if size < MIN_FRAME_BYTES:
            self.counters.add("rx_runts")
            self.counters.add("rx_drops")
            packet.drop("runt frame")
            return
        if size > MAX_FRAME_BYTES:
            self.counters.add("rx_giants")
            self.counters.add("rx_drops")
            packet.drop("giant frame")
            return
        self._rx_link.offer(packet, size)

    def _rx_enqueue(self, packet: Packet) -> None:
        if self.verify_checksums and ipv4_header_checksum_ok(packet.data) is False:
            self.counters.add("rx_csum_drops")
            self.counters.add("rx_drops")
            packet.drop("ipv4 header checksum mismatch")
            return
        size = packet.size
        if not self.rx_fifo.push(packet, size + _FIFO_BYTES_PER_FRAME):
            self.counters.add("rx_drops")
            packet.drop("mac rx fifo full")
            return
        self._rx_frames.add()
        self._rx_bytes.add(size)
        packet.stamp("mac_rx_done", self.sim.now)
        self._on_rx()

    def rx_pop(self) -> Optional[Packet]:
        entry = self.rx_fifo.pop()
        return entry[0] if entry else None

    def rx_backlog(self) -> int:
        return len(self.rx_fifo)

    # -- link state (fault injection) --------------------------------------------

    def set_link(self, up: bool) -> None:
        """Flap the link: while down, wire arrivals are lost and the TX
        serializer pauses so outgoing frames back up in its FIFO — the
        backpressure a transient flap propagates into the switch."""
        if up == self.link_up:
            return
        self.link_up = up
        if up:
            self._tx_link.resume()
        else:
            self._tx_link.pause()

    # -- TX --------------------------------------------------------------------

    def transmit(self, packet: Packet, ready: Optional[float] = None) -> None:
        """Queue a frame reaching the MAC at ``ready`` (default: now) for
        the TX serializer, ``mac_tx_fixed_cycles`` later (the TX FIFO is
        unbounded; upstream slot credits bound it in practice)."""
        if ready is None:
            ready = self.sim.now
        self._tx_link.offer(packet, packet.size, ready + self.config.mac_tx_fixed_cycles)
