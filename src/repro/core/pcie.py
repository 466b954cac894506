"""PCIe host connectivity (§4.3, §5).

The Corundum-based PCIe subsystem gives the host two capabilities
modelled here:

* a **virtual Ethernet interface** — the host can source and sink
  packets through the same distribution infrastructure as the physical
  ports (this is how the artifact's scripts inject attack traces);
* the control path used by :class:`repro.core.host.HostInterface`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from ..packet.packet import Packet
from ..sim.kernel import Simulator
from ..sim.resources import SerialLink
from ..sim.stats import CounterSet
from .config import RosebudConfig

#: Effective PCIe Gen3 x16 payload bandwidth (Gbps).
PCIE_GBPS = 100.0


class VirtualEthernet:
    """The Corundum vNIC: host-sourced packets entering the LB.

    Host traffic shares the PCIe link's bandwidth and then flows through
    the normal assignment path.  The paper notes host and loopback
    interfaces "typically carry much less traffic than network-facing
    interfaces, so they can share the same infrastructure" (§4.3).
    """

    def __init__(
        self,
        sim: Simulator,
        config: RosebudConfig,
        assign_and_dispatch: Callable[[Packet], bool],
    ) -> None:
        self.sim = sim
        self.config = config
        self.counters = CounterSet(["tx_frames", "tx_bytes", "deferred"])
        self._assign = assign_and_dispatch
        period = config.clock.period_ns

        def service(packet: Packet, nbytes: int) -> float:
            return nbytes * 8 / PCIE_GBPS / period

        self._link = SerialLink(sim, "pcie.veth", service, self._arrived)
        self._waiting: Deque[Packet] = deque()

    def send(self, packet: Packet) -> None:
        """Host hands a frame to the vNIC driver."""
        packet.born_at = self.sim.now
        self._link.offer(packet, packet.size)

    def _arrived(self, packet: Packet) -> None:
        self._waiting.append(packet)
        self._drain()

    def _drain(self) -> None:
        while self._waiting:
            packet = self._waiting[0]
            if not self._assign(packet):
                self.counters.add("deferred")
                self.sim.schedule(4, self._drain, name="veth_retry")
                return
            self._waiting.popleft()
            self.counters.add("tx_frames")
            self.counters.add("tx_bytes", packet.size)
