"""Rate-controlled packet sources (the tester FPGA, §6).

The artifact's tester is another Rosebud instance running ``pkt_gen``
firmware; it saturates every packet size except tiny frames, where it
tops out at 250 MPPS (125 MPPS per port).  :class:`TrafficSource`
schedules arrivals at an offered rate and honours that generation cap;
subclasses decide what each packet looks like.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..packet.builder import build_tcp
from ..packet.packet import Packet
from ..packet.template import PacketTemplate, intern_template
from ..sim.clock import wire_bytes
from ..core.system import RosebudSystem

#: Tester generation caps (16-RPU pkt_gen design, §6.1)
GENERATOR_MAX_PPS_PER_PORT = 125e6


class TrafficSource:
    """Feeds one port of a system at an offered rate.

    ``offered_gbps`` is the effective rate (quoted packet bytes); the
    source converts to wire pacing.  The per-port generation cap of the
    tester FPGA applies unless ``respect_generator_cap`` is False.
    """

    def __init__(
        self,
        system: RosebudSystem,
        port: int,
        offered_gbps: float,
        n_packets: Optional[int] = None,
        respect_generator_cap: bool = True,
    ) -> None:
        self.system = system
        self.port = port
        self.offered_gbps = offered_gbps
        self.n_packets = n_packets
        self.respect_generator_cap = respect_generator_cap
        self.sent = 0
        self._started = False

    def next_packet(self) -> Packet:
        raise NotImplementedError

    def fluid_profile(self):
        """``(period_packets, phase)`` when the emission stream is a
        deterministic cycle, else ``None``.

        ``period_packets`` is the number of emissions after which the
        stream repeats exactly; ``phase`` is the position within that
        cycle.  Sources that draw from an RNG or a user callback return
        ``None``, which makes any session they feed ineligible for the
        fluid fast-forward tier (it may only skip provably periodic
        steady state).
        """
        return None

    def interarrival_cycles(self, packet: Packet) -> float:
        ns = wire_bytes(packet.size) * 8 / self.offered_gbps
        cycles = self.system.config.clock.ns_to_cycles(ns)
        if self.respect_generator_cap:
            min_gap = self.system.config.clock.freq_hz / GENERATOR_MAX_PPS_PER_PORT
            cycles = max(cycles, min_gap)
        return cycles

    def start(self, delay: float = 0.0) -> None:
        if self._started:
            raise RuntimeError("source already started")
        self._started = True
        self.system.sim.schedule(delay, self._emit, name=f"src_port{self.port}")

    def _emit(self) -> None:
        if self.n_packets is not None and self.sent >= self.n_packets:
            return
        packet = self.next_packet()
        self.system.offer_packet(self.port, packet)
        self.sent += 1
        self.system.sim.schedule(
            self.interarrival_cycles(packet), self._emit, name=f"src_port{self.port}"
        )


class FixedSizeSource(TrafficSource):
    """Same-size TCP packets over a pool of distinct flows.

    Distinct 5-tuples matter for the hash LB; each flow's frame is a
    flyweight :class:`~repro.packet.template.PacketTemplate` built
    once — emissions share its bytes, its parse, and its replay-cache
    class signature, so the per-packet hot loop allocates one
    :class:`Packet` and nothing else.
    """

    def __init__(
        self,
        system: RosebudSystem,
        port: int,
        offered_gbps: float,
        packet_size: int,
        n_flows: int = 64,
        n_packets: Optional[int] = None,
        seed: int = 1,
        respect_generator_cap: bool = True,
    ) -> None:
        super().__init__(system, port, offered_gbps, n_packets, respect_generator_cap)
        self.packet_size = packet_size
        rng = random.Random(seed)
        self._templates: List[PacketTemplate] = []
        for flow in range(n_flows):
            pkt = build_tcp(
                src_ip=f"10.{port}.{flow // 250}.{flow % 250 + 1}",
                dst_ip="10.200.0.1",
                src_port=1024 + rng.randrange(60000),
                dst_port=80,
                pad_to=max(packet_size, 60),
            )
            self._templates.append(intern_template(pkt.data, port))
        # explicit index (not itertools.cycle) so the fluid tier can
        # observe the flow-cycle phase without consuming the iterator
        self._next_template = 0

    def next_packet(self) -> Packet:
        template = self._templates[self._next_template]
        self._next_template = (self._next_template + 1) % len(self._templates)
        return template.make_packet()

    def fluid_profile(self):
        return len(self._templates), self._next_template


#: The classic simple-IMIX mix: (size, weight).
IMIX_MIX = ((64, 7), (570, 4), (1500, 1))


class ImixSource(TrafficSource):
    """Internet-mix traffic: 64/570/1500 B at 7:4:1 (by packets).

    The paper motivates its 800 B IPS sweet spot with "the average
    packet size for internet traces is over 800 bytes"; IMIX workloads
    probe how the software-per-packet costs behave on a realistic size
    mix rather than fixed-size sweeps.
    """

    def __init__(
        self,
        system: RosebudSystem,
        port: int,
        offered_gbps: float,
        n_flows: int = 64,
        n_packets: Optional[int] = None,
        seed: int = 2,
        respect_generator_cap: bool = True,
        mix=IMIX_MIX,
    ) -> None:
        super().__init__(system, port, offered_gbps, n_packets, respect_generator_cap)
        self.rng = random.Random(seed)
        self._sizes = [size for size, weight in mix for _ in range(weight)]
        self._templates = {}
        for size, _weight in mix:
            self._templates[size] = [
                intern_template(
                    build_tcp(
                        src_ip=f"10.{port}.{flow // 250}.{flow % 250 + 1}",
                        dst_ip="10.200.0.2",
                        src_port=2048 + flow,
                        dst_port=443,
                        pad_to=max(size, 60),
                    ).data,
                    port,
                )
                for flow in range(max(1, n_flows // len(mix)))
            ]

    @property
    def average_size(self) -> float:
        return sum(self._sizes) / len(self._sizes)

    def next_packet(self) -> Packet:
        size = self.rng.choice(self._sizes)
        return self.rng.choice(self._templates[size]).make_packet()


class ReplaySource(TrafficSource):
    """Replays a pre-built packet list (tcpreplay of a pcap trace)."""

    def __init__(
        self,
        system: RosebudSystem,
        port: int,
        offered_gbps: float,
        packets: Sequence[Packet],
        loop: bool = False,
        respect_generator_cap: bool = True,
    ) -> None:
        n = None if loop else len(packets)
        super().__init__(system, port, offered_gbps, n, respect_generator_cap)
        if not packets:
            raise ValueError("nothing to replay")
        # flyweight the trace up front: distinct frames intern to one
        # template each, carrying the per-packet trace metadata along
        self._packets = [
            (intern_template(p.data, port), p.is_attack, p.flow_id, p.seq_index)
            for p in packets
        ]
        self._index = 0

    def next_packet(self) -> Packet:
        template, is_attack, flow_id, seq_index = self._packets[
            self._index % len(self._packets)
        ]
        self._index += 1
        return template.make_packet(
            is_attack=is_attack, flow_id=flow_id, seq_index=seq_index
        )

    def fluid_profile(self):
        if self.n_packets is not None:  # finite replay: drains, not steady
            return None
        return len(self._packets), self._index % len(self._packets)
