"""Traffic feeds: one streaming interface over every packet origin.

A :class:`SimSession` does not care whether its packets come from a
rate-controlled generator (:mod:`repro.traffic`) or a pcap trace replay
(:mod:`repro.packet.pcap`) — each is wrapped in a :class:`TrafficFeed`
that binds to the session's live system when the session starts
(one-shot packets go through :meth:`SimSession.inject` instead).  Feeds can also be
added mid-flight (:meth:`SimSession.add_feed`), which is how a serving
session layers an attack trace on top of steady background load.
"""

from __future__ import annotations

from typing import Any, Dict

from ..traffic.generator import ReplaySource, TrafficSource


class TrafficFeed:
    """One packet origin, bound to a session when traffic starts.

    Subclasses implement :meth:`_bind` (build whatever simulation
    machinery the feed needs against the session's system) and
    :meth:`describe` (a JSON-safe summary) — ``start``
    is idempotent so a feed added after the session is already running
    starts exactly once.
    """

    def __init__(self) -> None:
        self._started = False

    def start(self, session, delay: float = 0.0) -> None:
        if self._started:
            return
        self._started = True
        self._bind(session, delay)


class SourceFeed(TrafficFeed):
    """Adapter over an already-constructed :class:`TrafficSource`.

    This is the compatibility path: spec-built generator sources (and
    any hand-built source a test passes to
    :meth:`SimSession.for_system`) stream through the same interface as
    pcap replay and injection.
    """

    def __init__(self, source: TrafficSource) -> None:
        super().__init__()
        self.source = source

    def _bind(self, session, delay: float) -> None:
        self.source.start(delay)

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": type(self.source).__name__,
            "port": self.source.port,
            "offered_gbps": self.source.offered_gbps,
            "started": self._started,
        }


class PcapFeed(TrafficFeed):
    """Replay a pcap trace at a target rate (the artifact's tcpreplay)."""

    def __init__(
        self,
        path: str,
        port: int = 0,
        offered_gbps: float = 10.0,
        loop: bool = False,
        respect_generator_cap: bool = True,
    ) -> None:
        super().__init__()
        self.path = path
        self.port = port
        self.offered_gbps = offered_gbps
        self.loop = loop
        self.respect_generator_cap = respect_generator_cap
        self._count = 0

    def _bind(self, session, delay: float) -> None:
        from ..packet.pcap import read_pcap

        packets = read_pcap(self.path)
        self._count = len(packets)
        source = ReplaySource(
            session.system,
            self.port,
            self.offered_gbps,
            packets,
            loop=self.loop,
            respect_generator_cap=self.respect_generator_cap,
        )
        source.start(delay)

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": "PcapFeed",
            "path": self.path,
            "port": self.port,
            "offered_gbps": self.offered_gbps,
            "packets": self._count,
            "started": self._started,
        }
