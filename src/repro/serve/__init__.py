"""Online serving mode: incremental sessions with live control.

:class:`SimSession` is the stepper the batch engine is built on;
:mod:`repro.serve.rpc` exposes it as a line-delimited JSON-RPC loop
(the ``repro serve`` CLI subcommand); :mod:`repro.serve.feed` is the
traffic-feed abstraction shared by generators, pcap replay, and
programmatic injection.
"""

from ..analysis.spec import spec_from_params
from .feed import PacketBurstFeed, PcapFeed, SourceFeed, TrafficFeed
from .rpc import ServeServer, run_script, serve_loop
from .session import SessionError, SimSession

__all__ = [
    "PacketBurstFeed",
    "PcapFeed",
    "ServeServer",
    "SessionError",
    "SimSession",
    "SourceFeed",
    "TrafficFeed",
    "run_script",
    "serve_loop",
    "spec_from_params",
]
