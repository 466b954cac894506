"""Online serving mode: incremental sessions with live control.

:class:`SimSession` is the stepper the batch engine is built on;
:mod:`repro.serve.rpc` exposes it as a line-delimited JSON-RPC loop
(the ``repro serve`` CLI subcommand); :mod:`repro.serve.feed` is the
traffic-feed abstraction shared by generators and pcap replay.
"""

from ..analysis.spec import spec_from_params
from .feed import PcapFeed, SourceFeed, TrafficFeed
from .rpc import ServeServer, serve_loop
from .session import SessionError, SimSession

__all__ = [
    "PcapFeed",
    "ServeServer",
    "SessionError",
    "SimSession",
    "SourceFeed",
    "TrafficFeed",
    "serve_loop",
    "spec_from_params",
]
