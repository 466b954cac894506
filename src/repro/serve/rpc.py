"""The ``repro serve`` protocol: line-delimited JSON-RPC over stdio.

Each request is one JSON object per line::

    {"id": 1, "method": "open", "params": {"firmware": "forwarder", ...}}

and each reply is one ``repro-serve/1`` envelope per line::

    {"schema": "repro-serve/1", "id": 1, "ok": true, "result": {...}}
    {"schema": "repro-serve/1", "id": 2, "ok": false, "error": {...}}

Methods: ``open`` (build a session from params through
:func:`repro.analysis.spec.spec_from_params`, the CLI's builder), ``step``
(``n_events`` / ``until_ts`` / ``cycles``), ``run`` (step to
measurement completion), ``inject`` (synthetic UDP burst or a pcap
feed), ``control`` (reconfigure / fault / set_lb / watchdog / ...),
``snapshot``, ``result``, ``ping``, ``close``.

The same loop serves two modes: interactive (stdin/stdout, one process
per session) and scripted (``repro serve --script scenario.jsonl``),
which is what the CI smoke target replays.  Blank lines and ``#``
comments are ignored so scenario files can be annotated.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, IO, List, Optional

from ..analysis.spec import SpecError, spec_from_params
from ..schema import stamp
from .feed import PcapFeed
from .session import SessionError, SimSession


class ServeServer:
    """One JSON-RPC session endpoint (at most one open SimSession)."""

    def __init__(self) -> None:
        self.session: Optional[SimSession] = None
        self.errors = 0

    # -- request plumbing --------------------------------------------------

    def handle_line(self, line: str) -> Optional[Dict[str, Any]]:
        """Process one request line; returns the reply envelope, or
        None for blank/comment lines."""
        text = line.strip()
        if not text or text.startswith("#"):
            return None
        request_id: Any = None
        try:
            request = json.loads(text)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            method = request.get("method")
            handler = getattr(self, f"_rpc_{method}", None)
            if not isinstance(method, str) or handler is None:
                known = sorted(
                    n[len("_rpc_"):] for n in dir(self) if n.startswith("_rpc_")
                )
                raise ValueError(f"unknown method {method!r}; choices: {known}")
            params = request.get("params") or {}
            if not isinstance(params, dict):
                raise ValueError("params must be a JSON object")
            result = handler(**params)
            return stamp({"id": request_id, "ok": True, "result": result}, "repro-serve")
        except Exception as exc:  # every failure becomes a reply, not a crash
            self.errors += 1
            return stamp(
                {
                    "id": request_id,
                    "ok": False,
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                },
                "repro-serve",
            )

    def _require_session(self) -> SimSession:
        if self.session is None:
            raise SessionError("no open session; call open first")
        return self.session

    # -- methods -----------------------------------------------------------

    def _rpc_ping(self) -> Dict[str, Any]:
        return {"pong": True}

    def _rpc_open(self, **params) -> Dict[str, Any]:
        if self.session is not None:
            raise SessionError("a session is already open; close it first")
        autostart = bool(params.pop("start", True))
        shards = int(params.pop("shards", 1))
        events = tuple(params.pop("events", ()))
        spec = spec_from_params(params)
        if spec.cluster is not None:
            # cluster sessions speak the same step/control/snapshot/
            # result surface; shards and events are runtime choices,
            # not part of the measured point
            from ..cluster.engine import ClusterEngine

            self.session = ClusterEngine(spec, shards=shards, events=events)
        else:
            if shards != 1 or events:
                raise SpecError(
                    "shards/events are cluster parameters; pass cluster={...} too"
                )
            self.session = SimSession(spec)
        if autostart:
            self.session.start()
        return {
            "spec_key": self.session.spec_key,
            "describe": spec.describe(),
            "started": autostart,
        }

    def _rpc_step(self, n_events=None, until_ts=None, cycles=None) -> Dict[str, Any]:
        return self._require_session().step(
            n_events=None if n_events is None else int(n_events),
            until_ts=None if until_ts is None else float(until_ts),
            cycles=None if cycles is None else float(cycles),
        )

    def _rpc_run(self) -> Dict[str, Any]:
        session = self._require_session()
        result = session.run_to_completion()
        return {"done": True, "result": result.to_dict()}

    def _rpc_inject(self, **params) -> Dict[str, Any]:
        session = self._require_session()
        if not hasattr(session, "inject"):
            raise SessionError(
                "inject is a single-board session feature; drive cluster "
                "sessions with control events (drain/restore/wedge_board)"
            )
        if "pcap" in params:
            feed = session.add_feed(
                PcapFeed(
                    params["pcap"],
                    port=int(params.get("port", 0)),
                    offered_gbps=float(params.get("gbps", 10.0)),
                    loop=bool(params.get("loop", False)),
                ),
                delay=float(params.get("delay", 0.0)),
            )
            return feed.describe()
        from ..packet import build_udp

        count = int(params.get("count", 1))
        size = int(params.get("size", 512))
        port = params.get("port", 0)
        packets = [
            build_udp(
                f"10.9.{i % 251}.{(i // 251) % 251}",
                "10.0.0.1",
                4000 + i % 1000,
                9,
                pad_to=size,
            )
            for i in range(count)
        ]
        injected = session.inject(packets, port=None if port is None else int(port))
        return {"injected": injected, "size": size}

    def _rpc_control(self, action: str = "", **params) -> Dict[str, Any]:
        return self._require_session().control(action, **params)

    def _rpc_snapshot(self) -> Dict[str, Any]:
        return self._require_session().snapshot()

    def _rpc_result(self) -> Dict[str, Any]:
        return self._require_session().result().to_dict()

    def _rpc_close(self) -> Dict[str, Any]:
        session = self._require_session()
        closer = getattr(session, "close", None)
        if closer is not None:
            closer()  # cluster sessions hold worker processes
        self.session = None
        return {"closed": True}


def serve_loop(
    in_stream: IO[str],
    out_stream: IO[str] = None,
    check: bool = False,
) -> int:
    """Drive a :class:`ServeServer` over line-delimited JSON streams.

    ``check=True`` (the scripted/CI mode) makes the exit status nonzero
    if any request produced an error reply, so a scenario file doubles
    as an end-to-end assertion.
    """
    out = out_stream if out_stream is not None else sys.stdout
    server = ServeServer()
    for line in in_stream:
        reply = server.handle_line(line)
        if reply is None:
            continue
        out.write(json.dumps(reply, sort_keys=True) + "\n")
        out.flush()
    return 1 if (check and server.errors) else 0


def run_script(path: str, out_stream: IO[str] = None, check: bool = True) -> int:
    """Replay a ``.jsonl`` scenario file through the serve loop."""
    with open(path) as fh:
        return serve_loop(fh, out_stream, check=check)


#: Replies that only echo state never appear here; kept for reference.
__all__: List[str] = [
    "ServeServer",
    "serve_loop",
    "run_script",
]
