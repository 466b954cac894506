"""Board harnesses and the shard worker protocol.

A :class:`BoardHarness` wraps one board's :class:`~repro.serve.session.SimSession`
with the cluster front-end: every wire arrival is intercepted before
MAC RX, steered by the board's affinity replica, and — when it belongs
to another board — accounted onto the inter-board link and buffered
for the horizon exchange instead of being delivered locally.

Shards are groups of boards.  The engine drives them through one tiny
command protocol (``advance`` / ``apply_event`` / ``finalize`` /
``board_snapshots`` / ``close``), one round at a time: it *posts* a command to every shard
and only then *collects* any reply (``post`` / ``request``).  Two
transports implement it:

* :class:`InlineShard` — the boards live in this process; a posted
  command runs at once.  ``shards=1`` runs the whole cluster this way.
* :class:`ProcessShard` — the boards live in a spawn-context worker
  process behind a :class:`multiprocessing.Pipe` (persistent state
  across commands, unlike the sweep pool's one-shot tasks, but the
  same spawn-context plumbing).  Every worker computes its round while
  the parent waits on all pipes and worker sentinels at once.  A
  worker that dies or wedges raises a named :class:`ClusterShardError`
  — it can *never* hang the horizon barrier.

Crossing packets travel between workers as one pickle each, without
their parse cache (a pure function of the frame bytes); the parent
reads only the entry's ``(arrival, src, seq, dst, size)`` and forwards
the pickle undecoded.  The receiving worker gives each decoded packet a
fresh id from its own counter (:meth:`Packet.from_wire`), because ids
count per process and the sender's may be live on the receiving board.

Both transports execute the identical per-board code, which is what
makes an N-shard run byte-identical to the inline run.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from dataclasses import replace
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.harness import progress_reading
from ..analysis.spec import ExperimentSpec, MeasurementWindow
from ..packet import Packet
from .affinity import ClusterAffinity
from .link import BoardLink

#: Sentinel measurement target for per-board sessions: the *cluster*
#: engine owns the warmup/measure phase machine, so each board's own
#: driver must simply never complete (a completed driver would freeze
#: the session mid-horizon).
_NEVER_PACKETS = 10**18

#: Board ``b`` draws its traffic from ``seed_base + b * SEED_STRIDE``.
SEED_STRIDE = 101


class ClusterShardError(RuntimeError):
    """A board shard died or stopped responding mid-synchronisation."""


def board_spec(spec: ExperimentSpec, board: int) -> ExperimentSpec:
    """The per-board derivative of a cluster spec.

    The board runs the host spec's config/firmware/traffic with its
    generator seeds decorrelated by :data:`SEED_STRIDE`, no ``cluster``
    field (it *is* one board) and an unbounded measurement window (see
    :data:`_NEVER_PACKETS`).
    """
    traffic = replace(spec.traffic, seed_base=spec.traffic.seed_base + board * SEED_STRIDE)
    window = MeasurementWindow(
        warmup_packets=0,
        measure_packets=_NEVER_PACKETS,
        max_cycles=spec.window.max_cycles,
    )
    return spec.with_(
        cluster=None,
        traffic=traffic,
        window=window,
        name=f"{spec.name or 'cluster'}/board{board}",
    )


class BoardHarness:
    """One board's session plus its slice of the cluster fabric."""

    def __init__(self, spec: ExperimentSpec, board: int) -> None:
        from ..serve.session import SimSession

        cluster = spec.cluster
        self.board = board
        self.include_host = spec.include_host
        self.session = SimSession(board_spec(spec, board))
        self.system = self.session.system
        self.affinity = ClusterAffinity(cluster, board)
        #: the board's fluid engine (None for event-fidelity specs).
        #: Warps are clipped to the sync horizon automatically (advance()
        #: steps with until_ts=barrier); the harness's job is the de-opt
        #: contract: any cross-board exchange discards period evidence.
        self.fluid = self.session._fluid
        freq_hz = self.system.config.clock.freq_hz
        self.links: Dict[int, BoardLink] = {
            dst: BoardLink(cluster.link_gbps, cluster.link_latency_cycles, freq_hz)
            for dst in range(cluster.boards)
            if dst != board
        }
        #: (arrival, src board, emission seq, dst board, size, port, packet)
        self._outbox: List[Tuple[float, int, int, int, int, int, Any]] = []
        self._emit_seq = 0
        # intercept wire arrivals at the front-end, before MAC RX: the
        # instance attribute shadows the bound method for this system
        self._local_offer = self.system.offer_packet
        self.system.offer_packet = self._steer

    # -- front-end steering ------------------------------------------------

    def _steer(self, port: int, packet) -> None:
        owner = self.affinity.owner(packet)
        if owner == self.board:
            self._local_offer(port, packet)
            return
        if self.fluid is not None:
            # outgoing cross-board traffic: a warp would skip materializing
            # these outbox packets, so the period evidence is void
            self.fluid.note_cross_traffic(f"cross-board steer to board {owner}")
        size = len(packet.data)
        arrival = self.links[owner].send(self.session.sim.now, size)
        self._emit_seq += 1
        self._outbox.append((arrival, self.board, self._emit_seq, owner, size, port, packet))

    # -- horizon protocol --------------------------------------------------

    def deliver(self, batch: Sequence[Tuple[float, int, int, int, int, int, Any]]) -> None:
        """Schedule cross-board arrivals (already merge-sorted by the
        engine); must run before the window they arrive in."""
        sim = self.session.sim
        offer = self._local_offer
        delivered = False
        for arrival, _src, _seq, _dst, _size, port, packet in batch:
            sim.schedule_at(
                arrival,
                lambda p=port, pkt=packet: offer(p, pkt),
                name="xboard",
            )
            delivered = True
        if delivered and self.fluid is not None:
            # incoming cross-board traffic: the pending "xboard" events pin
            # absolute times (pre_step also refuses to warp across them)
            self.fluid.note_cross_traffic("cross-board delivery")

    def advance(self, horizon: float):
        """Run this board up to the barrier; returns (outbox, metrics)."""
        self.session.step(until_ts=horizon)
        out = self._outbox
        self._outbox = []
        return out, self.metrics()

    def apply_event(self, kind: str, board: int) -> None:
        if self.fluid is not None:
            # liveness events bypass session.control (affinity and RPU
            # state change under the session's feet): de-opt explicitly
            self.fluid.notify_transient(f"cluster:{kind}:board{board}")
        if kind in ("drain", "evict"):
            self.affinity.drain(board)
        elif kind == "restore":
            self.affinity.restore(board)
        elif kind == "wedge_board":
            if board == self.board:
                for rpu in self.system.rpus:
                    rpu.wedge()
        elif kind == "unwedge_board":
            if board == self.board:
                for rpu in self.system.rpus:
                    rpu.unwedge()
        else:
            raise ClusterShardError(f"unknown cluster event kind {kind!r}")

    # -- telemetry ---------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """The board's progress reading at a barrier, plus its fluid
        telemetry.  Plain values, so they cross the pipe exactly."""
        reading = progress_reading(self.system, self.include_host)
        reading["fluid"] = None
        if self.fluid is not None:
            reading["fluid"] = {
                "warps": self.fluid.warps,
                "periods_warped": self.fluid.periods_warped,
                "warped_cycles": self.fluid.warped_cycles,
                "occupancy_fluid": self.fluid.occupancy()["fluid"],
                "deopts": len(self.fluid.deopts),
                "cross_deopts": self.fluid.cross_deopts,
                "backlog": self.fluid.backlog_now,
                "backlog_peak": self.fluid.backlog_peak,
            }
        return reading

    def finalize(self) -> Dict[str, Any]:
        from ..analysis.engine import _firmware_totals

        return {
            "counters": self.system.counters.snapshot(),
            "firmware_totals": _firmware_totals(self.system),
            "repinned": self.affinity.repinned,
            "fluid": None if self.fluid is None else self.fluid.stats(),
        }

    def snapshot(self) -> Dict[str, Any]:
        """The board's full repro-snapshot/2 block."""
        return self.session.snapshot()


# -- shard transports -------------------------------------------------------


class InlineShard:
    """All boards in-process; the degenerate (and reference) transport."""

    def __init__(self, index: int, spec: ExperimentSpec, boards: Sequence[int]) -> None:
        self.index = index
        self.boards = list(boards)
        self.harnesses = [BoardHarness(spec, b) for b in boards]
        self._reply: Any = None

    def post(self, cmd: str, payload: tuple = ()) -> None:
        """Run one command now; :meth:`request` hands back its reply."""
        self._reply = getattr(self, cmd)(*payload)

    def request(self, cmd: str) -> Any:
        return self._reply

    def advance(self, horizon: float, deliveries: Dict[int, list]):
        """Run every board to ``horizon``; returns (outbox entries, metrics)."""
        out: list = []
        metrics: Dict[int, Dict[str, Any]] = {}
        for harness in self.harnesses:
            harness.deliver(deliveries.get(harness.board, ()))
        for harness in self.harnesses:
            entries, metrics[harness.board] = harness.advance(horizon)
            out.extend(entries)
        return out, metrics

    def apply_event(self, kind: str, board: int) -> None:
        for harness in self.harnesses:
            harness.apply_event(kind, board)

    def finalize(self) -> Dict[int, Dict[str, Any]]:
        return {h.board: h.finalize() for h in self.harnesses}

    def board_snapshots(self) -> Dict[int, Dict[str, Any]]:
        return {h.board: h.snapshot() for h in self.harnesses}

    def close(self, reap: bool = True) -> None:
        pass


# front door: runs only in a spawned shard worker (`cluster --shards 2`)
def _serve(shard: InlineShard, cmd: str, payload: Any) -> Any:
    """Run one engine command on a worker's boards.

    Crossing packets arrive and leave as one pickle each (see the module
    docstring): the parent never decodes them.
    """
    if cmd == "advance":
        horizon, deliveries = payload
        decoded = {
            board: [(*entry[:6], Packet.from_wire(entry[6])) for entry in batch]
            for board, batch in deliveries.items()
        }
        out, metrics = shard.advance(horizon, decoded)
        return [(*e[:6], pickle.dumps(e[6], pickle.HIGHEST_PROTOCOL)) for e in out], metrics
    if cmd in ("apply_event", "finalize", "board_snapshots"):
        return getattr(shard, cmd)(*payload)
    raise ClusterShardError(f"unknown shard command {cmd!r}")


# front door: the spawn target of every shard worker (`cluster --shards 2`)
def _shard_worker(conn, spec: ExperimentSpec, boards: Sequence[int]) -> None:
    """Worker entry (spawn target): serve shard commands forever.

    Every command is answered with ``("ok", payload)`` or
    ``("error", traceback)`` — an exception is a *reply*, never a
    silent death, so the parent's barrier always gets an answer or a
    dead pipe it can detect.
    """
    try:
        shard = InlineShard(0, spec, boards)
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        return
    while True:
        try:
            cmd, payload = conn.recv()
        except EOFError:
            return
        if cmd == "close":
            conn.send(("ok", None))
            return
        if cmd == "crash":
            # test hook: die without a word, like a segfault would
            os._exit(3)
        if cmd == "hang":
            # test hook: wedge past the parent's patience
            time.sleep(float(payload))
            conn.send(("ok", None))
            continue
        try:
            conn.send(("ok", _serve(shard, cmd, payload)))
        except BaseException:
            conn.send(("error", traceback.format_exc()))


class ProcessShard:
    """A group of boards in a spawn-context worker behind a pipe.

    ``rack`` lists the shards whose replies one :meth:`request` waits
    for together (the engine sets it to all of its shards).
    """

    def __init__(
        self,
        index: int,
        spec: ExperimentSpec,
        boards: Sequence[int],
        timeout: Optional[float] = 120.0,
    ) -> None:
        from multiprocessing import get_context

        self.index = index
        self.boards = list(boards)
        self.timeout = timeout
        self.rack: List[ProcessShard] = [self]
        #: the command sent and not yet answered, and its reply once read
        self._posted: Optional[str] = None
        self._reply: Optional[Tuple[str, Any]] = None
        context = get_context("spawn")
        self._conn, child = context.Pipe()
        self._proc = context.Process(
            target=_shard_worker, args=(child, spec, boards), daemon=True
        )
        self._proc.start()
        child.close()

    # front door: error paths only (a dead, wedged or failing worker)
    def _describe(self) -> str:
        return f"shard {self.index} (boards {self.boards})"

    def post(self, cmd: str, payload: Any = None) -> None:
        """Send one command without waiting for its reply."""
        if self._posted is not None:
            raise ClusterShardError(
                f"{self._describe()} still owes a reply to {self._posted!r}"
            )
        try:
            self._conn.send((cmd, payload))
        except (OSError, ValueError):
            raise ClusterShardError(
                f"{self._describe()} is gone: its pipe is closed "
                f"(worker exit code {self._proc.exitcode})"
            ) from None
        self._posted = cmd

    def request(self, cmd: str, payload: Any = None) -> Any:
        """Return this shard's reply to ``cmd``, posting it first unless
        :meth:`post` already has (a reply owed to another command is an
        error, never an answer).

        The wait covers the pipe and the worker sentinel of every shard
        in :attr:`rack` that owes a reply: replies are read as they
        arrive (a sibling's is kept for its own ``request``), and a
        sibling that dies is named at once.
        """
        if self._posted != cmd:
            self.post(cmd, payload)
        deadline = None if self.timeout is None else time.monotonic() + self.timeout  # detlint: ok(worker-liveness watchdog)
        while self._reply is None:
            owing = [s for s in self.rack if s._posted is not None and s._reply is None]
            left = None if deadline is None else max(0.0, deadline - time.monotonic())  # detlint: ok(worker-liveness watchdog)
            ready = wait([s._conn for s in owing] + [s._proc.sentinel for s in owing], left)
            if not ready:
                self.close()
                raise ClusterShardError(
                    f"{self._describe()} exceeded {self.timeout}s answering "
                    f"{cmd!r}; worker terminated"
                )
            for shard in owing:
                if shard._conn in ready or shard._proc.sentinel in ready:
                    shard._reply = shard._receive()
        (status, reply), self._reply, self._posted = self._reply, None, None
        if status == "error":
            raise ClusterShardError(f"{self._describe()} failed {cmd!r}:\n{reply}")
        return reply

    def _receive(self) -> Tuple[str, Any]:
        """Read the reply owed, or name the death that stands in for it."""
        if self._conn.poll():
            try:
                return self._conn.recv()
            except (EOFError, OSError):
                pass
            how = "mid-reply to"
        else:
            how = "without a reply to"
        self._proc.join(timeout=1.0)  # the sentinel fires before the exit code is set
        raise ClusterShardError(
            f"{self._describe()} died {how} {self._posted!r} (worker exit code "
            f"{self._proc.exitcode}); the horizon barrier was released, not hung"
        )

    def close(self, reap: bool = True) -> None:
        """Ask the worker to exit, then reap it.  ``reap=False`` only
        asks, so a rack can ask every worker before reaping any."""
        proc = self._proc
        if self._posted != "close" and proc.is_alive():
            try:
                self._conn.send(("close", None))
                self._posted = "close"
            except (OSError, ValueError):
                pass
        if not reap:
            return
        proc.join(timeout=1.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        try:
            self._conn.close()
        except OSError:
            pass
