"""Board harnesses and the shard worker protocol.

A :class:`BoardHarness` wraps one board's :class:`~repro.serve.session.SimSession`
with the cluster front-end: every wire arrival is intercepted before
MAC RX, steered by the board's affinity replica, and — when it belongs
to another board — accounted onto the inter-board link and buffered
for the horizon exchange instead of being delivered locally.

Shards are groups of boards.  The engine drives them through one tiny
command protocol (``advance`` / ``event`` / ``finalize`` / ``close``)
that has two interchangeable transports:

* :class:`InlineShard` — the boards live in this process; commands are
  direct method calls.  ``shards=1`` runs the whole cluster this way.
* :class:`ProcessShard` — the boards live in a spawn-context worker
  process behind a :class:`multiprocessing.Pipe` (persistent state
  across commands, unlike the sweep pool's one-shot tasks, but the
  same spawn-context plumbing).  A worker that dies or wedges raises a
  named :class:`ClusterShardError` — it can *never* hang the horizon
  barrier.

Both transports execute the identical per-board code, which is what
makes an N-shard run byte-identical to the inline run.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.harness import progress_reading
from ..analysis.spec import ExperimentSpec, MeasurementWindow
from .affinity import ClusterAffinity
from .link import BoardLink

#: Sentinel measurement target for per-board sessions: the *cluster*
#: engine owns the warmup/measure phase machine, so each board's own
#: driver must simply never complete (a completed driver would freeze
#: the session mid-horizon).
_NEVER_PACKETS = 10**18


class ClusterShardError(RuntimeError):
    """A board shard died or stopped responding mid-synchronisation."""


def board_spec(spec: ExperimentSpec, board: int) -> ExperimentSpec:
    """The per-board derivative of a cluster spec.

    The board runs the host spec's config/firmware/traffic with its
    generator seeds decorrelated by ``seed_stride``, no ``cluster``
    field (it *is* one board) and an unbounded measurement window (see
    :data:`_NEVER_PACKETS`).
    """
    cluster = spec.cluster
    traffic = replace(
        spec.traffic,
        seed_base=spec.traffic.seed_base + board * cluster.seed_stride,
    )
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
        self._outbox: List[Tuple[float, int, int, int, int, Any]] = []
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
        arrival = self.links[owner].send(self.session.sim.now, len(packet.data))
        self._emit_seq += 1
        self._outbox.append((arrival, self.board, self._emit_seq, owner, port, packet))

    # -- horizon protocol --------------------------------------------------

    def deliver(self, batch: Sequence[Tuple[float, int, int, int, int, Any]]) -> None:
        """Schedule cross-board arrivals (already merge-sorted by the
        engine); must run before the window they arrive in."""
        sim = self.session.sim
        offer = self._local_offer
        delivered = False
        for arrival, _src, _seq, _dst, port, packet in batch:
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
        """The board's full repro-snapshot/2 block (inline shards only)."""
        return self.session.snapshot()


# -- shard transports -------------------------------------------------------


class InlineShard:
    """All boards in-process; the degenerate (and reference) transport."""

    def __init__(self, index: int, spec: ExperimentSpec, boards: Sequence[int]) -> None:
        self.index = index
        self.boards = list(boards)
        self.harnesses = [BoardHarness(spec, b) for b in boards]
        self._by_board = {h.board: h for h in self.harnesses}

    def advance(self, horizon: float, deliveries: Dict[int, list]):
        out: Dict[int, list] = {}
        metrics: Dict[int, Dict[str, Any]] = {}
        for harness in self.harnesses:
            harness.deliver(deliveries.get(harness.board, ()))
        for harness in self.harnesses:
            out[harness.board], metrics[harness.board] = harness.advance(horizon)
        return out, metrics

    def apply_event(self, kind: str, board: int) -> None:
        for harness in self.harnesses:
            harness.apply_event(kind, board)

    def finalize(self) -> Dict[int, Dict[str, Any]]:
        return {h.board: h.finalize() for h in self.harnesses}

    def board_snapshots(self) -> Dict[int, Dict[str, Any]]:
        return {h.board: h.snapshot() for h in self.harnesses}

    def close(self) -> None:
        pass


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
            if cmd == "advance":
                result = shard.advance(*payload)
            elif cmd == "event":
                result = shard.apply_event(*payload)
            elif cmd == "finalize":
                result = shard.finalize()
            else:
                raise ClusterShardError(f"unknown shard command {cmd!r}")
            conn.send(("ok", result))
        except BaseException:
            conn.send(("error", traceback.format_exc()))


class ProcessShard:
    """A group of boards in a spawn-context worker behind a pipe."""

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
        context = get_context("spawn")
        self._conn, child = context.Pipe()
        self._proc = context.Process(
            target=_shard_worker, args=(child, spec, boards), daemon=True
        )
        self._proc.start()
        child.close()

    def _describe(self) -> str:
        return f"shard {self.index} (boards {self.boards})"

    def request(self, cmd: str, payload: Any = None) -> Any:
        try:
            self._conn.send((cmd, payload))
        except (OSError, ValueError, BrokenPipeError):
            raise ClusterShardError(
                f"{self._describe()} is gone: its pipe is closed "
                f"(worker exit code {self._proc.exitcode})"
            ) from None
        deadline = None if self.timeout is None else time.monotonic() + self.timeout  # detlint: ok(worker-liveness watchdog)
        while True:
            if self._conn.poll(0.05):
                try:
                    status, reply = self._conn.recv()
                except (EOFError, OSError):
                    raise ClusterShardError(
                        f"{self._describe()} died mid-reply to {cmd!r} "
                        f"(worker exit code {self._proc.exitcode})"
                    ) from None
                if status == "error":
                    raise ClusterShardError(
                        f"{self._describe()} failed {cmd!r}:\n{reply}"
                    )
                return reply
            if not self._proc.is_alive():
                raise ClusterShardError(
                    f"{self._describe()} died during {cmd!r} without a reply "
                    f"(worker exit code {self._proc.exitcode}); the horizon "
                    "barrier was released, not hung"
                )
            if deadline is not None and time.monotonic() > deadline:  # detlint: ok(worker-liveness watchdog)
                self.close()
                raise ClusterShardError(
                    f"{self._describe()} exceeded {self.timeout}s answering "
                    f"{cmd!r}; worker terminated"
                )

    def advance(self, horizon: float, deliveries: Dict[int, list]):
        return self.request("advance", (horizon, deliveries))

    def apply_event(self, kind: str, board: int) -> None:
        self.request("event", (kind, board))

    def finalize(self) -> Dict[int, Dict[str, Any]]:
        return self.request("finalize")

    def board_snapshots(self) -> Dict[int, Dict[str, Any]]:
        return {}  # full sub-snapshots are an inline-transport feature

    def close(self) -> None:
        proc = self._proc
        if proc.is_alive():
            try:
                self._conn.send(("close", None))
                proc.join(timeout=1.0)
            except (OSError, ValueError, BrokenPipeError):
                pass
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        try:
            self._conn.close()
        except OSError:
            pass
