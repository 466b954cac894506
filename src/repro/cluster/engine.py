"""The N-board cluster engine: bounded-lag horizon synchronisation.

:class:`ClusterEngine` runs one :class:`~repro.analysis.spec.ExperimentSpec`
whose ``cluster`` field describes an N-board rack.  Every board is an
independent :class:`~repro.serve.session.SimSession` advanced in
lockstep windows of ``horizon_cycles``; packets that cross boards are
exchanged at the window barriers in one deterministic merge
(sorted by ``(arrival, source board, emission seq)``), which is exact
— not approximate — because the horizon never exceeds the inter-board
link latency (see :mod:`repro.cluster.spec`).

The same barrier loop drives two execution layouts through one shard
transport API (:mod:`repro.cluster.shard`): ``shards=1`` hosts every
board inline; ``shards=N`` spreads boards over spawn-context worker
processes.  All control decisions (measurement phases, watchdog
eviction, scheduled events, sampling) are taken *here*, from metric
streams that are bit-identical in both layouts, so an N-shard run
produces a byte-identical :class:`~repro.analysis.spec.ExperimentResult`
to the inline run — differentially tested like every other subsystem.

Failover mirrors the in-board watchdog one level up: a board that
stops completing packets for ``watchdog_horizons`` consecutive windows
is evicted from the affinity map (its flows re-steer onto the
survivors) and the outage is logged with detection/recovery times for
the cluster MTTR report.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.spec import ExperimentResult, ExperimentSpec, SpecError
from ..analysis.harness import ThroughputMeasurement, sum_readings, window_rates
from ..core.profiler import Sample
from ..faults.metrics import dip_profile
from ..schema import stamp
from .shard import ClusterShardError, InlineShard, ProcessShard

#: Horizons with zero cluster-wide progress before the run is declared
#: stalled (a safety net — the per-board sessions have no deadline of
#: their own under the cluster's unbounded window).
_STALL_HORIZONS = 400

_EVENT_KINDS = ("drain", "restore", "wedge_board", "unwedge_board")


def _normalize_event(event: Any) -> Tuple[float, str, int]:
    """Accept ``(at_cycles, kind, board)`` / ``(kind, at_cycles, board)``
    tuples or ``{"kind", "at_cycles", "board"}`` dicts — the kind is the
    only string field, so the orders are unambiguous."""
    if isinstance(event, dict):
        at, kind, board = event["at_cycles"], event["kind"], event["board"]
    elif isinstance(event[0], str):
        kind, at, board = event
    else:
        at, kind, board = event
    kind = str(kind)
    if kind not in _EVENT_KINDS:
        raise SpecError(
            f"unknown cluster event kind {kind!r}; choices: {list(_EVENT_KINDS)}"
        )
    return (float(at), kind, int(board))


class ClusterEngine:
    """One cluster experiment, stepped barrier by barrier.

    ``events`` schedules liveness changes (``drain`` / ``restore`` /
    ``wedge_board`` / ``unwedge_board``) at absolute cycle times; they
    apply at the first barrier at or after their timestamp, identically
    in every shard layout.  Events and ``shards`` are *execution*
    parameters — deliberately outside the spec, so a cluster point's
    cache key covers exactly what determines its steady-state numbers.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        shards: int = 1,
        events: Sequence[Any] = (),
        shard_timeout: Optional[float] = 120.0,
    ) -> None:
        if spec.cluster is None:
            raise SpecError("ClusterEngine needs a spec with a cluster field")
        if shards < 1:
            raise SpecError("shards must be >= 1")
        self.spec = spec
        self.cluster = spec.cluster
        self.shards = min(shards, self.cluster.boards)
        self.shard_timeout = shard_timeout
        self.spec_key = spec.cache_key()
        self.events = sorted(_normalize_event(e) for e in events)
        self._next_event = 0

        self.now = 0.0
        self.horizons = 0
        self._shards: List[Any] = []
        self._started = False
        self._closed = False
        self._result: Optional[ExperimentResult] = None
        self._snapshot_seq = 0

        boards = self.cluster.boards
        #: each board's progress reading at the last barrier, and their sum
        self._reading = sum_readings(())
        self._metrics: List[Dict[str, Any]] = [self._reading] * boards
        self._pending: Dict[int, list] = {}
        self._cross_packets = 0
        self._cross_bytes = 0
        self._applied_events: List[Dict[str, Any]] = []

        # the rack is measured like one board, on the summed reading
        self._measurement = ThroughputMeasurement(
            spec.window,
            lambda: self.now,
            lambda: self._reading,
            lambda: self._reading["completions"],
            clock=spec.config.clock,
            packet_size=spec.traffic.packet_size,
            offered_gbps=spec.traffic.offered_gbps * boards,
            n_rpus=boards * spec.config.n_rpus,
            include_host=spec.include_host,
            include_absorbed=spec.include_absorbed,
        )

        # cluster-level rate sampler: (time, reading) the interval began at
        self.samples: List[Sample] = []
        self._sample_base = (0.0, self._reading)

        # cluster watchdog state
        self._zero_streak = [0] * boards
        self._has_progressed = [False] * boards
        self._admin_drained = set()
        self._auto_evicted = set()
        self._outages: List[Dict[str, Any]] = []
        self._stall_streak = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Build the shards (idempotent)."""
        if self._started:
            return
        if self._closed:
            raise ClusterShardError("cluster engine already closed")
        boards = list(range(self.cluster.boards))
        if self.shards == 1:
            self._shards = [InlineShard(0, self.spec, boards)]
        else:
            try:
                pickle.dumps(self.spec)
            except Exception as exc:
                raise ClusterShardError(
                    f"spec is not picklable ({exc}); a sharded cluster ships "
                    "board specs to spawn workers — run with shards=1"
                ) from exc
            groups = [boards[j :: self.shards] for j in range(self.shards)]
            self._shards = [
                ProcessShard(j, self.spec, group, timeout=self.shard_timeout)
                for j, group in enumerate(groups)
            ]
            for shard in self._shards:
                shard.rack = self._shards
        self._started = True

    def close(self) -> None:
        # ask every worker to exit before reaping any, so the exits overlap
        for reap in (False, True):
            for shard in self._shards:
                try:
                    shard.close(reap)
                except Exception:
                    pass
        self._shards = []
        self._closed = True

    def __del__(self) -> None:  # defensive: never leak worker processes
        try:
            if self._started and not self._closed:
                self.close()
        except Exception:
            pass

    # -- the barrier loop --------------------------------------------------

    def _round(self, cmd: str, payloads: Sequence[tuple]) -> List[Any]:
        """Post ``cmd`` to every shard before collecting any reply.

        Replies come back in shard order, whichever worker finished
        first.  A failed round closes the engine: a sibling of the failed
        shard may still hold an unread reply, which must never be taken
        as the answer to a later command.
        """
        if self._closed:
            raise ClusterShardError("cluster engine is closed")
        try:
            for shard, payload in zip(self._shards, payloads):
                shard.post(cmd, payload)
            return [shard.request(cmd) for shard in self._shards]
        except ClusterShardError:
            self.close()
            raise

    @property
    def measurement_done(self) -> bool:
        return self._measurement.done

    def _apply_event(self, kind: str, board: int, source: str) -> None:
        self._round("apply_event", [(kind, board)] * len(self._shards))
        if kind == "drain":
            self._admin_drained.add(board)
            self._zero_streak[board] = 0
        elif kind == "restore":
            self._admin_drained.discard(board)
            self._auto_evicted.discard(board)
            # re-arm only once the board progresses again: a restored
            # board whose flows were all re-pinned away is idle, not
            # dead, and must not be spuriously re-evicted
            self._has_progressed[board] = False
            self._zero_streak[board] = 0
        self._applied_events.append(
            {"t": self.now, "kind": kind, "board": board, "source": source}
        )

    def _due_events(self) -> None:
        while (
            self._next_event < len(self.events)
            and self.events[self._next_event][0] <= self.now
        ):
            _at, kind, board = self.events[self._next_event]
            self._apply_event(kind, board, "scheduled")
            self._next_event += 1

    def advance_horizon(self) -> None:
        """Advance every board one window and run the barrier logic."""
        self.start()
        if self.measurement_done:
            return
        self._due_events()
        horizon = self.now + self.cluster.horizon_cycles
        if horizon > self.spec.window.max_cycles:
            raise RuntimeError(
                f"cluster run exceeded max_cycles={self.spec.window.max_cycles:g} "
                f"in phase {self._measurement.phase!r} at "
                f"{self._reading['completions']} completions"
            )

        outgoing: List[tuple] = []
        previous = list(self._metrics)
        before = self._reading["completions"]
        payloads = [
            (horizon, {b: self._pending.pop(b) for b in shard.boards if b in self._pending})
            for shard in self._shards
        ]
        for out, metrics in self._round("advance", payloads):
            outgoing.extend(out)
            for board, m in metrics.items():
                self._metrics[board] = m

        # deterministic merge: arrival time, then source board, then
        # per-source emission sequence — a total order identical in
        # every process layout and whichever shard answered first
        outgoing.sort(key=lambda e: (e[0], e[1], e[2]))
        for entry in outgoing:
            self._pending.setdefault(entry[3], []).append(entry)
            self._cross_packets += 1
            self._cross_bytes += entry[4]

        self.now = horizon
        self.horizons += 1
        self._reading = sum_readings(self._metrics)
        self._watchdog_tick(previous)
        self._sample_tick()
        self._measurement.pump()

        if self._reading["completions"] == before:
            self._stall_streak += 1
            if self._stall_streak >= _STALL_HORIZONS:
                raise RuntimeError(
                    f"cluster stalled: no completions for {_STALL_HORIZONS} "
                    f"horizons (phase {self._measurement.phase!r}, "
                    f"{self._reading['completions']} completions, t={self.now:g})"
                )
        else:
            self._stall_streak = 0

    def _watchdog_tick(self, previous: List[Dict[str, Any]]) -> None:
        threshold = self.cluster.watchdog_horizons
        for board, (before, now) in enumerate(zip(previous, self._metrics)):
            delta = now["completions"] - before["completions"]
            absorbed_delta = now["absorbed_bytes"] - before["absorbed_bytes"]
            if delta > 0:
                self._has_progressed[board] = True
                self._zero_streak[board] = 0
                if board in self._auto_evicted:
                    # the board came back: log recovery, restore steering
                    for outage in self._outages:
                        if outage["board"] == board and outage["recovered_at"] is None:
                            outage["recovered_at"] = self.now
                            outage["mttr_cycles"] = self.now - outage["detected_at"]
                    self._apply_event("restore", board, "watchdog")
                continue
            if (
                threshold == 0
                or board in self._admin_drained
                or board in self._auto_evicted
                or not self._has_progressed[board]
            ):
                continue
            if absorbed_delta == 0:
                # idle, not dead: the board is taking no traffic (e.g.
                # restored after failover with all its flows re-pinned
                # away), so zero completions prove nothing
                continue
            self._zero_streak[board] += 1
            if self._zero_streak[board] >= threshold:
                self._outages.append(
                    {
                        "board": board,
                        "detected_at": self.now,
                        "recovered_at": None,
                        "mttr_cycles": None,
                    }
                )
                self._auto_evicted.add(board)
                self._apply_event("evict", board, "watchdog")

    def _sample_tick(self) -> None:
        t0, base = self._sample_base
        if self.now - t0 < self.cluster.sample_cycles:
            return
        self.samples.append(
            Sample(
                t_start_cycles=t0,
                t_end_cycles=self.now,
                rx_drops=self._reading["rx_drops"] - base["rx_drops"],
                **window_rates(base, self._reading, self.now - t0, self.spec.config.clock),
            )
        )
        self._sample_base = (self.now, self._reading)

    # -- results -----------------------------------------------------------

    def run_to_completion(self) -> ExperimentResult:
        """Advance barriers until the cluster measurement completes."""
        self.start()
        try:
            while not self.measurement_done:
                self.advance_horizon()
            if self._result is None:
                self._result = self._assemble()
        finally:
            self.close()
        return self._result

    def result(self) -> ExperimentResult:
        if self._result is None:
            if not self.measurement_done:
                raise RuntimeError("cluster measurement not complete; keep stepping")
            self._result = self._assemble()
            self.close()
        return self._result

    def _assemble(self) -> ExperimentResult:
        finals: Dict[int, Dict[str, Any]] = {}
        for reply in self._round("finalize", [()] * len(self._shards)):
            finals.update(reply)

        counters: Dict[str, int] = {}
        firmware_totals: Dict[str, int] = {}
        repinned = 0
        for board in range(self.cluster.boards):
            final = finals[board]
            for key, value in final["counters"].items():
                counters[key] = counters.get(key, 0) + value
            for key, value in final["firmware_totals"].items():
                firmware_totals[key] = firmware_totals.get(key, 0) + value
            repinned += final["repinned"]

        mttrs = [
            o["mttr_cycles"] for o in self._outages if o["mttr_cycles"] is not None
        ]
        # the dip is judged on samples that end inside the measure window
        warmup_samples = sum(
            s.t_end_cycles <= self._measurement.t0 for s in self.samples
        )
        resilience = {
            "dip": dip_profile(self.samples, skip=max(1, warmup_samples)),
            "watchdog": [dict(o) for o in self._outages],
            "mttr_cycles": max(mttrs) if mttrs else 0.0,
            "samples": len(self.samples),
        }

        per_board = [
            {
                "board": b,
                "completions": self._metrics[b]["completions"],
                "tx_bytes": self._metrics[b]["tx_bytes"],
                "tx_packets": self._metrics[b]["tx_packets"],
                "rx_drops": self._metrics[b]["rx_drops"],
                "live": b not in self._admin_drained and b not in self._auto_evicted,
                "fluid": finals[b].get("fluid"),
            }
            for b in range(self.cluster.boards)
        ]

        # rack-level fluid roll-up (None for event-fidelity specs): the
        # per-board engines warp independently inside their horizon
        # windows, so the rack totals are plain sums
        board_fluid = [finals[b].get("fluid") for b in range(self.cluster.boards)]
        fluid_summary = None
        if any(f is not None for f in board_fluid):
            live = [f for f in board_fluid if f is not None]
            fluid_summary = {
                "boards_eligible": sum(1 for f in live if f["eligible"]),
                "boards_engaged": sum(1 for f in live if f["engaged"]),
                "warps": sum(f["warps"] for f in live),
                "periods_warped": sum(f["periods_warped"] for f in live),
                "warped_cycles": sum(f["warped_cycles"] for f in live),
                "cross_deopts": sum(f["cross_deopts"] for f in live),
                "occupancy": {
                    "event": 1.0
                    - sum(f["occupancy"]["fluid"] for f in live) / len(live),
                    "fluid": sum(f["occupancy"]["fluid"] for f in live)
                    / len(live),
                },
            }

        result = ExperimentResult(
            spec_key=self.spec_key,
            throughput=self._measurement.result,
            counters=counters,
            firmware_totals=firmware_totals,
        )
        result.cluster = {
            "boards": self.cluster.boards,
            "affinity": self.cluster.affinity,
            "link_gbps": self.cluster.link_gbps,
            "horizon_cycles": self.cluster.horizon_cycles,
            "horizons": self.horizons,
            "cross_board": {
                "packets": self._cross_packets,
                "bytes": self._cross_bytes,
                "repinned_flows": repinned,
            },
            "per_board": per_board,
            "fluid": fluid_summary,
            "events": [dict(e) for e in self._applied_events],
            "resilience": resilience,
        }
        return result

    # -- session-compatible surface (serve / CLI) --------------------------

    def step(
        self,
        n_events: Optional[int] = None,
        until_ts: Optional[float] = None,
        cycles: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Advance whole horizons (the cluster's event granularity).

        ``n_events`` bounds the number of *barriers* crossed;
        ``until_ts``/``cycles`` bound simulated time, rounded up to the
        next barrier.  Mirrors :meth:`SimSession.step`'s envelope so
        the serve RPC layer drives either transparently.
        """
        self.start()
        bound = until_ts
        if cycles is not None:
            rel = self.now + cycles
            bound = rel if bound is None else min(bound, rel)
        crossed = 0
        while not self.measurement_done:
            if n_events is not None and crossed >= n_events:
                break
            if bound is not None and self.now >= bound:
                break
            self.advance_horizon()
            crossed += 1
        return {
            "events": crossed,
            "now": self.now,
            "measurement_done": self.measurement_done,
        }

    def control(self, action: str, board: int = 0, **params) -> Dict[str, Any]:
        """Live cluster control: drain/restore/wedge/unwedge a board."""
        if params:
            raise SpecError(f"unknown cluster control parameters: {sorted(params)}")
        if action not in _EVENT_KINDS:
            raise SpecError(
                f"unknown cluster control action {action!r}; "
                f"choices: {list(_EVENT_KINDS)}"
            )
        board = int(board)
        if not 0 <= board < self.cluster.boards:
            raise SpecError(
                f"board {board} out of range (cluster has {self.cluster.boards})"
            )
        self.start()
        self._apply_event(action, board, "control")
        return {"action": action, "board": board, "t": self.now}

    def snapshot(self) -> Dict[str, Any]:
        """Cluster telemetry with one block per board
        (``repro-cluster-snapshot/1``)."""
        self.start()
        self._snapshot_seq += 1
        last = self.samples[-1] if self.samples else None
        boards = []
        for b in range(self.cluster.boards):
            m = self._metrics[b]
            boards.append(
                {
                    "board": b,
                    "live": b not in self._admin_drained
                    and b not in self._auto_evicted,
                    "drained": b in self._admin_drained,
                    "evicted": b in self._auto_evicted,
                    "completions": m["completions"],
                    "tx_packets": m["tx_packets"],
                    "rx_drops": m["rx_drops"],
                    "fluid": m.get("fluid"),
                }
            )
        detail = {}
        for shard in self._shards:
            detail.update(shard.board_snapshots())
        window = self.spec.window
        payload: Dict[str, Any] = {
            "seq": self._snapshot_seq,
            "now_cycles": self.now,
            "horizons": self.horizons,
            "horizon_cycles": self.cluster.horizon_cycles,
            "shards": self.shards,
            "boards": boards,
            "cross_board": {
                "packets": self._cross_packets,
                "bytes": self._cross_bytes,
            },
            "rates": {
                "tx_gbps": 0.0 if last is None else last.gbps,
                "tx_mpps": 0.0 if last is None else last.mpps,
            },
            "measurement": {
                "mode": "throughput",
                "phase": self._measurement.phase,
                "completions": self._reading["completions"],
                "target": self._measurement.target(),
            },
            "events": [dict(e) for e in self._applied_events],
            "watchdog": [dict(o) for o in self._outages],
            "per_board_detail": {str(b): snap for b, snap in sorted(detail.items())},
        }
        return stamp(payload, "repro-cluster-snapshot")

