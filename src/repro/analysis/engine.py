"""Parallel experiment engine: :func:`run_experiment` + :class:`SweepRunner`.

The paper's evaluation is a grid of independent steady-state points
(size x load x RPU-count, Fig 7a-c / Fig 8 / the ablations); each point
builds its own :class:`~repro.core.system.RosebudSystem` and runs its
own event simulation, so a sweep is embarrassingly parallel.  The
:class:`SweepRunner` fans specs out across a spawn-based process pool:

* **deterministic** — a point's result depends only on its
  :class:`~repro.analysis.spec.ExperimentSpec` (seeds live in the
  spec), so serial and pooled runs agree bit-for-bit and results are
  collected back in submission order;
* **isolated** — a point that raises fails *that point* (status
  ``error`` with the worker traceback); a point that wedges past
  ``point_timeout`` seconds is marked ``timeout``; a worker that dies
  outright (segfault, ``os._exit``) breaks only its point: the points
  that were in flight with it are re-run one per pool to find out
  which one it was, and a fresh pool takes the remainder;
* **cached** — with a ``cache_dir``, finished points are stored as
  JSON keyed by :meth:`ExperimentSpec.cache_key` (a stable hash of
  config + firmware + traffic + window), so re-running a benchmark
  grid skips every already-measured point.

Specs that hold live objects (lambda factories, custom source
callables) cannot cross a spawn boundary; the runner detects them via
a pickle probe and runs those points inline in the parent, still with
per-point error isolation.
"""

from __future__ import annotations

import json
import pickle
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .spec import ExperimentResult, ExperimentSpec


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Build the system described by ``spec`` and measure it, serially.

    This is the one construction path shared by the CLI, the pool
    workers, and interactive sessions: a thin wrapper that opens a
    :class:`~repro.serve.session.SimSession` (which performs the
    backend/verify/build/fault setup in the canonical order)
    and steps it to measurement completion, so batch and interactive
    runs are the same loop.
    """
    # imported lazily: repro.serve builds on the analysis spec, so the
    # dependency must point session -> spec, not engine -> session at
    # module import time
    if spec.cluster is not None:
        # N-board rack: the cluster engine drives one session per
        # board through bounded-lag horizons (inline here; `shards`
        # is a runtime choice, not part of the measured point)
        from ..cluster.engine import ClusterEngine

        return ClusterEngine(spec).run_to_completion()
    from ..serve.session import SimSession

    return SimSession(spec).run_to_completion()


def _firmware_totals(system: Any) -> Dict[str, int]:
    """Sum the public integer attributes of every RPU's firmware model
    (NAT's ``translated``, and friends) so results stay self-contained."""
    totals: Dict[str, int] = {}
    for rpu in getattr(system, "rpus", []):
        firmware = getattr(rpu, "firmware", None)
        if firmware is None:
            continue
        for name, value in vars(firmware).items():
            if name.startswith("_") or isinstance(value, bool):
                continue
            if isinstance(value, int):
                totals[name] = totals.get(name, 0) + value
    return totals


def _execute_point(spec: ExperimentSpec) -> Tuple[str, Any]:
    """Worker entry: never raises, so one bad point cannot kill a batch."""
    try:
        return ("ok", run_experiment(spec))
    except BaseException:
        return ("error", traceback.format_exc())


class ResultCache:
    """On-disk JSON store of finished points, keyed by spec hash."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[ExperimentResult]:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
            return ExperimentResult.from_dict(data["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None  # treat unreadable entries as misses

    def put(self, key: str, spec: ExperimentSpec, result: ExperimentResult) -> None:
        payload = {"spec": spec.to_dict(), "result": result.to_dict()}
        tmp = self._path(key).with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
        tmp.replace(self._path(key))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


@dataclass
class PointOutcome:
    """One grid point's fate: measured, cached, failed, or timed out."""

    index: int
    spec: ExperimentSpec
    key: str
    status: str  # "ok" | "cached" | "error" | "timeout"
    result: Optional[ExperimentResult] = None
    error: str = ""
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class SweepOutcome:
    """Ordered outcomes of one :meth:`SweepRunner.run` call."""

    points: List[PointOutcome] = field(default_factory=list)

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index: int) -> PointOutcome:
        return self.points[index]

    @property
    def results(self) -> List[Optional[ExperimentResult]]:
        return [p.result for p in self.points]

    @property
    def failed(self) -> List[PointOutcome]:
        return [p for p in self.points if not p.ok]

    def raise_on_failure(self) -> "SweepOutcome":
        bad = self.failed
        if bad:
            first = bad[0]
            raise RuntimeError(
                f"{len(bad)} sweep point(s) failed; first: "
                f"[{first.index}] {first.spec.describe()} -> {first.status}: "
                f"{first.error.strip().splitlines()[-1] if first.error else ''}"
            )
        return self


class SweepRunner:
    """Run a batch of :class:`ExperimentSpec` points, possibly in parallel.

    ``jobs=1`` runs inline (no processes); ``jobs=N`` uses a spawn-based
    :class:`ProcessPoolExecutor` so workers never inherit parent
    simulation state.  Results come back in submission order regardless
    of completion order.  ``stats`` after a run reports
    ``{"cached", "simulated", "errors", "timeouts"}``.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        point_timeout: Optional[float] = None,
        mp_context: str = "spawn",
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.point_timeout = point_timeout
        self.mp_context = mp_context
        self.stats: Dict[str, int] = {}

    # -- public ------------------------------------------------------------

    def run(self, specs: Sequence[ExperimentSpec]) -> SweepOutcome:
        if not specs:
            raise ValueError("empty sweep")
        self.stats = {"cached": 0, "simulated": 0, "errors": 0, "timeouts": 0}
        outcomes: List[Optional[PointOutcome]] = [None] * len(specs)

        pending: List[Tuple[int, ExperimentSpec, str]] = []
        for index, spec in enumerate(specs):
            key = spec.cache_key()
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                self.stats["cached"] += 1
                outcomes[index] = PointOutcome(
                    index=index, spec=spec, key=key, status="cached", result=cached
                )
            else:
                pending.append((index, spec, key))

        poolable, inline = self._partition(pending)
        if self.jobs == 1 or len(poolable) <= 1:
            inline = pending
            poolable = []

        for index, spec, key in inline:
            outcomes[index] = self._run_inline(index, spec, key)
        if poolable:
            for outcome in self._run_pool(poolable):
                outcomes[outcome.index] = outcome

        done = [o for o in outcomes if o is not None]
        assert len(done) == len(specs)
        return SweepOutcome(points=done)

    # -- internals ---------------------------------------------------------

    def _partition(self, pending):
        """Split points into pool-shippable and parent-only (unpicklable)."""
        poolable, inline = [], []
        for item in pending:
            try:
                pickle.dumps(item[1])
            except Exception:
                inline.append(item)
            else:
                poolable.append(item)
        return poolable, inline

    def _finish(
        self, index: int, spec: ExperimentSpec, key: str, status: str, payload: Any,
        elapsed: float,
    ) -> PointOutcome:
        if status == "ok":
            self.stats["simulated"] += 1
            if self.cache is not None:
                self.cache.put(key, spec, payload)
            return PointOutcome(
                index=index, spec=spec, key=key, status="ok", result=payload,
                elapsed_s=elapsed,
            )
        self.stats["errors" if status == "error" else "timeouts"] += 1
        return PointOutcome(
            index=index, spec=spec, key=key, status=status, error=str(payload),
            elapsed_s=elapsed,
        )

    def _run_inline(self, index: int, spec: ExperimentSpec, key: str) -> PointOutcome:
        t0 = time.perf_counter()
        status, payload = _execute_point(spec)
        return self._finish(index, spec, key, status, payload, time.perf_counter() - t0)

    def _run_pool(self, poolable) -> List[PointOutcome]:
        # A dead worker breaks its pool and fails every future in it, so
        # the points in flight at that moment are only suspects: each is
        # re-run on a pool of its own, and a point is blamed only if it
        # breaks that one too.  Unsubmitted points go to a fresh pool.
        outcomes: List[PointOutcome] = []
        remaining = list(poolable)
        while remaining:
            done, suspects, remaining = self._pool_pass(remaining, self.jobs)
            outcomes += done
            for item in suspects:
                t0 = time.perf_counter()
                done = self._pool_pass([item], 1)[0]
                outcomes += done or [self._finish(
                    *item, "error", "worker process died (crash or OOM)",
                    time.perf_counter() - t0,
                )]
        return outcomes

    def _pool_pass(self, items, workers: int):
        """Run ``items`` on one pool with at most ``workers`` in flight;
        returns ``(outcomes, in_flight, unsubmitted)``, the last two empty
        unless a worker died and broke the pool."""
        executor = ProcessPoolExecutor(min(workers, len(items)), get_context(self.mp_context))
        limit = self.point_timeout
        queue, running, outcomes = list(items), {}, []
        try:
            while queue or running:
                try:
                    while queue and len(running) < workers:
                        future = executor.submit(_execute_point, queue[0][1])
                        running[future] = (queue.pop(0), time.perf_counter())
                except BrokenExecutor:
                    # broke since the last wait; in-flight futures report it below
                    if not running:
                        return outcomes, [], queue
                oldest = min(t0 for _, t0 in running.values())
                timeout = None if limit is None else max(0.0, oldest + limit - time.perf_counter())
                broken = []
                for future in wait(running, timeout, FIRST_COMPLETED).done:
                    item, t0 = running.pop(future)
                    try:
                        status, payload = future.result()
                    except BrokenExecutor:
                        broken.append(item)
                        continue
                    outcomes.append(self._finish(*item, status, payload, time.perf_counter() - t0))
                if broken:
                    return outcomes, sorted(broken + [i for i, _ in running.values()]), queue
                for future, (item, t0) in list(running.items()):
                    elapsed = time.perf_counter() - t0
                    if limit is not None and elapsed >= limit:
                        del running[future]
                        outcomes.append(self._finish(
                            *item, "timeout", f"point exceeded {limit}s wall clock", elapsed
                        ))
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return outcomes, [], []
