"""Discrete-event simulation kernel.

The kernel is deliberately small: timestamped events ordered by
``(time, seq)``, plus a handful of conveniences (named processes, stop
conditions, a monotonically increasing event sequence number so
same-time events fire in schedule order).

Internally events are *batched by timestamp*: the heap orders only the
distinct pending times, and every event sharing a timestamp lives in a
FIFO bucket behind that heap entry.  Middlebox simulations schedule
many same-cycle events (one per packet per pipeline stage), so this
cuts heap traffic by the average bucket size while preserving the
exact ``(time, seq)`` firing order.  Cancelled events are skipped when
their bucket drains and compacted wholesale once they exceed a
fraction of the pending set, so a workload that cancels aggressively
(e.g. timeout timers) cannot bloat the queue.

Time is kept in *cycles* of the Rosebud fabric clock by convention
(250 MHz => 4 ns per cycle), but the kernel itself is unit-agnostic; the
:mod:`repro.sim.clock` helpers convert between cycles, nanoseconds, and
throughput figures.

Invariant: :attr:`Simulator.events_processed` counts only *fired*
callbacks.  Cancelled events never contribute, no matter where in the
queue they were skipped or compacted away.
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the kernel is used inconsistently (e.g. scheduling in
    the past) or a driven process dies."""


@dataclass(order=True)
class Event:
    """A single scheduled callback.

    Events compare by ``(time, seq)`` so that simultaneous events run in
    the order they were scheduled, which keeps runs deterministic.
    """

    time: float
    seq: int
    callback: Callable[[], Any] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    _sim: Optional["Simulator"] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelled events stay queued but are skipped when their bucket
        drains; this is O(1) and avoids heap surgery.  The owning
        simulator counts them and compacts the queue when they pile up.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel()


@dataclass
class SimProfile:
    """What :meth:`Simulator.run_profile` measured."""

    events_processed: int
    wall_seconds: float
    events_per_sec: float
    top_events: List[Tuple[str, int]]

    def format(self) -> str:
        lines = [
            f"events processed : {self.events_processed}",
            f"wall seconds     : {self.wall_seconds:.4f}",
            f"events/sec       : {self.events_per_sec:,.0f}",
        ]
        for name, count in self.top_events:
            lines.append(f"  {name or '<unnamed>':24s} {count}")
        return "\n".join(lines)


#: Compact once cancelled events exceed this fraction of the pending set
#: (and the absolute floor below, so tiny queues never bother).
COMPACT_FRACTION = 0.5
COMPACT_MIN_CANCELLED = 64

_EMPTY: List[Event] = []


class Simulator:
    """An event-driven simulator with deterministic ordering.

    Typical use::

        sim = Simulator()
        sim.schedule(10, lambda: print("at t=10"))
        sim.run()
    """

    def __init__(self) -> None:
        # Distinct pending times; each has exactly one FIFO bucket in
        # _buckets, except the time currently promoted to _batch.
        self._times: List[float] = []
        self._buckets: Dict[float, List[Event]] = {}
        # The bucket currently being drained (always holds the minimum
        # pending time; see schedule_at's de-promotion path).
        self._batch: List[Event] = _EMPTY
        self._batch_pos = 0
        self._batch_time: Optional[float] = None
        self._seq = 0
        self._now = 0.0
        self._stopped = False
        self._n_pending = 0  # live (non-cancelled) events queued
        self._n_cancelled = 0  # cancelled events still stored
        self.events_processed = 0
        self.compactions = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[[], Any], name: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, name)

    def schedule_at(
        self, time: float, callback: Callable[[], Any], name: str = ""
    ) -> Event:
        """Schedule ``callback`` at an absolute time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        event = Event(time=time, seq=self._seq, callback=callback, name=name, _sim=self)
        self._seq += 1
        self._n_pending += 1
        batch_time = self._batch_time
        if batch_time is not None:
            if time == batch_time:
                # Same timestamp as the active batch: appending keeps
                # (time, seq) order because every batched event has a
                # smaller seq.
                self._batch.append(event)
                self._maybe_compact()
                return event
            if time < batch_time:
                # Scheduled (from outside a callback) before the batch
                # we already promoted: push the batch back and let the
                # heap re-order.  Rare, so the slice is acceptable.
                self._demote_batch()
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        self._maybe_compact()
        return event

    def _demote_batch(self) -> None:
        remaining = self._batch[self._batch_pos :]
        if remaining:
            assert self._batch_time is not None
            existing = self._buckets.get(self._batch_time)
            if existing is None:
                self._buckets[self._batch_time] = remaining
                heapq.heappush(self._times, self._batch_time)
            else:  # pragma: no cover - batch time never coexists with a bucket
                existing.extend(remaining)
        self._batch = _EMPTY
        self._batch_pos = 0
        self._batch_time = None

    def _note_cancel(self) -> None:
        self._n_cancelled += 1
        self._n_pending -= 1

    def _maybe_compact(self) -> None:
        if self._n_cancelled < COMPACT_MIN_CANCELLED:
            return
        if self._n_cancelled <= COMPACT_FRACTION * (
            self._n_pending + self._n_cancelled
        ):
            return
        self.compact()

    def compact(self) -> None:
        """Drop every cancelled event still stored and rebuild the queue.

        Runs automatically once cancelled events exceed
        ``COMPACT_FRACTION`` of the pending set; callable directly for
        tests and long-idle housekeeping.
        """
        if self._batch_time is not None:
            live_batch = [
                e for e in self._batch[self._batch_pos :] if not e.cancelled
            ]
            if live_batch:
                self._batch = live_batch
                self._batch_pos = 0
            else:
                self._batch = _EMPTY
                self._batch_pos = 0
                self._batch_time = None
        buckets: Dict[float, List[Event]] = {}
        for time_key, bucket in self._buckets.items():
            live = [e for e in bucket if not e.cancelled]
            if live:
                buckets[time_key] = live
        self._buckets = buckets
        self._times = list(buckets.keys())
        heapq.heapify(self._times)
        self._n_cancelled = 0
        self.compactions += 1

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty.

        Skipped cancelled events are discarded as a side effect, so
        repeated peeks stay O(1) amortized.
        """
        while True:
            batch = self._batch
            pos = self._batch_pos
            n = len(batch)
            while pos < n:
                event = batch[pos]
                if event.cancelled:
                    pos += 1
                    self._n_cancelled -= 1
                    continue
                self._batch_pos = pos
                return event.time
            self._batch_pos = pos
            if not self._times:
                self._batch = _EMPTY
                self._batch_pos = 0
                self._batch_time = None
                return None
            next_time = heapq.heappop(self._times)
            self._batch = self._buckets.pop(next_time)
            self._batch_pos = 0
            self._batch_time = next_time

    def iter_pending(self) -> Iterator[Tuple[float, str]]:
        """Yield ``(time, name)`` for every live pending event.

        Non-destructive and unordered; cancelled events are skipped.
        This is the introspection surface the fluid fast-forward engine
        uses to fingerprint the queue and find far-future one-shots.
        """
        if self._batch_time is not None:
            for event in self._batch[self._batch_pos:]:
                if not event.cancelled:
                    yield event.time, event.name
        for bucket in self._buckets.values():
            for event in bucket:
                if not event.cancelled:
                    yield event.time, event.name

    def warp(self, delta: float, freeze_after: Optional[float] = None) -> None:
        """Jump the clock forward by ``delta``, carrying pending events.

        Every live event scheduled before ``freeze_after`` is shifted by
        ``delta`` (preserving relative offsets and the ``(time, seq)``
        firing order); events at or after ``freeze_after`` keep their
        absolute times — they are one-shot appointments (fault triggers,
        deadline timers) that must fire at the wall time they name.
        With ``freeze_after=None`` everything shifts.

        This is the *epoch skip* behind the fluid fast-forward tier: the
        caller is asserting that the skipped interval would have been a
        whole number of identical steady-state periods, so translating
        the recurring event set by ``delta`` lands the simulation in a
        state congruent to the one event-by-event execution would reach.
        ``events_processed`` is untouched; the caller accounts for the
        events it analytically skipped.

        Cancelled events still stored are dropped as a side effect.
        """
        if delta <= 0:
            raise SimulationError(f"warp delta must be positive (got {delta})")
        new_now = self._now + delta
        self._demote_batch()
        if freeze_after is not None and freeze_after < new_now:
            # frozen events keep absolute times, so none may end up in
            # the past; check before mutating anything
            for time_key in self._buckets:
                if freeze_after <= time_key < new_now:
                    raise SimulationError(
                        f"warp to t={new_now} would jump past the frozen "
                        f"event at t={time_key}"
                    )
        buckets: Dict[float, List[Event]] = {}
        merged = False
        for time_key, bucket in self._buckets.items():
            live = [e for e in bucket if not e.cancelled]
            if not live:
                continue
            if freeze_after is None or time_key < freeze_after:
                time_key = time_key + delta
                for event in live:
                    event.time = time_key
            existing = buckets.get(time_key)
            if existing is None:
                buckets[time_key] = live
            else:
                existing.extend(live)
                merged = True
        if merged:
            # a shifted time collided with a frozen one: restore the
            # (time, seq) invariant inside the merged bucket
            for bucket in buckets.values():
                bucket.sort(key=lambda e: e.seq)
        self._buckets = buckets
        self._times = list(buckets.keys())
        heapq.heapify(self._times)
        self._n_cancelled = 0
        self._now = new_now

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        observer: Optional[Callable[[Event], Any]] = None,
    ) -> float:
        """Run events until the queue drains, ``until`` is reached,
        ``max_events`` have fired, or :meth:`stop` is called.  Returns
        the final time.

        This is the only place a callback is dispatched.  ``observer``
        is called with each fired :class:`Event` after its callback
        returns; it may call :meth:`stop`, schedule, or :meth:`warp`.

        When ``until`` is given and no live event at or before it
        remains, time is advanced to exactly ``until``, mirroring how a
        testbench runs for a fixed interval.  A run that ends early
        (``max_events``, :meth:`stop`) leaves the clock at the last
        fired event, so the clock never has to move back to reach the
        events still queued.  ``events_processed`` counts only fired
        callbacks; cancelled events are purged without touching it.
        """
        self._stopped = False
        processed = 0
        while not self._stopped:
            next_time = self.peek()
            if next_time is None or (until is not None and next_time > until):
                if until is not None and self._now < until:
                    self._now = until
                break
            if max_events is not None and processed >= max_events:
                break
            event = self._batch[self._batch_pos]
            self._batch_pos += 1
            self._n_pending -= 1
            self._now = event.time
            self.events_processed += 1
            event.callback()
            processed += 1
            if observer is not None:
                observer(event)
        return self._now

    def step(self) -> bool:
        """Run the single next event.  Returns False if none remain."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before

    def run_profile(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        top: int = 10,
    ) -> SimProfile:
        """:meth:`run` under an observer that counts event names, timed.

        Returns a :class:`SimProfile` with wall-clock dispatch rate and
        the ``top`` most frequent event names — the probe the benchmark
        suite tracks so kernel regressions surface as a number.
        """
        counts: Dict[str, int] = {}

        def count(event: Event) -> None:
            counts[event.name] = counts.get(event.name, 0) + 1

        fired_before = self.events_processed
        t0 = _time.perf_counter()  # detlint: ok(profiling wall-clock dispatch rate, not simulated time)
        self.run(until, max_events, observer=count)
        wall = _time.perf_counter() - t0  # detlint: ok(profiling wall-clock dispatch rate, not simulated time)
        fired = self.events_processed - fired_before
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return SimProfile(
            events_processed=fired,
            wall_seconds=wall,
            events_per_sec=fired / wall if wall > 0 else 0.0,
            top_events=ranked[:top],
        )

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event."""
        self._stopped = True

    def process(self, generator: Iterator[float], name: str = "") -> None:
        """Drive a generator-based process.

        The generator yields delays; after each yield the kernel waits
        that many time units before resuming it.  This gives a light
        cooperative-coroutine style for sequential behaviours::

            def blinker():
                while True:
                    toggle()
                    yield 5.0

            sim.process(blinker())

        If the generator raises, the error is re-raised as
        :class:`SimulationError` naming the process, so a crash deep in
        a :meth:`run` points at the process that died instead of an
        anonymous callback.
        """

        def resume() -> None:
            try:
                delay = next(generator)
            except StopIteration:
                return
            except SimulationError:
                raise
            except Exception as exc:
                raise SimulationError(
                    f"process {name!r} died with {type(exc).__name__}: {exc}"
                ) from exc
            if delay < 0:
                raise SimulationError(f"process {name!r} yielded negative delay")
            self.schedule(delay, resume, name=name)

        self.schedule(0.0, resume, name=name)
