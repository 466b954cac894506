"""Discrete-event simulation kernel.

Events fire in ``(time, seq)`` order, where ``seq`` counts schedule
calls, so same-time events fire in the order they were scheduled and
every run is deterministic.  The queue is one binary heap of
``(time, seq, event)`` entries; cancelling an event only sets its flag,
and its entry is dropped when it reaches the top of the heap.

Time is kept in *cycles* of the Rosebud fabric clock by convention
(250 MHz => 4 ns per cycle), but the kernel itself is unit-agnostic; the
:mod:`repro.sim.clock` helpers convert between cycles, nanoseconds, and
throughput figures.

Invariant: :attr:`Simulator.events_processed` counts only *fired*
callbacks.
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the kernel is used inconsistently (e.g. scheduling in
    the past)."""


class Event:
    """A single scheduled callback, fired in ``(time, seq)`` order."""

    __slots__ = ("time", "seq", "callback", "name", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: Callable[[], Any], name: str = ""
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (O(1): the queued entry is
        dropped when it reaches the top of the heap)."""
        self.cancelled = True


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


class Simulator:
    """An event-driven simulator with deterministic ordering.

    Typical use::

        sim = Simulator()
        sim.schedule(10, lambda: print("at t=10"))
        sim.run()
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._stopped = False
        self.events_processed = 0
        #: ``shift(delta)`` of each object that holds absolute times
        #: :meth:`warp` translates too (every ``SerialLink``'s bookings)
        self.warp_shifts: List[Callable[[float], None]] = []

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
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, name)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def iter_pending(self) -> Iterator[Tuple[float, str]]:
        """Yield ``(time, name)`` for every live pending event.

        Non-destructive and unordered; cancelled events are skipped.
        This is the introspection surface the fluid fast-forward engine
        uses to fingerprint the queue and find far-future one-shots.
        """
        for time, _, event in self._heap:
            if not event.cancelled:
                yield time, event.name

    def warp(self, delta: float, freeze_after: Optional[float] = None) -> None:
        """Jump the clock forward by ``delta``, carrying pending events.

        Every live event scheduled before ``freeze_after`` is shifted by
        ``delta`` (preserving relative offsets and the ``(time, seq)``
        firing order, also where a shifted event lands on the time of a
        frozen one); events at or after ``freeze_after`` keep their
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

        Raises :class:`SimulationError`, changing nothing, if ``delta``
        is not positive or a live frozen event lies in the skipped
        interval.  Cancelled events are dropped.  The heap is rebuilt in
        place because :meth:`run`'s observer may warp.  Last, each of
        :attr:`warp_shifts` is called with ``delta``.
        """
        if delta <= 0:
            raise SimulationError(f"warp delta must be positive (got {delta})")
        new_now = self._now + delta
        heap = self._heap
        if freeze_after is not None and freeze_after < new_now:
            for time, _, event in heap:
                if freeze_after <= time < new_now and not event.cancelled:
                    raise SimulationError(
                        f"warp to t={new_now} would jump past the frozen "
                        f"event at t={time}"
                    )
        entries = []
        for time, seq, event in heap:
            if event.cancelled:
                continue
            if freeze_after is None or time < freeze_after:
                time = event.time = time + delta
            entries.append((time, seq, event))
        heapq.heapify(entries)
        heap[:] = entries
        self._now = new_now
        for shift in self.warp_shifts:
            shift(delta)

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
        events still queued.
        """
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while not self._stopped:
            if heap:
                time, _, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    continue
            if not heap or (until is not None and time > until):
                if until is not None and self._now < until:
                    self._now = until
                break
            if max_events is not None and processed >= max_events:
                break
            pop(heap)
            self._now = time
            self.events_processed += 1
            event.callback()
            processed += 1
            if observer is not None:
                observer(event)
        return self._now

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
