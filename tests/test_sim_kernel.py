"""Tests for the discrete-event kernel."""

import itertools
import random

import pytest

from repro.sim import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for label in "abcdef":
            sim.schedule(5, lambda l=label: order.append(l))
        sim.run()
        assert order == list("abcdef")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        hits = []

        def first():
            hits.append(sim.now)
            sim.schedule(5, lambda: hits.append(sim.now))

        sim.schedule(10, first)
        sim.run()
        assert hits == [10, 15]

    def test_zero_delay_event_runs_at_same_time(self):
        sim = Simulator()
        times = []
        sim.schedule(7, lambda: sim.schedule(0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [7]


class TestRunControl:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(1))
        sim.schedule(100, lambda: fired.append(2))
        sim.run(until=50)
        assert fired == [1]
        assert sim.now == 50

    def test_run_until_advances_time_even_without_events(self):
        sim = Simulator()
        sim.run(until=1000)
        assert sim.now == 1000

    def test_remaining_events_run_on_second_call(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(1))
        sim.schedule(100, lambda: fired.append(2))
        sim.run(until=50)
        sim.run()
        assert fired == [1, 2]

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, lambda: fired.append(1))
        sim.schedule(2, sim.stop)
        sim.schedule(3, lambda: fired.append(3))
        sim.run()
        assert fired == [1]

    def test_max_events_limit(self):
        sim = Simulator()
        count = []
        for i in range(10):
            sim.schedule(i + 1, lambda: count.append(1))
        sim.run(max_events=4)
        assert len(count) == 4

    def test_max_events_inside_until_never_rewinds_clock(self):
        # Regression: stopping on max_events with a live event <= until
        # still queued used to jump the clock to `until`, so the next
        # run() moved it *back* to that event (100 -> 20).
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: seen.append(sim.now))
        sim.schedule(20, lambda: seen.append(sim.now))
        assert sim.run(until=100, max_events=1) == 10
        assert sim.run() == 20
        assert seen == [10, 20]
        # with nothing left before the bound, the clock does reach it
        assert sim.run(until=100, max_events=1) == 100

    def test_observer_sees_each_fired_event_and_can_stop(self):
        sim = Simulator()
        names = []

        def observer(event):
            names.append((event.name, sim.now))
            if event.name == "b":
                sim.stop()

        for t, name in ((1, "a"), (2, "b"), (3, "c")):
            sim.schedule(t, lambda: None, name=name)
        sim.schedule(1, lambda: None, name="doomed").cancel()
        sim.run(until=50, observer=observer)
        assert names == [("a", 1), ("b", 2)]
        assert sim.now == 2  # a stopped run does not advance to `until`
        assert sim.events_processed == 2

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        event = sim.schedule(5, lambda: None)
        sim.schedule(10, lambda: None)
        event.cancel()
        assert sim.peek() == 10

    def test_events_processed_excludes_cancelled(self):
        # Invariant: events_processed counts only fired callbacks.
        sim = Simulator()
        events = [sim.schedule(i + 1, lambda: None) for i in range(10)]
        for event in events[::2]:
            event.cancel()
        sim.run()
        assert sim.events_processed == 5

    def test_double_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(5, lambda: None)
        event.cancel()
        event.cancel()
        sim.schedule(6, lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_mass_cancellation_triggers_compaction(self):
        # 400 of 500 timers cancelled: only the live ones fire and count.
        sim = Simulator()
        events = [sim.schedule(i + 1, lambda: None, name="timer") for i in range(500)]
        for event in events[:400]:
            event.cancel()
        sim.schedule(1000, lambda: None)
        sim.run()
        assert sim.events_processed == 101

    def test_explicit_compact_preserves_order(self):
        # Cancelled same-time events between live ones do not disturb
        # the live events' schedule order.
        sim = Simulator()
        order = []
        keep = []
        for i in range(4):
            keep.append(sim.schedule(5, lambda i=i: order.append(i)))
            sim.schedule(5, lambda: order.append("x")).cancel()
        sim.run()
        assert order == [0, 1, 2, 3]
        assert keep[0].cancelled is False


class TestOrdering:
    def test_nested_same_time_schedule_fires_after_earlier_seq(self):
        # Events scheduled at the current time from inside a callback
        # fire in the same timestamp, after all earlier-seq events.
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0, lambda: order.append("nested"))

        sim.schedule(5, first)
        sim.schedule(5, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "nested"]

    def test_schedule_earlier_than_peeked_time(self):
        # An event scheduled earlier than a time peek() already
        # returned still fires first.
        sim = Simulator()
        order = []
        sim.schedule(10, lambda: order.append("late"))
        assert sim.peek() == 10
        sim.schedule(5, lambda: order.append("early"))
        assert sim.peek() == 5
        sim.run()
        assert order == ["early", "late"]

    def test_interleaved_times_deterministic(self):
        sim = Simulator()
        order = []
        for i in range(3):
            sim.schedule(1, lambda i=i: order.append(("a", i)))
            sim.schedule(2, lambda i=i: order.append(("b", i)))
            sim.schedule(1, lambda i=i: order.append(("c", i)))
        sim.run()
        assert order == [
            ("a", 0), ("c", 0), ("a", 1), ("c", 1), ("a", 2), ("c", 2),
            ("b", 0), ("b", 1), ("b", 2),
        ]


def _logged(sim, log, schedule):
    """Schedule ``(delay, name)`` events that append ``(name, now)``."""
    return [
        sim.schedule(delay, lambda name=name: log.append((name, sim.now)), name=name)
        for delay, name in schedule
    ]


class TestWarp:
    def test_shift_preserves_order(self):
        sim = Simulator()
        log = []
        _logged(sim, log, [(1, "a"), (3, "c"), (2, "b"), (2, "b2")])
        sim.warp(10)
        assert sim.now == 10
        assert sim.peek() == 11
        sim.run()
        assert log == [("a", 11), ("b", 12), ("b2", 12), ("c", 13)]
        assert sim.events_processed == 4

    def test_shifted_event_landing_on_frozen_fires_in_seq_order(self):
        sim = Simulator()
        log = []
        _logged(sim, log, [(5, "early"), (20, "frozen"), (5, "late")])
        sim.warp(15, freeze_after=10)
        assert sorted(sim.iter_pending()) == [(20, "early"), (20, "frozen"), (20, "late")]
        sim.run()
        assert log == [("early", 20), ("frozen", 20), ("late", 20)]

    def test_frozen_event_in_skipped_interval_raises_without_change(self):
        sim = Simulator()
        log = []
        _logged(sim, log, [(5, "a"), (30, "frozen")])
        with pytest.raises(SimulationError, match="frozen event at t=30"):
            sim.warp(40, freeze_after=10)
        assert sim.now == 0
        assert sim.peek() == 5
        sim.run()
        assert log == [("a", 5), ("frozen", 30)]

    def test_cancelled_events_do_not_survive(self):
        sim = Simulator()
        log = []
        gone, _, frozen_gone = _logged(sim, log, [(5, "gone"), (6, "keep"), (30, "frozen")])
        gone.cancel()
        frozen_gone.cancel()
        # a cancelled frozen event inside the skipped interval does not
        # block the warp
        sim.warp(40, freeze_after=10)
        assert list(sim.iter_pending()) == [(46, "keep")]
        sim.run()
        assert log == [("keep", 46)]
        assert sim.events_processed == 1

    @pytest.mark.parametrize("delta", [0, -1])
    def test_non_positive_delta_raises(self, delta):
        sim = Simulator()
        sim.schedule(5, lambda: None)
        with pytest.raises(SimulationError, match="must be positive"):
            sim.warp(delta)
        assert sim.now == 0
        assert sim.peek() == 5

    def test_warp_from_observer_continues_the_run(self):
        # the fluid tier warps from inside run()'s observer
        sim = Simulator()
        log = []
        _logged(sim, log, [(1, "a"), (2, "b"), (3, "c")])

        def observer(event):
            if event.name == "a":
                sim.warp(100)

        sim.run(observer=observer)
        assert log == [("a", 1), ("b", 102), ("c", 103)]


class TestRunProfile:
    def test_profile_reports_rate_and_names(self):
        sim = Simulator()
        for i in range(100):
            sim.schedule(i, lambda: None, name="tick")
        for i in range(10):
            sim.schedule(i + 0.5, lambda: None, name="tock")
        profile = sim.run_profile()
        assert profile.events_processed == 110
        assert profile.events_per_sec > 0
        assert profile.top_events[0] == ("tick", 100)
        assert ("tock", 10) in profile.top_events
        assert "events/sec" in profile.format()

    def test_profile_respects_until(self):
        sim = Simulator()
        sim.schedule(10, lambda: None, name="in")
        sim.schedule(100, lambda: None, name="out")
        profile = sim.run_profile(until=50)
        assert profile.events_processed == 1
        assert sim.now == 50


# -- differential: random programs against a sorted((time, seq)) oracle ------

#: small integer delays, so that many events share a timestamp
_DELAYS = (0, 0, 1, 1, 2, 3, 5, 8)
#: the warp an observer makes inside a run, after its ``warp_after``-th event
_RUN_WARP = 7


class _Reference:
    """The kernel's contract written the slow, obvious way: pending
    events in a dict, the next one is ``sorted((time, seq))[0]``.

    A program node is ``(label, children, cancels, stop)``: when it
    fires it schedules each ``(delay, child)``, cancels each label in
    ``cancels`` (a no-op for one already fired or not yet scheduled)
    and, if ``stop``, stops the run.
    """

    def __init__(self):
        self.now = 0
        self.pending = {}  # seq -> (time, node)
        self.handles = {}  # label -> seq
        self.seq = 0
        self.events_processed = 0
        self.log = []

    def schedule(self, delay, node):
        self.pending[self.seq] = (self.now + delay, node)
        self.handles[node[0]] = self.seq
        self.seq += 1

    def cancel(self, label):
        self.pending.pop(self.handles.get(label), None)

    def _head(self):
        order = sorted((time, seq) for seq, (time, _) in self.pending.items())
        return order[0] if order else None

    def peek(self):
        head = self._head()
        return None if head is None else head[0]

    def iter_pending(self):
        return [(time, node[0]) for time, node in self.pending.values()]

    def run(self, until, max_events, warp_after):
        stopped = False
        processed = 0
        while not stopped:
            head = self._head()
            if head is None or (until is not None and head[0] > until):
                if until is not None and self.now < until:
                    self.now = until
                break
            if max_events is not None and processed >= max_events:
                break
            time, (label, children, cancels, stop) = self.pending.pop(head[1])
            self.now = time
            self.events_processed += 1
            self.log.append((label, time))
            for delay, child in children:
                self.schedule(delay, child)
            for target in cancels:
                self.cancel(target)
            stopped = stop
            processed += 1
            if processed == warp_after:
                self.warp(_RUN_WARP, None)

    def warp(self, delta, freeze_after):
        new_now = self.now + delta
        if delta <= 0 or (
            freeze_after is not None
            and any(freeze_after <= t < new_now for t, _ in self.pending.values())
        ):
            raise SimulationError("refused")
        self.pending = {
            seq: (t + delta if freeze_after is None or t < freeze_after else t, node)
            for seq, (t, node) in self.pending.items()
        }
        self.now = new_now


class _Kernel:
    """The same program driven through :class:`Simulator`."""

    def __init__(self):
        self.sim = Simulator()
        self.handles = {}
        self.log = []

    @property
    def now(self):
        return self.sim.now

    @property
    def events_processed(self):
        return self.sim.events_processed

    def schedule(self, delay, node):
        self.handles[node[0]] = self.sim.schedule(delay, lambda: self._fire(node), name=node[0])

    def _fire(self, node):
        label, children, cancels, stop = node
        self.log.append((label, self.sim.now))
        for delay, child in children:
            self.schedule(delay, child)
        for target in cancels:
            self.cancel(target)
        if stop:
            self.sim.stop()

    def cancel(self, label):
        if label in self.handles:
            self.handles[label].cancel()

    def peek(self):
        return self.sim.peek()

    def iter_pending(self):
        return list(self.sim.iter_pending())

    def run(self, until, max_events, warp_after):
        fired = itertools.count(1)

        def observer(event):
            if next(fired) == warp_after:
                self.sim.warp(_RUN_WARP)

        self.sim.run(until, max_events, observer=observer)

    def warp(self, delta, freeze_after):
        self.sim.warp(delta, freeze_after)


def _random_program(rng):
    """A list of top-level operations over a random forest of events."""
    labels = []

    def node(depth):
        label = f"e{len(labels)}"
        labels.append(label)
        n_children = rng.randint(0, 2) if depth < 3 else 0
        children = [(rng.choice(_DELAYS), node(depth + 1)) for _ in range(n_children)]
        # any label named so far: ancestors (cancel after fire), earlier
        # events, this node's own children
        cancels = rng.sample(labels, k=min(len(labels), rng.choice((0, 0, 0, 1, 2))))
        return (label, children, cancels, rng.random() < 0.05)

    ops = []
    for _ in range(rng.randint(10, 30)):
        kind = rng.choice(
            ("schedule", "schedule", "schedule", "earlier", "cancel", "peek", "run", "warp")
        )
        if kind in ("schedule", "earlier"):
            ops.append((kind, rng.choice(_DELAYS), node(0)))
        elif kind == "cancel" and labels:
            ops.append(("cancel", rng.choice(labels)))
        elif kind == "peek":
            ops.append(("peek",))
        elif kind == "run":
            until = rng.choice((None, 0, 1, 3, 10))
            max_events = rng.choice((None, 1, 2, 5))
            ops.append(("run", until, max_events, rng.choice((None, None, None, 1, 2))))
        elif kind == "warp":
            freeze = rng.choice((None, 0, 1, 2, 4, 8))
            ops.append(("warp", rng.choice((0, 1, 2, 3, 5, 10)), freeze))
    return ops


def _execute(driver, program):
    """Run ``program`` on ``driver``; return everything observable."""
    trace = []
    for op in program:
        kind = op[0]
        result = None
        if kind == "schedule":
            driver.schedule(op[1], op[2])
        elif kind == "earlier":
            # earlier than a time peek() has already returned
            head = driver.peek()
            driver.schedule(op[1] if head is None else (head - driver.now) / 2, op[2])
        elif kind == "cancel":
            driver.cancel(op[1])
        elif kind == "peek":
            result = driver.peek()
        elif kind == "run":
            _, until, max_events, warp_after = op
            driver.run(None if until is None else driver.now + until, max_events, warp_after)
        else:
            _, delta, freeze = op
            try:
                driver.warp(delta, None if freeze is None else driver.now + freeze)
            except SimulationError:
                result = "refused"
        trace.append(
            (kind, result, driver.now, driver.events_processed, sorted(driver.iter_pending()))
        )
    while driver.iter_pending():  # drain; a stop node may cut a run short
        driver.run(None, None, None)
    trace.append(("drain", driver.now, driver.events_processed))
    return trace, driver.log


@pytest.mark.parametrize("seed", range(60))
def test_random_programs_match_reference(seed):
    program = _random_program(random.Random(seed))
    assert _execute(_Kernel(), program) == _execute(_Reference(), program)
