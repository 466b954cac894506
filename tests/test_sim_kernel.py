"""Tests for the discrete-event kernel."""

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

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

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
        sim = Simulator()
        events = [sim.schedule(i + 1, lambda: None, name="timer") for i in range(500)]
        for event in events[:400]:
            event.cancel()
        # One more schedule gives the kernel a chance to notice the pileup.
        sim.schedule(1000, lambda: None)
        assert sim.compactions >= 1
        sim.run()
        assert sim.events_processed == 101

    def test_explicit_compact_preserves_order(self):
        sim = Simulator()
        order = []
        keep = [sim.schedule(5, lambda i=i: order.append(i)) for i in range(4)]
        doomed = [sim.schedule(5, lambda: order.append("x")) for _ in range(4)]
        for event in doomed:
            event.cancel()
        sim.compact()
        sim.run()
        assert order == [0, 1, 2, 3]
        assert keep[0].cancelled is False


class TestBatching:
    def test_same_time_batch_with_nested_same_time_schedules(self):
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

    def test_external_schedule_before_promoted_batch(self):
        # peek() promotes the earliest bucket; scheduling an even
        # earlier event afterwards must still fire first.
        sim = Simulator()
        order = []
        sim.schedule(10, lambda: order.append("late"))
        assert sim.peek() == 10
        sim.schedule(5, lambda: order.append("early"))
        assert sim.peek() == 5
        sim.run()
        assert order == ["early", "late"]

    def test_interleaved_batches_deterministic(self):
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


class TestProcesses:
    def test_generator_process_yields_delays(self):
        sim = Simulator()
        ticks = []

        def proc():
            for _ in range(3):
                ticks.append(sim.now)
                yield 10

        sim.process(proc())
        sim.run()
        assert ticks == [0, 10, 20]

    def test_process_negative_yield_raises(self):
        sim = Simulator()

        def proc():
            yield -5

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_crashing_process_named_in_error(self):
        sim = Simulator()

        def proc():
            yield 5
            raise ValueError("boom")

        sim.process(proc(), name="rx_path")
        with pytest.raises(SimulationError, match="rx_path.*ValueError.*boom") as exc_info:
            sim.run()
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_process_simulation_error_passes_through(self):
        sim = Simulator()

        def proc():
            yield 1
            raise SimulationError("already diagnosed")
            yield 1

        sim.process(proc(), name="p")
        with pytest.raises(SimulationError, match="already diagnosed"):
            sim.run()

    def test_two_processes_interleave(self):
        sim = Simulator()
        log = []

        def proc(name, period):
            for _ in range(2):
                log.append((name, sim.now))
                yield period

        sim.process(proc("fast", 3))
        sim.process(proc("slow", 5))
        sim.run()
        assert ("fast", 0) in log and ("fast", 3) in log
        assert ("slow", 0) in log and ("slow", 5) in log
