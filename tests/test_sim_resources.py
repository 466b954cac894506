"""Tests for FIFOs, serial links, and arbiters."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    BoundedFifo,
    RoundRobinArbiter,
    SerialLink,
    Simulator,
)


class TestBoundedFifo:
    def test_fifo_order(self):
        fifo = BoundedFifo()
        fifo.push("a", 10)
        fifo.push("b", 20)
        assert fifo.pop() == ("a", 10)
        assert fifo.pop() == ("b", 20)
        assert fifo.pop() is None

    def test_occupancy_tracking(self):
        fifo = BoundedFifo(capacity_bytes=40)
        fifo.push("a", 10)
        fifo.push("b", 20)
        assert fifo.space_for(10) and not fifo.space_for(11)  # 30 held
        fifo.pop()
        assert fifo.space_for(20) and not fifo.space_for(21)  # 20 held

    def test_capacity_enforced(self):
        fifo = BoundedFifo(capacity_bytes=100)
        assert fifo.push("a", 60)
        assert not fifo.push("b", 50)  # would exceed
        assert fifo.push("c", 40)  # exactly fills
        assert len(fifo) == 2

    def test_drop_does_not_enqueue(self):
        fifo = BoundedFifo(capacity_bytes=10)
        fifo.push("a", 10)
        fifo.push("b", 1)
        assert len(fifo) == 1

    def test_space_frees_after_pop(self):
        fifo = BoundedFifo(capacity_bytes=10)
        fifo.push("a", 10)
        fifo.pop()
        assert fifo.push("b", 10)

    @given(st.lists(st.integers(min_value=1, max_value=100), max_size=50))
    def test_occupancy_never_negative_and_conserved(self, sizes):
        fifo = BoundedFifo(capacity_bytes=500)
        pushed = []
        for i, size in enumerate(sizes):
            if fifo.push(i, size):
                pushed.append((i, size))
        popped = []
        while True:
            entry = fifo.pop()
            if entry is None:
                break
            popped.append(entry)
        assert popped == pushed
        assert fifo.space_for(500)  # every byte returned


class TestSerialLink:
    def _make(self, sim, rate=1.0, latency=0.0):
        done = []
        link = SerialLink(sim, "l", lambda item, n: n / rate, done.append, latency)
        return link, done

    def _timed(self, sim, latency=0.0):
        """A link whose ``done`` list records ``(item, time)``."""
        done = []
        link = SerialLink(
            sim, "l", lambda item, n: n, lambda item: done.append((item, sim.now)), latency
        )
        return link, done

    def test_items_serialize_in_order(self):
        sim = Simulator()
        link, done = self._make(sim)
        link.offer("a", 10)
        link.offer("b", 5)
        sim.run()
        assert done == ["a", "b"]
        assert sim.now == 15

    def test_work_conserving_after_idle(self):
        sim = Simulator()
        link, done = self._make(sim)
        link.offer("a", 10)
        sim.run()
        sim.schedule(5, lambda: link.offer("b", 10))
        sim.run()
        assert sim.now == 25  # 10 done, idle 5 (starts at 15), +10

    def test_item_offered_with_future_ready_starts_then(self):
        sim = Simulator()
        link, done = self._timed(sim)
        link.offer("a", 10, ready=5)
        assert not link.busy and link.queue == []  # not arrived yet
        sim.run()
        assert done == [("a", 15)]

    def test_latency_delays_done_without_holding_the_link(self):
        sim = Simulator()
        link, done = self._timed(sim, latency=7)
        link.offer("a", 10)
        link.offer("b", 5)
        sim.run()
        # b starts when a finishes (10), not when a's on_done fires (17)
        assert done == [("a", 17), ("b", 22)]

    def test_item_that_overtakes_earlier_offers_is_served_first(self):
        sim = Simulator()
        link, done = self._timed(sim)
        link.offer("late", 10, ready=8)
        link.offer("early", 4, ready=2)
        sim.run()
        assert done == [("early", 6), ("late", 18)]

    def test_pause_holds_items_not_started_until_resume(self):
        sim = Simulator()
        link, done = self._timed(sim)
        link.offer("a", 10)  # in flight from 0
        link.offer("b", 10, ready=20)
        sim.schedule(5, link.pause)
        sim.schedule(40, link.resume)
        sim.run(until=30)
        assert done == [("a", 10)]  # the in-flight frame completed
        assert link.paused and link.queue == [("b", 10)]
        sim.run()
        assert done == [("a", 10), ("b", 50)]  # b starts at the resume

    def test_resume_before_ready_keeps_the_ready_time(self):
        sim = Simulator()
        link, done = self._timed(sim)
        link.offer("a", 10, ready=20)
        sim.schedule(5, link.pause)
        sim.schedule(15, link.resume)
        sim.run()
        assert done == [("a", 30)]

    def test_resume_serves_held_items_in_ready_order_from_the_resume(self):
        sim = Simulator()
        link, done = self._timed(sim)
        link.pause()
        link.offer("a", 10, ready=8)
        link.offer("b", 1, ready=2)  # arrives first, offered second
        sim.schedule(50, link.resume)
        sim.run()
        assert done == [("b", 51), ("a", 61)]

    def test_warp_translates_bookings(self):
        sim = Simulator()
        link, done = self._timed(sim)
        link.offer("a", 10)
        link.offer("b", 10)
        sim.run(until=5)
        sim.warp(1000)
        assert link.busy and link.queue == [("b", 10)]
        link.offer("c", 10)  # queues behind b, not inside a's service
        sim.run()
        assert done == [("a", 1010), ("b", 1020), ("c", 1030)]

    def test_one_kernel_event_per_item(self):
        sim = Simulator()
        link, done = self._make(sim, latency=25)
        for i in range(5):
            link.offer(i, 10, ready=3 * i)
        sim.run()
        assert done == list(range(5))
        assert sim.events_processed == 5

    def test_busy_and_queue_follow_the_clock(self):
        sim = Simulator()
        link, _ = self._make(sim, latency=5)
        link.offer("a", 10)
        link.offer("b", 10)
        sim.run(until=3)
        assert link.busy and link.queue == [("b", 10)]
        sim.run(until=12)
        assert link.busy and link.queue == []
        sim.run(until=22)
        assert not link.busy  # b is in the latency stage behind the link


class TestArbiters:
    def test_round_robin_rotates(self):
        arb = RoundRobinArbiter(4)
        ready = [True] * 4
        grants = [arb.select(ready) for _ in range(8)]
        assert grants == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_round_robin_skips_not_ready(self):
        arb = RoundRobinArbiter(4)
        assert arb.select([False, False, True, False]) == 2
        assert arb.select([True, False, True, False]) == 0

    def test_round_robin_none_when_idle(self):
        arb = RoundRobinArbiter(3)
        assert arb.select([False, False, False]) is None

    def test_round_robin_fairness_under_saturation(self):
        arb = RoundRobinArbiter(5)
        counts = [0] * 5
        for _ in range(100):
            idx = arb.select([True] * 5)
            counts[idx] += 1
        assert counts == [20] * 5

    def test_round_robin_length_mismatch(self):
        arb = RoundRobinArbiter(3)
        with pytest.raises(ValueError):
            arb.select([True])

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)
