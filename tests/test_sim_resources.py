"""Tests for FIFOs, serial links, and arbiters."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    BoundedFifo,
    PriorityArbiter,
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
        fifo = BoundedFifo()
        fifo.push("a", 10)
        fifo.push("b", 20)
        assert fifo.occupancy_bytes == 30
        fifo.pop()
        assert fifo.occupancy_bytes == 20

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

    def test_peek_does_not_remove(self):
        fifo = BoundedFifo()
        fifo.push("a", 1)
        assert fifo.peek() == ("a", 1)
        assert len(fifo) == 1

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
        assert fifo.occupancy_bytes == 0


class TestSerialLink:
    def _make(self, sim, rate=1.0):
        done = []
        link = SerialLink(sim, "l", lambda item, n: n / rate, done.append)
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

    def test_priority_prefers_lowest(self):
        arb = PriorityArbiter(4)
        assert arb.select([False, True, True, False]) == 1
        assert arb.select([False, True, True, False]) == 1  # no rotation

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)
        with pytest.raises(ValueError):
            PriorityArbiter(0)
