"""Tests for counters and histograms."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Counter, CounterSet, Histogram


class TestCounters:
    def test_counter_accumulates(self):
        counter = Counter("x")
        counter.add()
        counter.add(5)
        assert counter.value == 6

    def test_counter_rejects_negative(self):
        counter = Counter("x")
        with pytest.raises(ValueError):
            counter.add(-1)

    def test_counter_reset(self):
        counter = Counter("x", 9)
        counter.reset()
        assert counter.value == 0

    def test_counterset_autocreates(self):
        counters = CounterSet()
        counters.add("frames", 3)
        assert counters.value("frames") == 3
        assert counters.value("unknown") == 0

    def test_counterset_snapshot_sorted(self):
        counters = CounterSet(["b", "a"])
        counters.add("b", 2)
        assert list(counters.snapshot()) == ["a", "b"]

    def test_counterset_reset(self):
        counters = CounterSet(["a"])
        counters.add("a", 4)
        counters.reset()
        assert counters.value("a") == 0


class TestHistogram:
    def test_basic_stats(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.record(value)
        assert hist.count == 4
        assert hist.mean == pytest.approx(2.5)
        assert hist.minimum == 1.0
        assert hist.maximum == 4.0

    def test_percentiles(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.record(float(value))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(100) == 100.0

    def test_percentile_after_more_records(self):
        hist = Histogram()
        hist.record(5.0)
        assert hist.percentile(50) == 5.0
        hist.record(1.0)
        assert hist.percentile(50) == 1.0  # re-sorts lazily

    def test_empty_histogram_is_safe(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0

    def test_percentile_bounds_checked(self):
        hist = Histogram()
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_stddev(self):
        hist = Histogram()
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            hist.record(value)
        assert hist.stddev == pytest.approx(2.138, abs=0.01)

    def test_summary_keys(self):
        hist = Histogram()
        hist.record(1.0)
        assert set(hist.summary()) == {"count", "mean", "min", "p50", "p99", "max"}

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_percentile_within_range(self, values):
        hist = Histogram()
        for value in values:
            hist.record(value)
        for pct in (0, 25, 50, 75, 99, 100):
            assert min(values) <= hist.percentile(pct) <= max(values)
