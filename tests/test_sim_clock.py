"""Tests for clock/rate arithmetic — these constants anchor every
throughput figure in the reproduction, so they are pinned exactly."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    Clock,
    ROSEBUD_CLOCK,
    WIRE_OVERHEAD_BYTES,
    line_rate_gbps,
    line_rate_pps,
    max_effective_gbps,
    wire_bytes,
)


class TestClock:
    def test_rosebud_clock_is_250mhz(self):
        assert ROSEBUD_CLOCK.freq_hz == 250e6
        assert ROSEBUD_CLOCK.period_ns == 4.0

    def test_cycles_ns_round_trip(self):
        clock = Clock(250e6)
        assert clock.ns_to_cycles(clock.cycles_to_ns(123)) == pytest.approx(123)

    def test_cycles_to_us(self):
        assert ROSEBUD_CLOCK.cycles_to_us(250) == pytest.approx(1.0)

    def test_cycles_to_seconds(self):
        assert ROSEBUD_CLOCK.cycles_to_seconds(250e6) == pytest.approx(1.0)


class TestFraming:
    def test_wire_overhead_is_24_bytes(self):
        # preamble 8 + IFG 12 + FCS 4
        assert WIRE_OVERHEAD_BYTES == 24

    def test_wire_bytes(self):
        assert wire_bytes(64) == 88
        assert wire_bytes(1500) == 1524

    def test_64b_at_100g_is_142mpps(self):
        """The paper's 88%-of-line = 125 MPPS point implies 142 MPPS max."""
        assert line_rate_pps(100, 64) / 1e6 == pytest.approx(142.0, rel=0.01)
        assert 125.0 / (line_rate_pps(100, 64) / 1e6) == pytest.approx(0.88, abs=0.01)

    def test_65b_at_100g_gives_89pct_at_125mpps(self):
        """§6.1: 65-byte packets achieve 89% of max = 125 MPPS."""
        assert 125.0 / (line_rate_pps(100, 65) / 1e6) == pytest.approx(0.89, abs=0.01)

    def test_64b_at_200g_gives_88pct_at_250mpps(self):
        """§6.1: 64 B at 200 G achieves 88% of max = 250 MPPS."""
        assert 250.0 / (line_rate_pps(200, 64) / 1e6) == pytest.approx(0.88, abs=0.015)

    def test_max_effective_gbps_below_link_rate(self):
        assert max_effective_gbps(100, 64) == pytest.approx(100 * 64 / 88)
        assert max_effective_gbps(100, 9000) == pytest.approx(100 * 9000 / 9024)

    def test_line_rate_gbps_inverse(self):
        pps = line_rate_pps(100, 512)
        assert line_rate_gbps(pps, 512) == pytest.approx(max_effective_gbps(100, 512))


class TestRateMonotonicity:
    @given(st.integers(min_value=60, max_value=9000))
    def test_bigger_packets_mean_fewer_pps(self, size):
        assert line_rate_pps(100, size) >= line_rate_pps(100, size + 1)

    @given(st.integers(min_value=60, max_value=9000))
    def test_effective_rate_below_link(self, size):
        assert max_effective_gbps(100, size) < 100.0

    @given(st.integers(min_value=60, max_value=9000))
    def test_effective_rate_increases_with_size(self, size):
        assert max_effective_gbps(100, size + 1) > max_effective_gbps(100, size)
