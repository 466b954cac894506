"""Tests for the Snort baseline and the analysis helpers."""

import pytest

from repro.accel.pigasus import generate_ruleset, parse_rules
from repro.analysis import (
    FIXED_LATENCY_US,
    estimated_latency_us,
    format_table,
    forwarding_bounds,
)
from repro.baselines import SnortBaseline
from repro.core import CONFIG_16_RPU, CONFIG_8_RPU
from repro.packet import build_tcp
from repro.sim.clock import line_rate_pps


@pytest.fixture(scope="module")
def rules():
    return parse_rules(generate_ruleset(50))


class TestSnortBaseline:
    def test_plateau_between_4_7_and_5_6(self, rules):
        snort = SnortBaseline(rules)
        for size in (64, 256, 800, 1500, 2048):
            assert 4.7 <= snort.peak_mpps(size) <= 5.6

    def test_throughput_scales_with_size_not_rate(self, rules):
        """Fig 8a shape: Snort bandwidth grows with size because the
        packet rate is flat."""
        snort = SnortBaseline(rules)
        assert snort.throughput_gbps(2048) > snort.throughput_gbps(800) > snort.throughput_gbps(64)

    def test_2048b_around_60_gbps(self, rules):
        snort = SnortBaseline(rules)
        assert snort.throughput_gbps(2048) == pytest.approx(77, rel=0.05)

    def test_ramdisk_speedup(self, rules):
        """§7.1.3: ramdisk lifted 60 -> 70 Gbps at 2048 B."""
        normal = SnortBaseline(rules)
        ramdisk = SnortBaseline(rules, ramdisk=True)
        ratio = ramdisk.throughput_gbps(2048) / normal.throughput_gbps(2048)
        assert ratio == pytest.approx(70 / 60, rel=0.01)

    def test_verdicts_match_accelerator(self, rules):
        snort = SnortBaseline(rules)
        rule = next(r for r in rules if r.dst_ports.matches(80) and r.protocol == "tcp")
        attack = build_tcp("1.1.1.1", "2.2.2.2", 1, 80,
                           payload=b"z" + rule.content, pad_to=256)
        safe = build_tcp("1.1.1.1", "2.2.2.2", 1, 80, payload=b"benign", pad_to=256)
        assert rule.sid in snort.inspect(attack)
        assert snort.inspect(safe) == []

    def test_far_below_rosebud(self, rules):
        """The headline comparison: an order of magnitude under the
        FPGA's packet rate."""
        snort = SnortBaseline(rules)
        rosebud_hw_mpps = 8 * 250 / 61  # 8 RPUs at 61 cycles/packet
        assert snort.peak_mpps(800) < rosebud_hw_mpps / 5


class TestPigasusOriginal:
    def test_rosebud_doubles_it_at_800b(self):
        """§7.1: Rosebud lifts Pigasus from its fixed 100 Gbps pipeline
        to 200 Gbps at 800 B (8 RPUs at 61 cycles, two 100 G ports)."""
        original_gbps = line_rate_pps(100, 800) * 800 * 8 / 1e9
        rosebud_pps = min(8 * 250e6 / 61, 2 * line_rate_pps(100, 800))
        rosebud_gbps = rosebud_pps * 800 * 8 / 1e9
        assert rosebud_gbps / original_gbps == pytest.approx(2.0, rel=0.05)


class TestLatencyModel:
    def test_equation_1_values(self):
        # Eq 1: size*8*(2/100 + 2/32)/1000 + 0.765
        assert estimated_latency_us(0) == FIXED_LATENCY_US
        assert estimated_latency_us(1000) == pytest.approx(
            1000 * 8 * (0.02 + 0.0625) / 1000 + 0.765
        )

    def test_monotone(self):
        sizes = [64, 128, 512, 1500, 9000]
        values = [estimated_latency_us(s) for s in sizes]
        assert values == sorted(values)


class TestForwardingBounds:
    def test_16rpu_64b_bottleneck_is_software(self):
        report = forwarding_bounds(CONFIG_16_RPU, 64, 2, 100.0, 16)
        assert report.bottleneck in ("rpu_software", "generator", "port_ingress")
        assert report.predicted_pps == pytest.approx(250e6)

    def test_16rpu_large_packets_line_rate(self):
        report = forwarding_bounds(CONFIG_16_RPU, 1500, 2, 100.0, 16)
        assert report.bottleneck == "line_rate"

    def test_8rpu_512b_cluster_bound(self):
        """The knee behind 'line rate only >=1024 B' on 8 RPUs."""
        report = forwarding_bounds(CONFIG_8_RPU, 512, 2, 100.0, 16)
        assert report.bottleneck == "cluster_switch"
        assert report.predicted_pps < report.per_bound_pps["line_rate"]

    def test_8rpu_1024b_line_rate(self):
        report = forwarding_bounds(CONFIG_8_RPU, 1024, 2, 100.0, 16)
        assert report.bottleneck == "line_rate"

    def test_accel_bound_appears(self):
        report = forwarding_bounds(CONFIG_8_RPU, 2048, 2, 100.0, 61,
                                   accel_cycles_per_packet=125)
        assert "rpu_accel" in report.per_bound_pps

    def test_single_port_125mpps(self):
        report = forwarding_bounds(CONFIG_16_RPU, 64, 1, 100.0, 16)
        assert report.predicted_pps == pytest.approx(125e6)
        assert report.bottleneck in ("port_ingress", "generator")


class TestReportHelpers:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], [300, 0.001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5
