"""Unit tests for the shared measurement module: plain readings in,
rates out — no simulator involved."""

import pytest

from repro import MeasurementWindow, ThroughputResult
from repro.analysis.harness import (
    ThroughputMeasurement,
    sum_readings,
    throughput_result,
    window_rates,
)
from repro.sim.clock import ROSEBUD_CLOCK, max_effective_gbps


def _reading(**fields):
    base = dict(
        completions=0, tx_bytes=0, tx_packets=0, host_bytes=0, host_packets=0,
        absorbed_bytes=0, rx_drops=0, rpu_packets=(0, 0),
    )
    base.update(fields)
    return base


BASE = _reading(
    completions=100, tx_bytes=50_000, tx_packets=100, host_bytes=1_000,
    host_packets=2, absorbed_bytes=60_000, rx_drops=3, rpu_packets=(60, 40),
)
FINAL = _reading(
    completions=1_100, tx_bytes=550_000, tx_packets=1_100, host_bytes=11_000,
    host_packets=22, absorbed_bytes=700_000, rx_drops=10, rpu_packets=(560, 540),
)
#: 25 000 cycles of the 250 MHz fabric clock is 100 us
KWARGS = dict(
    clock=ROSEBUD_CLOCK, packet_size=500, offered_gbps=100.0, n_rpus=2,
    measure_packets=1_000,
)


def test_throughput_result_from_plain_readings():
    result = throughput_result(BASE, FINAL, 25_000.0, **KWARGS)
    assert isinstance(result, ThroughputResult)
    # wire plus host link: 510 000 B and 1 020 packets in 100 us
    assert result.achieved_gbps == pytest.approx(40.8)
    assert result.achieved_mpps == pytest.approx(10.2)
    assert result.cycles_per_packet == pytest.approx(2 * 250e6 / 10.2e6)
    assert result.rx_drops == 7
    assert result.rpu_packet_counts == [500, 500]
    assert result.line_rate_gbps == max_effective_gbps(100.0, 500)


def test_host_link_and_absorbed_views():
    wire = throughput_result(BASE, FINAL, 25_000.0, include_host=False, **KWARGS)
    assert wire.achieved_gbps == pytest.approx(40.0)
    assert wire.achieved_mpps == pytest.approx(10.0)
    absorbed = throughput_result(
        BASE, FINAL, 25_000.0, include_absorbed=True, **KWARGS
    )
    assert absorbed.achieved_gbps == pytest.approx(51.2)
    assert absorbed.achieved_mpps == pytest.approx(10.0)  # measure_packets


def test_zero_length_window_reports_zero_rates():
    result = throughput_result(BASE, FINAL, 0.0, **KWARGS)
    assert result.achieved_gbps == 0.0
    assert result.achieved_mpps == 0.0
    assert result.cycles_per_packet == 0.0
    assert result.rx_drops == 7
    assert window_rates(BASE, FINAL, 0.0, ROSEBUD_CLOCK) == {
        "gbps": 0.0, "mpps": 0.0, "host_gbps": 0.0,
    }


def test_sum_readings_adds_counters_and_concatenates_rpus():
    total = sum_readings([BASE, FINAL])
    assert total["tx_bytes"] == 600_000
    assert total["completions"] == 1_200
    assert total["rpu_packets"] == (60, 40, 560, 540)
    assert sum_readings(())["rpu_packets"] == ()


def test_phases_take_base_and_final_readings_at_their_targets():
    readings = iter([BASE, FINAL])
    state = {"now": 0.0, "done": 0}
    measurement = ThroughputMeasurement(
        MeasurementWindow(warmup_packets=100, measure_packets=1_000),
        lambda: state["now"],
        lambda: next(readings),
        lambda: state["done"],
        **{k: v for k, v in KWARGS.items() if k != "measure_packets"},
    )
    measurement.pump()
    assert measurement.phase == "warmup"
    state.update(now=5_000.0, done=100)
    measurement.pump()
    assert measurement.phase == "measure" and measurement.target() == 1_100
    state.update(now=30_000.0, done=1_100)
    measurement.pump()
    assert measurement.done
    assert measurement.result == throughput_result(BASE, FINAL, 25_000.0, **KWARGS)
