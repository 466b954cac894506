"""Tests for the stats sampler."""

import pytest

from repro.core import HostInterface, RosebudConfig, RosebudSystem, StatsSampler
from repro.firmware import ForwarderFirmware
from repro.traffic import FixedSizeSource


class TestStatsSampler:
    def test_flat_traffic_yields_flat_samples(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        sampler = StatsSampler(system, interval_cycles=20_000)
        sources = [
            FixedSizeSource(system, port, 50.0, 512, n_packets=20_000, seed=port + 1)
            for port in range(2)
        ]
        sampler.start()
        for source in sources:
            source.start()
        system.sim.run(until=400_000)
        sampler.stop()
        steady = sampler.samples[2:-1]
        assert len(steady) >= 5
        mean = sum(s.gbps for s in steady) / len(steady)
        assert mean == pytest.approx(100.0, rel=0.05)
        for sample in steady:
            assert sample.gbps == pytest.approx(mean, rel=0.05)

    def test_no_dip_during_reconfiguration(self):
        """The time-series version of the no-pause claim."""
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        host = HostInterface(system, pr_load_ms=0.2)  # 50k cycles of load
        sampler = StatsSampler(system, interval_cycles=20_000)
        sources = [
            FixedSizeSource(system, port, 60.0, 512, n_packets=40_000, seed=port + 1)
            for port in range(2)
        ]
        sampler.start()
        for source in sources:
            source.start()
        system.sim.schedule(60_000, lambda: host.reconfigure_rpu(4, ForwarderFirmware()))
        system.sim.run(until=600_000)
        sampler.stop()
        # skip warmup; a stall for good leaves a zero-throughput minimum
        steady = [s.gbps for s in sampler.samples[2:]]
        mean = sum(steady) / len(steady)
        assert mean == pytest.approx(120.0, rel=0.05)
        assert min(steady) / mean > 0.9

    def test_double_start_rejected(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        sampler = StatsSampler(system)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()
