"""Line-rate knees of the bottleneck model, and the IMIX workload."""

import pytest

from repro import SimSession
from repro.analysis import cycle_budget_per_packet, forwarding_bounds, rpu_cycle_budget_pps
from repro.core import CONFIG_16_RPU, CONFIG_8_RPU, RosebudConfig, RosebudSystem
from repro.firmware import FIREWALL_CYCLES, FORWARDER_CYCLES, ForwarderFirmware
from repro.traffic import ImixSource
from repro.traffic.generator import IMIX_MIX


def _knee(config, sw_cycles, sizes=tuple(range(64, 2049, 16)) + (4096, 8192, 9000)):
    """Smallest size whose predicted rate is within 0.5 % of line rate
    on two 100 G ports, or None."""
    for size in sorted(sizes):
        report = forwarding_bounds(config, size, 2, 100.0, sw_cycles)
        if report.predicted_pps >= 0.995 * report.per_bound_pps["line_rate"]:
            return size
    return None


class TestLineRateKnees:
    def test_16rpu_forwarder_knee_is_small(self):
        knee = _knee(CONFIG_16_RPU, FORWARDER_CYCLES)
        assert knee is not None and knee <= 128

    def test_8rpu_forwarder_knee_below_1024(self):
        """Fig 7b: on power-of-two sizes the 8-RPU design first reaches
        full line rate at 1024 B; the dense-ladder knee sits between
        256 and 1024 (the switch-beat sawtooth)."""
        knee = _knee(CONFIG_8_RPU, FORWARDER_CYCLES)
        assert knee is not None and 256 < knee <= 1024
        # at power-of-two sizes specifically: 512 fails, 1024 passes
        assert _knee(CONFIG_8_RPU, FORWARDER_CYCLES, sizes=[512]) is None
        assert _knee(CONFIG_8_RPU, FORWARDER_CYCLES, sizes=[1024]) == 1024

    def test_firewall_knee_near_256(self):
        """§7.2: 200 Gbps for 256 B and above."""
        knee = _knee(CONFIG_16_RPU, FIREWALL_CYCLES)
        assert knee is not None and 192 <= knee <= 256

    def test_slow_firmware_never_reaches_line(self):
        assert _knee(CONFIG_16_RPU, 50_000, sizes=[64, 1500, 9000]) is None

    def test_firewall_cycle_budget(self):
        """The 44.8-cycle budget at 256 B/200 G pins FIREWALL_CYCLES."""
        budget = cycle_budget_per_packet(CONFIG_16_RPU.clock.freq_hz, 16, 256, 200.0)
        assert budget == pytest.approx(44.8, rel=0.01)
        assert FIREWALL_CYCLES <= budget

    def test_software_limit(self):
        for config, mpps in ((CONFIG_16_RPU, 250.0), (CONFIG_8_RPU, 125.0)):
            pps = rpu_cycle_budget_pps(config.clock.freq_hz, config.n_rpus, 16)
            assert pps / 1e6 == pytest.approx(mpps)


class TestImix:
    def test_average_size_of_standard_mix(self):
        # (7*64 + 4*570 + 1*1500) / 12 = 352.33
        average = sum(size * weight for size, weight in IMIX_MIX) / sum(
            weight for _, weight in IMIX_MIX
        )
        assert average == pytest.approx(352.33, abs=0.5)

    def test_mix_proportions(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        source = ImixSource(system, 0, 10.0, seed=1)
        sizes = [source.next_packet().size for _ in range(3000)]
        frac_64 = sizes.count(64) / len(sizes)
        assert frac_64 == pytest.approx(7 / 12, abs=0.05)
        assert sizes.count(1500) / len(sizes) == pytest.approx(1 / 12, abs=0.03)

    def test_imix_forwards_at_high_fraction_of_line(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        sources = [
            ImixSource(system, port, 100.0, seed=port + 1,
                       respect_generator_cap=False)
            for port in range(2)
        ]
        result = SimSession.for_system(system, sources).measure_throughput(
            353, 200.0, warmup_packets=1000, measure_packets=4000
        )
        # the 64B majority is core-bound, so IMIX lands below line rate
        # but far above the 64B-only case
        assert 100.0 < result.achieved_gbps <= 200.0
