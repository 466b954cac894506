"""Tests for the SLR floorplan / die-crossing model (Figures 5 & 6)."""

import pytest

from repro.core import CONFIG_16_RPU, CONFIG_8_RPU, RosebudConfig
from repro.hw import (
    CrossingLink,
    Floorplan,
    FloorplanError,
    N_SLRS,
    SLL_PER_BOUNDARY,
    axi_stream_bits,
)


class TestAxiStreamBits:
    def test_512_bit_bus(self):
        # 512 data + 64 tkeep + valid/ready/last
        assert axi_stream_bits(512) == 579

    def test_128_bit_bus(self):
        assert axi_stream_bits(128) == 147


class TestCrossingLink:
    def test_same_slr_no_crossing(self):
        link = CrossingLink("x", 512, 1, 1)
        assert link.boundaries == []

    def test_adjacent_crossing(self):
        link = CrossingLink("x", 512, 0, 1)
        assert link.boundaries == [0]

    def test_two_boundary_crossing(self):
        link = CrossingLink("x", 128, 0, 2)
        assert link.boundaries == [0, 1]

    def test_direction_agnostic(self):
        assert CrossingLink("a", 64, 2, 0).boundaries == CrossingLink("b", 64, 0, 2).boundaries


class TestFloorplan:
    def test_16rpu_crossing_utilization_matches_paper(self):
        """§5: 'the switching infrastructure uses 54.7% of the FPGA's
        die crossing registers'."""
        floorplan = Floorplan(CONFIG_16_RPU)
        floorplan.check_feasible()
        assert floorplan.crossing_register_utilization() == pytest.approx(0.547, abs=0.03)

    def test_8rpu_uses_fewer_crossings(self):
        assert (
            Floorplan(CONFIG_8_RPU).crossing_register_utilization()
            < Floorplan(CONFIG_16_RPU).crossing_register_utilization()
        )

    def test_rpus_spread_across_all_dies(self):
        floorplan = Floorplan(CONFIG_16_RPU)
        slrs = {floorplan.blocks[f"rpu{i}"].slr for i in range(16)}
        assert slrs == set(range(N_SLRS))

    def test_hard_ip_placement(self):
        floorplan = Floorplan(CONFIG_16_RPU)
        assert floorplan.blocks["pcie"].slr == 1
        assert floorplan.blocks["cmac0"].slr != floorplan.blocks["cmac1"].slr

    def test_every_boundary_within_capacity(self):
        for config in (CONFIG_16_RPU, CONFIG_8_RPU):
            usage = Floorplan(config).sll_bits_per_boundary()
            for bits in usage.values():
                assert bits <= SLL_PER_BOUNDARY

    def test_report_structure(self):
        assert Floorplan(CONFIG_8_RPU).blocks["lb"].slr == 1

    def test_single_rpu_trivially_feasible(self):
        floorplan = Floorplan(RosebudConfig(n_rpus=1))
        floorplan.check_feasible()

    def test_wider_buses_can_exhaust_slls(self):
        config = RosebudConfig(n_rpus=16, cluster_bus_bits=8192)
        floorplan = Floorplan(config)
        with pytest.raises(FloorplanError):
            floorplan.check_feasible()
