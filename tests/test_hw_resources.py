"""Tests for the FPGA resource model — pinned to the paper's tables."""

import pytest
from hypothesis import given, strategies as st

from repro.hw import COMPLETE_16, COMPLETE_8, FIREWALL_RPU_CAPACITY, FpgaDevice, PIGASUS_ACCEL, PIGASUS_RPU_CAPACITY, PR_LOAD_TIME_MS, PlacementError, RPU_BASE_16, ResourceVector, VU9P_CAPACITY, components_for, firewall_rpu_total, pigasus_rpu_total


class TestResourceVector:
    def test_addition(self):
        a = ResourceVector(luts=1, registers=2, bram=3, uram=4, dsp=5)
        b = ResourceVector(luts=10, registers=20, bram=30, uram=40, dsp=50)
        total = a + b
        assert total == ResourceVector(11, 22, 33, 44, 55)

    def test_scaling(self):
        assert (ResourceVector(luts=3) * 4).luts == 12
        assert (4 * ResourceVector(bram=2)).bram == 8

    def test_fits_within(self):
        small = ResourceVector(luts=10, bram=5)
        big = ResourceVector(luts=100, registers=100, bram=100, uram=100, dsp=100)
        assert small.fits_within(big)
        assert not big.fits_within(small)

    def test_utilization_fractions(self):
        vec = ResourceVector(luts=118224)
        util = vec.utilization_of(VU9P_CAPACITY)
        assert util["luts"] == pytest.approx(0.10)
        assert util["dsp"] == 0.0

    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_add_commutes(self, x, y):
        a = ResourceVector(luts=x, bram=y)
        b = ResourceVector(luts=y, uram=x)
        assert a + b == b + a


class TestPaperTables:
    """Exact values from Tables 1 and 2."""

    def test_vu9p_capacity_row(self):
        assert VU9P_CAPACITY.luts == 1_182_240
        assert VU9P_CAPACITY.registers == 2_364_480
        assert VU9P_CAPACITY.bram == 2160
        assert VU9P_CAPACITY.uram == 960
        assert VU9P_CAPACITY.dsp == 6840

    def test_table1_single_rpu_percentages(self):
        util = RPU_BASE_16.utilization_of(VU9P_CAPACITY)
        assert util["luts"] == pytest.approx(0.004, abs=0.0005)
        assert util["uram"] == pytest.approx(0.033, abs=0.0005)

    def test_table1_complete_design(self):
        util = COMPLETE_16.utilization_of(VU9P_CAPACITY)
        assert util["luts"] == pytest.approx(0.22, abs=0.005)
        assert util["uram"] == pytest.approx(0.652, abs=0.005)

    def test_table2_complete_design(self):
        util = COMPLETE_8.utilization_of(VU9P_CAPACITY)
        assert util["luts"] == pytest.approx(0.139, abs=0.003)
        assert util["bram"] == pytest.approx(0.157, abs=0.003)

    def test_8rpu_switching_smaller_than_16(self):
        c8 = components_for(8)
        c16 = components_for(16)
        assert c8.switching.luts < c16.switching.luts
        assert c8.switching.registers < c16.switching.registers

    def test_8rpu_more_headroom_per_rpu(self):
        """§7.1.2: the 8-RPU layout provides more resources per RPU."""
        c8 = components_for(8)
        c16 = components_for(16)
        assert c8.rpu_remaining.luts > c16.rpu_remaining.luts
        assert c8.rpu_remaining.uram > c16.rpu_remaining.uram

    def test_complete_design_composition_close_to_measured(self):
        """Summing component rows lands near the measured total (the
        paper's total is a measured Vivado figure, not a strict sum)."""
        computed = components_for(16).complete_design()
        assert computed.luts == pytest.approx(COMPLETE_16.luts, rel=0.05)
        assert computed.registers == pytest.approx(COMPLETE_16.registers, rel=0.08)

    def test_interpolated_config(self):
        c12 = components_for(12)
        assert components_for(8).switching.luts < c12.switching.luts < components_for(16).switching.luts

    def test_invalid_rpu_count(self):
        with pytest.raises(ValueError):
            components_for(0)


class TestCaseStudyTables:
    def test_table3_total(self):
        total = pigasus_rpu_total()
        assert total.luts == 42366 or abs(total.luts - 42364) <= 2
        util = total.utilization_of(PIGASUS_RPU_CAPACITY)
        assert util["luts"] == pytest.approx(0.66, abs=0.01)
        assert util["uram"] == pytest.approx(0.844, abs=0.01)

    def test_table4_total(self):
        total = firewall_rpu_total()
        util = total.utilization_of(FIREWALL_RPU_CAPACITY)
        assert util["luts"] == pytest.approx(0.197, abs=0.005)
        assert util["uram"] == pytest.approx(1.0, abs=0.001)

    def test_pigasus_fits_in_8rpu_region_not_16(self):
        """§7.1.2: the 200G Pigasus build didn't fit the 16-RPU layout;
        the 8-RPU layout's bigger PR regions were required."""
        c8 = components_for(8)
        c16 = components_for(16)
        region8 = c8.rpu_base + c8.rpu_remaining
        region16 = c16.rpu_base + c16.rpu_remaining
        needed = c8.rpu_base + PIGASUS_ACCEL
        assert needed.fits_within(region8)
        assert not needed.fits_within(region16)


class TestFpgaDevice:
    def test_base_layout_fits(self):
        for n_rpus in (8, 16):
            FpgaDevice(n_rpus).check_fits()

    def test_load_accelerator_ok(self):
        device = FpgaDevice(16)
        device.rpu_regions[0].load("small", RPU_BASE_16 + ResourceVector(luts=1000))
        assert device.rpu_regions[0].occupant == "small"

    def test_oversized_accelerator_rejected(self):
        device = FpgaDevice(16)
        with pytest.raises(PlacementError, match="over by"):
            device.rpu_regions[0].load("pigasus", RPU_BASE_16 + PIGASUS_ACCEL)

    def test_pigasus_fits_8rpu_device(self):
        device = FpgaDevice(8)
        for region in device.rpu_regions:
            region.load("pigasus", device.components.rpu_base + PIGASUS_ACCEL)
        device.check_fits()

    def test_lb_region_swap(self):
        device = FpgaDevice(16)
        device.lb_region.load("hash_lb", ResourceVector(luts=10467, registers=24872, bram=26))
        assert device.lb_region.occupant == "hash_lb"

    def test_utilization_report_rows(self):
        report = FpgaDevice(16).utilization_report()
        assert "Complete design" in report
        assert report["Complete design"]["luts"] == pytest.approx(0.22, abs=0.005)

    def test_pr_load_time_matches_paper(self):
        assert PR_LOAD_TIME_MS == 756.0
