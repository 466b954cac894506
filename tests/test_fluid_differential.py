"""Differential tests for the fluid fast-forward tier (repro.fluid).

Every test runs the same spec twice — ``fidelity="event"`` and
``fidelity="fluid"`` — and holds the fluid run to the tier's contract:

* integer observables (system counters, per-RPU packet distribution,
  firmware totals, ``events_processed``) are **byte-identical**;
* float-derived readings (rates, latency percentiles) agree within the
  declared 1e-6 relative tolerance;
* the engine actually engaged (otherwise the test would vacuously pass
  by running pure event simulation twice);
* transients (control actions) de-optimize back to event simulation and
  the post-transient state is still byte-identical.
"""

import math

import pytest

from repro.accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist
from repro.analysis.spec import ExperimentSpec, MeasurementWindow, TrafficProfile
from repro.core import RosebudConfig
from repro.firmware import FirewallFirmware, ForwarderFirmware
from repro.serve.session import SimSession

WINDOW = MeasurementWindow(warmup_packets=1500, measure_packets=20_000)
TRAFFIC = TrafficProfile(packet_size=512, offered_gbps=200.0, n_ports=2)


def _pair(spec):
    """(fluid result+session, event result+session) for one spec."""
    sf = SimSession(spec.with_(fidelity="fluid"))
    rf = sf.run_to_completion()
    se = SimSession(spec.with_(fidelity="event"))
    re = se.run_to_completion()
    return (rf, sf), (re, se)


def _assert_int_parity(rf, sf, re, se):
    assert rf.counters == re.counters
    assert rf.firmware_totals == re.firmware_totals
    assert sf.sim.events_processed == se.sim.events_processed


class TestThroughputDifferential:
    def test_forwarder_exact_counters_and_engagement(self):
        spec = ExperimentSpec(traffic=TRAFFIC, window=WINDOW)
        (rf, sf), (re, se) = _pair(spec)
        _assert_int_parity(rf, sf, re, se)
        assert rf.throughput.rpu_packet_counts == re.throughput.rpu_packet_counts
        assert rf.throughput.rx_drops == re.throughput.rx_drops
        assert math.isclose(
            rf.throughput.achieved_gbps, re.throughput.achieved_gbps, rel_tol=1e-6
        )
        assert math.isclose(
            rf.throughput.achieved_mpps, re.throughput.achieved_mpps, rel_tol=1e-6
        )
        # engagement proof: without it the parity assertions are vacuous
        assert rf.fluid["engaged"] and rf.fluid["warps"] >= 1
        assert rf.fluid["occupancy"]["fluid"] > 0.5
        assert re.fluid is None

    def test_firewall_drops_extrapolated_exactly(self):
        # the synthetic blacklist avoids RFC1918, so graft in a /24 that
        # covers every port-0 flow: each template cycle then drops a
        # deterministic fraction and the ledger must extrapolate both
        # sides of the verdict (dropped vs forwarded) exactly
        rules = generate_blacklist(256, seed=11) + "\n10.0.0.0/24\n"
        blacklist = parse_blacklist(rules)
        spec = ExperimentSpec(
            traffic=TRAFFIC,
            window=WINDOW,
            firmware=lambda: FirewallFirmware(IpBlacklistMatcher(blacklist)),
        )
        (rf, sf), (re, se) = _pair(spec)
        _assert_int_parity(rf, sf, re, se)
        assert rf.fluid["engaged"]
        assert rf.firmware_totals["dropped"] > 0
        assert rf.firmware_totals["dropped"] == re.firmware_totals["dropped"]
        assert rf.firmware_totals["forwarded"] == re.firmware_totals["forwarded"]

    def test_contended_regime_refuses_but_stays_exact(self):
        # a starved cluster behind a tiny rx FIFO drops every period.
        # The rotating-period detector CAN prove this regime (the drop
        # pattern recurs after 275 boundaries — see
        # test_fluid_contended.py and fluid_contended_probe.py), but at
        # this short window the confirmation (two full extra periods)
        # cannot complete before the measurement ends, so the engine
        # must refuse to warp — and the run must remain byte-identical
        # to the event run (the safety half of the contract: never warp
        # a state you cannot prove periodic *within the window*)
        spec = ExperimentSpec(
            config=RosebudConfig(n_rpus=4, mac_rx_fifo_packets=8),
            traffic=TRAFFIC,
            window=WINDOW,
        )
        (rf, sf), (re, se) = _pair(spec)
        _assert_int_parity(rf, sf, re, se)
        assert rf.throughput.rx_drops == re.throughput.rx_drops
        assert rf.throughput.rx_drops > 0
        assert rf.fluid["eligible"] is True
        assert rf.fluid["warps"] == 0
        assert rf.fluid["occupancy"]["event"] == 1.0


class TestLatencyDifferential:
    def test_percentiles_within_tolerance(self):
        spec = ExperimentSpec(
            traffic=TRAFFIC,
            window=MeasurementWindow(warmup_packets=500, measure_packets=12_000),
            measure="latency",
        )
        (rf, sf), (re, se) = _pair(spec)
        _assert_int_parity(rf, sf, re, se)
        assert rf.fluid["engaged"]
        assert rf.latency["count"] == re.latency["count"]
        for key in ("mean", "min", "p50", "p99", "max"):
            assert math.isclose(rf.latency[key], re.latency[key], rel_tol=1e-6), key


class TestDeopt:
    def _run_schedule(self, fidelity):
        spec = ExperimentSpec(
            traffic=TRAFFIC,
            window=MeasurementWindow(warmup_packets=1500, measure_packets=60_000),
            fidelity=fidelity,
        )
        s = SimSession(spec)
        s.step(until_ts=40_000.0)
        s.control("wedge", rpu=1)
        s.step(cycles=20_000.0)
        s.control("unwedge", rpu=1)
        s.step(until_ts=180_000.0)
        return s

    def test_transient_byte_identical(self):
        sf = self._run_schedule("fluid")
        se = self._run_schedule("event")
        assert sf.sim.now == se.sim.now
        assert sf.sim.events_processed == se.sim.events_processed
        assert sf.system.counters.snapshot() == se.system.counters.snapshot()
        stats = sf._fluid.stats()
        assert stats["warps"] >= 1
        reasons = [d["reason"] for d in stats["deopts"]]
        assert "control:wedge" in reasons and "control:unwedge" in reasons

    def test_reconfig_mid_fast_forward(self):
        # hot reconfiguration (the §4.1 drain protocol) mid-run: the
        # firmware object is swapped, so the engine must rebuild its
        # counter cells, not just drop the ring
        def run(fidelity):
            spec = ExperimentSpec(
                traffic=TRAFFIC,
                window=MeasurementWindow(warmup_packets=1500, measure_packets=60_000),
                fidelity=fidelity,
            )
            s = SimSession(spec)
            s.step(until_ts=40_000.0)
            s.control("reconfigure", rpu=2)
            s.step(until_ts=180_000.0)
            return s

        sf, se = run("fluid"), run("event")
        assert sf.sim.now == se.sim.now
        assert sf.sim.events_processed == se.sim.events_processed
        assert sf.system.counters.snapshot() == se.system.counters.snapshot()
        assert any(
            d["reason"] == "control:reconfigure" for d in sf._fluid.deopts
        )

    def test_mix_shift_via_add_feed(self):
        # a new feed changes the traffic mix: mandatory de-opt, and the
        # combined (possibly never-reproving) mix must stay exact
        from repro.serve.feed import SourceFeed
        from repro.traffic import FixedSizeSource

        def run(fidelity):
            spec = ExperimentSpec(
                traffic=TRAFFIC,
                window=MeasurementWindow(warmup_packets=1500, measure_packets=60_000),
                fidelity=fidelity,
            )
            s = SimSession(spec)
            s.step(until_ts=40_000.0)
            s.add_feed(SourceFeed(FixedSizeSource(s.system, 0, 20.0, 256, seed=99)))
            s.step(until_ts=180_000.0)
            return s

        sf, se = run("fluid"), run("event")
        assert sf.sim.now == se.sim.now
        assert sf.sim.events_processed == se.sim.events_processed
        assert sf.system.counters.snapshot() == se.system.counters.snapshot()
        assert sf._fluid.warps >= 1  # warped before the mix shifted

    def test_lb_swap_deopts_and_reengages(self):
        spec = ExperimentSpec(
            traffic=TRAFFIC,
            window=MeasurementWindow(warmup_packets=1500, measure_packets=60_000),
            fidelity="fluid",
        )
        s = SimSession(spec)
        s.step(until_ts=40_000.0)
        warps_before = s._fluid.warps
        assert warps_before >= 1
        s.control("set_lb", policy="rr")
        s.step(until_ts=150_000.0)
        assert s._fluid.warps > warps_before  # re-proved the new steady state
        assert any(d["reason"] == "control:set_lb" for d in s._fluid.deopts)


class TestEligibilityGates:
    def test_fault_campaign_blocks(self):
        spec = ExperimentSpec(
            traffic=TRAFFIC,
            window=WINDOW,
            fidelity="fluid",
            faults=[{
                "kind": "rpu_wedge", "at_cycles": 30_000.0,
                "target": 0, "duration_cycles": 5_000.0,
            }],
        )
        result = SimSession(spec).run_to_completion()
        assert result.fluid["eligible"] is False
        assert result.fluid["warps"] == 0
        assert any("fault" in r for r in result.fluid["reasons"])

    def test_rng_source_blocks(self):
        spec = ExperimentSpec(
            traffic=TrafficProfile(
                packet_size=512, offered_gbps=100.0, n_ports=2, source="imix"
            ),
            window=MeasurementWindow(warmup_packets=500, measure_packets=4_000),
            fidelity="fluid",
        )
        result = SimSession(spec).run_to_completion()
        assert result.fluid["eligible"] is False
        assert result.fluid["warps"] == 0

    def test_analytic_cross_check_recorded(self):
        spec = ExperimentSpec(traffic=TRAFFIC, window=WINDOW, fidelity="fluid")
        result = SimSession(spec).run_to_completion()
        fluid = result.fluid
        assert fluid["wcet_cycles"] is not None
        assert fluid["analytic_pps"] is not None
        assert fluid["lint_classification"] == "replay-safe"
        # the measured steady-state rate must be feasible under the
        # static WCET bound, or the engine would have refused to engage
        assert fluid["measured_pps"] <= fluid["analytic_pps"] * 1.01


class TestAllBundledThroughputFirmwares:
    @pytest.mark.parametrize("firmware", [ForwarderFirmware])
    def test_parity(self, firmware):
        spec = ExperimentSpec(
            firmware=firmware,
            traffic=TRAFFIC,
            window=MeasurementWindow(warmup_packets=1000, measure_packets=10_000),
        )
        (rf, sf), (re, se) = _pair(spec)
        _assert_int_parity(rf, sf, re, se)


class TestSpecPlumbing:
    def test_fidelity_in_cache_key(self):
        spec = ExperimentSpec(traffic=TRAFFIC, window=WINDOW)
        assert spec.cache_key() != spec.with_(fidelity="fluid").cache_key()

    def test_invalid_fidelity_rejected(self):
        from repro.analysis.spec import SpecError

        with pytest.raises(SpecError):
            ExperimentSpec(fidelity="quantum")

    def test_result_roundtrip_carries_fluid(self):
        from repro.analysis.spec import ExperimentResult

        spec = ExperimentSpec(
            traffic=TRAFFIC,
            window=MeasurementWindow(warmup_packets=500, measure_packets=4_000),
            fidelity="fluid",
        )
        result = SimSession(spec).run_to_completion()
        assert result.fluid is not None
        again = ExperimentResult.from_dict(result.to_dict())
        assert again.fluid == result.fluid


class TestSignature:
    def test_egress_switch_offset_is_part_of_the_signature(self):
        from repro.core import RosebudSystem
        from repro.fluid import state_signature

        system = RosebudSystem(RosebudConfig(n_rpus=8), ForwarderFirmware())
        system.sim.run(until=100.0)
        fabric = system.fabric_out
        idle = state_signature(system, [], horizon=1e6)
        fabric.free_at[1] = 40.0  # idle at another past time: same state
        assert state_signature(system, [], horizon=1e6) == idle
        fabric.free_at[1] = 105.0  # busy for 5 more cycles, with no event
        assert state_signature(system, [], horizon=1e6) != idle

    def test_ingress_switch_offset_is_part_of_the_signature(self):
        from repro.core import RosebudSystem
        from repro.fluid import state_signature

        system = RosebudSystem(RosebudConfig(n_rpus=8), ForwarderFirmware())
        system.sim.run(until=100.0)
        fabric = system.fabric_in
        idle = state_signature(system, [], horizon=1e6)
        fabric.free_at[0] = 40.0  # idle at another past time: same state
        assert state_signature(system, [], horizon=1e6) == idle
        fabric.free_at[0] = 105.0  # busy for 5 more cycles, with no event
        assert state_signature(system, [], horizon=1e6) != idle

    def test_packet_in_a_core_stage_is_part_of_the_signature(self):
        from repro.core import RosebudSystem
        from repro.fluid import state_signature
        from repro.packet import build_tcp

        signatures = []
        for port in (0, 1):
            system = RosebudSystem(RosebudConfig(n_rpus=8), ForwarderFirmware())
            packet = build_tcp("10.0.0.1", "10.0.0.2", 1, 80, pad_to=256)
            packet.ingress_port = port  # the forwarder sends it out the other port
            system.rpus[0].deliver(packet)
            assert system.rpus[0].in_flight == 1 and not system.rpus[0]._in_queue
            signatures.append(state_signature(system, [], horizon=1e6))
        assert signatures[0] != signatures[1]
