"""WCET soundness, budget verdicts, and the engine pre-flight hook.

The acceptance contract: the static bound must never undercut the
measured per-packet cost (soundness), verdicts must be deterministic,
and the pre-flight on an :class:`ExperimentSpec` must agree with
``repro verify`` because both sit on the same centralized budget
formula in ``repro.analysis.throughput``.
"""

import functools
import math
import warnings
from pathlib import Path

import pytest

from repro.analysis import ExperimentSpec, SweepRunner, run_experiment
from repro.analysis.spec import MeasurementWindow, SpecError, TrafficProfile
from repro.analysis.throughput import (
    cycle_budget_per_packet,
    rpu_cycle_budget_pps,
)
from repro.core.funcsim import FunctionalRpu
from repro.firmware import FirewallFirmware, ForwarderFirmware, NatFirmware
from repro.firmware.asm_sources import (
    FIREWALL_ASM,
    FORWARDER_ASM,
    PIGASUS_ASM,
)
from repro.packet import build_tcp
from repro.sim.clock import ROSEBUD_CLOCK, line_rate_pps
from repro.verify import (
    VerificationError,
    analyze_firmware,
    budget_verdict,
    parse_loop_bounds,
    preflight_spec,
    reports_to_json,
    verify_all,
    verify_firmware,
)
from repro.verify.fluidgate import fluid_gate


def _measured_cycles(asm, packets, **kwargs):
    rpu = FunctionalRpu(asm, **kwargs)
    return max(rpu.measure_cycles_per_packet(packets))


def _packets(n=8, size=64):
    return [
        build_tcp("10.0.0.1", "10.0.0.2", 1000 + i, 80, pad_to=size).data
        for i in range(n)
    ]


class TestWcetSoundness:
    """static bound >= every measured per-packet cost."""

    def test_forwarder_sound_and_tight(self):
        wcet = analyze_firmware(FORWARDER_ASM, name="forwarder").wcet
        measured = _measured_cycles(FORWARDER_ASM, _packets())
        assert wcet.wcet_cycles >= measured
        # the forwarder is branch-free past the spin, so the bound is exact
        assert wcet.wcet_cycles == measured == 17

    def test_firewall_sound(self):
        from repro.accel import (
            IpBlacklistMatcher,
            generate_blacklist,
            parse_blacklist,
        )

        blacklist = parse_blacklist(generate_blacklist(64) + "\n10.0.0.1/32")
        wcet = analyze_firmware(FIREWALL_ASM, name="firewall").wcet
        # clean path: no blacklist hit, packets forwarded
        clean = _measured_cycles(
            FIREWALL_ASM,
            [
                build_tcp("10.9.0.1", "10.9.0.2", 1000 + i, 80, pad_to=64).data
                for i in range(8)
            ],
            accelerator=IpBlacklistMatcher(blacklist),
        )
        # worst measured path: the drop branch (blacklisted source);
        # drops still fire SEND_PORT_GO with len 0, so the per-packet
        # measurement covers them too
        dropped = _measured_cycles(
            FIREWALL_ASM,
            [
                build_tcp("10.0.0.1", "10.0.0.2", 1000 + i, 80, pad_to=64).data
                for i in range(8)
            ],
            accelerator=IpBlacklistMatcher(blacklist),
        )
        assert wcet.wcet_cycles >= clean
        assert wcet.wcet_cycles >= dropped
        assert wcet.wcet_cycles == 29  # drop path, hand-verified

    def test_pigasus_sound_via_loop_bound(self):
        from repro.accel.pigasus import PigasusStringMatcher

        wcet = analyze_firmware(
            PIGASUS_ASM, name="pigasus", accel=PigasusStringMatcher()
        ).wcet
        # the drain loop bound is *inferred* from the matcher's declared
        # 8-deep match FIFO (stream rule) — the source carries no
        # annotation any more
        assert wcet.loop_bounds == {"drain": 8}
        assert wcet.bound_provenance == {"drain": "inferred"}
        assert wcet.wcet_cycles == 175
        assert math.isfinite(wcet.wcet_cycles)

    def test_pigasus_without_accel_falls_back_to_default(self):
        # no accelerator -> no stream contract -> the drain loop gets
        # the conservative default and a warning, and the bound can
        # only move in the sound (larger) direction
        wcet = analyze_firmware(PIGASUS_ASM, name="pigasus").wcet
        assert wcet.loop_bounds["drain"] == 64
        assert wcet.bound_provenance["drain"] == "default"
        assert wcet.wcet_cycles > 175
        assert any(d.code == "unannotated-loop" for d in wcet.diagnostics)

    def test_all_bundled_wcets_finite_and_deterministic(self):
        values = {r.name: r.wcet.wcet_cycles for r in verify_all()}
        assert all(math.isfinite(v) for v in values.values()), values
        again = {r.name: r.wcet.wcet_cycles for r in verify_all()}
        assert values == again

    def test_unannotated_loop_gets_default_bound_warning(self):
        asm = """
    .equ IO_BASE, 0x01000000
main:
    li   a0, IO_BASE
loop:
    lw   t0, 0(a0)
    beqz t0, loop
    lw   t1, 4(a0)
    lw   t2, 8(a0)
    sw   zero, 20(a0)
    li   t4, 0
inner:
    addi t4, t4, 1
    blt  t4, t2, inner
    sw   t1, 24(a0)
    sw   t2, 28(a0)
    sw   zero, 32(a0)
    j    loop
"""
        wcet = analyze_firmware(asm, name="inner_loop").wcet
        assert any(d.code == "unannotated-loop" for d in wcet.diagnostics)
        assert wcet.loop_bounds["inner"] == 64  # conservative default


class TestWcetFallbacks:
    """The two ways the longest-path search can fail, and what follows."""

    def test_jump_into_a_loop_body_is_irreducible(self):
        # `b` is entered from both the packet loop's head and `a`, so
        # the a/b cycle has no single header to collapse it at
        asm = """
    .equ IO_BASE, 0x01000000
main:
    li   a0, IO_BASE
loop:
    lw   t0, 0(a0)        # RECV_READY
    bnez t0, b            # into the a/b cycle, past its head
a:
    lw   t1, 4(a0)
b:
    lw   t2, 8(a0)
    bnez t2, a
    sw   zero, 20(a0)     # release
    j    loop
"""
        wcet = analyze_firmware(asm, name="irreducible").wcet
        errors = [d for d in wcet.diagnostics if d.code == "irreducible-cfg"]
        assert len(errors) == 1 and errors[0].level == "error"
        assert wcet.wcet_cycles == float("inf")

    def test_pruning_that_cuts_the_back_edge_is_retried_without_it(self):
        # `t1` is the constant 1, so the fall-through toward the back
        # edge is infeasible: the pruned packet loop has no way around
        asm = """
    .equ IO_BASE, 0x01000000
main:
    li   a0, IO_BASE
    li   t1, 1
loop:
    lw   t0, 0(a0)        # RECV_READY
    bnez t1, out
    sw   zero, 20(a0)     # release
    j    loop
out:
    ebreak
"""
        analysis = analyze_firmware(asm, name="disconnected")
        assert analysis.absres.infeasible_edges
        codes = [d.code for d in analysis.wcet.diagnostics]
        assert codes == ["infeasible-pruning-disabled"]
        assert math.isfinite(analysis.wcet.wcet_cycles)
        assert analysis.wcet.packet_loop == analysis.cfg.program.symbols["loop"]


class TestLoopBoundParsing:
    def test_same_line_annotation(self):
        bounds = parse_loop_bounds("drain:   # loop-bound 8\n    j drain\n")
        assert bounds == {"drain": 8}

    def test_preceding_line_annotation(self):
        bounds = parse_loop_bounds("# loop-bound 12\nretry:\n    j retry\n")
        assert bounds == {"retry": 12}

    def test_pigasus_source_no_longer_annotated(self):
        # the drain bound migrated from a trusted annotation to the
        # inferred stream contract (see docs/STATIC_ANALYSIS.md)
        assert parse_loop_bounds(PIGASUS_ASM) == {}


class TestBudgetFormula:
    """One formula, three consumers (satellite: centralization)."""

    def test_budget_and_capacity_are_inverses(self):
        clock = ROSEBUD_CLOCK.freq_hz
        budget = cycle_budget_per_packet(clock, 16, 512, 200.0)
        # spending exactly the budget hits exactly the line rate
        capacity = rpu_cycle_budget_pps(clock, 16, budget)
        assert capacity == pytest.approx(line_rate_pps(200.0, 512))

    def test_verdict_flips_exactly_at_budget(self):
        clock = ROSEBUD_CLOCK.freq_hz
        budget = cycle_budget_per_packet(clock, 16, 512, 200.0)
        ok = budget_verdict("x", math.floor(budget), 16, 512, 200.0)
        bad = budget_verdict("x", math.ceil(budget) + 1, 16, 512, 200.0)
        assert ok.passed and not bad.passed

    def test_matches_forwarding_bounds(self):
        from repro.analysis import forwarding_bounds
        from repro.core import RosebudConfig

        config = RosebudConfig(n_rpus=16)
        bounds = forwarding_bounds(
            config, packet_size=512, n_ports=2, port_gbps=100.0,
            sw_cycles_per_packet=29,
        )
        assert bounds.per_bound_pps["rpu_software"] == pytest.approx(
            rpu_cycle_budget_pps(config.clock.freq_hz, 16, 29)
        )

    def test_headroom_sign_tracks_verdict(self):
        good = budget_verdict("x", 17, 16, 512, 200.0)
        bad = budget_verdict("x", 17, 16, 64, 400.0)
        assert good.passed and good.headroom_pct > 0
        assert not bad.passed and bad.headroom_pct < 0

    def test_accelerator_binding(self):
        v = budget_verdict("x", 10, 16, 512, 200.0, accel_cycles=40.0)
        assert v.binding == "accelerator"
        assert v.binding_cycles == 40.0


class TestVerifyFirmware:
    def test_all_bundled_pass_documented_points(self):
        reports = verify_all()
        assert len(reports) == 6
        for r in reports:
            assert r.passed, r.verdict.summary()

    def test_acceptance_point_firewall(self):
        r = verify_firmware("firewall", n_rpus=16, packet_size=512, gbps=200.0)
        assert r.passed
        assert r.verdict.headroom_pct > 0
        assert "->" in r.wcet.chain()  # critical-path block chain

    def test_infeasible_point_fails(self):
        r = verify_firmware("firewall", packet_size=64, gbps=400.0)
        assert not r.passed
        assert r.verdict.headroom_pct < 0

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            verify_firmware("bogus")

    def test_handler_wcet_reported(self):
        r = verify_firmware("forwarder_irq")
        assert r.wcet.handlers == {"poke_handler": 10.0}

    def test_one_twin_map(self):
        # the registry's ``models`` is the only hand-kept relation: the
        # pre-flight's class -> twin map is derived from it, and the
        # class each report replay-lints is its twin's first model
        from repro.verify import FIRMWARE_ASM_TWINS

        assert FIRMWARE_ASM_TWINS == {
            "ForwarderFirmware": "forwarder",
            "TwoStepForwarder": "forwarder",
            "FirewallFirmware": "firewall",
            "PigasusHwReorderFirmware": "pigasus",
            "PigasusSwReorderFirmware": "pigasus",
        }
        linted = {r.name: r.lint.cls_name if r.lint else None for r in verify_all()}
        assert linted == {
            "forwarder": "ForwarderFirmware",
            "firewall": "FirewallFirmware",
            "forwarder_irq": "ForwarderFirmware",
            "flow_counter": None,
            "pkt_gen": None,
            "pigasus": "PigasusHwReorderFirmware",
        }

    def test_floorplan_violation_is_error(self):
        r = verify_firmware("forwarder", n_rpus=64)
        assert any(d.code == "floorplan" for d in r.diagnostics)
        assert not r.passed

    def test_json_matches_the_golden_file(self):
        # the safety details print every proven abstract address, so a
        # bit of analyzer precision lost (or gained) changes this output
        golden = Path(__file__).resolve().parents[1] / "benchmarks/results/verify_all.json"
        assert reports_to_json(verify_all()) + "\n" == golden.read_text(), (
            "repro verify output changed; if that is intended, regenerate with "
            "`PYTHONPATH=src python -m repro.cli verify --all --deep --json "
            "benchmarks/results/verify_all.json`"
        )


class TestSpecVerifyField:
    def test_default_off(self):
        spec = ExperimentSpec(firmware=ForwarderFirmware)
        assert spec.verify is False

    def test_true_normalizes_to_fail(self):
        spec = ExperimentSpec(firmware=ForwarderFirmware, verify=True)
        assert spec.verify == "fail"

    def test_invalid_value_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(firmware=ForwarderFirmware, verify="maybe")

    def test_round_trips_to_dict(self):
        spec = ExperimentSpec(firmware=ForwarderFirmware, verify="warn")
        assert spec.to_dict()["verify"] == "warn"


class TestPreflight:
    def _bad_spec(self, verify="fail", firmware=ForwarderFirmware):
        return ExperimentSpec(
            firmware=firmware,
            traffic=TrafficProfile(packet_size=64, offered_gbps=400.0),
            window=MeasurementWindow(warmup_packets=10, measure_packets=20),
            verify=verify,
        )

    def test_agrees_with_verify_firmware(self):
        spec = ExperimentSpec(firmware=FirewallFirmware, verify="fail")
        pre = preflight_spec(spec)
        direct = verify_firmware(
            "firewall",
            n_rpus=spec.config.n_rpus,
            packet_size=spec.traffic.packet_size,
            gbps=spec.traffic.offered_gbps,
        )
        assert pre.verdict.passed == direct.verdict.passed
        assert pre.verdict.wcet_cycles == direct.verdict.wcet_cycles
        assert pre.verdict.budget_cycles == pytest.approx(
            direct.verdict.budget_cycles
        )

    def test_fail_mode_raises_before_simulation(self):
        with pytest.raises(VerificationError) as excinfo:
            run_experiment(self._bad_spec("fail"))
        assert excinfo.value.report is not None
        assert excinfo.value.report.failed

    def test_warn_mode_warns_and_runs(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_experiment(self._bad_spec("warn"))
        assert any(
            "pre-flight verification failed" in str(w.message) for w in caught
        )
        assert result.throughput is not None

    def test_sweep_point_surfaces_error_status(self):
        outcome = SweepRunner(jobs=1).run([self._bad_spec("fail")])
        assert outcome.points[0].status == "error"
        assert "VerificationError" in outcome.points[0].error

    def test_memory_unsafe_twin_raises_the_named_error(self, monkeypatch):
        # a twin with one violating access: the report must summarise
        # (twin + count) and the session must refuse with the named
        # error, not die formatting the message
        from repro.serve import SimSession
        from repro.verify import preflight
        from repro.verify.memsafe import AccessCheck, MemSafetyReport

        wcet, accel, _ = preflight._twin_wcet("forwarder")
        unsafe = MemSafetyReport(
            firmware="forwarder",
            checks=[AccessCheck(0x8, "store", 4, "0x8", "violation", region="imem")],
        )
        monkeypatch.setitem(preflight._WCET_CACHE, "forwarder", (wcet, accel, unsafe))
        spec = ExperimentSpec(firmware=ForwarderFirmware, verify="fail")
        pre = preflight_spec(spec)
        assert pre.failed
        assert "forwarder: memory safety NOT proven (1 violation(s))" in pre.summary()
        with pytest.raises(VerificationError) as excinfo:
            SimSession(spec)
        assert excinfo.value.report.safety.violations == 1

    @pytest.mark.parametrize(
        "firmware",
        [ForwarderFirmware, functools.partial(ForwarderFirmware), lambda: ForwarderFirmware()],
        ids=["class", "partial", "lambda"],
    )
    def test_factory_firmware_is_checked_like_its_class(self, firmware):
        # a factory hides the class: the pre-flight builds one instance to
        # find the twin, so an infeasible point fails whichever form it has
        spec = self._bad_spec(firmware=firmware)
        pre = preflight_spec(spec)
        assert (pre.firmware_cls, pre.asm_twin) == ("ForwarderFirmware", "forwarder")
        assert pre.failed
        with pytest.raises(VerificationError):
            run_experiment(spec)
        # the fluid gate reads the same resolution
        gate = fluid_gate(spec)
        assert (gate.asm_twin, gate.wcet_cycles) == ("forwarder", pre.verdict.wcet_cycles)
        assert gate.analytic_pps == rpu_cycle_budget_pps(
            spec.config.clock.freq_hz,
            spec.config.n_rpus,
            pre.verdict.wcet_cycles,
            pre.verdict.accel_cycles,
        )

    def test_unknown_firmware_is_nonfailing_note(self):
        spec = ExperimentSpec(firmware=NatFirmware, verify="fail")
        pre = preflight_spec(spec)
        assert pre.verdict is None
        assert not pre.failed
        assert any(d.code == "no-asm-twin" for d in pre.diagnostics)

    def test_feasible_spec_runs_clean(self):
        spec = ExperimentSpec(
            firmware=ForwarderFirmware,
            window=MeasurementWindow(warmup_packets=10, measure_packets=20),
            verify="fail",
        )
        result = run_experiment(spec)
        assert result.throughput is not None
