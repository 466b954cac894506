"""Tests for the unified ExperimentSpec API."""

import json
import pickle

import pytest

from repro import (
    ExperimentResult,
    ExperimentSpec,
    MeasurementWindow,
    SimSession,
    ThroughputResult,
    TrafficProfile,
    run_experiment,
)
from repro.analysis import SpecError
from repro.core import RosebudConfig, RosebudSystem
from repro.firmware import ForwarderFirmware
from repro.traffic import FixedSizeSource

FAST = MeasurementWindow(warmup_packets=200, measure_packets=500)


def _spec(**changes):
    base = ExperimentSpec(
        config=RosebudConfig(n_rpus=8),
        traffic=TrafficProfile(packet_size=512, offered_gbps=100.0),
        window=FAST,
    )
    return base.with_(**changes) if changes else base


class TestSpecConstruction:
    def test_defaults_build_forwarder(self):
        spec = ExperimentSpec()
        system = spec.build_system()
        assert system.config.n_rpus == 16
        sources = spec.build_sources(system)
        assert len(sources) == 2
        assert sources[0].offered_gbps == pytest.approx(100.0)

    def test_seed_base_decorrelates_ports(self):
        spec = _spec(traffic=TrafficProfile(seed_base=7, n_ports=2))
        system = spec.build_system()
        s0, s1 = spec.build_sources(system)
        assert s0._templates != s1._templates

    def test_unknown_source_rejected(self):
        with pytest.raises(SpecError):
            _spec(traffic=TrafficProfile(source="bogus"))

    def test_unknown_lb_rejected(self):
        with pytest.raises(SpecError):
            _spec(lb="bogus")

    def test_unknown_measure_rejected(self):
        with pytest.raises(SpecError):
            _spec(measure="power")

    def test_removed_replay_cache_field_rejected(self):
        with pytest.raises(TypeError, match="replay_cache"):
            ExperimentSpec(replay_cache=True)

    def test_lb_registry_builds_policy(self):
        from repro.core import HashLB

        spec = _spec(lb="hash")
        assert isinstance(spec.build_lb(), HashLB)

    def test_spec_is_picklable(self):
        spec = _spec(lb="hash")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.cache_key() == spec.cache_key()


class TestCacheKey:
    def test_stable_across_instances(self):
        assert _spec().cache_key() == _spec().cache_key()

    def test_sensitive_to_config(self):
        assert _spec().cache_key() != _spec(config=RosebudConfig(n_rpus=16)).cache_key()

    def test_sensitive_to_traffic_and_window(self):
        assert (
            _spec().cache_key()
            != _spec(traffic=TrafficProfile(packet_size=1024)).cache_key()
        )
        assert (
            _spec().cache_key()
            != _spec(window=MeasurementWindow(warmup_packets=1)).cache_key()
        )

    def test_sensitive_to_firmware_args(self):
        from repro.firmware import TwoStepForwarder

        a = _spec(firmware=TwoStepForwarder, firmware_args=(8,))
        b = _spec(firmware=TwoStepForwarder, firmware_args=(16,))
        assert a.cache_key() != b.cache_key()

    def test_to_dict_is_json_safe(self):
        payload = json.dumps(_spec(lb="hash").to_dict())
        assert "ForwarderFirmware" in payload

    @pytest.mark.parametrize("firmware", ["firewall", "pigasus_hw"])
    def test_independent_builds_share_a_key(self, firmware):
        # rule-carrying firmware args hash by content, never by address
        from repro.serve import spec_from_params

        a, b = (spec_from_params({"firmware": firmware, "rules": 50}) for _ in "ab")
        assert a.firmware_args[0] is not b.firmware_args[0]
        assert " at 0x" not in json.dumps(a.to_dict())
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != spec_from_params({"firmware": firmware, "rules": 51}).cache_key()


class TestRunExperiment:
    def test_throughput_point(self):
        outcome = run_experiment(_spec())
        assert isinstance(outcome, ExperimentResult)
        assert outcome.throughput.achieved_gbps > 50
        assert outcome.counters.get("delivered", 0) > 0
        assert outcome.spec_key == _spec().cache_key()

    def test_latency_point(self):
        spec = _spec(
            traffic=TrafficProfile(packet_size=512, offered_gbps=2.0),
            window=MeasurementWindow(warmup_packets=50, measure_packets=100),
            measure="latency",
        )
        outcome = run_experiment(spec)
        assert outcome.throughput is None
        assert outcome.latency["count"] == 100
        assert outcome.latency["mean"] > 0

    def test_result_round_trips_through_json(self):
        outcome = run_experiment(_spec())
        clone = ExperimentResult.from_dict(
            json.loads(json.dumps(outcome.to_dict()))
        )
        assert clone.throughput == outcome.throughput
        assert clone.counters == outcome.counters


class TestDeprecatedWrappersRemoved:
    """The PR-1 kwarg-bundle wrappers are gone (docs/API.md has the
    migration table); their semantics live on in SimSession."""

    def test_wrappers_are_gone(self):
        import repro.analysis
        import repro.analysis.harness as harness

        for name in ("measure_throughput", "measure_latency", "forwarding_experiment"):
            assert not hasattr(harness, name)
            assert not hasattr(repro.analysis, name)

    def test_session_for_system_matches_spec_path(self):
        system = RosebudSystem(RosebudConfig(n_rpus=8), ForwarderFirmware())
        sources = [FixedSizeSource(system, p, 50.0, 512, seed=p + 1) for p in range(2)]
        old = SimSession.for_system(system, sources).measure_throughput(
            512, 100.0, warmup_packets=200, measure_packets=500
        )
        new = run_experiment(_spec()).throughput
        assert old == new  # byte-identical: same construction path as the spec

    def test_session_measure_throughput(self):
        system = RosebudSystem(RosebudConfig(n_rpus=8), ForwarderFirmware())
        sources = [FixedSizeSource(system, p, 50.0, 512, seed=p + 1) for p in range(2)]
        result = SimSession.for_system(system, sources).measure_throughput(
            512, 100.0, warmup_packets=200, measure_packets=500
        )
        assert isinstance(result, ThroughputResult)
        assert result.achieved_gbps > 50

    def test_session_measure_latency(self):
        system = RosebudSystem(RosebudConfig(n_rpus=8), ForwarderFirmware())
        sources = [FixedSizeSource(system, p, 1.0, 512, seed=p + 1) for p in range(2)]
        hist = SimSession.for_system(system, sources).measure_latency(
            warmup_packets=50, measure_packets=100
        )
        assert hist.count == 100
