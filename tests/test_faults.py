"""Unit tests for the repro.faults subsystem.

Covers the declarative FaultSpec (validation, serialization, spec-v3
hashing), each concrete injector against a small live system, and the
chaos path through ``run_experiment``.
"""

import json

import pytest

from repro.analysis import (
    ExperimentSpec,
    MeasurementWindow,
    SpecError,
    TrafficProfile,
    run_experiment,
)
from repro.cli import parse_fault_arg
from repro.core import RosebudConfig, RosebudSystem
from repro.faults import (
    KNOWN_FAULT_KINDS,
    FaultSpec,
    FaultSpecError,
    install_faults,
)
from repro.firmware import ForwarderFirmware
from repro.packet import build_tcp
from repro.packet.template import intern_template
from repro.traffic import FixedSizeSource

FAST = MeasurementWindow(warmup_packets=200, measure_packets=2000)


def _small_spec(**kwargs):
    defaults = dict(
        config=RosebudConfig(n_rpus=4),
        traffic=TrafficProfile(packet_size=512, offered_gbps=40.0),
        window=FAST,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultSpec(kind="meteor_strike")

    def test_negative_time_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultSpec(kind="rpu_wedge", at_cycles=-1)

    def test_magnitude_is_a_probability(self):
        with pytest.raises(FaultSpecError):
            FaultSpec(kind="mac_corrupt", magnitude=1.5)

    def test_params_dict_normalised_sorted(self):
        spec = FaultSpec(kind="watchdog", params={"b": 2, "a": 1})
        assert spec.params == (("a", 1), ("b", 2))
        assert spec.param("a") == 1
        assert spec.param("missing", 9) == 9

    def test_roundtrip_through_dict(self):
        spec = FaultSpec(
            kind="mac_corrupt", at_cycles=10.0, target=1,
            duration_cycles=5.0, magnitude=0.25, seed=3,
            params={"mode": "lose"},
        )
        again = FaultSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultSpecError):
            FaultSpec.from_dict({"kind": "rpu_wedge", "blast_radius": 3})

    def test_specs_are_hashable_and_picklable(self):
        import pickle

        spec = FaultSpec(kind="link_flap", at_cycles=5.0, target=1)
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))


class TestSpecV3:
    def test_faults_change_cache_key(self):
        plain = _small_spec()
        chaotic = _small_spec(
            faults=(FaultSpec(kind="rpu_wedge", at_cycles=1000.0, target=0),)
        )
        assert plain.cache_key() != chaotic.cache_key()
        assert plain.to_dict()["faults"] == []
        assert chaotic.to_dict()["faults"][0]["kind"] == "rpu_wedge"

    def test_fault_dicts_accepted_and_normalised(self):
        spec = _small_spec(faults=[{"kind": "link_flap", "target": 1}])
        assert isinstance(spec.faults, tuple)
        assert isinstance(spec.faults[0], FaultSpec)

    def test_out_of_range_rpu_target_rejected(self):
        with pytest.raises(SpecError):
            _small_spec(faults=(FaultSpec(kind="rpu_wedge", target=99),))

    def test_out_of_range_port_target_rejected(self):
        with pytest.raises(SpecError):
            _small_spec(faults=(FaultSpec(kind="link_flap", target=5),))


def _live_system(n_rpus=4):
    config = RosebudConfig(n_rpus=n_rpus)
    system = RosebudSystem(config, ForwarderFirmware())
    return system


class TestWedge:
    def test_wedged_rpu_holds_packets(self):
        system = _live_system()
        source = FixedSizeSource(system, 0, 20.0, 512, n_packets=400, seed=1)
        source.start()
        system.sim.schedule(5_000, system.rpus[1].wedge)
        system.sim.run(until=60_000)
        wedged = system.rpus[1]
        assert wedged.wedged
        assert wedged.in_flight > 0
        assert wedged.stalled(10_000)

    def test_transient_wedge_replays_stuck_completions(self):
        """An unwedge must deliver the completions swallowed while the
        core was hung — no packets may be lost to a transient hang."""
        system = _live_system()
        source = FixedSizeSource(system, 0, 20.0, 512, n_packets=500, seed=1)
        source.start()
        system.sim.schedule(5_000, system.rpus[1].wedge)
        system.sim.schedule(25_000, system.rpus[1].unwedge)
        system.sim.run()
        delivered = system.counters.value("delivered")
        assert delivered == 500
        assert not system.rpus[1].wedged
        assert system.rpus[1].in_flight == 0


class TestInstallFaults:
    def test_wedge_watchdog_recovery(self):
        system = _live_system()
        source = FixedSizeSource(system, 0, 20.0, 512, n_packets=4000, seed=1)
        controller = install_faults(
            system,
            [
                FaultSpec(kind="rpu_wedge", at_cycles=20_000.0, target=2),
                FaultSpec(
                    kind="watchdog",
                    params={
                        "threshold_cycles": 10_000.0,
                        "poll_cycles": 2_000.0,
                        "pr_load_ms": 0.01,
                    },
                ),
            ],
        )
        source.start()
        system.sim.run(until=400_000)
        log = controller.host.watchdog_log
        assert len(log) == 1
        event = log[0]
        assert event.rpu == 2
        assert event.recovered
        # detection within threshold + one poll period
        assert 10_000.0 <= event.detected_at - 20_000.0 <= 13_000.0
        # loss bounded by the slot credits one RPU can hold
        assert 0 < event.packets_lost <= system.config.slots_per_rpu
        # MTTR: drain (instant, packets abandoned) + 0.01 ms load
        load_cycles = system.config.clock.ns_to_cycles(0.01 * 1e6)
        assert event.recovery_cycles() >= load_cycles
        assert controller.events[0]["kind"] == "watchdog"

    def test_mac_corrupt_counts_csum_drops(self):
        system = _live_system()
        source = FixedSizeSource(system, 0, 20.0, 512, n_packets=1500, seed=1)
        install_faults(
            system,
            [FaultSpec(kind="mac_corrupt", at_cycles=0.0, target=0,
                       magnitude=0.5, seed=11)],
        )
        source.start()
        system.sim.run(until=500_000)
        mac = system.macs[0]
        assert mac.counters.value("rx_csum_drops") > 0
        assert (
            mac.counters.value("rx_csum_drops")
            <= mac.counters.value("rx_drops")
        )

    @pytest.mark.parametrize("mode", ["corrupt", "truncate"])
    def test_mac_corrupt_clears_class_key(self, mode):
        """A frame mutated in place leaves its template's class: the
        fluid signature and ISS replay keys must not see it as a twin."""
        system = _live_system()
        install_faults(
            system,
            [FaultSpec(kind="mac_corrupt", at_cycles=0.0, target=0,
                       magnitude=1.0, seed=11, params={"mode": mode})],
        )
        system.sim.run(until=1)
        template = intern_template(build_tcp("10.0.0.1", "10.0.0.2", 1, 80, pad_to=256).data)
        packet = template.make_packet()
        assert packet.class_key == template.class_key
        mutated = system.macs[0].rx_fault_hook(packet)
        assert mutated.data != template.data
        assert mutated.class_key is None
        assert mutated._parsed is None  # re-parsed from the new bytes

    def test_mac_corrupt_is_seed_deterministic(self):
        def run(seed):
            system = _live_system()
            source = FixedSizeSource(system, 0, 20.0, 512, n_packets=800, seed=1)
            install_faults(
                system,
                [FaultSpec(kind="mac_corrupt", target=0, magnitude=0.3, seed=seed)],
            )
            source.start()
            system.sim.run(until=300_000)
            return system.macs[0].counters.value("rx_csum_drops")

        assert run(7) == run(7)
        assert run(7) != run(8)  # different fault stream

    def test_mac_lose_mode_drops_without_csum_counts(self):
        system = _live_system()
        source = FixedSizeSource(system, 0, 20.0, 512, n_packets=800, seed=1)
        install_faults(
            system,
            [FaultSpec(kind="mac_corrupt", target=0, magnitude=0.5, seed=3,
                       params={"mode": "lose"})],
        )
        source.start()
        system.sim.run(until=300_000)
        mac = system.macs[0]
        assert mac.counters.value("rx_drops") > 0
        assert mac.counters.value("rx_csum_drops") == 0

    def test_link_flap_loses_rx_and_pauses_tx(self):
        system = _live_system()
        source = FixedSizeSource(system, 0, 40.0, 512, n_packets=2000, seed=1)
        install_faults(
            system,
            [FaultSpec(kind="link_flap", at_cycles=10_000.0, target=0,
                       duration_cycles=10_000.0)],
        )
        source.start()
        system.sim.run(until=500_000)
        mac = system.macs[0]
        assert mac.counters.value("rx_link_drops") > 0
        assert mac.link_up  # flap ended
        # everything that wasn't lost on the wire still got through
        delivered = system.counters.value("delivered")
        assert delivered == 2000 - mac.counters.value("rx_drops")

    def test_accel_fault_requires_an_accelerator(self):
        system = _live_system()  # forwarder firmware: no accelerator
        with pytest.raises(FaultSpecError):
            install_faults(
                system, [FaultSpec(kind="accel_fault", target=0)]
            )

    def test_sampler_spec_overrides_interval(self):
        system = _live_system()
        controller = install_faults(
            system,
            [FaultSpec(kind="sampler", params={"interval_cycles": 1234.0})],
        )
        assert controller.sampler.interval_cycles == 1234.0


class TestChaosEngine:
    def test_run_experiment_attaches_resilience(self):
        result = run_experiment(_small_spec(
            faults=(FaultSpec(kind="reconfig", at_cycles=10_000.0, target=1,
                              params={"pr_load_ms": 0.01}),),
        ))
        assert result.resilience is not None
        assert result.resilience["reconfig"][0]["rpu"] == 1
        assert result.resilience["reconfig"][0]["total_cycles"] > 0
        # reports survive the JSON round trip the cache uses
        again = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        assert again["resilience"]["reconfig"][0]["rpu"] == 1

    def test_plain_spec_has_no_resilience(self):
        assert run_experiment(_small_spec()).resilience is None


class TestAccelGuard:
    def test_firewall_recovers_poisoned_reads_in_software(self):
        from repro.accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist
        from repro.firmware import FirewallFirmware
        from repro.packet import build_udp

        matcher = IpBlacklistMatcher(parse_blacklist(generate_blacklist(50)))
        firmware = FirewallFirmware(matcher)
        packet = build_udp("10.0.0.1", "10.0.0.2", 1000, 2000, payload=b"x" * 64)
        clean = firmware.process(packet, 0)
        matcher.inject_fault(True)
        poisoned = firmware.process(packet, 0)
        matcher.inject_fault(False)
        assert firmware.accel_faults_recovered == 1
        assert matcher.results_poisoned == 1
        # the software re-run reaches the same verdict, at a cycle cost
        assert poisoned.action == clean.action
        assert poisoned.sw_cycles > clean.sw_cycles


class TestCliFaultParsing:
    def test_full_syntax(self):
        spec = parse_fault_arg(
            "mac_corrupt:at=5000,target=1,duration=250,magnitude=0.5,"
            "seed=9,mode=truncate"
        )
        assert spec == FaultSpec(
            kind="mac_corrupt", at_cycles=5000, target=1, duration_cycles=250,
            magnitude=0.5, seed=9, params={"mode": "truncate"},
        )

    def test_kind_only(self):
        assert parse_fault_arg("watchdog") == FaultSpec(kind="watchdog")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_fault_arg("gremlins:at=1")

    def test_bad_item(self):
        with pytest.raises(ValueError):
            parse_fault_arg("rpu_wedge:at")

    def test_every_known_kind_has_an_injector(self):
        from repro.faults import REGISTRY

        for kind in KNOWN_FAULT_KINDS:
            if kind == "sampler":  # consumed by install_faults directly
                continue
            assert kind in REGISTRY.kinds()
