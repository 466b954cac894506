"""Differential tests for the incremental stepper (:mod:`repro.serve`).

The contract the serving mode rests on: stepping a spec session to
completion — in any chunking — produces a result *byte-identical* to
the batch :func:`run_experiment` path, because both are the same
measurement state machine pumped at the same event boundaries.  These
tests pin that down across firmwares, the replay cache, latency mode,
and chaos campaigns, plus the live-control/telemetry surface.
"""

import json
import random

import pytest

import repro
from repro import (
    ExperimentSpec,
    FaultSpec,
    MeasurementWindow,
    SimSession,
    TrafficProfile,
    run_experiment,
)
from repro.core import RosebudConfig, RosebudSystem
from repro.firmware import ForwarderFirmware
from repro.fluid import diff_results
from repro.serve import SessionError, spec_from_params
from repro.traffic import FixedSizeSource

from .conftest import next_time

FAST = MeasurementWindow(warmup_packets=200, measure_packets=600)


def _forwarder_spec(**changes):
    spec = ExperimentSpec(
        config=RosebudConfig(n_rpus=8),
        traffic=TrafficProfile(packet_size=512, offered_gbps=100.0),
        window=FAST,
    )
    return spec.with_(**changes) if changes else spec


def _batch(spec):
    """One batch run."""
    return run_experiment(spec).to_dict()


def _stepped(spec, n_events=None, cycles=None, mix_seed=None):
    """The same run, stepped in chunks: fixed chunks, or with
    ``mix_seed`` a seeded-random mix of every bound ``step`` takes
    (events, relative cycles, absolute time, events and time)."""
    session = SimSession(spec)
    rng = random.Random(mix_seed)
    for _ in range(1_000_000):
        bounds = {"n_events": n_events, "cycles": cycles}
        if mix_seed is not None:
            until_ts = session.sim.now + rng.randrange(1, 5_000)
            bounds = [
                {"n_events": rng.randrange(1, 400)},
                {"cycles": float(rng.randrange(1, 3_000))},
                {"until_ts": until_ts},
                {"n_events": rng.randrange(1, 400), "until_ts": until_ts},
            ][rng.randrange(4)]
        before = session.sim.now
        out = session.step(**bounds)
        if out["measurement_done"]:
            break
        assert out["events"] > 0 or out["now"] > before, "stepper made no progress"
    return session.result().to_dict()


def _assert_identical(spec, **step_kwargs):
    batch = _batch(spec)
    stepped = _stepped(spec, **step_kwargs)
    assert json.dumps(batch, sort_keys=True) == json.dumps(stepped, sort_keys=True)


#: offered > capacity: backlogged MAC FIFOs, drops every period, and a
#: rotating period the fluid tier proves and warps
_CONTENDED_FLUID = ExperimentSpec(
    config=RosebudConfig(n_rpus=4, mac_rx_fifo_packets=8),
    traffic=TrafficProfile(packet_size=256, offered_gbps=200.0, n_ports=2),
    window=MeasurementWindow(
        warmup_packets=1000, measure_packets=30_000, max_cycles=5e9
    ),
    fidelity="fluid",
)


class TestStepperBatchIdentity:
    """Chunked stepping reproduces run_experiment byte for byte."""

    def test_forwarder_event_chunks(self):
        _assert_identical(_forwarder_spec(), n_events=337)

    def test_forwarder_cycle_chunks(self):
        _assert_identical(_forwarder_spec(), cycles=10_000.0)

    def test_forwarder_mixed_bounds(self):
        _assert_identical(_forwarder_spec(), mix_seed=7)

    def test_contended_fluid_event_chunks(self):
        # an event budget never caps a warp, so even the fluid
        # accounting block is identical
        batch = _batch(_CONTENDED_FLUID)
        assert batch["fluid"]["warps"] >= 1
        assert batch == _stepped(_CONTENDED_FLUID, n_events=337)

    def test_contended_fluid_mixed_bounds(self):
        # time bounds clip warps, so the two runs warp different spans:
        # identical under the fluid tier's own contract (every integer
        # equal, floats to 1e-6, the `fluid` block describing the
        # warps excluded)
        batch = _batch(_CONTENDED_FLUID)
        stepped = _stepped(_CONTENDED_FLUID, mix_seed=7)
        assert stepped["fluid"]["warps"] > batch["fluid"]["warps"]
        assert diff_results(stepped, batch) == []

    def test_latency_mode(self):
        _assert_identical(
            _forwarder_spec(
                measure="latency",
                window=MeasurementWindow(warmup_packets=50, measure_packets=150),
            ),
            n_events=211,
        )

    def test_firewall(self):
        spec = spec_from_params({
            "firmware": "firewall", "rules": 32, "rpus": 8, "size": 256,
            "gbps": 60, "warmup": 300, "packets": 800,
            "respect_generator_cap": False,
        })
        _assert_identical(spec, n_events=501)

    def test_pigasus(self):
        spec = spec_from_params({
            "firmware": "pigasus_hw", "rules": 8, "rpus": 4, "size": 512,
            "gbps": 40, "warmup": 200, "packets": 600,
        })
        _assert_identical(spec, n_events=409)

    def test_faults_campaign(self):
        spec = _forwarder_spec(
            window=MeasurementWindow(warmup_packets=300, measure_packets=1500),
            faults=(
                FaultSpec(kind="rpu_wedge", at_cycles=20_000.0, target=2),
                FaultSpec(
                    kind="watchdog",
                    at_cycles=1_000.0,
                    params={
                        "threshold_cycles": 8_000.0,
                        "poll_cycles": 1_000.0,
                        "pr_load_ms": 0.01,
                    },
                ),
            ),
        )
        _assert_identical(spec, cycles=10_000.0)

    def test_event_budget_ending_on_the_completing_event(self):
        """A step whose last allowed event completes the window
        finalizes the result in that step, as the batch loop does."""
        batch = SimSession(_forwarder_spec())
        expected = json.dumps(batch.run_to_completion().to_dict(), sort_keys=True)
        k = batch.sim.events_processed
        whole = SimSession(_forwarder_spec())
        assert whole.step(n_events=k) == {
            "events": k, "now": batch.sim.now, "measurement_done": True
        }
        split = SimSession(_forwarder_spec())
        assert not split.step(n_events=k - 1)["measurement_done"]
        assert split.step(n_events=1)["measurement_done"]
        for session in (whole, split):
            assert json.dumps(session.result().to_dict(), sort_keys=True) == expected

    def test_overshooting_step_does_not_perturb_result(self):
        """A single huge step freezes the result at the same boundary as
        the batch loop (the window must not stretch to the step size)."""
        batch = _batch(_forwarder_spec())
        session = SimSession(_forwarder_spec())
        session.step(cycles=1e9)
        assert json.dumps(batch, sort_keys=True) == json.dumps(
            session.result().to_dict(), sort_keys=True
        )


class TestSessionLifecycle:
    def test_result_raises_until_complete(self):
        session = SimSession(_forwarder_spec())
        session.step(n_events=10)
        with pytest.raises(SessionError):
            session.result()

    def test_step_advances_clock_past_queue(self):
        """until_ts with an idle queue still advances the clock."""
        system = RosebudSystem(RosebudConfig(n_rpus=2), ForwarderFirmware())
        session = SimSession.for_system(system)
        out = session.step(until_ts=5_000.0)
        assert out["now"] == pytest.approx(5_000.0)

    def test_both_bounds_stop_at_whichever_comes_first(self):
        """Regression: with n_events spent and events still due before
        until_ts, step used to report n_events but run on to until_ts
        outside the measurement pump (5 reported, 1491 fired)."""
        session = SimSession(_forwarder_spec())
        out = session.step(n_events=5, until_ts=2_000.0)
        assert out["events"] == 5 == session.sim.events_processed
        assert out["now"] == session.sim.now < 2_000.0
        assert next_time(session.sim) <= 2_000.0
        # with the time bound the nearer one, the clock lands on it
        fired = session.step(n_events=10**6, until_ts=2_000.0)["events"]
        assert session.sim.now == 2_000.0 < next_time(session.sim)
        assert session.sim.events_processed == 5 + fired

    def test_spec_sessions_reject_manual_measurements(self):
        session = SimSession(_forwarder_spec())
        with pytest.raises(SessionError):
            session.measure_throughput(512, 100.0)

    def test_injected_packets_flow(self):
        from repro.packet import build_udp

        system = RosebudSystem(RosebudConfig(n_rpus=2), ForwarderFirmware())
        session = SimSession.for_system(system)
        session.start()
        n = session.inject(
            [build_udp("10.0.0.1", "10.0.0.2", 1234, 9, pad_to=256)
             for _ in range(8)],
            port=0,
        )
        assert n == 8
        session.step(cycles=50_000.0)
        assert system.counters.value("delivered") == 8


class TestLiveControl:
    """Reconfig/chaos parity with the direct HostInterface path
    (tests/test_host_watchdog.py expectations)."""

    def _live_session(self, n_rpus=4, gbps=20.0, n_packets=2000):
        system = RosebudSystem(RosebudConfig(n_rpus=n_rpus), ForwarderFirmware())
        source = FixedSizeSource(system, 0, gbps, 512, n_packets=n_packets, seed=1)
        session = SimSession.for_system(system, [source])
        session.start()
        return session

    def test_hot_reconfigure_under_load_recovers(self):
        session = self._live_session()
        session.step(cycles=10_000.0)
        record = session.control("reconfigure", rpu=1, pr_load_ms=0.01)
        assert record["action"] == "reconfigure"
        session.step(cycles=60_000.0)
        snap = session.snapshot()
        [reconfig] = snap["reconfig"]
        assert reconfig["rpu"] == 1
        assert reconfig["booted_at"] > reconfig["drained_at"] > 0
        assert session.system.lb.enabled[1]

    def test_wedge_watchdog_single_recovery(self):
        """Mirrors test_recovering_rpu_not_double_evicted: one wedge,
        one watchdog event, recovered, MTTR in the snapshot."""
        session = self._live_session(n_packets=4000)
        session.control(
            "watchdog", op="start",
            threshold_cycles=5_000.0, poll_cycles=1_000.0, pr_load_ms=0.01,
        )
        session.control("fault", kind="rpu_wedge", target=1, in_cycles=10_000.0)
        session.step(cycles=200_000.0)
        snap = session.snapshot()
        events = [e for e in snap["watchdog"] if e["rpu"] == 1]
        assert len(events) == 1
        assert events[0]["recovered_at"] > events[0]["detected_at"]
        assert events[0]["mttr_cycles"] > 0
        assert not session.system.rpus[1].wedged

    def test_healthy_system_triggers_nothing(self):
        session = self._live_session(n_packets=1000)
        session.control(
            "watchdog", op="start",
            threshold_cycles=5_000.0, poll_cycles=1_000.0,
        )
        session.step(cycles=150_000.0)
        assert session.snapshot()["watchdog"] == []

    def test_receive_mask_reenable_wakes_blocked_ports(self):
        """A mask of 0 head-of-line blocks every port; writing the full
        mask back must let them retry, not leave them blocked for good."""
        session = self._live_session(n_rpus=8, gbps=100.0, n_packets=20_000)
        delivered = session.system.counters.value
        session.step(cycles=20_000.0)
        session.control("set_receive_mask", mask=0)
        session.step(cycles=20_000.0)
        ingress = session.system.port_ingress[0]  # the source's port
        assert ingress._waiting_for_slot
        blocked_at = delivered("delivered")
        session.control("set_receive_mask", mask=0xFF)
        session.step(cycles=20_000.0)
        assert delivered("delivered") > blocked_at + 1000
        assert not ingress._waiting_for_slot

    def test_lb_swap_mid_flight(self):
        session = self._live_session()
        session.step(cycles=20_000.0)
        out = session.control("set_lb", policy="rr")
        assert out["new"] == "round_robin"
        session.step(cycles=20_000.0)
        assert session.snapshot()["lb"]["policy"] == "round_robin"

    def test_past_fault_rejected(self):
        session = self._live_session()
        session.step(cycles=10_000.0)
        with pytest.raises(SessionError):
            session.control("fault", kind="rpu_wedge", target=0, at_cycles=1.0)

    def test_unknown_action_rejected(self):
        session = self._live_session()
        with pytest.raises(SessionError):
            session.control("self_destruct")


class TestSnapshots:
    def test_schema_and_monotonicity(self):
        session = SimSession(_forwarder_spec())
        prev = session.snapshot()
        assert prev["schema"] == "repro-snapshot/2"
        for _ in range(5):
            session.step(n_events=400)
            snap = session.snapshot()
            assert snap["seq"] == prev["seq"] + 1
            assert snap["now_cycles"] >= prev["now_cycles"]
            assert snap["events_processed"] >= prev["events_processed"]
            for key, value in prev["counters"].items():
                assert snap["counters"].get(key, 0) >= value, key
            for rpu_now, rpu_prev in zip(snap["rpus"], prev["rpus"]):
                assert rpu_now["packets"] >= rpu_prev["packets"]
                assert rpu_now["busy_cycles"] >= rpu_prev["busy_cycles"]
            prev = snap

    def test_snapshot_is_json_serializable(self):
        session = SimSession(_forwarder_spec())
        session.step(n_events=2000)
        snap = session.snapshot()
        clone = json.loads(json.dumps(snap, sort_keys=True))
        assert clone["measurement"]["mode"] == "throughput"

    def test_drop_taxonomy_partitions_offered(self):
        """Every offered frame lands in exactly one snapshot sink,
        including a frame that passes the MAC but not its packet slot."""
        from repro.packet import build_udp
        from .conftest import build_raw

        system = RosebudSystem(
            RosebudConfig(n_rpus=2, slot_bytes=2048, mac_rx_fifo_packets=100),
            ForwarderFirmware(),
        )
        session = SimSession.for_system(system)
        session.start()
        frames = [build_raw(4000)] + [
            build_udp("10.0.0.1", "10.0.0.2", 1234 + i, 9, pad_to=256) for i in range(4)
        ]
        offered = session.inject(frames, port=0)
        session.step(cycles=100_000.0)
        snap = session.snapshot()
        counters, drops = snap["counters"], snap["drops"]
        assert drops["oversize"] == 1
        assert (
            counters["delivered"] + counters["to_host"] + counters["dropped_by_firmware"]
            + drops["rx_overflow"] + drops["oversize"]
        ) == offered == 5

    def test_snapshots_do_not_perturb_measurement(self):
        batch = _batch(_forwarder_spec())
        session = SimSession(_forwarder_spec())
        while not session.measurement_done:
            session.step(n_events=250)
            session.snapshot()
        assert json.dumps(batch, sort_keys=True) == json.dumps(
            session.result().to_dict(), sort_keys=True
        )


class TestStableApi:
    def test_all_exports_resolve(self):
        """Every name ``repro`` and its packages export resolves, so a
        deletion that leaves a name behind in an ``__all__`` fails here."""
        import importlib
        import pkgutil

        modules = [repro] + [
            importlib.import_module(f"repro.{info.name}")
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ]
        for module in modules:
            for name in module.__all__:
                assert getattr(module, name) is not None, (module.__name__, name)
        for name, (module_name, attribute) in repro._LAZY_EXPORTS.items():
            assert name in repro.__all__
            assert getattr(importlib.import_module(module_name), attribute) is getattr(repro, name)

    def test_api_version(self):
        assert repro.__api_version__ == "1"

    def test_result_envelope_declares_schema(self):
        result = run_experiment(_forwarder_spec())
        assert result.to_dict()["schema"] == "repro-result/1"
