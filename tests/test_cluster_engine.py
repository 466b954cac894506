"""Behavioural tests for the cluster engine (inline transport).

Covers the rack-level semantics the differential tests take as given:
flow-affine steering and pinning, drain/failover/recovery through the
cluster watchdog, the resilience (dip/MTTR) report, the serve-style
step/control/snapshot surface, and the engine's termination guards.
"""

import pytest

from repro import ExperimentSpec, MeasurementWindow, TrafficProfile, run_experiment
from repro.analysis.harness import sum_readings, throughput_result
from repro.analysis.spec import SpecError
from repro.cluster import ClusterSpec
from repro.cluster.affinity import ClusterAffinity
from repro.cluster.engine import ClusterEngine
from repro.cluster.link import BoardLink
from repro.schema import check

FAST = MeasurementWindow(
    warmup_packets=100, measure_packets=500, max_cycles=10_000_000
)


def cluster_spec(boards=2, window=FAST, **cluster_kwargs) -> ExperimentSpec:
    return ExperimentSpec(
        traffic=TrafficProfile(offered_gbps=40.0, packet_size=512),
        window=window,
        cluster=ClusterSpec(boards=boards, **cluster_kwargs),
    )


# -- components ------------------------------------------------------------


def test_board_link_serializes_and_delays():
    link = BoardLink(gbps=100.0, latency_cycles=250.0, freq_hz=250e6)
    first = link.send(0.0, 500)
    # 500B at 100G on a 250MHz clock: 10 cycles of serialization
    assert first == pytest.approx(260.0)
    # back-to-back send queues behind the first
    second = link.send(0.0, 500)
    assert second == pytest.approx(270.0)
    assert link.packets == 2 and link.bytes == 1000


def test_affinity_pins_and_repins():
    from repro.packet import build_udp

    cluster = ClusterSpec(boards=4)
    affinity = ClusterAffinity(cluster, board=0)
    packet = build_udp("10.1.2.3", "10.0.0.1", 4321, 9, pad_to=128)
    owner = affinity.owner(packet)
    assert affinity.owner(packet) == owner  # pinned
    if owner != 0:
        affinity.drain(owner)
        moved = affinity.owner(packet)
        assert moved != owner
        assert affinity.repinned == 1
        affinity.restore(owner)
        # the flow stays on its new owner: pins survive restores
        assert affinity.owner(packet) == moved


def test_affinity_local_policy_keeps_flows_on_arrival_board():
    from repro.packet import build_udp

    cluster = ClusterSpec(boards=4, affinity="local")
    affinity = ClusterAffinity(cluster, board=2)
    for i in range(20):
        packet = build_udp(f"10.7.{i}.1", "10.0.0.1", 4000 + i, 9, pad_to=128)
        assert affinity.owner(packet) == 2
    affinity.drain(2)
    packet = build_udp("10.8.0.1", "10.0.0.1", 5000, 9, pad_to=128)
    assert affinity.owner(packet) != 2


# -- whole-rack behaviour --------------------------------------------------


def test_rack_throughput_is_the_board_measurement_over_summed_readings():
    spec = cluster_spec(boards=2)
    engine = ClusterEngine(spec)
    engine.start()
    barriers = []
    try:
        while not engine.measurement_done:
            engine.advance_horizon()
            harnesses = engine._shards[0].harnesses
            barriers.append((engine.now, sum_readings(h.metrics() for h in harnesses)))
        measured = engine.result().throughput
    finally:
        engine.close()
    t0, base = next(
        b for b in barriers if b[1]["completions"] >= FAST.warmup_packets
    )
    t1, final = barriers[-1]
    assert t1 > t0
    assert measured == throughput_result(
        base,
        final,
        t1 - t0,
        clock=spec.config.clock,
        packet_size=512,
        offered_gbps=80.0,
        n_rpus=2 * spec.config.n_rpus,
        measure_packets=FAST.measure_packets,
        include_host=spec.include_host,
        include_absorbed=spec.include_absorbed,
    )


def test_single_board_cluster_degenerates_cleanly():
    result = ClusterEngine(cluster_spec(boards=1)).run_to_completion()
    assert result.cluster["cross_board"]["packets"] == 0
    assert result.throughput.achieved_gbps > 0


def test_two_boards_cross_traffic_and_conservation():
    result = ClusterEngine(cluster_spec(boards=2)).run_to_completion()
    cluster = result.cluster
    # hash affinity sends roughly half of each wire across the link
    assert cluster["cross_board"]["packets"] > 0
    assert len(cluster["per_board"]) == 2
    assert all(b["completions"] > 0 for b in cluster["per_board"])
    assert sum(b["completions"] for b in cluster["per_board"]) == result.counters[
        "delivered"
    ]
    # cluster results always carry the rack accounting
    assert cluster["horizons"] > 0
    window = result.cluster["resilience"]
    assert "dip" in window and "mttr_cycles" in window


def test_run_experiment_routes_cluster_specs():
    spec = cluster_spec(boards=2)
    result = run_experiment(spec)
    assert result.cluster is not None
    assert result.spec_key == spec.cache_key()


def test_two_boards_scale_past_one():
    one = ClusterEngine(cluster_spec(boards=1)).run_to_completion()
    two = ClusterEngine(cluster_spec(boards=2)).run_to_completion()
    # same per-board offered load: the rack should scale near-linearly;
    # cross-board steering costs a little, hence the floor sits below 2.0
    assert two.throughput.achieved_gbps >= 1.8 * one.throughput.achieved_gbps


def test_drain_event_resteers_flows():
    events = [(1_000.0, "drain", 1)]
    result = ClusterEngine(cluster_spec(boards=2), events=events).run_to_completion()
    cluster = result.cluster
    assert cluster["events"][0]["kind"] == "drain"
    assert cluster["cross_board"]["repinned_flows"] > 0
    drained, survivor = cluster["per_board"][1], cluster["per_board"][0]
    assert drained["live"] is False
    assert survivor["completions"] > drained["completions"]


def test_wedge_failover_detect_and_recover():
    spec = cluster_spec(
        boards=4,
        window=MeasurementWindow(
            warmup_packets=200, measure_packets=6000, max_cycles=10_000_000
        ),
        sample_cycles=2_000.0,
    )
    events = [(5_000.0, "wedge_board", 2), (20_000.0, "unwedge_board", 2)]
    result = ClusterEngine(spec, events=events).run_to_completion()
    resilience = result.cluster["resilience"]
    outages = resilience["watchdog"]
    assert len(outages) == 1, "one outage, no spurious re-evictions"
    outage = outages[0]
    assert outage["board"] == 2
    assert outage["detected_at"] > 5_000.0
    assert outage["recovered_at"] > 20_000.0
    assert resilience["mttr_cycles"] == pytest.approx(
        outage["recovered_at"] - outage["detected_at"]
    )
    kinds = [(e["kind"], e["source"]) for e in result.cluster["events"]]
    assert ("evict", "watchdog") in kinds
    assert ("restore", "watchdog") in kinds
    # the cluster kept moving: the dip never reached zero
    assert resilience["dip"]["min_gbps"] > 0


def test_watchdog_disabled_never_evicts():
    spec = cluster_spec(boards=2, watchdog_horizons=0)
    events = [(2_000.0, "wedge_board", 1), (6_000.0, "unwedge_board", 1)]
    result = ClusterEngine(spec, events=events).run_to_completion()
    assert result.cluster["resilience"]["watchdog"] == []


# -- serve-style surface ---------------------------------------------------


def test_step_control_snapshot_surface():
    engine = ClusterEngine(cluster_spec(boards=2))
    try:
        out = engine.step(n_events=3)
        assert out["events"] == 3 and not out["measurement_done"]
        assert engine.now == pytest.approx(3 * engine.cluster.horizon_cycles)

        reply = engine.control("drain", board=1)
        assert reply["board"] == 1

        snap = engine.snapshot()
        check(snap, "repro-cluster-snapshot")
        assert [b["live"] for b in snap["boards"]] == [True, False]
        # every transport exposes full per-board sub-snapshots
        detail = snap["per_board_detail"]
        assert set(detail) == {"0", "1"}
        assert detail["0"]["schema"].startswith("repro-snapshot/")

        engine.control("restore", board=1)
        out = engine.step()  # unbounded: runs to measurement completion
        assert out["measurement_done"]
        result = engine.result()
        assert result.cluster["events"][0]["source"] == "control"
    finally:
        engine.close()


def test_step_time_bounds():
    engine = ClusterEngine(cluster_spec(boards=2))
    try:
        horizon = engine.cluster.horizon_cycles
        engine.step(until_ts=2.5 * horizon)
        assert engine.now == pytest.approx(3 * horizon)  # rounded up
        engine.step(cycles=horizon)
        assert engine.now == pytest.approx(4 * horizon)
    finally:
        engine.close()


def test_control_validation():
    engine = ClusterEngine(cluster_spec(boards=2))
    try:
        with pytest.raises(SpecError):
            engine.control("explode", board=0)
        with pytest.raises(SpecError):
            engine.control("drain", board=7)
        with pytest.raises(SpecError):
            engine.control("drain", board=0, unknown=1)
    finally:
        engine.close()


# -- guards ----------------------------------------------------------------


def test_engine_requires_cluster_spec():
    with pytest.raises(SpecError):
        ClusterEngine(ExperimentSpec())
    with pytest.raises(SpecError):
        ClusterEngine(cluster_spec(), shards=0)


def test_unknown_event_kind_rejected():
    with pytest.raises(SpecError):
        ClusterEngine(cluster_spec(), events=[(0.0, "meltdown", 0)])


def test_max_cycles_guard_names_the_phase():
    spec = cluster_spec(
        boards=2,
        window=MeasurementWindow(
            warmup_packets=100, measure_packets=500, max_cycles=1_000.0
        ),
    )
    engine = ClusterEngine(spec)
    try:
        with pytest.raises(RuntimeError, match="max_cycles"):
            engine.run_to_completion()
    finally:
        engine.close()
