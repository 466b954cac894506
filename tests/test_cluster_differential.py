"""The tentpole guarantee: N-shard cluster runs are byte-identical.

The cluster engine makes every control decision in the parent from
per-barrier metric streams and exchanges cross-board packets in one
deterministically sorted merge, so the process layout (how boards are
spread over shard workers) can never leak into the measured result.
These tests pin that as strict equality of the serialized result JSON
across 1/2/4 shards — with and without the replay cache, under live
drain events, and for an IPS rack whose flow packets arrive with their
parse seeded (a crossing packet leaves that parse behind).
"""

import json

import pytest

from repro import ExperimentSpec, MeasurementWindow, RosebudConfig, TrafficProfile
from repro.accel.pigasus import generate_ruleset, parse_rules
from repro.cluster import ClusterSpec
from repro.cluster.engine import ClusterEngine
from repro.firmware import PigasusHwReorderFirmware

WINDOW = MeasurementWindow(
    warmup_packets=50, measure_packets=300, max_cycles=10_000_000
)


def four_board_spec(**spec_kwargs) -> ExperimentSpec:
    return ExperimentSpec(
        traffic=TrafficProfile(offered_gbps=40.0, packet_size=512),
        window=WINDOW,
        cluster=ClusterSpec(boards=4),
        **spec_kwargs,
    )


def result_blob(spec, shards, events=()) -> str:
    result = ClusterEngine(spec, shards=shards, events=events).run_to_completion()
    return json.dumps(result.to_dict(), sort_keys=True)


def test_shard_counts_are_byte_identical():
    spec = four_board_spec()
    inline = result_blob(spec, shards=1)
    assert result_blob(spec, shards=2) == inline
    assert result_blob(spec, shards=4) == inline


def test_shard_identity_holds_under_drain_events():
    spec = four_board_spec()
    events = [(1_000.0, "drain", 1), (3_000.0, "restore", 1)]
    inline = result_blob(spec, shards=1, events=events)
    assert result_blob(spec, shards=2, events=events) == inline
    assert result_blob(spec, shards=4, events=events) == inline
    assert json.loads(inline)["cluster"]["events"]


def test_excess_shards_clamp_to_board_count():
    spec = ExperimentSpec(
        traffic=TrafficProfile(offered_gbps=40.0, packet_size=512),
        window=WINDOW,
        cluster=ClusterSpec(boards=2),
    )
    engine = ClusterEngine(spec, shards=16)
    assert engine.shards == 2
    blob = json.dumps(engine.run_to_completion().to_dict(), sort_keys=True)
    assert blob == result_blob(spec, shards=1)


def test_ips_rack_on_flows_is_byte_identical():
    rules = parse_rules(generate_ruleset(200, seed=1))
    spec = ExperimentSpec(
        config=RosebudConfig(n_rpus=4, slots_per_rpu=32),
        firmware=PigasusHwReorderFirmware,
        firmware_args=(rules,),
        traffic=TrafficProfile(
            packet_size=512,
            offered_gbps=100.0,
            source="flows",
            source_kwargs={
                "attack_fraction": 0.05,
                "attack_payloads": tuple(r.content for r in rules),
                "n_flows": 256,
            },
        ),
        window=WINDOW,
        cluster=ClusterSpec(boards=2, affinity="hash"),
    )
    inline = result_blob(spec, shards=1)
    assert json.loads(inline)["cluster"]["cross_board"]["packets"] > 0
    assert result_blob(spec, shards=2) == inline
