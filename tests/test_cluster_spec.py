"""Spec-level contract for :mod:`repro.cluster` (spec v7).

ClusterSpec validation, its ride inside ExperimentSpec (serialization,
cache identity, the fault/fluid/latency exclusions), and the routing
seams: ``run_experiment`` hands cluster specs to the cluster engine,
``SimSession`` refuses them by name, and the serve ``open`` method
builds them from plain JSON params.
"""

import json

import pytest

from repro import ExperimentSpec, MeasurementWindow, TrafficProfile
from repro.analysis.spec import SPEC_VERSION, SpecError
from repro.cluster import AFFINITY_POLICIES, ClusterError, ClusterSpec
from repro.serve import SessionError, spec_from_params
from repro.serve.session import SimSession


def test_defaults_model_the_artifact_rack():
    cluster = ClusterSpec()
    assert cluster.boards == 2
    assert cluster.link_gbps == 100.0
    assert cluster.affinity in AFFINITY_POLICIES


def test_horizon_auto_selects_link_latency():
    assert ClusterSpec(link_latency_cycles=300.0).horizon_cycles == 300.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"boards": 0},
        {"link_gbps": 0.0},
        {"link_latency_cycles": -1.0},
        {"affinity": "sticky"},
        {"sample_cycles": 0.0},
        {"watchdog_horizons": -1},
    ],
)
def test_invalid_cluster_fields_raise(kwargs):
    with pytest.raises(ClusterError):
        ClusterSpec(**kwargs)


def test_dict_roundtrip_and_unknown_fields():
    cluster = ClusterSpec(boards=3, affinity="local", watchdog_horizons=0)
    assert ClusterSpec.from_dict(cluster.to_dict()) == cluster
    for unknown in ("racks", "pin_flows", "sync_horizon_cycles", "seed_stride"):
        with pytest.raises(ClusterError):
            ClusterSpec.from_dict({"boards": 2, unknown: 9})


# -- the ride inside ExperimentSpec ----------------------------------------


def test_spec_version_bumped_for_cluster():
    assert SPEC_VERSION >= 7


def test_experiment_spec_accepts_cluster_dict():
    spec = ExperimentSpec(cluster={"boards": 3})
    assert isinstance(spec.cluster, ClusterSpec)
    assert spec.cluster.boards == 3


def test_cluster_changes_cache_key():
    base = ExperimentSpec()
    clustered = ExperimentSpec(cluster=ClusterSpec(boards=2))
    assert base.cache_key() != clustered.cache_key()
    assert (
        clustered.cache_key()
        != ExperimentSpec(cluster=ClusterSpec(boards=3)).cache_key()
    )
    # to_dict is JSON-serialisable with the cluster block inline
    blob = json.dumps(clustered.to_dict(), sort_keys=True)
    assert '"boards": 2' in blob


def test_cluster_excludes_faults_and_latency():
    cluster = ClusterSpec(boards=2)
    with pytest.raises(SpecError):
        ExperimentSpec(
            cluster=cluster,
            faults=({"kind": "rpu_wedge", "at_cycles": 1000.0, "target": 0},),
        )
    with pytest.raises(SpecError):
        ExperimentSpec(cluster=cluster, measure="latency")


def test_cluster_composes_with_fluid_fidelity():
    # spec v8: cluster x fluid is no longer excluded — per-board fluid
    # engines warp inside the sync horizon (tests/test_fluid_contended.py
    # holds the rack to byte-identity with the event-accurate run)
    spec = ExperimentSpec(cluster=ClusterSpec(boards=2), fidelity="fluid")
    assert spec.fidelity == "fluid"
    assert spec.cluster.boards == 2
    assert (
        spec.cache_key()
        != ExperimentSpec(cluster=ClusterSpec(boards=2)).cache_key()
    )


def test_sim_session_refuses_cluster_specs():
    spec = ExperimentSpec(cluster=ClusterSpec(boards=2))
    with pytest.raises(SessionError, match="ClusterEngine"):
        SimSession(spec)


def test_serve_params_build_cluster_specs():
    spec = spec_from_params(
        {"cluster": {"boards": 3, "affinity": "local"}, "gbps": 60.0}
    )
    assert spec.cluster.boards == 3
    assert spec.cluster.affinity == "local"
    # integer shorthand: just the board count
    assert spec_from_params({"cluster": 4}).cluster.boards == 4
    assert spec_from_params({}).cluster is None


def test_result_roundtrips_cluster_block():
    from repro.analysis.spec import ExperimentResult

    result = ExperimentResult(
        spec_key="k", cluster={"boards": 2, "horizons": 17}
    )
    data = result.to_dict()
    assert data["cluster"]["horizons"] == 17
    back = ExperimentResult.from_dict(json.loads(json.dumps(data)))
    assert back.cluster == result.cluster
    # single-board results stay cluster-free
    assert "cluster" not in ExperimentResult(spec_key="k").to_dict()
