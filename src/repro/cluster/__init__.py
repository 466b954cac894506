"""Multi-board Rosebud clusters (N-board racks, horizon-sharded).

The artifact pairs two boards behind a front-end switch; this package
models the general N-board rack: a :class:`ClusterSpec` inside an
:class:`~repro.analysis.spec.ExperimentSpec` (spec v7), flow-affine
steering with pinning and failover (:mod:`repro.cluster.affinity`),
deterministic inter-board links (:mod:`repro.cluster.link`), and a
bounded-lag :class:`~repro.cluster.engine.ClusterEngine` that can
shard the boards across worker processes byte-identically
(:mod:`repro.cluster.shard`).

The engine is not re-exported here: :mod:`repro.analysis.spec` pulls
:class:`ClusterSpec` from this package at import time, while the engine
leans on the analysis and serve layers, so an eager import would cycle.
Import it as ``repro.ClusterEngine`` or from :mod:`repro.cluster.engine`.
"""

from .affinity import ClusterAffinity
from .link import BoardLink
from .spec import AFFINITY_POLICIES, ClusterError, ClusterSpec

__all__ = [
    "AFFINITY_POLICIES",
    "BoardLink",
    "ClusterAffinity",
    "ClusterError",
    "ClusterSpec",
]
