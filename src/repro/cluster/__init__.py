"""Multi-board Rosebud clusters (N-board racks, horizon-sharded).

The artifact pairs two boards behind a front-end switch; this package
models the general N-board rack: a :class:`ClusterSpec` inside an
:class:`~repro.analysis.spec.ExperimentSpec` (spec v7), flow-affine
steering with pinning and failover (:mod:`repro.cluster.affinity`),
deterministic inter-board links (:mod:`repro.cluster.link`), and a
bounded-lag :class:`ClusterEngine` that can shard the boards across
worker processes byte-identically (:mod:`repro.cluster.shard`).

``ClusterEngine`` is imported lazily: :mod:`repro.analysis.spec` pulls
:class:`ClusterSpec` from here at import time, while the engine itself
leans on the analysis and serve layers — eager re-export would cycle.
"""

from .affinity import ClusterAffinity
from .link import BoardLink
from .spec import AFFINITY_POLICIES, ClusterError, ClusterSpec

__all__ = [
    "AFFINITY_POLICIES",
    "BoardLink",
    "ClusterAffinity",
    "ClusterEngine",
    "ClusterError",
    "ClusterShardError",
    "ClusterSpec",
]

_LAZY = {
    "ClusterEngine": "engine",
    "ClusterShardError": "shard",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    mod = importlib.import_module(f".{module}", __name__)
    value = getattr(mod, name)
    globals()[name] = value
    return value
