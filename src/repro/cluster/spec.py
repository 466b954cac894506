"""Cluster topology description: :class:`ClusterSpec`.

The paper's artifact is *two* VCU1525 boards joined by 2x100G cables
behind a front-end switch; :class:`ClusterSpec` generalises that to an
N-board rack.  It rides inside :class:`~repro.analysis.spec.ExperimentSpec`
(spec v7's ``cluster`` field) as plain frozen data, so cluster points
hash, pickle, and cache exactly like single-board points.

Board simulations synchronise at a bounded-lag window, the
``horizon_cycles``.  Cross-board packets ride a link with
``link_latency_cycles`` of lookahead, so a horizon no larger than the
link latency makes the conservative parallel simulation *exact* — a
packet emitted inside window ``k`` cannot arrive before window ``k+1``
begins, hence exchanging emissions at window barriers loses nothing.
The horizon is the link latency itself, the largest exact choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

#: Affinity policies the cluster front-end understands.
AFFINITY_POLICIES = ("hash", "local")


class ClusterError(ValueError):
    """Raised for inconsistent cluster specifications."""


@dataclass(frozen=True)
class ClusterSpec:
    """An N-board Rosebud rack, declaratively.

    * ``boards`` — number of boards; each runs the host spec's config,
      firmware, and per-board traffic profile (seeds decorrelated per
      board, see :func:`~repro.cluster.shard.board_spec`).
    * ``link_gbps`` / ``link_latency_cycles`` — the inter-board MAC
      link: serialization at ``link_gbps`` plus a fixed propagation
      latency (also the simulation lookahead).
    * ``affinity`` — ``hash`` partitions flows across live boards by
      the 5-tuple CRC (the paper's LB hash, lifted one level up);
      ``local`` keeps flows on their arrival board and only re-steers
      away from dead boards.  Either way a flow is pinned to its
      first owner, so established flows never migrate while their
      owner stays live.
    * ``sample_cycles`` — cluster-level rate sampling interval for the
      resilience (dip/MTTR) report.
    * ``watchdog_horizons`` — consecutive zero-progress horizons before
      the cluster watchdog declares a board failed and evicts it from
      the affinity map (0 disables failover).
    """

    boards: int = 2
    link_gbps: float = 100.0
    link_latency_cycles: float = 250.0
    affinity: str = "hash"
    sample_cycles: float = 25_000.0
    watchdog_horizons: int = 8

    def __post_init__(self) -> None:
        if self.boards < 1:
            raise ClusterError(f"cluster needs at least one board, got {self.boards}")
        if self.link_gbps <= 0:
            raise ClusterError("inter-board link rate must be positive")
        if self.link_latency_cycles <= 0:
            raise ClusterError("inter-board link latency must be positive")
        if self.affinity not in AFFINITY_POLICIES:
            raise ClusterError(
                f"unknown affinity policy {self.affinity!r}; "
                f"choices: {list(AFFINITY_POLICIES)}"
            )
        if self.sample_cycles <= 0:
            raise ClusterError("sample interval must be positive")
        if self.watchdog_horizons < 0:
            raise ClusterError("watchdog_horizons cannot be negative")

    @property
    def horizon_cycles(self) -> float:
        """The barrier interval: the link latency, the largest exact one."""
        return self.link_latency_cycles

    def to_dict(self) -> Dict[str, Any]:
        return {
            "boards": self.boards,
            "link_gbps": self.link_gbps,
            "link_latency_cycles": self.link_latency_cycles,
            "affinity": self.affinity,
            "sample_cycles": self.sample_cycles,
            "watchdog_horizons": self.watchdog_horizons,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClusterSpec":
        known = {
            k: data[k]
            for k in (
                "boards",
                "link_gbps",
                "link_latency_cycles",
                "affinity",
                "sample_cycles",
                "watchdog_horizons",
            )
            if k in data
        }
        unknown = set(data) - set(known)
        if unknown:
            raise ClusterError(f"unknown cluster fields: {sorted(unknown)}")
        return cls(**known)
