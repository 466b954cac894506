"""Cluster-level flow affinity: which board owns which flow.

The front-end switch hashes each wire arrival's 5-tuple (the same CRC
the in-board hash LB uses, one level up) and steers the packet to its
owner board.  Established flows are *pinned* to their first owner so
they never migrate while that owner stays live; when a board is
drained or evicted its pins are dropped and the flows re-steer
deterministically onto the surviving boards.

Under process sharding every board carries its own affinity *replica*.
Replicas stay consistent without any cross-process chatter because a
given flow always arrives on the same board's wire (per-port seeded
generators), so exactly one replica ever pins it — and liveness events
(drain/restore/evict) are broadcast and applied at the same horizon
barrier on every replica.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.lb import flow_hash
from .spec import ClusterSpec


class ClusterAffinity:
    """One board's replica of the cluster flow-steering map."""

    def __init__(self, cluster: ClusterSpec, board: int) -> None:
        self.cluster = cluster
        self.board = board
        self.live: List[bool] = [True] * cluster.boards
        self.pins: Dict[int, int] = {}
        self.repinned = 0

    # -- liveness ----------------------------------------------------------

    def drain(self, board: int) -> None:
        """Remove ``board`` from the steering map; drop its pins so the
        affected flows re-steer on their next packet."""
        self.live[board] = False
        stale = [h for h, b in self.pins.items() if b == board]
        for h in stale:
            del self.pins[h]
        self.repinned += len(stale)

    def restore(self, board: int) -> None:
        self.live[board] = True

    @property
    def live_boards(self) -> List[int]:
        return [b for b, up in enumerate(self.live) if up]

    # -- steering ----------------------------------------------------------

    def owner(self, packet) -> int:
        """The board this wire arrival belongs to (pins it if new)."""
        n = self.cluster.boards
        if n == 1:
            return 0
        h = flow_hash(packet)
        pinned = self.pins.get(h)
        if pinned is not None and self.live[pinned]:
            return pinned
        live = self.live_boards
        if not live:
            # every board is drained: keep the packet where it landed
            # rather than inventing a destination
            return self.board
        if self.cluster.affinity == "local":
            target = self.board if self.live[self.board] else live[h % len(live)]
        else:
            primary = h % n
            target = primary if self.live[primary] else live[h % len(live)]
        self.pins[h] = target
        return target
