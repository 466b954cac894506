"""Full-Rosebud functional simulation (Appendix A.4).

The paper's testbench offers "both options of single RPU or full
Rosebud simulation, the latter being more complete but also more
time-consuming".  :class:`FunctionalCluster` is the full option over our
substrates: N instruction-set-simulated RPUs behind a slot-aware
round-robin distribution, with egress collection per destination —
useful for validating multi-RPU firmware interactions functionally,
with every core really executing its instructions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..accel.base import Accelerator
from ..replay import ReplayCache, ReplayStats
from .config import RosebudConfig
from .funcsim import FunctionalRpu, SentPacket


class ClusterError(RuntimeError):
    """Raised on cluster-level protocol problems (no free slot, budget)."""


class FunctionalCluster:
    """N functional RPUs + a slot-aware round-robin distribution.

    Each RPU owns its slot credits (:attr:`FunctionalRpu.in_flight`);
    the round robin skips an RPU with none left.  ``replay_cache=True``
    attaches a per-core :class:`~repro.replay.ReplayCache` (one shared
    :class:`~repro.replay.ReplayStats`, available as
    ``cluster.replay_stats``), so :meth:`run_until_all_sent` replays
    brackets it has recorded.
    """

    def __init__(
        self,
        n_rpus: int,
        firmware_asm: str,
        accelerator_factory: Optional[Callable[[], Accelerator]] = None,
        config: Optional[RosebudConfig] = None,
        cpu_backend: Optional[str] = None,
        replay_cache: bool = False,
    ) -> None:
        self.config = config or RosebudConfig(n_rpus=n_rpus)
        self.replay_stats: Optional[ReplayStats] = ReplayStats() if replay_cache else None
        self.rpus: List[FunctionalRpu] = []
        for index in range(n_rpus):
            accel = accelerator_factory() if accelerator_factory else None
            rpu = FunctionalRpu(
                firmware_asm,
                accelerator=accel,
                config=self.config,
                cpu_backend=cpu_backend,
            )
            rpu.cpu.hartid = index
            if replay_cache:
                rpu.attach_replay_cache(ReplayCache(stats=self.replay_stats))
            self.rpus.append(rpu)
        self._rr_next = 0

    # -- distribution -------------------------------------------------------------

    def push_packet(self, data: bytes, port: int = 0, class_key=None) -> int:
        """Hand one packet to the next RPU with a free slot; returns its index."""
        n = len(self.rpus)
        slots = self.config.slots_per_rpu
        for offset in range(n):
            index = (self._rr_next + offset) % n
            rpu = self.rpus[index]
            if rpu.in_flight < slots:
                self._rr_next = (index + 1) % n
                rpu.push_packet(data, port, class_key=class_key)
                return index
        raise ClusterError("all RPUs out of slots")

    # -- execution ------------------------------------------------------------------

    def total_sent(self) -> int:
        return sum(len(rpu.sent) for rpu in self.rpus)

    def run_until_all_sent(self, max_instructions_per_rpu: int = 2_000_000) -> None:
        """Step every RPU through its in-flight packets, one bracket each.

        Cores share nothing, so draining them one after another leaves
        the same per-core state as interleaving them.
        """
        for index, rpu in enumerate(self.rpus):
            cpu = rpu.cpu
            left = max_instructions_per_rpu
            for _ in range(rpu.in_flight):
                if left <= 0:
                    raise ClusterError(f"RPU {index} exceeded instruction budget")
                before = cpu.instret
                rpu.step_packet(max_instructions=left)
                left -= max(1, cpu.instret - before)

    # -- results ----------------------------------------------------------------------

    def sent_by_port(self) -> Dict[int, List[SentPacket]]:
        out: Dict[int, List[SentPacket]] = {}
        for rpu in self.rpus:
            for sent in rpu.sent:
                out.setdefault(sent.port, []).append(sent)
        return out

    def per_rpu_counts(self) -> List[int]:
        return [len(rpu.sent) for rpu in self.rpus]
