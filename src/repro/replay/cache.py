"""The instruction-level replay cache: a per-CPU store of packet brackets."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from .record import ReplayRecord
from .stats import ReplayStats


class ReplayCache:
    """Instruction-level record store for :class:`~repro.core.funcsim.FunctionalRpu`.

    Keys are ``(class signature, ingress port, slot tag)``; the class
    signature promises byte-identical frame contents, the tag pins the
    packet slot (records capture absolute slot addresses).  Each key
    holds a short list of start-state variants: one per start pc,
    live-in register values and CSRs the bracket was recorded from.

    A key whose bracket drove an accelerator with no replay token goes
    into :attr:`refused`: its later packets run without recording, as
    those of a key full of variants do.

    The cache is **per CPU**: records embed the CPU's code-epoch
    counter, and any epoch change (firmware reload, self-modifying
    code) flushes the whole store, refusals included, on the next
    lookup.  Do not share one instance between cores — share a
    :class:`ReplayStats` instead.
    """

    def __init__(
        self,
        stats: Optional[ReplayStats] = None,
        max_records: int = 8192,
        max_variants: int = 4,
    ) -> None:
        self.stats = stats if stats is not None else ReplayStats()
        self.max_records = max_records
        self.max_variants = max_variants
        self._records: Dict[Any, List[ReplayRecord]] = {}
        #: keys whose brackets drive an accelerator with no replay token
        self.refused: Set[Any] = set()
        self._size = 0
        self._code_epoch: Optional[int] = None

    def lookup(self, key: Any, code_epoch: int) -> Sequence[ReplayRecord]:
        """Candidate records for ``key``, flushing first if the code
        epoch moved (stale decode ⇒ every record is suspect)."""
        if code_epoch != self._code_epoch:
            if self._records or self.refused:
                self._records.clear()
                self.refused.clear()
                self._size = 0
                self.stats.invalidations += 1
            self._code_epoch = code_epoch
        return self._records.get(key, ())

    def store(self, key: Any, record: ReplayRecord) -> None:
        """Retain ``record`` under ``key`` unless the store or the key is
        full.  Records are never evicted individually: a full cache just
        keeps serving what it has."""
        if self._size >= self.max_records:
            return
        variants = self._records.setdefault(key, [])
        if len(variants) < self.max_variants:
            variants.append(record)
            self._size += 1
