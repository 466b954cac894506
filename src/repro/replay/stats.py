"""Hit/miss accounting for the replay cache."""

from __future__ import annotations

from typing import Dict


class ReplayStats:
    """Counters proving what the cache did.

    * ``hits`` — packets applied from a record without executing.
    * ``misses`` — no record for the key yet; real execution recorded.
    * ``fallbacks`` — a record existed but its guard failed (start
      state, read set, or accelerator token diverged); real execution.
    * ``bypasses`` — caching declined up front (no class signature, or
      a record marked non-replayable).
    * ``invalidations`` — whole-store flushes on a code-epoch change
      (firmware reload, self-modifying code).
    """

    __slots__ = ("hits", "misses", "fallbacks", "bypasses", "invalidations")

    FIELDS = ("hits", "misses", "fallbacks", "bypasses", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0
        self.bypasses = 0
        self.invalidations = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def delta(self, base: Dict[str, int]) -> Dict[str, int]:
        """Counters accumulated since ``base`` (a prior snapshot)."""
        return {name: getattr(self, name) - base.get(name, 0) for name in self.FIELDS}