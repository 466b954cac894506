"""Measurement primitives: counters, rate meters, histograms.

These mirror the status counters Rosebud exposes to the host (bytes,
frames, drops, stalled cycles per interface and per RPU, §4.3) plus the
latency-sampling machinery the evaluation uses (§6.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


class Counter:
    """A monotonically increasing event counter; ``watch``, when set, is
    called after every increment (a session's measurement arms it)."""

    __slots__ = ("name", "value", "watch")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value
        self.watch: Optional[Callable[[], None]] = None

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount
        if self.watch is not None:
            self.watch()


class CounterSet:
    """A named group of counters, like one interface's status block."""

    def __init__(self, names: Optional[List[str]] = None) -> None:
        self._counters: Dict[str, Counter] = {}
        for name in names or []:
            self._counters[name] = Counter(name)

    def __getitem__(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def add(self, name: str, amount: int = 1) -> None:
        self[name].add(amount)

    def value(self, name: str) -> int:
        return self[name].value

    def snapshot(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}


class Histogram:
    """A streaming histogram with exact percentile support.

    Stores raw samples; fine for the 1e4–1e6 sample counts our runs use.
    The fluid fast-forward tier extrapolates whole steady-state periods
    at once, so bulk repetitions go through :meth:`record_repeated`,
    which keeps them as weighted groups instead of materializing
    ``len(values) * repeat`` floats; every statistic accounts for the
    weights exactly (nearest-rank percentiles over the weighted
    distribution).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted = True
        #: weighted groups from record_repeated: (values, repeat)
        self._bulk: List[tuple] = []

    def record(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = False

    def record_repeated(self, values, repeat: int) -> None:
        """Record every value in ``values``, ``repeat`` times each.

        Equivalent to ``repeat`` rounds of :meth:`record` over
        ``values`` for all statistics, at O(len(values)) memory.
        """
        if repeat < 0:
            raise ValueError("repeat must be non-negative")
        if repeat == 0 or not values:
            return
        self._bulk.append((tuple(values), int(repeat)))

    @property
    def raw_count(self) -> int:
        """Individually recorded samples only (excludes weighted bulk)."""
        return len(self._samples)

    def samples_tail(self, start: int) -> List[float]:
        """Copy of the individually recorded samples from index ``start``
        on, in record order (valid until someone asks for a percentile,
        which sorts in place)."""
        return list(self._samples[start:])

    @property
    def count(self) -> int:
        return len(self._samples) + sum(len(v) * r for v, r in self._bulk)

    @property
    def mean(self) -> float:
        total = self.count
        if total == 0:
            return 0.0
        acc = sum(self._samples)
        for values, repeat in self._bulk:
            acc += sum(values) * repeat
        return acc / total

    @property
    def minimum(self) -> float:
        candidates = []
        if self._samples:
            candidates.append(min(self._samples))
        candidates.extend(min(v) for v, _r in self._bulk)
        return min(candidates) if candidates else 0.0

    @property
    def maximum(self) -> float:
        candidates = []
        if self._samples:
            candidates.append(max(self._samples))
        candidates.extend(max(v) for v, _r in self._bulk)
        return max(candidates) if candidates else 0.0

    def percentile(self, pct: float) -> float:
        """Exact percentile by nearest-rank on the (weighted) samples."""
        total = self.count
        if total == 0:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        rank = max(0, math.ceil(pct / 100.0 * total) - 1)
        if not self._bulk:
            return self._samples[rank]
        weighted = [(v, 1) for v in self._samples]
        for values, repeat in self._bulk:
            weighted.extend((v, repeat) for v in values)
        weighted.sort(key=lambda pair: pair[0])
        cumulative = 0
        for value, weight in weighted:
            cumulative += weight
            if cumulative > rank:
                return value
        return weighted[-1][0]

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.maximum,
        }


@dataclass
class RateMeter:
    """Running byte/packet totals for one egress (the artifact's "RX
    bytes" counters); rates over a window are differenced from these by
    ``analysis.harness``."""

    bytes_total: int = 0
    packets_total: int = 0

    def record_packet(self, nbytes: int) -> None:
        self.bytes_total += nbytes
        self.packets_total += 1
