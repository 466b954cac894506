"""Periodic rate sampling — the artifact's status-table view.

The host utility prints a status table while traffic flows ("wait for
the packets to flow for a minute... the last print of the status table
is the average values").  :class:`StatsSampler` records the same rates
on a fixed simulated interval so tests can assert *time-series*
properties, e.g. that throughput does not dip while an RPU is being
reconfigured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .system import RosebudSystem


@dataclass
class Sample:
    """One interval's rates."""

    t_start_cycles: float
    t_end_cycles: float
    gbps: float
    mpps: float
    rx_drops: int
    host_gbps: float


class StatsSampler:
    """Samples delivered throughput every ``interval_cycles``."""

    def __init__(self, system: RosebudSystem, interval_cycles: float = 25_000) -> None:
        self.system = system
        self.interval_cycles = interval_cycles
        self.samples: List[Sample] = []
        self._running = False
        #: (time, progress reading) at the start of the current interval
        self._last = None

    def start(self) -> None:
        if self._running:
            raise RuntimeError("sampler already started")
        self._running = True
        self._last = None
        self._tick()

    def _tick(self) -> None:
        # repro.analysis builds on repro.core, so not a module-level import
        from ..analysis.harness import progress_reading, window_rates

        system = self.system
        now = system.sim.now
        reading = progress_reading(system)
        if self._last is not None and now > self._last[0]:
            t0, base = self._last
            self.samples.append(
                Sample(
                    t_start_cycles=t0,
                    t_end_cycles=now,
                    rx_drops=reading["rx_drops"] - base["rx_drops"],
                    **window_rates(base, reading, now - t0, system.config.clock),
                )
            )
        self._last = (now, reading)
        if self._running:
            system.sim.schedule(self.interval_cycles, self._tick, name="sampler")

    def stop(self) -> None:
        self._running = False

    # -- analysis helpers ------------------------------------------------------------

    def steady_samples(self, skip: int = 1) -> List[Sample]:
        """Samples after a warmup prefix (and before the cooldown tail
        if traffic has a fixed packet count)."""
        return self.samples[skip:]

    def min_gbps(self, skip: int = 1) -> float:
        steady = self.steady_samples(skip)
        return min(s.gbps for s in steady) if steady else 0.0

    def mean_gbps(self, skip: int = 1) -> float:
        steady = self.steady_samples(skip)
        if not steady:
            return 0.0
        return sum(s.gbps for s in steady) / len(steady)

    def dip_fraction(self, skip: int = 1) -> float:
        """Worst-interval throughput relative to the mean — 1.0 means
        perfectly flat; the no-pause reconfiguration claim is that this
        stays near 1 during an RPU reload."""
        mean = self.mean_gbps(skip)
        if mean == 0:
            return 0.0
        return self.min_gbps(skip) / mean
