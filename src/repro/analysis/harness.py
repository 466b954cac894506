"""Steady-state measurement: one window from counters to rates.

The artifact measures throughput by letting traffic flow "for a minute
to get a good average" and reading averaged byte counters (§6,
Artifact D).  The simulation equivalent is a single method: take a
*progress reading* of the board's host-visible counters (plain
integers), wait for completions to reach the warm-up target, keep that
reading as the base, wait for the measure target, and divide the
counter differences by the elapsed time.

Everything that turns counters into rates goes through this module:
:class:`~repro.serve.session.SimSession` measures one board's reading,
:class:`~repro.cluster.ClusterEngine` the per-board readings summed
(:func:`sum_readings` — integer until the final division, so a rack's
floats do not depend on how its boards are spread over processes), and
the periodic samplers and serve snapshots difference two readings with
:func:`window_rates`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, List

from ..sim.clock import Clock, max_effective_gbps
from ..sim.stats import Histogram

Reading = Dict[str, Any]

#: the integer fields of a reading (``rpu_packets`` is an int tuple)
_INT_FIELDS = (
    "completions",
    "tx_bytes",
    "tx_packets",
    "host_bytes",
    "host_packets",
    "absorbed_bytes",
    "rx_drops",
)


@dataclass
class ThroughputResult:
    """One steady-state measurement point."""

    packet_size: int
    offered_gbps: float
    achieved_gbps: float
    achieved_mpps: float
    line_rate_gbps: float
    rx_drops: int
    rpu_packet_counts: List[int] = field(default_factory=list)
    cycles_per_packet: float = 0.0

    @property
    def fraction_of_line(self) -> float:
        if self.line_rate_gbps == 0:
            return 0.0
        return min(1.0, self.achieved_gbps / self.line_rate_gbps)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ThroughputResult":
        return cls(**data)


# -- readings ----------------------------------------------------------------


def completions(system, include_host: bool = True) -> int:
    """Packets that left the board: MAC TX, plus the host link and
    firmware drops when ``include_host`` (so drop/punt middleboxes
    measure their full served rate)."""
    counters = system.counters
    done = counters["delivered"].value
    if include_host:
        done += counters["to_host"].value + counters["dropped_by_firmware"].value
    return done


def progress_reading(system, include_host: bool = True) -> Reading:
    """The board's cumulative progress counters.  Plain ints (and an
    int tuple), so a reading crosses a shard pipe exactly."""
    return {
        "completions": completions(system, include_host),
        "tx_bytes": sum(m.bytes_total for m in system.tx_meters),
        "tx_packets": sum(m.packets_total for m in system.tx_meters),
        "host_bytes": system.host_meter.bytes_total,
        "host_packets": system.host_meter.packets_total,
        "absorbed_bytes": sum(mac.counters.value("rx_bytes") for mac in system.macs),
        "rx_drops": system.total_rx_drops(),
        "rpu_packets": tuple(system.rpu_packet_counts()),
    }


def sum_readings(readings: Iterable[Reading]) -> Reading:
    """A rack's reading: counters summed, RPUs concatenated in order."""
    total: Reading = dict.fromkeys(_INT_FIELDS, 0)
    total["rpu_packets"] = ()
    for reading in readings:
        for key in _INT_FIELDS:
            total[key] += reading[key]
        total["rpu_packets"] += reading["rpu_packets"]
    return total


# -- readings to rates -------------------------------------------------------


def _gbps(n_bytes: int, seconds: float) -> float:
    return n_bytes * 8 / seconds / 1e9 if seconds > 0 else 0.0


def _mpps(n_packets: int, seconds: float) -> float:
    return n_packets / seconds / 1e6 if seconds > 0 else 0.0


def window_rates(
    base: Reading, final: Reading, elapsed_cycles: float, clock: Clock
) -> Dict[str, float]:
    """Wire and host-link rates between two readings (all zero over a
    zero-length window)."""
    seconds = clock.cycles_to_seconds(elapsed_cycles)
    return {
        "gbps": _gbps(final["tx_bytes"] - base["tx_bytes"], seconds),
        "mpps": _mpps(final["tx_packets"] - base["tx_packets"], seconds),
        "host_gbps": _gbps(final["host_bytes"] - base["host_bytes"], seconds),
    }


def throughput_result(
    base: Reading,
    final: Reading,
    elapsed_cycles: float,
    *,
    clock: Clock,
    packet_size: int,
    offered_gbps: float,
    n_rpus: int,
    measure_packets: int,
    include_host: bool = True,
    include_absorbed: bool = False,
) -> ThroughputResult:
    """The measurement point between a base and a final reading.

    ``include_host`` adds the host link to the wire; ``include_absorbed``
    instead reports what the MACs accepted (the host utility's "RX
    bytes" view for drop-type middleboxes) over ``measure_packets``.  A
    zero-length window — both phase transitions with no event in
    between — has undefined rates and reports zero.
    """
    seconds = clock.cycles_to_seconds(elapsed_cycles)
    n_bytes = final["tx_bytes"] - base["tx_bytes"]
    n_packets = final["tx_packets"] - base["tx_packets"]
    if include_host:
        n_bytes += final["host_bytes"] - base["host_bytes"]
        n_packets += final["host_packets"] - base["host_packets"]
    if include_absorbed:
        n_bytes = final["absorbed_bytes"] - base["absorbed_bytes"]
        n_packets = measure_packets
    achieved_mpps = _mpps(n_packets, seconds)
    cycles_per_packet = 0.0
    if achieved_mpps > 0:
        cycles_per_packet = n_rpus * clock.freq_hz / (achieved_mpps * 1e6)
    return ThroughputResult(
        packet_size=packet_size,
        offered_gbps=offered_gbps,
        achieved_gbps=_gbps(n_bytes, seconds),
        achieved_mpps=achieved_mpps,
        line_rate_gbps=max_effective_gbps(offered_gbps, packet_size),
        rx_drops=final["rx_drops"] - base["rx_drops"],
        rpu_packet_counts=[
            now - before
            for now, before in zip(final["rpu_packets"], base["rpu_packets"])
        ],
        cycles_per_packet=cycles_per_packet,
    )


# -- the phase machine -------------------------------------------------------


class MeasurementPhases:
    """``warmup`` -> ``measure`` -> ``done``, driven by a completions count.

    Model state only changes inside events (and fluid warps), so a
    caller that calls :meth:`pump` after each one sees every transition
    on the event that caused it, however it chunks its stepping.
    """

    mode = ""

    def __init__(self, window, now: Callable[[], float], completions: Callable[[], int]) -> None:
        self.window = window
        self.now = now
        self.completions = completions
        #: a run still short of its target past this time has stalled
        self.deadline = now() + window.max_cycles
        self.phase = "warmup"
        self.result: Any = None

    @property
    def done(self) -> bool:
        return self.phase == "done"

    def target(self) -> int:
        if self.phase == "warmup":
            return self.window.warmup_packets
        return self.window.warmup_packets + self.window.measure_packets

    def pump(self) -> None:
        """Run every phase transition whose target has been reached."""
        while self.phase != "done" and self.completions() >= self.target():
            if self.phase == "warmup":
                self._begin_measure()
                self.phase = "measure"
            else:
                self._finish()
                self.phase = "done"

    def status(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"mode": self.mode, "phase": self.phase}
        if not self.done:
            out["completions"] = self.completions()
            out["target"] = self.target()
        return out

    # front door: error path; a run that stalls short of its target
    def stall_message(self) -> str:
        return (
            f"{self.mode} run stalled in phase {self.phase!r} at "
            f"{self.completions()} completions (target {self.target()})"
        )


class ThroughputMeasurement(MeasurementPhases):
    """Steady-state rates over the measure window of ``read()``'s
    readings; ``rates`` are :func:`throughput_result`'s keyword
    arguments other than ``measure_packets``."""

    mode = "throughput"

    def __init__(self, window, now, read: Callable[[], Reading], completions, **rates) -> None:
        super().__init__(window, now, completions)
        self.read = read
        self.rates = rates
        self.t0 = 0.0
        self.base: Reading = {}

    @classmethod
    def for_system(
        cls,
        system,
        window,
        packet_size: int,
        offered_gbps: float,
        include_host: bool = True,
        include_absorbed: bool = False,
    ) -> "ThroughputMeasurement":
        """Measure one board from its own counters and clock."""
        return cls(
            window,
            lambda: system.sim.now,
            partial(progress_reading, system, include_host),
            partial(completions, system, include_host),
            clock=system.config.clock,
            packet_size=packet_size,
            offered_gbps=offered_gbps,
            n_rpus=system.config.n_rpus,
            include_host=include_host,
            include_absorbed=include_absorbed,
        )

    def _begin_measure(self) -> None:
        self.t0 = self.now()
        self.base = self.read()

    def _finish(self) -> None:
        self.result = throughput_result(
            self.base,
            self.read(),
            self.now() - self.t0,
            measure_packets=self.window.measure_packets,
            **self.rates,
        )


class LatencyMeasurement(MeasurementPhases):
    """Forwarding latency of the packets delivered in the measure
    window, collected by swapping the system's histogram."""

    mode = "latency"

    def __init__(self, system, window) -> None:
        super().__init__(
            window, lambda: system.sim.now, lambda: system.counters.value("delivered")
        )
        self.system = system

    def _begin_measure(self) -> None:
        self.result = Histogram("latency_us")
        self._original = self.system.latency_us
        self.system.latency_us = self.result

    def _finish(self) -> None:
        self.system.latency_us = self._original
