"""Property tests for :meth:`SimSession.snapshot` telemetry.

Two invariants must hold regardless of how a client chops up the
simulation into ``step()`` calls (live dashboards poll with arbitrary
cadence, scripts mix event/cycle/deadline bounds):

* **monotonicity** — cumulative counters, drop taxonomy entries,
  ``events_processed`` and the clock never go backwards between
  snapshots;
* **conservation** — every packet a source emitted is accounted for:
  once the system drains, emissions equal deliveries + host punts +
  firmware drops + MAC rx drops.

The schedules are seeded-random so failures reproduce exactly, and the
same seeds drive a finite workload to a drained end state for the
conservation check.  Also holds the session-level zero-duration
window cases (the arithmetic itself is unit-tested in
``test_analysis_harness.py``).
"""

import random

import pytest

from repro.analysis.spec import ExperimentSpec, MeasurementWindow, TrafficProfile
from repro.core import RosebudConfig, RosebudSystem
from repro.firmware import ForwarderFirmware
from repro.serve.session import SimSession
from repro.traffic import FixedSizeSource

from .conftest import next_time

N_PACKETS_PER_PORT = 2_000

#: snapshot fields that must never decrease between successive polls
_MONOTONE_TOP = ("seq", "now_cycles", "events_processed")


def _finite_session(seed):
    system = RosebudSystem(RosebudConfig(n_rpus=8), ForwarderFirmware())
    sources = [
        FixedSizeSource(
            system, p, 50.0, 512, n_packets=N_PACKETS_PER_PORT, seed=seed + p
        )
        for p in range(2)
    ]
    return SimSession.for_system(system, sources), sources


def _random_schedule(session, seed, max_chunks=200):
    """Step with a seeded-random mix of bounds, snapshotting as we go."""
    rng = random.Random(seed)
    snaps = [session.snapshot()]
    for _ in range(max_chunks):
        kind = rng.randrange(3)
        if kind == 0:
            session.step(n_events=rng.randrange(1, 400))
        elif kind == 1:
            session.step(cycles=float(rng.randrange(1, 2_000)))
        else:
            session.step(until_ts=session.sim.now + rng.randrange(1, 5_000))
        snaps.append(session.snapshot())
        if next_time(session.sim) is None:
            break
    # drain whatever is left so conservation can be checked exactly
    while next_time(session.sim) is not None:
        session.step(n_events=10_000)
    snaps.append(session.snapshot())
    return snaps


@pytest.mark.parametrize("seed", [1, 7, 42, 1337])
class TestRandomChunking:
    def test_counters_monotone(self, seed):
        session, _ = _finite_session(seed)
        snaps = _random_schedule(session, seed)
        assert len(snaps) >= 3  # the schedule actually interleaved
        for prev, cur in zip(snaps, snaps[1:]):
            for key in _MONOTONE_TOP:
                assert cur[key] >= prev[key], key
            for name, value in prev["counters"].items():
                assert cur["counters"][name] >= value, name
            for name, value in prev["drops"].items():
                assert cur["drops"][name] >= value, name
            assert cur["lb"]["dispatched"] >= prev["lb"]["dispatched"]

    def test_drop_taxonomy_conservation(self, seed):
        session, sources = _finite_session(seed)
        snaps = _random_schedule(session, seed)
        final = snaps[-1]
        sent = sum(src.sent for src in sources)
        assert sent == 2 * N_PACKETS_PER_PORT  # finite sources ran dry
        counters = final["counters"]
        drops = final["drops"]
        accounted = (
            counters["delivered"]
            + counters["to_host"]
            + counters["dropped_by_firmware"]
            + drops["rx_overflow"]
        )
        assert accounted == sent
        # nothing still queued once drained
        assert sum(final["queues"]["mac_rx_backlog"]) == 0
        assert sum(final["queues"]["rpu_in_flight"]) == 0

    def test_intermediate_snapshots_never_overcount(self, seed):
        # mid-run, the accounted total can lag emissions (packets in
        # flight) but must never exceed them
        session, sources = _finite_session(seed)
        for snap in _random_schedule(session, seed):
            sent = sum(src.sent for src in sources)
            accounted = (
                snap["counters"]["delivered"]
                + snap["counters"]["to_host"]
                + snap["counters"]["dropped_by_firmware"]
                + snap["drops"]["rx_overflow"]
            )
            assert accounted <= sent


class TestZeroDurationRates:
    """A measurement window that opens and closes on the same cycle
    (both phase transitions in one pump) reports zero rates."""

    def test_empty_measure_window_reports_zero_rates(self):
        spec = ExperimentSpec(
            traffic=TrafficProfile(packet_size=512, offered_gbps=100.0, n_ports=2),
            window=MeasurementWindow(warmup_packets=200, measure_packets=0),
        )
        result = SimSession(spec).run_to_completion()
        assert result.throughput.achieved_gbps == 0.0
        assert result.throughput.achieved_mpps == 0.0

    def test_back_to_back_snapshots_guard_rate_division(self):
        # two polls on the same cycle: the rate window has zero duration
        # and the snapshot must report 0.0, not divide by it
        session, _ = _finite_session(3)
        session.step(n_events=500)
        session.snapshot()
        snap = session.snapshot()
        assert snap["rates"] == {"tx_gbps": 0.0, "tx_mpps": 0.0, "host_gbps": 0.0}
