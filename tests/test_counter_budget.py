"""Ratchet on the datapath's counter work.

The packet path keeps only the counters a reporter reads (host status
blocks, snapshots, result documents, the fluid ledger).  A write-only
counter brought back would show up here as extra ``Counter.add``
calls per packet (every increment ends there: the hot sites call their
bound cells, and ``CounterSet.add`` delegates), and a float
accumulator as a float ledger cell.  The measurement that reads the
counters is held to a budget too: it pumps per phase, not per event.
"""

from repro import ExperimentSpec, MeasurementWindow, SimSession, TrafficProfile
from repro.analysis.harness import MeasurementPhases
from repro.core import RosebudConfig
from repro.sim.stats import Counter

#: MAC rx_frames/rx_bytes/tx_frames/tx_bytes, RPU packets/sw_cycles and
#: the system's delivered: seven increments per forwarded packet
MAX_ADDS_PER_PACKET = 7.1


def _forwarder_spec(fidelity="event", gbps=100.0, size=512, measure=600):
    return ExperimentSpec(
        config=RosebudConfig(n_rpus=8),
        traffic=TrafficProfile(packet_size=size, offered_gbps=gbps),
        window=MeasurementWindow(warmup_packets=200, measure_packets=measure),
        fidelity=fidelity,
    )


def test_counter_adds_per_delivered_packet(monkeypatch):
    calls = [0]
    add = Counter.add

    def counting_add(self, amount=1):
        calls[0] += 1
        add(self, amount)

    monkeypatch.setattr(Counter, "add", counting_add)
    result = SimSession(_forwarder_spec()).run_to_completion()
    delivered = result.counters["delivered"]
    assert delivered >= 800
    assert calls[0] > 0
    assert calls[0] / delivered <= MAX_ADDS_PER_PACKET


def test_measurement_pumps_per_phase_not_per_event(monkeypatch):
    # the completion cells stop the run at each phase target, so a
    # step pumps once up front and once per stop, never per event
    calls = {"pump": 0, "step": 0}
    pump, step = MeasurementPhases.pump, SimSession.step

    def counting_pump(self):
        calls["pump"] += 1
        pump(self)

    def counting_step(self, *args, **kwargs):
        calls["step"] += 1
        return step(self, *args, **kwargs)

    monkeypatch.setattr(MeasurementPhases, "pump", counting_pump)
    monkeypatch.setattr(SimSession, "step", counting_step)
    session = SimSession(_forwarder_spec())
    session.run_to_completion()
    assert session.sim.events_processed >= 1_000 * calls["pump"]
    assert calls["pump"] <= calls["step"] + 3


def test_fluid_ledger_holds_only_integers():
    session = SimSession(
        _forwarder_spec(fidelity="fluid", gbps=200.0, size=256, measure=20_000)
    )
    session.run_to_completion()
    engine = session._fluid
    assert engine.warps > 0
    assert not hasattr(engine, "_float_cells")
    assert all(type(getattr(obj, attr)) is int for _l, obj, attr in engine._int_cells)
