"""Ratchet on the datapath's counter work.

The packet path keeps only the counters a reporter reads (host status
blocks, snapshots, result documents, the fluid ledger).  A write-only
counter brought back would show up here as extra ``CounterSet.add``
calls per packet, and a float accumulator as a float ledger cell.
"""

from repro import ExperimentSpec, MeasurementWindow, SimSession, TrafficProfile
from repro.core import RosebudConfig
from repro.sim.stats import CounterSet

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
    add = CounterSet.add

    def counting_add(self, name, amount=1):
        calls[0] += 1
        add(self, name, amount)

    monkeypatch.setattr(CounterSet, "add", counting_add)
    result = SimSession(_forwarder_spec()).run_to_completion()
    delivered = result.counters["delivered"]
    assert delivered >= 800
    assert calls[0] / delivered <= MAX_ADDS_PER_PACKET


def test_fluid_ledger_holds_only_integers():
    session = SimSession(
        _forwarder_spec(fidelity="fluid", gbps=200.0, size=256, measure=20_000)
    )
    session.run_to_completion()
    engine = session._fluid
    assert engine.warps > 0
    assert not hasattr(engine, "_float_cells")
    assert all(type(getattr(obj, attr)) is int for _l, obj, attr in engine._int_cells)
