"""Ratchet on the IPS datapath's recomputation.

Flow packets arrive with their parse seeded from the flow's template,
and the Pigasus matcher memoises search by payload content.  A return
to per-packet parsing shows up here as lazy ``Packet._parse`` calls on
flow packets, and a return to per-packet scanning as matcher misses
beyond the number of distinct payloads scanned.
"""

from repro import ExperimentSpec, MeasurementWindow, SimSession, TrafficProfile
from repro.accel.pigasus import PigasusStringMatcher, generate_ruleset, parse_rules
from repro.core import RosebudConfig
from repro.firmware import PigasusHwReorderFirmware
from repro.packet import Packet


def _ips_spec():
    rules = parse_rules(generate_ruleset(120, seed=3))
    return ExperimentSpec(
        config=RosebudConfig(n_rpus=8, slots_per_rpu=32),
        firmware=PigasusHwReorderFirmware,
        firmware_args=(rules,),
        traffic=TrafficProfile(
            packet_size=512,
            offered_gbps=200.0,
            n_ports=2,
            source="flows",
            seed_base=3,
            respect_generator_cap=False,
            source_kwargs={
                "attack_fraction": 0.05,
                "attack_payloads": tuple(r.content for r in rules),
                "reorder_fraction": 0.01,
                "n_flows": 256,
            },
        ),
        window=MeasurementWindow(warmup_packets=200, measure_packets=600),
    )


def test_flow_packets_are_parsed_once_and_scanned_by_content(monkeypatch):
    lazy_parses = [0]
    parse = Packet._parse

    def counting_parse(self):
        if self.flow_id is not None:
            lazy_parses[0] += 1
        return parse(self)

    payloads = set()
    matchers = {}
    scan = PigasusStringMatcher.scan

    def recording_scan(self, payload, *args, **kwargs):
        payloads.add(bytes(payload))
        matchers[id(self)] = self
        return scan(self, payload, *args, **kwargs)

    monkeypatch.setattr(Packet, "_parse", counting_parse)
    monkeypatch.setattr(PigasusStringMatcher, "scan", recording_scan)
    result = SimSession(_ips_spec()).run_to_completion()

    assert result.counters["delivered"] >= 700
    assert lazy_parses[0] == 0
    scanned = sum(m.packets_scanned for m in matchers.values())
    misses = sum(m._automaton.memo_misses for m in matchers.values())
    hits = sum(m._automaton.memo_hits for m in matchers.values())
    assert scanned >= 700 and misses + hits == scanned
    assert misses <= len(payloads)
