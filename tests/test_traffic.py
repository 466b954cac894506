"""Tests for workload generation: sources, flows, attack traces."""

import pytest

from repro.accel import generate_blacklist, parse_blacklist, IpBlacklistMatcher
from repro.accel.pigasus import generate_ruleset, parse_rules, PigasusStringMatcher
from repro.core import RosebudConfig, RosebudSystem
from repro.firmware import ForwarderFirmware
from repro.packet import EthernetHeader, IPv4Header, Packet, TCPHeader
from repro.traffic import (
    FixedSizeSource,
    FlowTrafficSource,
    ReplaySource,
    attack_trace_from_rules,
    firewall_trace,
)


def _system(**kwargs):
    return RosebudSystem(RosebudConfig(n_rpus=16, **kwargs), ForwarderFirmware())


class TestFixedSizeSource:
    def test_emits_requested_count(self):
        system = _system()
        source = FixedSizeSource(system, 0, 10.0, 256, n_packets=25)
        source.start()
        system.sim.run()
        assert source.sent == 25
        assert system.counters.value("delivered") == 25

    def test_all_packets_requested_size(self):
        system = _system()
        delivered = []
        system.on_delivery = delivered.append
        source = FixedSizeSource(system, 0, 10.0, 512, n_packets=10)
        source.start()
        system.sim.run()
        assert all(p.size == 512 for p in delivered)

    def test_offered_rate_paces_arrivals(self):
        system = _system()
        source = FixedSizeSource(system, 0, 50.0, 1024, n_packets=100)
        source.start()
        system.sim.run()
        # 100 packets of 1048 wire bytes at 50 Gbps = 16.77 us = 4193 cycles
        # (plus drain time through the pipeline)
        elapsed_us = system.config.clock.cycles_to_us(system.sim.now)
        assert 16.0 < elapsed_us < 25.0

    def test_generator_cap_enforced(self):
        system = _system()
        capped = FixedSizeSource(system, 0, 100.0, 64, n_packets=100)
        assert capped.interarrival_cycles(
            __import__("repro.packet", fromlist=["build_raw"]).build_raw(64)
        ) == pytest.approx(2.0)

    def test_uncapped_runs_at_line_rate(self):
        system = _system()
        source = FixedSizeSource(
            system, 0, 100.0, 64, n_packets=10, respect_generator_cap=False
        )
        from repro.packet import build_raw

        assert source.interarrival_cycles(build_raw(64)) == pytest.approx(1.76)

    def test_distinct_flows(self):
        system = _system()
        source = FixedSizeSource(system, 0, 10.0, 128, n_flows=8, n_packets=8)
        tuples = {source.next_packet().five_tuple for _ in range(8)}
        assert len(tuples) == 8

    def test_cannot_start_twice(self):
        system = _system()
        source = FixedSizeSource(system, 0, 10.0, 128, n_packets=1)
        source.start()
        with pytest.raises(RuntimeError):
            source.start()


class TestFlowTrafficSource:
    @pytest.fixture(scope="class")
    def rules(self):
        return parse_rules(generate_ruleset(40))

    def _source(self, rules, **kwargs):
        system = _system()
        defaults = dict(
            attack_fraction=0.1,
            attack_payloads=[r.content for r in rules],
            reorder_fraction=0.1,
            n_flows=16,
            seed=42,
        )
        defaults.update(kwargs)
        return FlowTrafficSource(system, 0, 10.0, 512, **defaults)

    def test_sequence_numbers_advance_per_flow(self, rules):
        source = self._source(rules, reorder_fraction=0.0, attack_fraction=0.0)
        packets = [source.next_packet() for _ in range(200)]
        by_flow = {}
        for pkt in packets:
            by_flow.setdefault(pkt.flow_id, []).append(pkt.parsed.tcp.seq)
        for seqs in by_flow.values():
            assert seqs == sorted(seqs)
            # consecutive packets differ by the payload length
            for a, b in zip(seqs, seqs[1:]):
                assert b - a == 512 - 54

    def test_attack_fraction_respected(self, rules):
        source = self._source(rules, attack_fraction=0.25, reorder_fraction=0.0)
        packets = [source.next_packet() for _ in range(2000)]
        frac = sum(p.is_attack for p in packets) / len(packets)
        assert 0.2 < frac < 0.3

    def test_attack_packets_contain_pattern(self, rules):
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules)
        source = self._source(rules, attack_fraction=1.0, reorder_fraction=0.0)
        for _ in range(20):
            pkt = source.next_packet()
            hits = matcher.scan(pkt.payload, "tcp",
                                pkt.parsed.tcp.src_port, pkt.parsed.tcp.dst_port)
            # pattern embedded; port group may or may not admit it, so
            # check the raw payload too
            assert hits or any(r.content in pkt.payload for r in rules)

    def test_reordering_swaps_adjacent(self, rules):
        source = self._source(rules, attack_fraction=0.0, reorder_fraction=1.0, n_flows=1)
        packets = [source.next_packet() for _ in range(10)]
        seqs = [p.parsed.tcp.seq for p in packets]
        # every pair is swapped: seq[1] < seq[0], seq[3] < seq[2], ...
        for i in range(0, 10, 2):
            assert seqs[i + 1] < seqs[i]

    def test_reorder_counter(self, rules):
        source = self._source(rules, reorder_fraction=0.5, attack_fraction=0.0)
        for _ in range(200):
            source.next_packet()
        assert source.reordered > 50

    def test_attack_without_payloads_rejected(self, rules):
        with pytest.raises(ValueError):
            self._source(rules, attack_payloads=[], attack_fraction=0.5)

    def test_tiny_packets_rejected(self, rules):
        system = _system()
        with pytest.raises(ValueError):
            FlowTrafficSource(system, 0, 10.0, 60,
                              attack_payloads=[b"abcd"], attack_fraction=0.1)


class TestFlowFrames:
    """Flow packets are minted from per-flow templates with a seeded
    parse; both must equal what the header classes and the lazy parse
    produce."""

    SIZE = 200

    @staticmethod
    def _reference(pkt, src_ip):
        payload = pkt.data[54:]
        tcp = pkt.parsed.tcp
        eth = EthernetHeader(dst="02:00:00:00:00:02", src="02:00:00:00:00:01").pack()
        ip = IPv4Header(src=src_ip, dst="10.201.0.1", total_length=len(pkt.data) - 14)
        seg = TCPHeader(src_port=tcp.src_port, dst_port=tcp.dst_port, seq=pkt.seq_index)
        return eth + ip.pack() + seg.pack_with_checksum(src_ip, "10.201.0.1", payload)

    def _packets(self, n=600, start_seq=1, size=SIZE, **kwargs):
        system = _system()
        patterns = [b"ab", b"evil-pattern", b"L" * (size - 54 + 9)]
        defaults = dict(attack_fraction=0.4, attack_payloads=patterns,
                        reorder_fraction=0.2, n_flows=5, seed=11)
        defaults.update(kwargs)
        source = FlowTrafficSource(system, 1, 10.0, size, **defaults)
        for flow in source.flows:
            flow.seq = start_seq
        return source, [source.next_packet() for _ in range(n)]

    def _expected_payload(self, pkt, patterns, size):
        room = size - 54
        if not pkt.is_attack:
            return [b"s" * room]
        bodies = []
        for pattern in patterns:
            body = (b"x" + pattern + b"A" * max(0, room - len(pattern) - 2))[:room]
            bodies.append(body + b"\x00" * (room - len(body)))
        return bodies

    @pytest.mark.parametrize("start_seq", [1, 2**32 - 1000])
    def test_frames_equal_header_reference(self, start_seq):
        source, packets = self._packets(start_seq=start_seq)
        assert source.attack_sent > 100 and source.reordered > 50
        src_ip = {flow.flow_id: flow.src_ip for flow in source.flows}
        wrapped = 0
        for pkt in packets:
            assert pkt.data == self._reference(pkt, src_ip[pkt.flow_id])
            assert pkt.data[54:] in self._expected_payload(pkt, source.attack_payloads, self.SIZE)
            assert pkt.parsed.tcp.seq == pkt.seq_index % 2**32
            wrapped += pkt.seq_index >= 2**32
            assert pkt.class_key is None
        assert wrapped > 0 if start_seq > 1 else wrapped == 0

    @pytest.mark.parametrize("size", [62, 93, 512])
    def test_seeded_parse_equals_lazy_parse(self, size):
        _source, packets = self._packets(size=size, n=300)
        for pkt in packets:
            assert pkt._parsed is not None
            assert pkt._parsed == Packet(pkt.data)._parse()
            assert pkt.payload == pkt.data[54:]

    def test_attack_packets_advance_seq_by_segment_length(self):
        """The next packet of a flow starts where the previous segment
        ended on the wire, attack payloads (one byte short, zero-padded)
        included, so in-order traffic shows no sequence gaps."""
        _source, packets = self._packets(n=400, attack_fraction=0.5, reorder_fraction=0.0)
        last = {}
        for pkt in packets:
            if pkt.flow_id in last:
                assert pkt.seq_index - last[pkt.flow_id] == self.SIZE - 54
            last[pkt.flow_id] = pkt.seq_index


class TestAttackTraces:
    def test_rule_trace_one_packet_per_rule(self):
        rules = parse_rules(generate_ruleset(30))
        trace = attack_trace_from_rules(rules, packet_size=512, safe_packets=4)
        assert len(trace) == 34
        assert sum(p.is_attack for p in trace) == 30

    def test_rule_trace_packets_match_their_rule(self):
        rules = parse_rules(generate_ruleset(30))
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules)
        trace = attack_trace_from_rules(rules, packet_size=512, safe_packets=0)
        for rule, pkt in zip(rules, trace):
            parsed = pkt.parsed
            proto = "udp" if parsed.udp is not None else "tcp"
            hdr = parsed.udp if parsed.udp is not None else parsed.tcp
            sids = matcher.scan(pkt.payload, proto, hdr.src_port, hdr.dst_port)
            assert rule.sid in sids

    def test_safe_packets_clean(self):
        rules = parse_rules(generate_ruleset(10))
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules)
        trace = attack_trace_from_rules(rules, safe_packets=4)
        for pkt in trace[-4:]:
            assert not pkt.is_attack
            assert matcher.scan(pkt.payload, "tcp", 1, 80) == []

    def test_firewall_trace_matches_blacklist(self):
        """Artifact D.6: 1050 blacklist packets + 4 safe."""
        prefixes = parse_blacklist(generate_blacklist(1050))
        matcher = IpBlacklistMatcher(prefixes)
        trace = firewall_trace(prefixes, safe_packets=4)
        assert len(trace) == 1054
        for pkt in trace[:-4]:
            assert matcher.check_str(pkt.parsed.ipv4.src)
        for pkt in trace[-4:]:
            assert not matcher.check_str(pkt.parsed.ipv4.src)


class TestReplaySource:
    def test_replays_in_order(self):
        rules = parse_rules(generate_ruleset(5))
        trace = attack_trace_from_rules(rules, safe_packets=0)
        system = _system()
        delivered = []
        system.on_delivery = delivered.append
        source = ReplaySource(system, 0, 5.0, trace)
        source.start()
        system.sim.run()
        assert system.counters.value("delivered") == 5
        for orig, got in zip(trace, delivered):
            assert got.data == orig.data

    def test_loop_mode(self):
        rules = parse_rules(generate_ruleset(3))
        trace = attack_trace_from_rules(rules, safe_packets=0)
        system = _system()
        source = ReplaySource(system, 0, 5.0, trace, loop=True)
        source.start()
        system.sim.run(until=200_000)
        assert source.sent > 3

    def test_empty_trace_rejected(self):
        system = _system()
        with pytest.raises(ValueError):
            ReplaySource(system, 0, 5.0, [])
