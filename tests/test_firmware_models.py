"""Tests for the behavioural firmware models."""

import pytest

from repro.accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist
from repro.accel.pigasus import generate_ruleset, parse_rules
from repro.core.firmware_api import (
    ACTION_DROP,
    ACTION_FORWARD,
    ACTION_HOST,
    ACTION_LOOPBACK,
    FirmwareResult,
)
from repro.firmware import (
    ATTACK_CYCLES,
    FIREWALL_CYCLES,
    FirewallFirmware,
    FORWARDER_CYCLES,
    ForwarderFirmware,
    PigasusHwReorderFirmware,
    PigasusSwReorderFirmware,
    TCP_SAFE_CYCLES,
    TwoStepForwarder,
    UDP_SAFE_CYCLES,
)
from repro.packet import build_tcp, build_udp

from .conftest import build_raw


@pytest.fixture(scope="module")
def rules():
    return parse_rules(generate_ruleset(60))


@pytest.fixture(scope="module")
def blacklist():
    return parse_blacklist(generate_blacklist(200))


def _tcp(size=256, payload=b"", seq=1, sport=1, dport=80, src="10.1.1.1"):
    pkt = build_tcp(src, "10.2.2.2", sport, dport, payload=payload, seq=seq, pad_to=size)
    pkt.timestamps["rpu_deliver"] = 0.0
    return pkt


class TestFirmwareResult:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FirmwareResult(action="teleport", sw_cycles=1)

    def test_loopback_requires_dest(self):
        with pytest.raises(ValueError):
            FirmwareResult(action=ACTION_LOOPBACK, sw_cycles=1)


class TestForwarder:
    def test_swaps_port(self):
        fw = ForwarderFirmware()
        pkt = _tcp()
        pkt.ingress_port = 0
        result = fw.process(pkt, 0)
        assert result.action == ACTION_FORWARD and result.egress_port == 1
        assert result.sw_cycles == FORWARDER_CYCLES == 16

    def test_single_port_mode(self):
        fw = ForwarderFirmware(single_port=0)
        pkt = _tcp()
        pkt.ingress_port = 1
        assert fw.process(pkt, 0).egress_port == 0

    def test_clone_preserves_settings(self):
        clone = ForwarderFirmware(sw_cycles=20, single_port=1).clone()
        assert clone.sw_cycles == 20 and clone.single_port == 1


class TestTwoStepForwarder:
    def test_first_half_loops_to_partner(self):
        fw = TwoStepForwarder(16)
        result = fw.process(_tcp(), 3)
        assert result.action == ACTION_LOOPBACK and result.loopback_dest == 11

    def test_second_half_forwards(self):
        fw = TwoStepForwarder(16)
        pkt = _tcp()
        pkt.ingress_port = 0
        result = fw.process(pkt, 11)
        assert result.action == ACTION_FORWARD and result.egress_port == 1


class TestFirewallFirmware:
    def test_blacklisted_dropped(self, blacklist):
        fw = FirewallFirmware(IpBlacklistMatcher(blacklist))
        prefix = blacklist[0]
        src = ".".join(str((prefix.network >> s) & 255) for s in (24, 16, 8, 0))
        result = fw.process(_tcp(src=src), 0)
        assert result.action == ACTION_DROP
        assert fw.dropped == 1

    def test_clean_forwarded(self, blacklist):
        fw = FirewallFirmware(IpBlacklistMatcher(blacklist))
        pkt = _tcp(src="10.9.9.9")
        pkt.ingress_port = 1
        result = fw.process(pkt, 0)
        assert result.action == ACTION_FORWARD and result.egress_port == 0
        assert result.sw_cycles == FIREWALL_CYCLES

    def test_non_ip_dropped_fast(self, blacklist):
        fw = FirewallFirmware(IpBlacklistMatcher(blacklist))
        result = fw.process(build_raw(64), 0)
        assert result.action == ACTION_DROP
        assert result.sw_cycles < FIREWALL_CYCLES

    def test_clones_share_matcher(self, blacklist):
        fw = FirewallFirmware(IpBlacklistMatcher(blacklist))
        assert fw.clone().matcher is fw.matcher


class TestPigasusHwReorder:
    def test_safe_tcp_costs_61_cycles(self, rules):
        """§7.1.4 cocotb measurements: 61/59/82 cycles."""
        fw = PigasusHwReorderFirmware(rules)
        result = fw.process(_tcp(payload=b"just plain traffic"), 0)
        assert result.action == ACTION_FORWARD
        assert result.sw_cycles == TCP_SAFE_CYCLES == 61

    def test_safe_udp_costs_59_cycles(self, rules):
        fw = PigasusHwReorderFirmware(rules)
        pkt = build_udp("1.1.1.1", "2.2.2.2", 1, 53, payload=b"dns-ish", pad_to=256)
        result = fw.process(pkt, 0)
        assert result.sw_cycles == UDP_SAFE_CYCLES == 59

    def test_attack_costs_82_and_goes_to_host(self, rules):
        fw = PigasusHwReorderFirmware(rules)
        rule = next(r for r in rules if r.protocol == "tcp" and r.dst_ports.matches(80))
        pkt = _tcp(payload=b"__" + rule.content + b"__")
        result = fw.process(pkt, 0)
        assert result.action == ACTION_HOST
        assert result.sw_cycles == ATTACK_CYCLES == 82
        assert pkt.rule_ids == [rule.sid]
        assert result.appended_bytes == 8  # one sid word + EoP word

    def test_accel_cycles_scale_with_payload(self, rules):
        fw = PigasusHwReorderFirmware(rules)
        small = fw.process(_tcp(size=128), 0)
        large = fw.process(_tcp(size=2048), 0)
        assert large.accel_cycles > small.accel_cycles
        # 16 bytes/cycle model
        assert large.accel_cycles == -(-(2048 - 54) // 16)

    def test_non_ip_dropped(self, rules):
        fw = PigasusHwReorderFirmware(rules)
        assert fw.process(build_raw(64), 0).action == ACTION_DROP

    def test_clone_shares_engines(self, rules):
        fw = PigasusHwReorderFirmware(rules)
        clone = fw.clone()
        assert clone.matcher is fw.matcher


class TestPigasusSwReorder:
    def test_base_cost_is_higher_than_hw(self, rules):
        fw = PigasusSwReorderFirmware(rules)
        result = fw.process(_tcp(size=64, payload=b"x" * 8), 0)
        assert result.sw_cycles >= 138 - 1

    def test_cost_rises_with_size(self, rules):
        """§7.1.4: 138.4 cycles at 64 B rising until 1500 B."""
        fw = PigasusSwReorderFirmware(rules)
        small = fw.process(_tcp(size=64, payload=b"y" * 8, sport=2), 0)
        big = fw.process(_tcp(size=1500, sport=3), 0)
        assert small.sw_cycles < big.sw_cycles <= 155

    def test_in_order_flow_tracked(self, rules):
        fw = PigasusSwReorderFirmware(rules)
        first = _tcp(size=256, seq=1000, sport=7)
        fw.process(first, 0)
        payload_len = len(first.payload)
        second = _tcp(size=256, seq=1000 + payload_len, sport=7)
        result = fw.process(second, 0)
        assert fw.out_of_order == 0
        assert result.action == ACTION_FORWARD

    def test_out_of_order_detected_and_buffered(self, rules):
        fw = PigasusSwReorderFirmware(rules)
        fw.process(_tcp(size=256, seq=1000, sport=8), 0)
        fw.process(_tcp(size=256, seq=99_000, sport=8), 0)
        assert fw.out_of_order == 1
        in_order = fw.process(_tcp(size=256, seq=1000 + 202, sport=8), 0)
        assert in_order.action == ACTION_FORWARD

    def test_reorder_buffer_exhaustion_punts_to_host(self, rules):
        fw = PigasusSwReorderFirmware(rules, max_reorder_slots=2)
        fw.process(_tcp(size=256, seq=1000, sport=9), 0)
        for i in range(2):
            fw.process(_tcp(size=256, seq=50_000 + i * 1000, sport=9), 0)
        result = fw.process(_tcp(size=256, seq=80_000, sport=9), 0)
        assert result.action == ACTION_HOST
        assert fw.punted_to_host >= 1

    def test_hash_collision_punts_to_host(self, rules):
        fw = PigasusSwReorderFirmware(rules)
        a = _tcp(size=256, sport=10)
        a.flow_hash = 0x12340  # index bits (>>3) collide, hash differs
        fw.process(a, 0)
        b = _tcp(size=256, sport=11)
        b.flow_hash = 0x12345 & ~0x7 | 0x12340 & 0x7  # same index
        b.flow_hash = (0x99999 << 18) | 0x12340  # same low bits, different high
        result = fw.process(b, 0)
        assert result.action == ACTION_HOST
        assert fw.collisions == 1

    def test_flow_timeout_recycles_entry(self, rules):
        fw = PigasusSwReorderFirmware(rules)
        a = _tcp(size=256, sport=12)
        a.flow_hash = 0xABC00
        fw.process(a, 0)
        # much later, a colliding flow arrives: the old entry timed out
        b = _tcp(size=256, sport=13)
        b.flow_hash = (0x5 << 20) | 0xABC00
        b.timestamps["rpu_deliver"] = 10_000_000.0
        result = fw.process(b, 0)
        assert fw.collisions == 0
        assert result.action == ACTION_FORWARD

    def test_attack_still_detected_with_reordering(self, rules):
        fw = PigasusSwReorderFirmware(rules)
        rule = next(r for r in rules if r.protocol == "tcp" and r.dst_ports.matches(80))
        pkt = _tcp(payload=b"++" + rule.content, sport=14)
        result = fw.process(pkt, 0)
        assert result.action == ACTION_HOST
        assert pkt.rule_ids == [rule.sid]

    def test_on_boot_clears_flow_table(self, rules):
        fw = PigasusSwReorderFirmware(rules)
        fw.process(_tcp(sport=15), 0)
        assert fw.flow_table
        fw.on_boot(0, None)
        assert not fw.flow_table

    def test_retransmission_cheap_path(self, rules):
        fw = PigasusSwReorderFirmware(rules)
        fw.process(_tcp(size=256, seq=5000, sport=16), 0)
        result = fw.process(_tcp(size=256, seq=100, sport=16), 0)  # old data
        assert result.action == ACTION_FORWARD
        assert fw.out_of_order == 0
