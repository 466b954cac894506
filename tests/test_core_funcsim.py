"""Tests for the functional (ISS-backed) RPU — the cocotb-style
single-RPU simulation of §3.4 / Appendix A.4."""

import struct

import pytest

from repro.accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist
from repro.accel.pigasus import (
    PigasusStringMatcher,
    generate_ruleset,
    parse_rules,
)
from repro.core.funcsim import FunctionalRpu, PKT_OFFSET
from repro.firmware import (
    FIREWALL_ASM,
    FORWARDER_ASM,
    FORWARDER_CYCLES,
    PIGASUS_ASM,
)
from repro.packet import build_tcp, build_udp, int_to_ip


@pytest.fixture(scope="module")
def blacklist():
    return parse_blacklist(generate_blacklist(1050))


@pytest.fixture(scope="module")
def rules():
    return parse_rules(generate_ruleset(60))


def _ip_in(prefix):
    return int_to_ip(prefix.network)


class TestForwarderFirmware:
    def test_forwards_with_port_swap(self):
        rpu = FunctionalRpu(FORWARDER_ASM)
        rpu.push_packet(build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=64).data, port=0)
        rpu.push_packet(build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=64).data, port=1)
        rpu.run_until_sent(2)
        assert rpu.sent[0].port == 1
        assert rpu.sent[1].port == 0

    def test_payload_passes_through_unmodified(self):
        rpu = FunctionalRpu(FORWARDER_ASM)
        pkt = build_tcp("1.1.1.1", "2.2.2.2", 1, 2, payload=b"payload!", pad_to=200)
        rpu.push_packet(pkt.data)
        rpu.run_until_sent(1)
        assert rpu.sent[0].data == pkt.data

    def test_cycles_per_packet_match_paper(self):
        """§6.1: 'the minimum time for our packet forwarder to read a
        descriptor and send it back is 16 cycles'."""
        rpu = FunctionalRpu(FORWARDER_ASM)
        packets = [build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=64).data] * 10
        deltas = rpu.measure_cycles_per_packet(packets)
        assert all(d == deltas[0] for d in deltas)
        assert abs(deltas[0] - FORWARDER_CYCLES) <= 2

    def test_tags_preserved(self):
        rpu = FunctionalRpu(FORWARDER_ASM)
        t1 = rpu.push_packet(build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=64).data)
        t2 = rpu.push_packet(build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=64).data)
        rpu.run_until_sent(2)
        assert [s.tag for s in rpu.sent] == [t1, t2]


class TestFirewallFirmware:
    def test_blacklisted_source_dropped(self, blacklist):
        rpu = FunctionalRpu(FIREWALL_ASM, accelerator=IpBlacklistMatcher(blacklist))
        rpu.push_packet(build_tcp(_ip_in(blacklist[7]), "10.1.1.1", 5, 6, pad_to=128).data)
        rpu.run_until_sent(1)
        assert rpu.sent[0].dropped

    def test_clean_source_forwarded(self, blacklist):
        rpu = FunctionalRpu(FIREWALL_ASM, accelerator=IpBlacklistMatcher(blacklist))
        rpu.push_packet(build_tcp("10.77.1.2", "10.1.1.1", 5, 6, pad_to=128).data, port=0)
        rpu.run_until_sent(1)
        assert not rpu.sent[0].dropped
        assert rpu.sent[0].port == 1

    def test_non_ipv4_dropped(self, blacklist):
        from .conftest import build_raw

        rpu = FunctionalRpu(FIREWALL_ASM, accelerator=IpBlacklistMatcher(blacklist))
        rpu.push_packet(build_raw(64).data)
        rpu.run_until_sent(1)
        assert rpu.sent[0].dropped

    def test_every_blacklist_entry_caught(self, blacklist):
        """Sweep a sample of prefixes through the ISS firmware."""
        matcher = IpBlacklistMatcher(blacklist)
        rpu = FunctionalRpu(FIREWALL_ASM, accelerator=matcher)
        sample = blacklist[::100]
        for prefix in sample:
            rpu.push_packet(
                build_tcp(_ip_in(prefix), "10.1.1.1", 5, 6, pad_to=128).data
            )
        rpu.run_until_sent(len(sample))
        assert all(s.dropped for s in rpu.sent)

    def test_firewall_cycles_reasonable(self, blacklist):
        """The measured loop supports the calibrated ~42-cycle model
        (C-compiled firmware is somewhat slower than hand assembly)."""
        rpu = FunctionalRpu(FIREWALL_ASM, accelerator=IpBlacklistMatcher(blacklist))
        packets = [build_tcp("10.77.1.2", "10.1.1.1", 5, 6, pad_to=128).data] * 8
        deltas = rpu.measure_cycles_per_packet(packets)
        assert 20 <= deltas[0] <= 50


class TestPigasusFirmware:
    def test_attack_goes_to_host_with_rule_id(self, rules):
        rule = next(r for r in rules if r.protocol == "tcp" and r.dst_ports.matches(80))
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules)
        rpu = FunctionalRpu(PIGASUS_ASM, accelerator=matcher)
        pkt = build_tcp(
            "1.2.3.4", "5.6.7.8", 1500, 80,
            payload=b"AA" + rule.content + b"BB", pad_to=256,
        )
        rpu.push_packet(pkt.data)
        rpu.run_until_sent(1)
        sent = rpu.sent[0]
        assert sent.port == 2  # host port
        assert len(sent.data) == 260  # original + appended rule word
        (sid,) = struct.unpack("<I", sent.data[256:260])
        assert sid == rule.sid

    def test_safe_traffic_forwarded(self, rules):
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules)
        rpu = FunctionalRpu(PIGASUS_ASM, accelerator=matcher)
        pkt = build_tcp("1.2.3.4", "5.6.7.8", 1500, 80, payload=b"benign data", pad_to=256)
        rpu.push_packet(pkt.data, port=0)
        rpu.run_until_sent(1)
        assert rpu.sent[0].port == 1
        assert len(rpu.sent[0].data) == 256

    def test_udp_dropped_by_tcp_only_firmware(self, rules):
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules)
        rpu = FunctionalRpu(PIGASUS_ASM, accelerator=matcher)
        rpu.push_packet(build_udp("1.2.3.4", "5.6.7.8", 1, 2, pad_to=128).data)
        rpu.run_until_sent(1)
        assert rpu.sent[0].dropped

    def test_port_mismatch_not_flagged(self, rules):
        rule = next(
            r for r in rules
            if r.protocol == "tcp" and not r.dst_ports.is_any and r.dst_ports.low == 443
        )
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules)
        rpu = FunctionalRpu(PIGASUS_ASM, accelerator=matcher)
        # pattern present but wrong dst port: the port group filters it
        pkt = build_tcp("1.2.3.4", "5.6.7.8", 1500, 9999,
                        payload=b"x" + rule.content, pad_to=256)
        rpu.push_packet(pkt.data, port=0)
        rpu.run_until_sent(1)
        assert rpu.sent[0].port == 1  # forwarded as safe


class TestDebugFacilities:
    def test_memory_dump(self):
        rpu = FunctionalRpu(FORWARDER_ASM)
        data = build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=64).data
        rpu.push_packet(data)
        dump = rpu.dump_memory("pmem")
        assert dump[PKT_OFFSET : PKT_OFFSET + 64] == data

    def test_debug_channel(self):
        source = """
        .equ IO_BASE, 0x01000000
        main:
            li a0, IO_BASE
            li t0, 0x1234
            sw t0, 40(a0)    # DEBUG_OUT_L
            li t0, 0x5678
            sw t0, 44(a0)    # DEBUG_OUT_H
            ebreak
        """
        rpu = FunctionalRpu(source)
        rpu.cpu.run()
        assert rpu.debug_out == 0x5678_0000_1234

    def test_oversized_firmware_rejected(self):
        big = ".space %d\n nop" % (64 * 1024)
        with pytest.raises(ValueError):
            FunctionalRpu(big)

    def test_run_until_sent_times_out(self):
        rpu = FunctionalRpu("spin: j spin")
        with pytest.raises(RuntimeError):
            rpu.run_until_sent(1, max_instructions=1000)


class TestSlotCredits:
    def test_released_packet_keeps_its_slot_until_sent(self, blacklist):
        """A slot credit returns when the packet leaves, not when the
        firmware releases its RX descriptor: pushing into a released but
        unsent slot would overwrite the frame the core is about to send."""
        from repro.core import RosebudConfig

        rpu = FunctionalRpu(
            FIREWALL_ASM,
            accelerator=IpBlacklistMatcher(blacklist),
            config=RosebudConfig(slots_per_rpu=2),
            cpu_backend="interp",
        )
        a, b, c = (
            build_tcp(f"10.0.0.{i}", "2.2.2.2", i, 80, pad_to=256).data for i in (1, 2, 3)
        )
        rpu.push_packet(a)
        rpu.push_packet(b)
        rpu.cpu.run(max_instructions=10_000, until=lambda cpu: len(rpu._rx) == 1)
        assert not rpu.sent and rpu.in_flight == 2
        with pytest.raises(RuntimeError, match="no free packet slots"):
            rpu.push_packet(c)
        rpu.run_until_sent(1)
        assert rpu.sent[0].data == a
        assert rpu.in_flight == 1
        rpu.push_packet(c)
        rpu.run_until_sent(3)
        assert [s.data for s in rpu.sent] == [a, b, c]
