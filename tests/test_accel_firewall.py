"""Tests for the firewall IP matcher and its rule compiler."""

import pytest
from hypothesis import given, strategies as st

from repro.accel import (
    IpBlacklistMatcher,
    Prefix,
    generate_blacklist,
    generate_verilog,
    parse_blacklist,
)
from repro.packet import int_to_ip, ip_to_int


class TestPrefixParsing:
    def test_pf_style_rule(self):
        prefixes = parse_blacklist("block drop from 192.0.2.0/24 to any\n")
        assert prefixes == [Prefix(ip_to_int("192.0.2.0"), 24)]

    def test_bare_ip_is_slash32(self):
        prefixes = parse_blacklist("198.51.100.7\n")
        assert prefixes == [Prefix(ip_to_int("198.51.100.7"), 32)]

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nblock drop from 10.1.0.0/16 to any # inline\n"
        assert len(parse_blacklist(text)) == 1

    def test_network_address_masked(self):
        prefixes = parse_blacklist("block drop from 10.1.2.3/16 to any")
        assert int_to_ip(prefixes[0].network) == "10.1.0.0"

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_blacklist("drop everything please")

    def test_bad_prefix_length(self):
        with pytest.raises(ValueError):
            parse_blacklist("block drop from 10.0.0.0/40 to any")

    def test_generated_blacklist_parses_to_requested_size(self):
        prefixes = parse_blacklist(generate_blacklist(1050))
        assert len(prefixes) == 1050

    def test_generated_blacklist_deterministic(self):
        assert generate_blacklist(50) == generate_blacklist(50)

    def test_generated_avoids_loopback_and_test_ranges(self):
        for prefix in parse_blacklist(generate_blacklist(500)):
            first_octet = prefix.network >> 24
            assert first_octet != 127
            assert first_octet != 192
            assert first_octet != 10


class TestMatcher:
    @pytest.fixture(scope="class")
    def matcher(self):
        return IpBlacklistMatcher(parse_blacklist(generate_blacklist(1050)))

    def test_every_prefix_matches_its_network_address(self, matcher):
        for prefix in matcher.prefixes:
            assert matcher.check(prefix.network)

    def test_every_prefix_matches_random_host_inside(self, matcher):
        import random

        rng = random.Random(1)
        for prefix in matcher.prefixes[:200]:
            host_bits = 32 - prefix.length
            ip = prefix.network | (rng.randrange(1 << host_bits) if host_bits else 0)
            assert matcher.check(ip)

    def test_outside_addresses_clean(self, matcher):
        assert not matcher.check(ip_to_int("10.0.0.1"))
        assert not matcher.check(ip_to_int("192.168.1.1"))
        assert not matcher.check(ip_to_int("127.0.0.1"))

    def test_exhaustive_against_linear_scan(self, matcher):
        """The two-stage structure equals a linear prefix scan."""
        import random

        rng = random.Random(2)
        for _ in range(500):
            ip = rng.randrange(2**32)
            expected = any(p.matches(ip) for p in matcher.prefixes)
            assert matcher.check(ip) == expected

    def test_two_cycle_lookup_constant(self, matcher):
        assert matcher.lookup_cycles == 2

    def test_mmio_interface_byte_order(self, matcher):
        target = matcher.prefixes[0].network
        # firmware writes the LE-loaded network-order bytes
        le_value = int.from_bytes(target.to_bytes(4, "big"), "little")
        matcher.write_reg(matcher.REG_SRC_IP, le_value)
        assert matcher.read_reg(matcher.REG_MATCH, 1) == 1

    def test_mmio_clean_ip(self, matcher):
        le_value = int.from_bytes(ip_to_int("10.0.0.1").to_bytes(4, "big"), "little")
        matcher.write_reg(matcher.REG_SRC_IP, le_value)
        assert matcher.read_reg(matcher.REG_MATCH, 1) == 0

    def test_short_prefix_wildcard_path(self):
        matcher = IpBlacklistMatcher([Prefix(ip_to_int("32.0.0.0"), 3)])
        assert matcher.check(ip_to_int("33.1.2.3"))
        assert not matcher.check(ip_to_int("64.0.0.1"))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_prefix_matches_is_consistent(self, ip):
        prefix = Prefix(ip & 0xFFFFFF00, 24)
        assert prefix.matches(ip)


class TestVerilogGeneration:
    def test_generates_module(self):
        prefixes = parse_blacklist(generate_blacklist(50))
        verilog = generate_verilog(prefixes)
        assert "module fw_ip_match" in verilog
        assert "endmodule" in verilog
        assert "case (stage1_idx)" in verilog

    def test_one_case_arm_per_bucket(self):
        prefixes = [Prefix(ip_to_int("20.0.0.1"), 32), Prefix(ip_to_int("20.0.0.2"), 32)]
        verilog = generate_verilog(prefixes)
        # both /32s share the 9-bit bucket -> one case arm with an OR
        assert verilog.count("9'd") == 1
        assert "||" in verilog

    def test_full_width_comparison_for_slash32(self):
        verilog = generate_verilog([Prefix(ip_to_int("20.0.0.1"), 32)])
        assert "stage1_rest[22:0]" in verilog
