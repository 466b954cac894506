"""Tests for the Pigasus accelerators: ruleset, Aho-Corasick, matchers,
rule packer, runtime table loading."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.accel.pigasus import (
    AhoCorasick,
    PigasusPortMatcher,
    PigasusStringMatcher,
    PortSpec,
    Rule,
    RulesetError,
    extract_appended_rule_ids,
    generate_ruleset,
    pack_rule_ids,
    parse_rules,
    unpack_rule_ids,
)
from repro.accel.pigasus import string_match


class TestRuleParsing:
    def test_basic_rule(self):
        rules = parse_rules(
            'alert tcp any any -> any 80 (msg:"test"; content:"evil"; sid:1001;)'
        )
        assert len(rules) == 1
        rule = rules[0]
        assert rule.sid == 1001
        assert rule.content == b"evil"
        assert rule.protocol == "tcp"
        assert rule.dst_ports.matches(80)
        assert not rule.dst_ports.matches(81)

    def test_hex_escapes_in_content(self):
        rules = parse_rules(
            'alert tcp any any -> any any (content:"ab|0d 0a|cd"; sid:1;)'
        )
        assert rules[0].content == b"ab\r\ncd"

    def test_port_range(self):
        rules = parse_rules(
            'alert udp any 1024: -> any 53 (content:"xyzt"; sid:2;)'
        )
        assert rules[0].src_ports.matches(60000)
        assert not rules[0].src_ports.matches(80)

    def test_missing_sid_rejected(self):
        with pytest.raises(RulesetError):
            parse_rules('alert tcp any any -> any any (content:"abcd";)')

    def test_missing_content_rejected(self):
        with pytest.raises(RulesetError):
            parse_rules("alert tcp any any -> any any (sid:5;)")

    def test_short_pattern_rejected(self):
        with pytest.raises(RulesetError):
            parse_rules('alert tcp any any -> any any (content:"x"; sid:5;)')

    def test_unsupported_syntax_rejected(self):
        with pytest.raises(RulesetError):
            parse_rules("this is not a rule")

    def test_generated_ruleset_round_trips(self):
        rules = parse_rules(generate_ruleset(200))
        assert len(rules) == 200
        assert len({r.sid for r in rules}) == 200
        assert len({r.content for r in rules}) == 200

    def test_generated_deterministic(self):
        assert generate_ruleset(30) == generate_ruleset(30)

    def test_portspec_parse(self):
        assert PortSpec.parse("any").is_any
        assert PortSpec.parse("80") == PortSpec(80, 80)
        assert PortSpec.parse("1000:2000") == PortSpec(1000, 2000)
        assert PortSpec.parse(":512") == PortSpec(0, 512)


class TestAhoCorasick:
    def test_single_pattern(self):
        ac = AhoCorasick({b"needle": 1})
        assert [pid for _, pid in ac.search(b"hay needle hay")] == [1]

    def test_overlapping_patterns(self):
        ac = AhoCorasick({b"abc": 1, b"bcd": 2})
        hits = [pid for _, pid in ac.search(b"xabcdx")]
        assert hits == [1, 2]

    def test_pattern_inside_pattern(self):
        ac = AhoCorasick({b"ab": 1, b"abab": 2})
        hits = [pid for _, pid in ac.search(b"abab")]
        assert hits == [1, 1, 2]

    def test_no_match(self):
        ac = AhoCorasick({b"zz": 1})
        assert ac.search(b"aaaa") == []

    def test_match_at_start_and_end(self):
        ac = AhoCorasick({b"go": 1})
        assert len(ac.search(b"go stop go")) == 2

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick({b"": 1})

    def test_no_patterns_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick({})

    @given(
        st.lists(st.binary(min_size=2, max_size=6), min_size=1, max_size=8, unique=True),
        st.binary(max_size=100),
    )
    def test_matches_equal_naive_search(self, patterns, haystack):
        ac = AhoCorasick({p: i for i, p in enumerate(patterns)})
        got = sorted(set(pid for _, pid in ac.search(haystack)))
        expected = sorted(i for i, p in enumerate(patterns) if p in haystack)
        assert got == expected


class TestSearchMemo:
    """The automaton memoises search by payload content."""

    PATTERNS = {b"abc": 1, b"bcd": 2, b"cab": 3, b"abcab": 4, b"zz": 5}

    @staticmethod
    def _payloads(rng, count=60):
        """Random payloads over the patterns' alphabet, plus one with a
        pattern at offset 0, one ending mid-pattern and one with
        overlapping matches."""
        pool = [b"abc" + bytes(rng.choice(b"abcdz") for _ in range(12)),
                bytes(rng.choice(b"abcdz") for _ in range(12)) + b"ab",
                b"zabcabcdzz"]
        while len(pool) < count:
            pool.append(bytes(rng.choice(b"abcdz") for _ in range(rng.randrange(1, 40))))
        return pool

    def test_memoised_search_equals_unmemoised(self, monkeypatch):
        rng = random.Random(17)
        pool = self._payloads(rng)
        memoised = AhoCorasick(self.PATTERNS)
        order = [rng.choice(pool) for _ in range(600)]
        got = [memoised.search(data) for data in order]
        monkeypatch.setattr(string_match, "MEMO_CAPACITY", 0)
        plain = AhoCorasick(self.PATTERNS)
        assert got == [plain.search(data) for data in order]
        assert plain.memo_hits == 0 and not plain._memo
        assert memoised.memo_hits > 0
        assert got[order.index(b"zabcabcdzz")] == [(3, 1), (5, 3), (5, 4), (6, 1), (7, 2), (9, 5)]

    def test_hits_and_misses_counted(self):
        ac = AhoCorasick(self.PATTERNS)
        for data in (b"xabcx", b"xabcx", b"zz", b"xabcx", bytearray(b"zz")):
            ac.search(data)
        assert (ac.memo_misses, ac.memo_hits) == (2, 3)

    def test_mutating_a_result_leaves_the_memo_alone(self):
        ac = AhoCorasick(self.PATTERNS)
        first = ac.search(b"abcab")
        first.append((99, 99))
        second = ac.search(b"abcab")
        assert second == [(2, 1), (4, 3), (4, 4)]
        second.clear()
        assert ac.search(b"abcab") == [(2, 1), (4, 3), (4, 4)]

    def test_cap_holds(self, monkeypatch):
        monkeypatch.setattr(string_match, "MEMO_CAPACITY", 4)
        ac = AhoCorasick(self.PATTERNS)
        payloads = [b"abc" + bytes([n]) for n in range(10)]
        for data in payloads * 2:
            assert ac.search(data) == [(2, 1)]
        assert len(ac._memo) == 4
        assert (ac.memo_hits, ac.memo_misses) == (4, 16)

    def test_reloaded_tables_return_nothing_stale(self):
        def rule(sid, content):
            return parse_rules(f'alert tcp any any -> any any (content:"{content}"; sid:{sid};)')[0]

        payload = b"GET /alpha HTTP"
        matcher = PigasusStringMatcher()
        matcher.load_rules([rule(1, "alpha"), rule(2, "omega")])
        assert matcher.scan(payload) == matcher.scan(payload) == [1]
        matcher.load_rules([rule(3, "omega"), rule(1, "HTTP")])
        fresh = PigasusStringMatcher()
        fresh.load_rules([rule(3, "omega"), rule(1, "HTTP")])
        assert matcher.scan(payload) == fresh.scan(payload) == [1]
        assert matcher._automaton.memo_hits == 0
        matcher.load_rules([rule(4, "beta")])
        assert matcher.scan(payload) == []
        assert matcher.packets_scanned == 4


class TestStringMatcher:
    @pytest.fixture(scope="class")
    def rules(self):
        return parse_rules(generate_ruleset(80))

    def test_unloaded_tables_raise(self):
        """Uninitialized URAMs: the matcher is unusable until the host
        fills its tables at runtime (§7.1.2)."""
        matcher = PigasusStringMatcher()
        assert not matcher.ready
        with pytest.raises(RuntimeError):
            matcher.scan(b"anything")

    def test_load_rules_returns_cycles(self, rules):
        matcher = PigasusStringMatcher()
        cycles = matcher.load_rules(rules)
        assert cycles > 0
        assert matcher.ready

    def test_scan_finds_pattern(self, rules):
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules)
        rule = next(r for r in rules if r.dst_ports.is_any)
        sids = matcher.scan(b"xx" + rule.content + b"yy", "tcp", 1, 9999)
        assert rule.sid in sids

    def test_port_filter_applies(self, rules):
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules)
        rule = next(r for r in rules if not r.dst_ports.is_any and r.dst_ports.low == 80)
        assert rule.sid in matcher.scan(rule.content, "tcp", 1, 80)
        assert rule.sid not in matcher.scan(rule.content, "tcp", 1, 12345)

    def test_protocol_filter_applies(self, rules):
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules)
        rule = next(r for r in rules if r.protocol == "udp" and r.dst_ports.is_any)
        assert rule.sid in matcher.scan(rule.content, "udp", 1, 1)
        assert rule.sid not in matcher.scan(rule.content, "tcp", 1, 1)

    def test_runtime_rule_update(self, rules):
        """The Rosebud-enabled feature: swap rulesets without reload."""
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules[:10])
        generation = matcher.table_generation
        new_rule = Rule(sid=9999, protocol="tcp", src_ports=PortSpec(),
                        dst_ports=PortSpec(), content=b"freshpattern")
        matcher.load_rules([new_rule])
        assert matcher.table_generation == generation + 1
        assert matcher.scan(b"..freshpattern..", "tcp", 1, 1) == [9999]
        old = rules[0]
        assert matcher.scan(old.content, "tcp", 1, 80) == []

    def test_scan_cycles_16_bytes_per_cycle(self):
        matcher = PigasusStringMatcher()
        assert matcher.scan_cycles(16) == 1
        assert matcher.scan_cycles(17) == 2
        assert matcher.scan_cycles(1024) == 64
        assert matcher.scan_cycles(0) == 1

    def test_duplicate_sids_in_one_packet_deduped(self, rules):
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules)
        rule = next(r for r in rules if r.dst_ports.is_any)
        sids = matcher.scan(rule.content * 3, "tcp", 1, 1)
        assert sids.count(rule.sid) == 1

    def test_stats_accumulate(self, rules):
        matcher = PigasusStringMatcher()
        matcher.load_rules(rules)
        matcher.scan(b"x" * 100, "tcp", 1, 1)
        assert matcher.packets_scanned == 1
        assert matcher.bytes_scanned == 100


class TestPortMatcher:
    @pytest.fixture(scope="class")
    def rules(self):
        return parse_rules(generate_ruleset(80))

    def test_unloaded_raises(self):
        matcher = PigasusPortMatcher()
        with pytest.raises(RuntimeError):
            matcher.candidates("tcp", 1, 2)

    def test_candidates_match_bruteforce(self, rules):
        matcher = PigasusPortMatcher()
        matcher.load_rules(rules)
        for proto, sport, dport in [("tcp", 1000, 80), ("udp", 5, 53), ("tcp", 1, 9999)]:
            got = {r.sid for r in matcher.candidates(proto, sport, dport)}
            expected = {r.sid for r in rules if r.matches_ports(proto, sport, dport)}
            assert got == expected

    def test_non_transport_protocol_empty(self, rules):
        matcher = PigasusPortMatcher()
        matcher.load_rules(rules)
        assert matcher.candidates("icmp", 0, 0) == []

    def test_wide_ranges_treated_as_any(self):
        rule = Rule(sid=1, protocol="tcp", src_ports=PortSpec(0, 65535),
                    dst_ports=PortSpec(1024, 65535), content=b"abcd")
        matcher = PigasusPortMatcher()
        matcher.load_rules([rule])
        assert [r.sid for r in matcher.candidates("tcp", 5, 2000)] == [1]
        assert matcher.candidates("tcp", 5, 80) == []


class TestRulePacker:
    def test_round_trip(self):
        blob = pack_rule_ids([5, 1000, 2**31])
        assert unpack_rule_ids(blob) == [5, 1000, 2**31]

    def test_zero_terminated(self):
        blob = pack_rule_ids([7])
        assert blob.endswith(b"\x00\x00\x00\x00")

    def test_zero_sid_rejected(self):
        with pytest.raises(ValueError):
            pack_rule_ids([0])

    def test_unterminated_rejected(self):
        with pytest.raises(ValueError):
            unpack_rule_ids(b"\x01\x00\x00\x00")

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            unpack_rule_ids(b"\x01\x00\x00")

    def test_extract_from_packet_aligns(self):
        payload = b"P" * 123  # unaligned original length
        appended = pack_rule_ids([42])
        data = payload + b"\x00" * (124 - 123) + appended
        assert extract_appended_rule_ids(data, 123) == [42]
