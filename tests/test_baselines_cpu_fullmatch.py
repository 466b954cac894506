"""Tests for host-side full matching."""

from repro.accel.pigasus import generate_ruleset, parse_rules
from repro.accel.pigasus.ruleset import PortSpec, Rule
from repro.baselines import HostFullMatcher
from repro.core import RosebudConfig, RosebudSystem
from repro.firmware import PigasusHwReorderFirmware
from repro.packet import build_tcp


def _rule_with_extra():
    return Rule(
        sid=5000, protocol="tcp", src_ports=PortSpec(), dst_ports=PortSpec(),
        content=b"fastpat", extra_contents=(b"confirm-me",),
    )


class TestHostFullMatcher:
    def test_confirms_complete_match(self):
        rule = _rule_with_extra()
        matcher = HostFullMatcher([rule])
        pkt = build_tcp("1.1.1.1", "2.2.2.2", 1, 80,
                        payload=b"x fastpat y confirm-me z", pad_to=256)
        pkt.rule_ids = [5000]
        verdict = matcher.verify(pkt)
        assert verdict.confirmed_sids == [5000]
        assert verdict.is_alert

    def test_refutes_fast_pattern_false_positive(self):
        """Fast pattern present but the extra content missing: the
        hardware punts it, the host refutes it."""
        rule = _rule_with_extra()
        matcher = HostFullMatcher([rule])
        pkt = build_tcp("1.1.1.1", "2.2.2.2", 1, 80,
                        payload=b"x fastpat but nothing else", pad_to=256)
        pkt.rule_ids = [5000]
        verdict = matcher.verify(pkt)
        assert not verdict.is_alert
        assert verdict.refuted_sids == [5000]
        assert matcher.false_positives == matcher.packets_verified == 1

    def test_unknown_sid_refuted(self):
        matcher = HostFullMatcher([_rule_with_extra()])
        pkt = build_tcp("1.1.1.1", "2.2.2.2", 1, 80, payload=b"x", pad_to=128)
        pkt.rule_ids = [999]
        assert not matcher.verify(pkt).is_alert

    def test_port_recheck(self):
        rule = Rule(sid=6000, protocol="tcp", src_ports=PortSpec(),
                    dst_ports=PortSpec(443, 443), content=b"abcd")
        matcher = HostFullMatcher([rule])
        pkt = build_tcp("1.1.1.1", "2.2.2.2", 1, 80, payload=b"abcd", pad_to=128)
        pkt.rule_ids = [6000]
        assert not matcher.verify(pkt).is_alert

    def test_generated_ruleset_has_multi_content_rules(self):
        rules = parse_rules(generate_ruleset(200))
        assert any(rule.extra_contents for rule in rules)

    def test_end_to_end_punt_and_verify(self):
        """FPGA fast-pattern punt -> host full verification, through
        the system simulator."""
        rules = parse_rules(generate_ruleset(150))
        multi = next(r for r in rules if r.extra_contents and r.dst_ports.is_any)
        system = RosebudSystem(
            RosebudConfig(n_rpus=8, slots_per_rpu=32),
            PigasusHwReorderFirmware(rules),
        )
        # fast pattern present, extra content absent: a hardware false
        # positive the host must catch
        fp = build_tcp("1.1.1.1", "2.2.2.2", 1, 80,
                       payload=b"_" + multi.content + b"_", pad_to=512)
        # complete attack: both contents present
        real = build_tcp("1.1.1.1", "2.2.2.2", 2, 80,
                         payload=multi.content + b" " + multi.extra_contents[0],
                         pad_to=512)
        system.offer_packet(0, fp)
        system.offer_packet(0, real)
        system.sim.run()
        assert system.counters.value("to_host") == 2  # both punted

        host_matcher = HostFullMatcher(rules)
        verdicts = host_matcher.verify_all(system.host_rx)
        alerts = [v for v in verdicts if v.is_alert]
        assert len(alerts) == 1
        assert multi.sid in alerts[0].confirmed_sids
        assert host_matcher.false_positives == 1
