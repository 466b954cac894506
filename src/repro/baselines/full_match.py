"""Host-side full rule verification (§7.1.1's division of labor).

Pigasus's FPGA performs *fast-pattern* matching and punts suspects to
the host; the Snort process there evaluates the complete rule (all
content options, in the real system also PCRE and flow state).  This is
why the architecture works: the FPGA filters line-rate traffic down to
the small suspect fraction the CPU can afford to inspect deeply.

:class:`HostFullMatcher` is that second stage: it takes packets the RPU
firmware punted (rule IDs appended) and confirms or refutes each
candidate, tracking the fast-pattern false-positive rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from ..accel.pigasus.ruleset import Rule
from ..packet.packet import Packet


@dataclass
class Verdict:
    """Outcome of fully verifying one punted packet."""

    packet_id: int
    confirmed_sids: List[int] = field(default_factory=list)
    refuted_sids: List[int] = field(default_factory=list)

    @property
    def is_alert(self) -> bool:
        return bool(self.confirmed_sids)


class HostFullMatcher:
    """Complete rule evaluation for hardware-punted packets."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        self._rules: Dict[int, Rule] = {rule.sid: rule for rule in rules}
        self.packets_verified = 0
        self.alerts = 0
        self.false_positives = 0

    def verify(self, packet: Packet) -> Verdict:
        """Fully evaluate the candidates the RPU attached."""
        verdict = Verdict(packet_id=packet.packet_id)
        payload = packet.payload
        tup = packet.five_tuple
        for sid in packet.rule_ids:
            rule = self._rules.get(sid)
            if rule is None:
                verdict.refuted_sids.append(sid)
                continue
            ports_ok = True
            if tup is not None:
                _src, _dst, proto_num, sport, dport = tup
                proto = {6: "tcp", 17: "udp"}.get(proto_num, "ip")
                ports_ok = rule.matches_ports(proto, sport, dport)
            if ports_ok and rule.full_match(payload):
                verdict.confirmed_sids.append(sid)
            else:
                verdict.refuted_sids.append(sid)
        self.packets_verified += 1
        if verdict.is_alert:
            self.alerts += 1
        if verdict.refuted_sids:
            self.false_positives += 1
        return verdict

    def verify_all(self, packets: Iterable[Packet]) -> List[Verdict]:
        return [self.verify(packet) for packet in packets]
