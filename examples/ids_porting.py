#!/usr/bin/env python3
"""Porting the Pigasus IDS to Rosebud (§7.1, Appendix A).

Follows the case study: load a ruleset into the string matcher (which
also applies each rule's port groups) at runtime (the URAM trick),
verify firmware + accelerator on the ISS, compare HW- vs SW-reordering
at 200 G against the Snort baseline, and
finally update the ruleset at runtime without reloading anything —
the capability the original Pigasus lacked.

Run:  python examples/ids_porting.py
"""

import struct

from repro.accel.pigasus import (
    PigasusStringMatcher,
    generate_ruleset,
    parse_rules,
)
from repro import SimSession
from repro.analysis import format_table
from repro.baselines import SnortBaseline
from repro.core import HashLB, RosebudConfig, RosebudSystem
from repro.core.funcsim import FunctionalRpu
from repro.firmware import (
    PIGASUS_ASM,
    PigasusHwReorderFirmware,
    PigasusSwReorderFirmware,
)
from repro.packet import build_tcp
from repro.traffic import FlowTrafficSource


def load_tables(rules):
    print("== 1. runtime table load (URAMs can't init from bitstream) ==")
    matcher = PigasusStringMatcher()
    try:
        matcher.scan(b"anything")
    except RuntimeError as exc:
        print(f"  before load: {exc}")
    cycles = matcher.load_rules(rules)
    print(f"  loaded {len(rules)} rules in ~{cycles} cycles of table writes")
    return matcher


def verify_on_iss(rules, matcher):
    print("\n== 2. single-RPU simulation of firmware + matcher ==")
    rule = next(r for r in rules if r.protocol == "tcp" and r.dst_ports.matches(80))
    rpu = FunctionalRpu(PIGASUS_ASM, accelerator=matcher)
    attack = build_tcp("1.2.3.4", "10.0.0.1", 1044, 80,
                       payload=b"<<" + rule.content + b">>", pad_to=512)
    safe = build_tcp("1.2.3.4", "10.0.0.1", 1044, 80,
                     payload=b"nothing to see here", pad_to=512)
    rpu.push_packet(attack.data)
    rpu.push_packet(safe.data)
    rpu.run_until_sent(2)
    matched, clean = rpu.sent
    (sid,) = struct.unpack("<I", matched.data[512:516])
    print(f"  attack packet -> port {matched.port} (host), appended sid {sid}")
    print(f"  safe packet   -> port {clean.port} (wire)")
    assert sid == rule.sid and matched.port == 2


def measure_ips(rules):
    print("\n== 3. HW- vs SW-reordering vs Snort at 200G ==")
    payloads = [r.content for r in rules]
    snort = SnortBaseline(rules)
    rows = []
    for size in (512, 800, 1500):
        points = {}
        for label, firmware, lb in [
            ("hw", PigasusHwReorderFirmware(rules), None),
            ("sw", PigasusSwReorderFirmware(rules), HashLB(8)),
        ]:
            config = RosebudConfig(n_rpus=8, slots_per_rpu=32)
            system = RosebudSystem(config, firmware, lb_policy=lb)
            sources = [
                FlowTrafficSource(system, port, 100.0, size,
                                  attack_fraction=0.01, attack_payloads=payloads,
                                  reorder_fraction=0.003, n_flows=2048,
                                  seed=port + 1, respect_generator_cap=False)
                for port in range(2)
            ]
            points[label] = SimSession.for_system(system, sources).measure_throughput(
                size, 200.0,
                warmup_packets=800, measure_packets=2500,
            )
        rows.append([
            size,
            points["hw"].achieved_gbps,
            points["sw"].achieved_gbps,
            snort.throughput_gbps(size),
        ])
    print(format_table(
        ["size(B)", "Rosebud HW-reorder", "Rosebud SW-reorder", "Snort+Hyperscan"],
        rows, title="  IPS throughput (Gbps), 1% attack, 0.3% reordering",
    ))


def host_side_verification(rules):
    print("\n== 5. host-side full verification of punted packets ==")
    from repro.baselines import HostFullMatcher

    multi = next(
        (r for r in rules
         if r.extra_contents and r.protocol == "tcp" and r.dst_ports.matches(80)),
        None,
    )
    if multi is None:
        print("  (no tcp/80 multi-content rules in this ruleset)")
        return
    matcher = HostFullMatcher(rules)
    system = RosebudSystem(
        RosebudConfig(n_rpus=8, slots_per_rpu=32), PigasusHwReorderFirmware(rules)
    )
    # a hardware false positive (fast pattern only) and a real attack
    fp = build_tcp("1.1.1.1", "2.2.2.2", 1, 80,
                   payload=b"~" + multi.content + b"~", pad_to=512)
    real = build_tcp("1.1.1.1", "2.2.2.2", 2, 80,
                     payload=multi.content + b" " + multi.extra_contents[0],
                     pad_to=512)
    system.offer_packet(0, fp)
    system.offer_packet(0, real)
    system.sim.run()
    verdicts = matcher.verify_all(system.host_rx)
    alerts = sum(v.is_alert for v in verdicts)
    print(f"  FPGA punted {len(system.host_rx)} suspects; host confirmed "
          f"{alerts} alert(s), refuted {matcher.false_positives} fast-pattern "
          f"false positive(s) — the Pigasus division of labor")


def runtime_rule_update(rules, matcher):
    print("\n== 4. runtime ruleset update (impossible in original Pigasus) ==")
    from repro.accel.pigasus.ruleset import PortSpec, Rule

    new_rule = Rule(sid=424242, protocol="tcp", src_ports=PortSpec(),
                    dst_ports=PortSpec(), content=b"zero-day-pattern")
    matcher.load_rules(list(rules) + [new_rule])
    sids = matcher.scan(b"..zero-day-pattern..", "tcp", 1, 80)
    print(f"  new rule hot-loaded; scan now reports sid {sids} — no FPGA "
          f"image reload, no downtime")


def main() -> None:
    rules = parse_rules(generate_ruleset(120))
    matcher = load_tables(rules)
    verify_on_iss(rules, matcher)
    measure_ips(rules)
    host_side_verification(rules)
    runtime_rule_update(rules, matcher)


if __name__ == "__main__":
    main()
