#!/usr/bin/env python3
"""Extending Rosebud: a custom LB policy and a from-scratch NAT.

Two things the framework is *for* but the paper's case studies don't
show directly:

1. **A custom load balancer** (§4.2: "developers can customize the LB
   policy to the application's requirements").  We compare round robin,
   pure flow hashing, and a user-written power-of-two-choices policy
   under a skewed flow population.
2. **A new middlebox on the public API**: a source NAT with in-place
   header rewriting and an RFC 1624 incremental-checksum accelerator —
   stateful, per-RPU connection tables, no cross-RPU coherence thanks
   to flow affinity.

Run:  python examples/custom_lb_and_nat.py
"""

from repro import SimSession
from repro.analysis import format_table
from repro.core import (
    HashLB,
    PowerOfTwoChoicesLB,
    RosebudConfig,
    RosebudSystem,
    RoundRobinLB,
)
from repro.firmware import ForwarderFirmware, NatFirmware
from repro.packet import IPV4_HEADER_SIZE, internet_checksum, build_tcp
from repro.traffic import FixedSizeSource


def compare_lb_policies() -> None:
    print("== custom LB policies under flow skew (16 flows, 8 RPUs) ==")
    rows = []
    for name, policy in [
        ("round_robin", RoundRobinLB()),
        ("hash", HashLB(8)),
        ("power_of_two (custom)", PowerOfTwoChoicesLB(8)),
    ]:
        system = RosebudSystem(
            RosebudConfig(n_rpus=8, slots_per_rpu=32),
            ForwarderFirmware(),
            lb_policy=policy,
        )
        sources = [
            FixedSizeSource(system, port, 100.0, 512, n_flows=16,
                            seed=port + 1, respect_generator_cap=False)
            for port in range(2)
        ]
        result = SimSession.for_system(system, sources).measure_throughput(
            512, 200.0, warmup_packets=800, measure_packets=3000)
        counts = result.rpu_packet_counts
        rows.append([
            name, result.achieved_gbps,
            min(counts), max(counts),
            "yes" if name != "round_robin" else "no",
        ])
    print(format_table(
        ["policy", "Gbps", "min/RPU", "max/RPU", "flow affinity"], rows
    ))


def run_the_nat() -> None:
    print("\n== a NAT middlebox on the public API ==")
    system = RosebudSystem(
        RosebudConfig(n_rpus=8), NatFirmware(public_ip="198.51.100.1"),
        lb_policy=HashLB(8),
    )
    delivered = []
    system.on_delivery = delivered.append
    for sport in (1111, 2222, 3333):
        system.offer_packet(
            0, build_tcp("10.0.0.5", "93.184.216.34", sport, 443,
                         payload=b"GET /", pad_to=256),
        )
    system.sim.run()
    rows = []
    for pkt in delivered:
        ip_header = pkt.data[14 : 14 + IPV4_HEADER_SIZE]
        rows.append([
            f"{pkt.parsed.ipv4.src}:{pkt.parsed.tcp.src_port}",
            f"{pkt.parsed.ipv4.dst}:{pkt.parsed.tcp.dst_port}",
            "valid" if internet_checksum(ip_header) == 0 else "BROKEN",
        ])
    print(format_table(["translated source", "destination", "IP checksum"], rows))
    print("  -> headers rewritten in shared packet memory; checksums fixed")
    print("     incrementally by the RFC 1624 accelerator (3 updates/packet)")


def main() -> None:
    compare_lb_policies()
    run_the_nat()


if __name__ == "__main__":
    main()
