"""Command-line interface — the reproduction's ``host_utils``.

The artifact drives its experiments with Makefiles and shell scripts
(``make do TEST=basic_fw ...``, ``run_latency.sh``, trace generators).
This module provides the equivalent entry points::

    python -m repro.cli profile   --rpus 16 --size 512 --gbps 200
    python -m repro.cli latency   --sizes 64,512,1500
    python -m repro.cli firewall  --size 512
    python -m repro.cli ids       --mode hw --size 800
    python -m repro.cli sweep     --sizes 64,512,1500 --rpu-set 8,16 --jobs 4
    python -m repro.cli resources --rpus 16
    python -m repro.cli trace     --kind firewall --out attack.pcap

Every experiment subcommand hands its parsed flags to
:func:`~repro.analysis.spec.spec_from_params`, the builder behind
``repro serve``'s ``open`` too, so both front doors build the same
:class:`~repro.analysis.ExperimentSpec` for the same named middlebox.
The single-point commands are rows of :data:`POINTS` sharing one
build → run → print path; ``sweep`` fans a grid out over a worker pool
(``--jobs``) with an optional on-disk result cache (``--cache-dir``).
Each subcommand accepts only the flags it reads.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .analysis import (
    ExperimentSpec,
    SweepRunner,
    SweepResult,
    estimated_latency_us,
    format_table,
    format_utilization_row,
    run_experiment,
)
from .analysis.spec import spec_from_params
from .faults import KNOWN_FAULT_KINDS, FaultSpec
from .firmware import TwoStepForwarder
from .hw import FpgaDevice, VU9P_CAPACITY

LB_CHOICES = ["none", "hash", "rr", "p2c", "least"]

#: The point flags, added per subparser by name so that each command
#: accepts only the ones it reads.
FLAGS: Dict[str, Dict[str, Any]] = {
    "rpus": dict(type=int, default=16, help="number of RPUs"),
    "size": dict(type=int, default=512, help="packet size, bytes"),
    "gbps": dict(type=float, default=200.0, help="total offered rate, Gbps"),
    "lb": dict(choices=LB_CHOICES, default=None,
               help="load-balancer policy override"),
    "warmup": dict(type=int, default=800,
                   help="warmup packets before the window"),
    "packets": dict(type=int, default=3000,
                    help="packets in the measurement window"),
    "cpu_backend": dict(choices=["interp", "translated"], default=None,
                        help="ISS execution backend (default: translated)"),
    "fidelity": dict(choices=["event", "fluid"], default=None,
                     help="simulation fidelity tier: event (pure "
                          "discrete-event) or fluid (skip provably "
                          "repetitive steady-state periods arithmetically; "
                          "counters stay byte-identical)"),
}

#: Parsed flags that are ``spec_from_params`` params of the same name.
_PARAMS = ("firmware", "rules", "rpus", "size", "gbps", "ports", "warmup",
           "packets", "cpu_backend", "fidelity")


def _add_flags(parser: argparse.ArgumentParser, *names: str, **defaults: Any) -> None:
    for name in names or FLAGS:
        kwargs = dict(FLAGS[name])
        kwargs["default"] = defaults.get(name, kwargs["default"])
        parser.add_argument("--" + name.replace("_", "-"), **kwargs)


def _spec(args: argparse.Namespace, **params: Any) -> ExperimentSpec:
    """``spec_from_params`` over the given params plus the parsed flags."""
    for name in _PARAMS:
        if getattr(args, name, None) is not None:
            params.setdefault(name, getattr(args, name))
    if getattr(args, "lb", None) is not None:
        params.setdefault("lb", None if args.lb == "none" else args.lb)
    return spec_from_params(params)


def _parse_sizes(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _parse_floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


def _print_fluid(outcome) -> None:
    """One-line fluid-tier accounting after a point's main table."""
    fluid = getattr(outcome, "fluid", None)
    if fluid is None:
        return
    occ = fluid.get("occupancy", {})
    line = (
        f"fluid tier: eligible={fluid.get('eligible')} "
        f"engaged={fluid.get('engaged')} warps={fluid.get('warps', 0)} "
        f"occupancy fluid={100 * occ.get('fluid', 0.0):.1f}% "
        f"event={100 * occ.get('event', 0.0):.1f}%"
    )
    reasons = fluid.get("reasons") or []
    if reasons:
        line += f" ({'; '.join(reasons)})"
    print(line)


def _write_report(path: Optional[str], outcome) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(outcome.to_dict(), fh, sort_keys=True, indent=1)
        print(f"wrote report to {path}")


def _loopback_setup(n_rpus: int, system) -> None:
    system.lb.host_write(system.lb.REG_ENABLE_MASK, (1 << (n_rpus // 2)) - 1)


@dataclass(frozen=True)
class Point:
    """A single-point subcommand: its spec, its flags, its one-row table.

    ``row`` gets ``(args, outcome, outcome.throughput)``; ``title`` gets
    ``(args, spec)``.
    """

    help: str
    spec: Callable[[argparse.Namespace], ExperimentSpec]
    columns: List[str]
    row: Callable[..., List[Any]]
    title: Callable[[argparse.Namespace, ExperimentSpec], str]
    flags: Tuple[Tuple[str, Dict[str, Any]], ...] = ()
    defaults: Dict[str, Any] = field(default_factory=dict)


POINTS: Dict[str, Point] = {
    "profile": Point(
        "forwarding throughput point",
        _spec,
        ["RPUs", "size(B)", "offered Gbps", "achieved Gbps", "MPPS", "% of line"],
        lambda a, o, t: [a.rpus, a.size, a.gbps, t.achieved_gbps,
                         t.achieved_mpps, 100 * t.fraction_of_line],
        lambda a, s: "basic_fw forwarding profile",
        flags=(("--ports", dict(type=int, default=2)),),
    ),
    "firewall": Point(
        "firewall case study point",
        lambda a: _spec(a, firmware="firewall"),
        ["size(B)", "absorbed Gbps", "% of line", "fw drops"],
        lambda a, o, t: [a.size, t.achieved_gbps, 100 * t.fraction_of_line,
                         o.counters.get("dropped_by_firmware", 0)],
        lambda a, s: f"firewall ({a.rules} blacklist entries, {a.rpus} RPUs)",
        flags=(("--rules", dict(type=int, default=1050)),),
    ),
    "ids": Point(
        "pigasus IPS case study point",
        lambda a: _spec(a, firmware=f"pigasus_{a.mode}"),
        ["mode", "size(B)", "Gbps", "MPPS", "cycles/pkt", "to host"],
        lambda a, o, t: [a.mode, a.size, t.achieved_gbps, t.achieved_mpps,
                         t.cycles_per_packet, o.counters.get("to_host", 0)],
        lambda a, s: f"pigasus IPS ({a.rules} rules, {a.rpus} RPUs)",
        flags=(("--mode", dict(choices=["hw", "sw"], default="hw")),
               ("--rules", dict(type=int, default=120))),
        defaults=dict(rpus=8, size=800),
    ),
    "nat": Point(
        "NAT middlebox point",
        lambda a: _spec(a, firmware="nat", ports=1),
        ["size(B)", "Gbps", "MPPS", "translated"],
        lambda a, o, t: [a.size, t.achieved_gbps, t.achieved_mpps,
                         o.firmware_totals.get("translated", 0)],
        lambda a, s: f"NAT middlebox ({a.rpus} RPUs, {s.lb or 'hash'} LB)",
        defaults=dict(rpus=8, gbps=100.0),
    ),
    "loopback": Point(
        "two-step loopback measurement",
        lambda a: _spec(a, ports=1, respect_generator_cap=False).with_(
            firmware=TwoStepForwarder, firmware_args=(a.rpus,),
            setup=functools.partial(_loopback_setup, a.rpus),
        ),
        ["size(B)", "Gbps", "% of line", "loopbacked"],
        lambda a, o, t: [a.size, t.achieved_gbps, 100 * t.fraction_of_line,
                         o.counters.get("loopbacked", 0)],
        lambda a, s: "two-step forwarding over the loopback port",
        defaults=dict(size=128, gbps=100.0),
    ),
}


def cmd_point(args: argparse.Namespace) -> int:
    """Run one :data:`POINTS` subcommand and print its one-row table."""
    point = POINTS[args.command]
    spec = point.spec(args)
    outcome = run_experiment(spec)
    print(format_table(
        point.columns, [point.row(args, outcome, outcome.throughput)],
        title=point.title(args, spec),
    ))
    _print_fluid(outcome)
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    """Low-load forwarding latency vs Eq. 1 for a size sweep."""
    rows = []
    for size in _parse_sizes(args.sizes):
        spec = _spec(args, size=size, gbps=2.0, ports=2, warmup=50,
                     measure="latency")
        summary = run_experiment(spec).latency
        rows.append([size, summary["mean"], estimated_latency_us(size)])
    print(format_table(
        ["size(B)", "measured us", "Eq.1 us"], rows, title="forwarding latency"
    ))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a (rpus x size x gbps) grid through the parallel engine."""
    specs = [
        _spec(args, rpus=rpus, size=size, gbps=gbps).with_(
            name=f"{args.firmware} rpus={rpus} size={size} gbps={gbps:g}"
        )
        for rpus in _parse_sizes(args.rpu_set)
        for size in _parse_sizes(args.sizes)
        for gbps in _parse_floats(args.gbps_set)
    ]
    if not specs:
        print("sweep: empty grid (check --sizes/--rpu-set/--gbps-set)",
              file=sys.stderr)
        return 2
    try:
        runner = SweepRunner(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            point_timeout=args.timeout,
        )
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    outcome = runner.run(specs)
    rows = []
    csv_rows: List[Dict[str, Any]] = []
    for point in outcome:
        spec = point.spec
        if point.ok:
            t = point.result.throughput
            rows.append([
                spec.config.n_rpus, t.packet_size, t.offered_gbps,
                t.achieved_gbps, t.achieved_mpps, 100 * t.fraction_of_line,
                point.status,
            ])
            fluid = point.result.fluid
            row: Dict[str, Any] = {
                "rpus": spec.config.n_rpus,
                "size": t.packet_size,
                "offered_gbps": t.offered_gbps,
                "achieved_gbps": t.achieved_gbps,
                "achieved_mpps": t.achieved_mpps,
                "pct_of_line": 100 * t.fraction_of_line,
                "status": point.status,
                # per-point fidelity occupancy: fraction of simulated
                # time each tier covered (0 fluid for pure event runs)
                "fidelity": spec.fidelity,
                "fluid_occupancy": (
                    fluid["occupancy"]["fluid"] if fluid is not None else 0.0
                ),
            }
            csv_rows.append(row)
        else:
            rows.append([
                spec.config.n_rpus, spec.traffic.packet_size,
                spec.traffic.offered_gbps, "-", "-", "-", point.status,
            ])
    print(format_table(
        ["RPUs", "size(B)", "offered Gbps", "Gbps", "MPPS", "% of line", "status"],
        rows,
        title=(
            f"{args.firmware} sweep ({len(specs)} points, jobs={args.jobs}, "
            f"{runner.stats['cached']} cached, {runner.stats['simulated']} simulated)"
        ),
    ))
    if args.out and csv_rows:
        columns = list(csv_rows[0].keys())
        SweepResult(columns=columns, rows=csv_rows).to_csv(args.out)
        print(f"wrote {len(csv_rows)} rows to {args.out}")
    return 0 if not outcome.failed else 1


def cmd_resources(args: argparse.Namespace) -> int:
    """Print the Table 1/2-style utilization report."""
    device = FpgaDevice(args.rpus)
    device.check_fits()
    comp = device.components
    rows = [
        format_utilization_row("Single RPU", comp.rpu_base, VU9P_CAPACITY),
        format_utilization_row("Remaining (PR)", comp.rpu_remaining, VU9P_CAPACITY),
        format_utilization_row("LB", comp.lb, VU9P_CAPACITY),
        format_utilization_row("Single Interconnect", comp.interconnect, VU9P_CAPACITY),
        format_utilization_row("CMAC", comp.cmac, VU9P_CAPACITY),
        format_utilization_row("PCIe", comp.pcie, VU9P_CAPACITY),
        format_utilization_row("Switching", comp.switching, VU9P_CAPACITY),
    ]
    print(format_table(
        ["Component", "LUTs", "Registers", "BRAM", "URAM", "DSP"],
        rows, title=f"base utilization, {args.rpus} RPUs",
    ))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Generate an attack trace pcap (the artifact's `make gen`)."""
    from .packet import write_pcap
    from .traffic import attack_trace_from_rules, firewall_trace

    if args.kind == "firewall":
        from .accel import generate_blacklist, parse_blacklist

        prefixes = parse_blacklist(generate_blacklist(args.rules))
        packets = firewall_trace(prefixes, packet_size=args.size)
    else:
        from .accel.pigasus import generate_ruleset, parse_rules

        rules = parse_rules(generate_ruleset(args.rules))
        packets = attack_trace_from_rules(rules, packet_size=args.size)
    count = write_pcap(args.out, packets)
    print(f"wrote {count} packets to {args.out}")
    return 0


#: --fault shorthand names -> FaultSpec field names.
_FAULT_FIELD_ALIASES = {
    "at": "at_cycles",
    "duration": "duration_cycles",
    "at_cycles": "at_cycles",
    "duration_cycles": "duration_cycles",
    "target": "target",
    "magnitude": "magnitude",
    "seed": "seed",
}


def _fault_value(text: str) -> Any:
    """Best-effort typing for --fault values: int, then float, then str."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_fault_arg(text: str) -> FaultSpec:
    """Parse one ``--fault kind:key=val,key=val`` argument.

    Keys matching FaultSpec fields (``at``/``at_cycles``, ``target``,
    ``duration``/``duration_cycles``, ``magnitude``, ``seed``) set those
    fields; everything else rides in ``params`` (e.g. ``mode=lose``,
    ``threshold_cycles=30000``).
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in KNOWN_FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; choices: {sorted(KNOWN_FAULT_KINDS)}"
        )
    fields: Dict[str, Any] = {}
    params: Dict[str, Any] = {}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"--fault item {item!r} is not key=value")
        key = key.strip()
        if key in _FAULT_FIELD_ALIASES:
            fields[_FAULT_FIELD_ALIASES[key]] = _fault_value(value.strip())
        else:
            params[key] = _fault_value(value.strip())
    return FaultSpec(kind=kind, params=tuple(sorted(params.items())), **fields)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a fault-injection campaign and print the resilience report."""
    try:
        faults = tuple(parse_fault_arg(text) for text in args.fault)
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    if not faults:
        print("chaos: no --fault given (try --fault reconfig:at=200000,"
              "target=0,pr_load_ms=0.1)", file=sys.stderr)
        return 2
    spec = _spec(args, faults=faults)
    outcome = run_experiment(spec)
    result = outcome.throughput
    resilience = outcome.resilience or {}
    dip = resilience.get("dip", {})
    print(format_table(
        ["RPUs", "size(B)", "Gbps", "baseline Gbps", "min Gbps", "dip depth",
         "dip width (cyc)"],
        [[args.rpus, args.size, result.achieved_gbps,
          dip.get("baseline_gbps", 0.0), dip.get("min_gbps", 0.0),
          dip.get("depth", 0.0), dip.get("width_cycles", 0.0)]],
        title=f"chaos: {', '.join(f.kind for f in faults)}",
    ))
    watchdog_rows = [
        [w["rpu"], w["detected_at"], w["packets_lost"], w["recovery_cycles"]]
        for w in resilience.get("watchdog", [])
    ]
    if watchdog_rows:
        print(format_table(
            ["RPU", "detected at (cyc)", "packets lost", "MTTR (cyc)"],
            watchdog_rows, title="watchdog recoveries",
        ))
    mac = resilience.get("mac", {})
    print(f"time to detect: {resilience.get('time_to_detect_cycles', 0.0):g} cycles; "
          f"packets lost to eviction: {resilience.get('packets_lost', 0)}; "
          f"csum drops: {mac.get('rx_csum_drops', 0)}; "
          f"link drops: {mac.get('rx_link_drops', 0)}; "
          f"poisoned accel results: {resilience.get('accel_results_poisoned', 0)}")
    _print_fluid(outcome)
    _write_report(args.json, outcome)
    return 0


def parse_cluster_event(text: str):
    """``KIND:AT:BOARD`` -> a cluster event tuple, e.g. ``drain:50000:1``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"cluster event {text!r} is not KIND:AT_CYCLES:BOARD "
            "(e.g. drain:50000:1)"
        )
    kind, at, board = parts
    return (float(at), kind, int(board))


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run an N-board cluster point and print the rack-level report."""
    from .cluster.engine import ClusterEngine

    try:
        events = [parse_cluster_event(text) for text in args.event]
    except ValueError as exc:
        print(f"cluster: {exc}", file=sys.stderr)
        return 2
    spec = _spec(args, cluster=dict(
        boards=args.boards,
        link_gbps=args.link_gbps,
        link_latency_cycles=args.link_latency_cycles,
        affinity=args.affinity,
        watchdog_horizons=args.watchdog_horizons,
    ))
    outcome = ClusterEngine(spec, shards=args.shards, events=events).run_to_completion()
    result = outcome.throughput
    cluster = outcome.cluster
    cross = cluster["cross_board"]
    print(format_table(
        ["boards", "RPUs/board", "size(B)", "offered Gbps", "achieved Gbps",
         "MPPS", "x-board pkts", "repinned"],
        [[args.boards, args.rpus, args.size, result.offered_gbps,
          result.achieved_gbps, result.achieved_mpps,
          cross["packets"], cross["repinned_flows"]]],
        title=f"cluster: {args.boards}x boards, {args.affinity} affinity, "
              f"{args.shards} shard(s)",
    ))
    if cluster.get("fluid") is not None:
        print(format_table(
            ["board", "live", "completions", "tx pkts", "rx drops",
             "fluid occ", "warps", "de-opts"],
            [[b["board"], b["live"], b["completions"], b["tx_packets"],
              b["rx_drops"],
              f"{b['fluid']['occupancy']['fluid']:.1%}",
              b["fluid"]["warps"], b["fluid"]["cross_deopts"]]
             for b in cluster["per_board"]],
            title="per board",
        ))
        agg = cluster["fluid"]
        print(f"fluid: {agg['boards_engaged']}/{len(cluster['per_board'])} "
              f"boards warping, {agg['warps']} warps "
              f"({agg['periods_warped']} periods, "
              f"{agg['warped_cycles']:g} cycles), "
              f"{agg['cross_deopts']} cross-board de-opts, "
              f"occupancy {agg['occupancy']['fluid']:.1%} fluid")
    else:
        print(format_table(
            ["board", "live", "completions", "tx pkts", "rx drops"],
            [[b["board"], b["live"], b["completions"], b["tx_packets"],
              b["rx_drops"]] for b in cluster["per_board"]],
            title="per board",
        ))
    resilience = cluster["resilience"]
    if cluster["events"] or resilience["watchdog"]:
        for event in cluster["events"]:
            print(f"  t={event['t']:g}: {event['kind']} board {event['board']}"
                  f" ({event['source']})")
        dip = resilience["dip"]
        print(f"dip: baseline={dip['baseline_gbps']:.1f} Gbps "
              f"min={dip['min_gbps']:.1f} Gbps depth={dip['depth']:.3f} "
              f"width={dip['width_cycles']:g} cyc; "
              f"MTTR={resilience['mttr_cycles']:g} cyc")
    _write_report(args.json, outcome)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Time the forwarder loop on one functional RPU (ISS calibration).

    Reports cycles/packet (the §6.1 firmware-loop number) and host-side
    instructions/sec for the selected ``--cpu-backend``, so the cost of
    a simulation campaign can be estimated before launching it.
    """
    import time

    from .core.funcsim import FunctionalRpu
    from .firmware import FORWARDER_ASM
    from .riscv import get_default_backend

    backend = args.cpu_backend or get_default_backend()
    rpu = FunctionalRpu(FORWARDER_ASM, cpu_backend=backend)
    payload = bytes(range(256)) * ((args.size + 255) // 256)
    packets = max(args.packets, 10)

    start_instret = rpu.cpu.instret
    wall = 0.0
    for i in range(packets):
        rpu.push_packet(payload[: args.size], port=i % 2)
        t0 = time.perf_counter()
        rpu.run_until_sent(len(rpu.sent) + 1)
        wall += time.perf_counter() - t0
    instructions = rpu.cpu.instret - start_instret

    deltas = FunctionalRpu(FORWARDER_ASM, cpu_backend=backend).measure_cycles_per_packet(
        [payload[: args.size]] * 8
    )
    cycles_per_pkt = deltas[-1] if deltas else 0
    ips = instructions / wall if wall > 0 else float("inf")
    print(format_table(
        ["backend", "packets", "cycles/pkt", "instructions", "inst/sec"],
        [[backend, packets, cycles_per_pkt, instructions, f"{ips:,.0f}"]],
        title="ISS calibration (forwarder firmware)",
    ))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Online serving mode: a line-delimited JSON-RPC session loop.

    Interactive by default (requests on stdin, ``repro-serve/1``
    replies on stdout); ``--script scenario.jsonl`` replays a recorded
    scenario instead, and ``--check`` makes any error reply fail the
    exit status (the CI smoke mode).
    """
    from .serve.rpc import serve_loop

    if args.script and args.script != "-":
        with open(args.script) as fh:
            return serve_loop(fh, sys.stdout, check=args.check)
    return serve_loop(sys.stdin, sys.stdout, check=args.check)


def cmd_verify(args: argparse.Namespace) -> int:
    """Static firmware verification: CFG/WCET budget + MMIO + replay lint.

    ``--deep`` additionally prints what the abstract interpreter proved:
    the memory-safety verdict of every load/store site with its abstract
    address, the inferred loop bounds with their provenance
    (inferred / annotation / default), and the worst-case stack depth.

    Exit status: 0 = every verified firmware PASSes, 1 = at least one
    FAILs (or has error-level diagnostics), 2 = unknown firmware name.
    """
    from .verify import bundled_firmware_names, reports_to_json, verify_firmware

    names = bundled_firmware_names()
    if args.all:
        targets = names
    else:
        if args.fw is None:
            print(f"choose --fw {{{','.join(names)}}} or --all")
            return 2
        if args.fw not in names:
            print(f"unknown firmware {args.fw!r}; bundled: {names}")
            return 2
        targets = [args.fw]

    reports = []
    for name in targets:
        # point overrides apply only when given; otherwise each firmware
        # is verified at its registry-documented operating point
        reports.append(
            verify_firmware(
                name, n_rpus=args.rpus, packet_size=args.size, gbps=args.gbps
            )
        )

    if args.json is not None:
        payload = reports_to_json(reports)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.json}")
    else:
        rows = []
        for r in reports:
            print(r.verdict.summary())
            print(f"  critical path: {r.wcet.chain()}")
            for handler, cycles in sorted(r.wcet.handlers.items()):
                print(f"  handler {handler}: {cycles:.0f} cycles (incl. trap entry)")
            if r.lint is not None:
                print(f"  replay lint: {r.lint.cls_name} is {r.lint.classification}")
            s = r.safety
            print(
                f"  memory safety: {'PASS' if s.passed else 'FAIL'} — "
                f"{s.proven} proven / {s.unproven} unproven / "
                f"{s.violations} violation(s); stack "
                f"{s.stack_depth_bytes}/{s.stack_limit_bytes} B"
            )
            if args.deep:
                bounds = r.wcet.loop_bounds or {}
                prov = r.wcet.bound_provenance or {}
                for label in sorted(bounds):
                    print(
                        f"  loop {label}: bound {bounds[label]} "
                        f"({prov.get(label, 'default')})"
                    )
                for c in s.checks:
                    extra = ""
                    if c.within_pkt_len is not None:
                        extra = (
                            "  [within pkt_len]" if c.within_pkt_len
                            else "  [may exceed pkt_len]"
                        )
                    print(
                        f"    {c.pc:#06x} {c.kind:<5} {c.nbytes}B "
                        f"{c.addr_desc:<28} {c.verdict:<9} "
                        f"{c.region or '-':<12} {c.detail}{extra}"
                    )
            for d in r.all_diagnostics():
                print(f"  {d.format()}")
            rows.append([
                r.name, r.verdict.verdict, f"{r.wcet.wcet_cycles:.0f}",
                f"{r.verdict.budget_cycles:.1f}", f"{r.verdict.headroom_pct:+.1f}%",
                f"{r.verdict.ceiling_gbps:.1f}", r.point.n_rpus,
                r.point.packet_size, f"{r.point.gbps:g}",
            ])
        if len(reports) > 1:
            print(format_table(
                ["firmware", "verdict", "wcet", "budget", "headroom",
                 "ceiling Gbps", "rpus", "size", "Gbps"],
                rows, title="static verification",
            ))
    return 0 if all(r.passed for r in reports) else 1


def _bundled_asm() -> dict:
    """``{name: assembly source}`` for every firmware in the registry."""
    from .verify import bundled_firmwares

    return {fw.name: fw.asm for fw in bundled_firmwares()}


def cmd_disasm(args: argparse.Namespace) -> int:
    """Disassemble a bundled firmware or an RFW image file."""
    from .riscv import assemble
    from .riscv.disasm import disassemble
    from .riscv.image import FirmwareImage, SEG_IMEM

    bundled = _bundled_asm()
    if args.target in bundled:
        image_bytes = assemble(bundled[args.target]).image
    elif os.path.isfile(args.target):
        with open(args.target, "rb") as fh:
            image_bytes = FirmwareImage.from_bytes(fh.read()).segment(SEG_IMEM).payload
    else:
        print(f"{args.target!r} is neither an RFW file nor a bundled "
              f"firmware; bundled: {list(bundled)}")
        return 2
    for line in disassemble(image_bytes):
        print(line)
    return 0


def cmd_image(args: argparse.Namespace) -> int:
    """Build an RFW firmware image from a bundled firmware."""
    from .riscv.image import FirmwareImage

    bundled = _bundled_asm()
    if args.firmware not in bundled:
        print(f"unknown firmware {args.firmware!r}; bundled: {list(bundled)}")
        return 2
    image = FirmwareImage.from_asm(bundled[args.firmware])
    blob = image.to_bytes()
    with open(args.out, "wb") as fh:
        fh.write(blob)
    print(f"wrote {len(blob)} bytes ({len(image.segments)} segments) to {args.out}")
    return 0


def _campaign_flags(p: argparse.ArgumentParser, **defaults: Any) -> None:
    """The point flags plus what chaos and cluster both add to them."""
    _add_flags(p, **defaults)
    p.add_argument("--firmware", choices=["forwarder", "firewall"],
                   default="forwarder")
    p.add_argument("--rules", type=int, default=1050,
                   help="blacklist size for --firmware firewall")
    p.add_argument("--ports", type=int, default=2)
    p.add_argument("--json", default=None, help="write the full report as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Rosebud reproduction host utilities"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, point in POINTS.items():
        p = sub.add_parser(name, help=point.help)
        _add_flags(p, **point.defaults)
        for flag, kwargs in point.flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=cmd_point)

    # no prefix matching where a point flag would abbreviate a grid
    # flag (--size -> --sizes, --gbps -> --gbps-set) instead of failing
    p = sub.add_parser("latency", help="latency sweep vs Eq.1", allow_abbrev=False)
    _add_flags(p, "rpus", "lb", "packets", "cpu_backend", "fidelity", packets=200)
    p.add_argument("--sizes", default="64,512,1500")
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("sweep", help="grid sweep through the parallel engine",
                       allow_abbrev=False)
    _add_flags(p, "lb", "warmup", "packets", "cpu_backend", "fidelity")
    p.add_argument("--firmware", choices=["forwarder", "nat"], default="forwarder")
    p.add_argument("--sizes", default="64,512,1500",
                   help="comma-separated packet sizes")
    p.add_argument("--rpu-set", default="16", help="comma-separated RPU counts")
    p.add_argument("--gbps-set", default="200", help="comma-separated offered rates")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--ports", type=int, default=2)
    p.add_argument("--cache-dir", default=None,
                   help="skip points already measured into this directory")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-point wall-clock limit, seconds")
    p.add_argument("--out", default=None, help="CSV path for the rows")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("chaos", help="fault-injection campaign + resilience report")
    _campaign_flags(p, gbps=80.0, rpus=8, packets=20000, warmup=2000)
    p.add_argument("--fault", action="append", default=[],
                   metavar="KIND:KEY=VAL,...",
                   help="add a fault, e.g. rpu_wedge:at=100000,target=3 "
                        "(repeatable; kinds: " + ",".join(sorted(KNOWN_FAULT_KINDS)) + ")")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("cluster", help="N-board rack point (flow-affine scale-out)")
    _campaign_flags(p, gbps=80.0, rpus=8, packets=6000, warmup=500)
    p.add_argument("--boards", type=int, default=2, help="boards in the rack")
    p.add_argument("--link-gbps", type=float, default=100.0,
                   help="inter-board link rate per direction")
    p.add_argument("--link-latency-cycles", type=float, default=250.0,
                   help="inter-board propagation latency (also the "
                        "barrier lookahead; larger values give fluid "
                        "boards longer uninterrupted warp windows)")
    p.add_argument("--affinity", choices=["hash", "local"], default="hash",
                   help="flow steering policy across boards")
    p.add_argument("--watchdog-horizons", type=int, default=8,
                   help="zero-progress horizons before board eviction "
                        "(0 disables failover)")
    p.add_argument("--shards", type=int, default=1,
                   help="worker processes to spread the boards over "
                        "(results are byte-identical for any value)")
    p.add_argument("--event", action="append", default=[],
                   metavar="KIND:AT:BOARD",
                   help="schedule a liveness event, e.g. drain:50000:1 "
                        "(kinds: drain, restore, wedge_board, unwedge_board; "
                        "repeatable)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("resources", help="utilization report")
    _add_flags(p, "rpus")
    p.set_defaults(func=cmd_resources)

    p = sub.add_parser("calibrate", help="ISS speed/cycles-per-packet calibration")
    _add_flags(p, "size", "packets", "cpu_backend", packets=200)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("serve",
                       help="interactive JSON-RPC session over stdin/stdout")
    p.add_argument("--script", default=None, metavar="PATH",
                   help="replay a .jsonl scenario ('-' or omitted: stdin)")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero if any request errors (scripted mode)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("verify", help="static firmware verification (CFG/WCET "
                                      "budget, MMIO footprint, replay lint)")
    # unset point flags fall back to each firmware's registry-documented
    # operating point, not the generic experiment defaults
    _add_flags(p, "rpus", "size", "gbps", rpus=None, size=None, gbps=None)
    p.add_argument("--fw", default=None,
                   help="bundled firmware to verify (see repro.verify registry)")
    p.add_argument("--all", action="store_true",
                   help="verify every bundled firmware at its documented point")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="emit the repro-verify/1 JSON report to PATH ('-' for "
                        "stdout) instead of the table")
    p.add_argument("--deep", action="store_true",
                   help="print the abstract-interpretation detail: per-access "
                        "memory-safety verdicts with provenance, inferred "
                        "loop bounds, worst-case stack depth")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("disasm", help="disassemble firmware")
    p.add_argument("target", help="bundled firmware name (see `verify --all`) or .rfw file")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("image", help="build an RFW firmware image")
    p.add_argument("firmware", help="bundled firmware name (see `verify --all`)")
    p.add_argument("--out", default="firmware.rfw")
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("trace", help="generate an attack pcap")
    _add_flags(p, "size")
    p.add_argument("--kind", choices=["firewall", "ids"], default="firewall")
    p.add_argument("--rules", type=int, default=100)
    p.add_argument("--out", default="attack.pcap")
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
