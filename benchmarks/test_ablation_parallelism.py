"""Ablation: RPU-count parallelism for the Pigasus port (§7.1.2) and an
IMIX workload study.

The paper chose the 8-RPU layout: 16 RPUs don't have room for the
matcher (Table 1 PR headroom), while "a layout with 4 RPUs would have
more resources per RPU, but the overhead of software running on RISC-V
cores would become a bottleneck".  This benchmark quantifies that
bottleneck; the resource side is checked against the PR-region model.
"""


from repro import SimSession
from repro.analysis import format_table, rpu_cycle_budget_pps
from repro.core import RosebudConfig, RosebudSystem
from repro.firmware import ForwarderFirmware, PigasusHwReorderFirmware
from repro.hw import PIGASUS_ACCEL, components_for
from repro.traffic import FlowTrafficSource, ImixSource


def _ips_point(ids_rules, n_rpus, size):
    config = RosebudConfig(n_rpus=n_rpus, slots_per_rpu=32)
    system = RosebudSystem(config, PigasusHwReorderFirmware(ids_rules))
    payloads = [r.content for r in ids_rules]
    sources = [
        FlowTrafficSource(system, port, 100.0, size, attack_fraction=0.01,
                          attack_payloads=payloads, reorder_fraction=0.003,
                          n_flows=1024, seed=port + 1,
                          respect_generator_cap=False)
        for port in range(2)
    ]
    return SimSession.for_system(system, sources).measure_throughput(
        size, 200.0, warmup_packets=700, measure_packets=2500)


def test_ablation_pigasus_rpu_count(benchmark, emit, ids_rules):
    def run():
        rows = []
        for n_rpus in (4, 8, 16):
            result = _ips_point(ids_rules, n_rpus, 800)
            region = components_for(n_rpus)
            headroom = region.rpu_remaining
            fits = PIGASUS_ACCEL.fits_within(headroom)
            rows.append([
                n_rpus,
                result.achieved_gbps,
                100 * result.fraction_of_line,
                rpu_cycle_budget_pps(RosebudConfig(n_rpus=n_rpus).clock.freq_hz, n_rpus, 61) / 1e6,
                "yes" if fits else "NO",
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_pigasus_parallelism",
        format_table(
            ["RPUs", "Gbps @800B", "% of line", "sw limit MPPS", "accel fits PR?"],
            rows,
            title="Ablation: Pigasus parallelism (the 8-RPU sweet spot)",
        ),
    )
    by_n = {row[0]: row for row in rows}
    # 4 RPUs: software-bound well below line rate (the paper's argument)
    assert by_n[4][2] < 75.0
    # 8 RPUs: the chosen point — line rate AND the accelerator fits
    assert by_n[8][2] > 95.0
    assert by_n[8][4] == "yes"
    # 16 RPUs: fast, but the matcher does not fit the PR region
    assert by_n[16][4] == "NO"


def test_ablation_imix_workload(benchmark, emit):
    """Forwarder under IMIX vs fixed-size: the 64 B-heavy mix lands
    between the 64 B worst case and large-packet line rate."""

    def run():
        rows = []
        for label, n_rpus in (("16 RPUs", 16), ("8 RPUs", 8)):
            config = RosebudConfig(n_rpus=n_rpus,
                                   slots_per_rpu=32 if n_rpus == 8 else 16)
            system = RosebudSystem(config, ForwarderFirmware())
            sources = [
                ImixSource(system, port, 100.0, seed=port + 1,
                           respect_generator_cap=False)
                for port in range(2)
            ]
            result = SimSession.for_system(system, sources).measure_throughput(
                353, 200.0, warmup_packets=1000, measure_packets=4000)
            rows.append([label, result.achieved_gbps, result.achieved_mpps])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_imix",
        format_table(
            ["config", "Gbps (IMIX)", "MPPS"],
            rows,
            title="Ablation: IMIX (7:4:1 of 64/570/1500B) forwarding at 200G offered",
        ),
    )
    sixteen, eight = rows[0], rows[1]
    assert sixteen[1] > eight[1]  # more cores absorb the 64B majority
    assert sixteen[1] > 100.0
