"""Tests for the command-line host utilities."""

import pytest

from repro.cli import main
from repro.packet import read_pcap


class TestProfile:
    def test_profile_prints_throughput(self, capsys):
        assert main([
            "profile", "--rpus", "16", "--size", "512", "--gbps", "200",
            "--warmup", "300", "--packets", "800",
        ]) == 0
        out = capsys.readouterr().out
        assert "forwarding profile" in out
        assert "512" in out

    def test_profile_8rpus(self, capsys):
        assert main([
            "profile", "--rpus", "8", "--size", "1024", "--gbps", "200",
            "--warmup", "300", "--packets", "800",
        ]) == 0
        assert "1024" in capsys.readouterr().out


class TestLatency:
    def test_latency_sweep(self, capsys):
        assert main(["latency", "--sizes", "64,512", "--packets", "80"]) == 0
        out = capsys.readouterr().out
        assert "Eq.1" in out
        assert out.count("\n") >= 4


class TestCaseStudies:
    def test_firewall_point(self, capsys):
        assert main([
            "firewall", "--size", "512", "--rules", "200",
            "--warmup", "2500", "--packets", "1500",
        ]) == 0
        out = capsys.readouterr().out
        assert "firewall" in out and "fw drops" in out

    def test_ids_hw_point(self, capsys):
        assert main([
            "ids", "--mode", "hw", "--size", "800", "--rules", "40",
            "--warmup", "300", "--packets", "800",
        ]) == 0
        out = capsys.readouterr().out
        assert "pigasus" in out and "hw" in out

    def test_ids_sw_point(self, capsys):
        assert main([
            "ids", "--mode", "sw", "--size", "512", "--rules", "40",
            "--warmup", "300", "--packets", "800",
        ]) == 0
        assert "sw" in capsys.readouterr().out


class TestSweep:
    def test_sweep_grid_with_pool_and_cache(self, tmp_path, capsys):
        argv = [
            "sweep", "--sizes", "512,1024", "--rpu-set", "8",
            "--jobs", "2", "--warmup", "150", "--packets", "400",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "sweep.csv"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 points" in out and "2 simulated" in out
        assert (tmp_path / "sweep.csv").exists()
        # second run: every point served from the cache
        assert main(argv[:-2]) == 0
        out = capsys.readouterr().out
        assert "2 cached" in out and "0 simulated" in out

    def test_common_flags_accepted_everywhere(self):
        # --rpus/--size/--gbps/--lb parse on every subcommand that reads
        # all four (the others reject what they would ignore: see
        # TestFlagsAreRead)
        from repro.cli import build_parser

        parser = build_parser()
        for command in ("profile", "firewall", "ids", "nat", "loopback",
                        "chaos", "cluster"):
            args = parser.parse_args([
                command, "--rpus", "8", "--size", "256", "--gbps", "100",
                "--lb", "hash",
            ])
            assert args.rpus == 8 and args.size == 256
            assert args.gbps == 100.0 and args.lb == "hash"


    def test_removed_replay_cache_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--replay-cache"])
        assert exc.value.code == 2
        assert "--replay-cache" in capsys.readouterr().err


class TestResourcesAndTrace:
    def test_resources_16(self, capsys):
        assert main(["resources", "--rpus", "16"]) == 0
        out = capsys.readouterr().out
        assert "Switching" in out and "CMAC" in out

    def test_resources_8(self, capsys):
        assert main(["resources", "--rpus", "8"]) == 0
        assert "8 RPUs" in capsys.readouterr().out

    def test_trace_firewall(self, tmp_path, capsys):
        out_file = tmp_path / "fw.pcap"
        assert main([
            "trace", "--kind", "firewall", "--rules", "50",
            "--out", str(out_file),
        ]) == 0
        packets = read_pcap(out_file)
        assert len(packets) == 54  # 50 attack + 4 safe

    def test_trace_ids(self, tmp_path):
        out_file = tmp_path / "ids.pcap"
        assert main([
            "trace", "--kind", "ids", "--rules", "20", "--out", str(out_file),
        ]) == 0
        assert len(read_pcap(out_file)) == 24

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class _Captured(Exception):
    pass


@pytest.fixture
def captured(monkeypatch):
    """The specs a CLI command hands to its run call, captured instead
    of simulated."""
    import repro.cli as cli
    import repro.cluster.engine as cluster_engine

    specs = []

    def capture(spec, **_runtime):
        specs.append(spec)
        raise _Captured

    class Runner:
        def __init__(self, **_options):
            pass

        def run(self, grid):
            specs.extend(grid)
            raise _Captured

    monkeypatch.setattr(cli, "run_experiment", capture)
    monkeypatch.setattr(cli, "SweepRunner", Runner)
    monkeypatch.setattr(cluster_engine, "ClusterEngine", capture)
    return specs


_POINT = ["--rpus", "8", "--size", "256", "--gbps", "100",
          "--warmup", "150", "--packets", "400"]
_POINT_PARAMS = {"rpus": 8, "size": 256, "gbps": 100, "warmup": 150, "packets": 400}


class TestOneBuilder:
    """Each CLI experiment command builds the spec ``repro serve``'s
    ``open`` builds for the same named middlebox at the same point."""

    @pytest.mark.parametrize("argv, params", [
        (["profile", *_POINT], {"firmware": "forwarder"}),
        (["firewall", *_POINT, "--rules", "50"], {"firmware": "firewall", "rules": 50}),
        (["nat", *_POINT], {"firmware": "nat", "ports": 1}),
        (["ids", "--mode", "hw", *_POINT, "--rules", "8"],
         {"firmware": "pigasus_hw", "rules": 8}),
        (["ids", "--mode", "sw", *_POINT, "--rules", "8"],
         {"firmware": "pigasus_sw", "rules": 8}),
        (["chaos", "--firmware", "firewall", *_POINT, "--rules", "50",
          "--fault", "watchdog"],
         {"firmware": "firewall", "rules": 50, "faults": [{"kind": "watchdog"}]}),
        (["cluster", "--firmware", "firewall", *_POINT, "--rules", "50"],
         {"firmware": "firewall", "rules": 50, "cluster": 2}),
    ], ids=["profile", "firewall", "nat", "ids-hw", "ids-sw", "chaos-firewall",
            "cluster-firewall"])
    def test_point_commands(self, captured, argv, params):
        from repro.serve import spec_from_params

        with pytest.raises(_Captured):
            main(argv)
        (spec,) = captured
        assert spec.to_dict() == spec_from_params({**_POINT_PARAMS, **params}).to_dict()

    def test_sweep_nat(self, captured):
        from repro.serve import spec_from_params

        with pytest.raises(_Captured):
            main(["sweep", "--firmware", "nat", "--rpu-set", "8", "--sizes", "256,512",
                  "--gbps-set", "100", "--warmup", "150", "--packets", "400"])
        assert [spec.to_dict() for spec in captured] == [
            spec_from_params({"firmware": "nat", "rpus": 8, "size": size, "gbps": 100,
                              "warmup": 150, "packets": 400}).to_dict()
            for size in (256, 512)
        ]
        assert captured[0].name == "nat rpus=8 size=256 gbps=100"

    def test_loopback_honours_lb(self, captured):
        with pytest.raises(_Captured):
            main(["loopback", "--lb", "rr"])
        assert captured[0].lb == "rr"


#: Flags each subcommand does not read (some it once accepted and ignored).
_IGNORED = {
    "profile": ["--cpu-backend"],
    "latency": ["--size", "--gbps", "--warmup", "--cpu-backend"],
    "sweep": ["--size", "--gbps", "--rpus", "--cpu-backend"],
    "chaos": ["--cpu-backend"],
    "cluster": ["--cpu-backend"],
    "resources": ["--size", "--gbps", "--lb", "--warmup", "--packets",
                  "--cpu-backend", "--fidelity"],
    "trace": ["--rpus", "--gbps", "--lb", "--warmup", "--packets",
              "--cpu-backend", "--fidelity"],
    "verify": ["--lb", "--warmup", "--packets", "--cpu-backend", "--fidelity"],
    "calibrate": ["--rpus", "--gbps", "--lb", "--warmup", "--fidelity"],
    "disasm forwarder": ["--rpus", "--size", "--gbps", "--lb", "--warmup",
                         "--packets", "--cpu-backend", "--fidelity"],
    "image forwarder": ["--rpus", "--size", "--gbps", "--lb", "--warmup",
                        "--packets", "--cpu-backend", "--fidelity"],
}
_VALUES = {"--rpus": "8", "--size": "256", "--gbps": "100", "--lb": "hash",
           "--warmup": "100", "--packets": "100", "--cpu-backend": "interp",
           "--fidelity": "fluid"}


class TestFlagsAreRead:
    @pytest.mark.parametrize("command", sorted(_IGNORED))
    def test_ignored_flags_exit_2(self, command, capsys):
        for flag in _IGNORED[command]:
            with pytest.raises(SystemExit) as exc:
                main([*command.split(), flag, _VALUES[flag]])
            assert exc.value.code == 2, flag
            assert flag in capsys.readouterr().err
