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
        # the shared parent parser: --rpus/--size/--gbps/--lb parse on
        # every experiment subcommand
        from repro.cli import build_parser

        parser = build_parser()
        for command in ("profile", "latency", "firewall", "ids", "nat",
                        "loopback", "sweep", "resources", "trace"):
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
