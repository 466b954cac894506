"""Sweep CSV artifacts (``repro sweep --out``) and a real sweep grid."""

import csv

import pytest

from repro import ExperimentSpec, MeasurementWindow, SweepRunner, TrafficProfile
from repro.cli import main
from repro.core import RosebudConfig
from repro.firmware import ForwarderFirmware

SWEEP = ["sweep", "--sizes", "512,1024", "--rpu-set", "8", "--gbps-set", "100",
         "--warmup", "150", "--packets", "400"]


class TestCsv:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert main([*SWEEP, "--out", str(path)]) == 0
        assert "wrote 2 rows" in capsys.readouterr().out
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["size"]) for row in rows] == [512, 1024]
        assert {row["rpus"] for row in rows} == {"8"}
        assert all(0 < float(row["achieved_gbps"]) <= 100.0 for row in rows)
        assert {row["status"] for row in rows} == {"ok"}

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "sweep.csv"
        assert main([*SWEEP, "--out", str(path)]) == 0
        assert path.exists()


class TestWithRealExperiment:
    def test_forwarding_sweep_end_to_end(self):
        grid = {
            (size, rpus): ExperimentSpec(
                config=RosebudConfig(n_rpus=rpus),
                firmware=ForwarderFirmware,
                traffic=TrafficProfile(packet_size=size, offered_gbps=200),
                window=MeasurementWindow(warmup_packets=300, measure_packets=800),
            )
            for size in (512, 1024)
            for rpus in (8, 16)
        }
        outcome = SweepRunner(jobs=1).run(list(grid.values())).raise_on_failure()
        gbps = {
            point: result.throughput.achieved_gbps
            for point, result in zip(grid, outcome.results)
        }
        # 16-RPU >= 8-RPU at every size
        for size in (512, 1024):
            assert gbps[(size, 16)] >= gbps[(size, 8)] - 1.0
        assert gbps[(1024, 16)] == pytest.approx(200.0, rel=0.05)
