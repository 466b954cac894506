"""Tests for the parallel sweep engine.

The headline properties: pooled execution is byte-identical to serial
(determinism lives in the spec, not the schedule), cache hits skip
simulation entirely, and one bad point cannot take down a sweep.
"""

import os

import pytest

from repro.analysis import (
    ExperimentSpec,
    MeasurementWindow,
    SweepRunner,
    TrafficProfile,
    run_experiment,
)
from repro.core import RosebudConfig

FAST = MeasurementWindow(warmup_packets=150, measure_packets=400)


def _grid(sizes=(256, 512, 1024, 1500), rpus=(8,)):
    return [
        ExperimentSpec(
            config=RosebudConfig(n_rpus=n),
            traffic=TrafficProfile(packet_size=size, offered_gbps=100.0),
            window=FAST,
        )
        for n in rpus
        for size in sizes
    ]


def _boom_firmware():
    raise RuntimeError("synthetic diverging config")


def _exiting_firmware():
    os._exit(17)  # simulates a hard worker death (segfault/OOM-kill)


class TestSerialRunner:
    def test_ordered_results(self):
        specs = _grid(sizes=(256, 512))
        outcome = SweepRunner(jobs=1).run(specs)
        assert [p.index for p in outcome] == [0, 1]
        assert all(p.status == "ok" for p in outcome)
        assert outcome.points[0].result.throughput.packet_size == 256

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=1).run([])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_error_isolated_to_its_point(self):
        specs = _grid(sizes=(256,))
        specs.insert(1, specs[0].with_(firmware=_boom_firmware))
        specs.append(_grid(sizes=(512,))[0])
        outcome = SweepRunner(jobs=1).run(specs)
        assert [p.status for p in outcome] == ["ok", "error", "ok"]
        assert "synthetic diverging config" in outcome.points[1].error
        with pytest.raises(RuntimeError, match="1 sweep point"):
            outcome.raise_on_failure()

    def test_unpicklable_spec_runs_inline(self):
        specs = _grid(sizes=(256,))
        lam = lambda: __import__("repro.firmware", fromlist=["x"]).ForwarderFirmware()
        specs.append(specs[0].with_(firmware=lam))
        runner = SweepRunner(jobs=4)
        outcome = runner.run(specs)
        assert all(p.status == "ok" for p in outcome)


class TestParallelDeterminism:
    def test_pool_matches_serial_byte_identically(self):
        specs = _grid(sizes=(256, 512, 1024, 1500))
        serial = [run_experiment(spec) for spec in specs]
        outcome = SweepRunner(jobs=4).run(specs)
        assert all(p.status == "ok" for p in outcome)
        for mine, theirs in zip(serial, outcome.results):
            assert mine.throughput == theirs.throughput
            assert mine.counters == theirs.counters
            # byte-identical, not merely approximately equal
            import json

            assert json.dumps(mine.to_dict(), sort_keys=True) == json.dumps(
                theirs.to_dict(), sort_keys=True
            )

    def test_pool_crash_isolates_and_recovers(self):
        # the neighbour's window is long enough that it is certainly
        # still running when the crashing point kills its worker and
        # breaks the shared pool; only the crashing point may be blamed
        neighbour = _grid(sizes=(256,))[0].with_(
            window=MeasurementWindow(warmup_packets=150, measure_packets=16000)
        )
        specs = [
            neighbour,
            neighbour.with_(firmware=_exiting_firmware),
            _grid(sizes=(512,))[0],
        ]
        outcome = SweepRunner(jobs=2).run(specs)
        assert [p.status for p in outcome] == ["ok", "error", "ok"]
        assert "worker process died" in outcome.points[1].error


class TestCache:
    def test_second_run_simulates_nothing(self, tmp_path):
        specs = _grid(sizes=(256, 512))
        runner = SweepRunner(jobs=2, cache_dir=tmp_path / "cache")
        first = runner.run(specs)
        assert runner.stats["simulated"] == 2
        second = runner.run(specs)
        assert runner.stats["simulated"] == 0
        assert runner.stats["cached"] == 2
        assert all(p.status == "cached" for p in second)
        for a, b in zip(first.results, second.results):
            assert a.throughput == b.throughput

    def test_cache_shared_across_runners(self, tmp_path):
        specs = _grid(sizes=(256,))
        SweepRunner(jobs=1, cache_dir=tmp_path / "c").run(specs)
        other = SweepRunner(jobs=1, cache_dir=tmp_path / "c")
        other.run(specs)
        assert other.stats == {
            "cached": 1, "simulated": 0, "errors": 0, "timeouts": 0, "corrupt": 0,
        }

    def test_changed_window_misses_cache(self, tmp_path):
        specs = _grid(sizes=(256,))
        runner = SweepRunner(jobs=1, cache_dir=tmp_path / "c")
        runner.run(specs)
        changed = [specs[0].with_(window=MeasurementWindow(150, 401))]
        runner.run(changed)
        assert runner.stats["simulated"] == 1

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        specs = _grid(sizes=(256,))
        runner = SweepRunner(jobs=1, cache_dir=tmp_path / "c")
        runner.run(specs)
        for entry in (tmp_path / "c").glob("*.json"):
            entry.write_text("{not json")
        runner.run(specs)
        assert runner.stats["simulated"] == 1
        assert runner.stats["corrupt"] == 1

    def test_truncated_entry_is_recomputed_and_counted(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["sweep", "--sizes", "256,512", "--rpu-set", "8", "--jobs", "1",
                "--warmup", "150", "--packets", "400", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        assert "0 cached, 2 simulated, 0 corrupt" in capsys.readouterr().out
        entry = sorted((tmp_path / "c").glob("*.json"))[0]
        entry.write_text(entry.read_text()[:100])
        assert main(argv) == 0
        assert "1 cached, 1 simulated, 1 corrupt" in capsys.readouterr().out
        # the recomputed point was stored again
        assert main(argv) == 0
        assert "2 cached, 0 simulated, 0 corrupt" in capsys.readouterr().out

    def test_firewall_spec_hits_cache_across_builds(self, tmp_path):
        from repro.serve import spec_from_params

        def build():
            return spec_from_params({
                "firmware": "firewall", "rules": 50, "rpus": 8, "size": 512,
                "gbps": 100, "warmup": 150, "packets": 400,
            })

        SweepRunner(jobs=1, cache_dir=tmp_path / "c").run([build()])
        outcome = SweepRunner(jobs=1, cache_dir=tmp_path / "c").run([build()])
        assert outcome.points[0].status == "cached"
