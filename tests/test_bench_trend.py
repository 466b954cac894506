"""The bench-trend gate (benchmarks/trend.py) must actually gate.

Loads the tool by file path (benchmarks/ is not a package), feeds it
synthetic probe results, and proves: in-band metrics pass, an
artificially degraded metric fails with a REGRESSED row, identity
booleans are exact, missing metrics are loud by default, and
``--update`` preserves hand-tuned bands.  Also checks the *committed*
baselines stay consistent with the tool's own schema.
"""

import json
from pathlib import Path

import pytest

from .conftest import BENCH_DIR, load_bench_module

trend = load_bench_module("trend")


def write_probe(directory: Path, probe: str, metrics: dict) -> None:
    (directory / f"{probe}.json").write_text(
        json.dumps({"schema": "repro-bench/1", "probe": probe, "metrics": metrics})
    )


@pytest.fixture
def results_dir(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    write_probe(
        directory,
        "demo_probe",
        {
            "gbps": 100.0,
            "speedup": 4.0,
            "elapsed_s": 2.0,
            "identical": True,
            "floor_gbps": 90.0,  # floors are never gated
            "n_rpus": 8,  # config echoes are never gated
        },
    )
    return directory


def test_collect_flattens_and_skips_non_metrics(results_dir):
    flat = trend.collect_results(results_dir)
    assert flat == {
        "demo_probe.gbps": 100.0,
        "demo_probe.speedup": 4.0,
        "demo_probe.elapsed_s": 2.0,
        "demo_probe.identical": True,
    }


def test_update_then_gate_passes(results_dir, tmp_path):
    baselines_path = tmp_path / "baselines.json"
    results = trend.collect_results(results_dir)
    trend.update_baselines(results, baselines_path)
    rows = trend.compare(trend.load_baselines(baselines_path), results)
    assert rows and all(row["status"] == "ok" for row in rows)
    assert (
        trend.main([
            "--results-dir", str(results_dir), "--baselines", str(baselines_path),
            "--bench-dir", str(tmp_path),
        ])
        == 0
    )


def test_degraded_metric_fails_the_gate(results_dir, tmp_path):
    baselines_path = tmp_path / "baselines.json"
    trend.update_baselines(trend.collect_results(results_dir), baselines_path)
    # degrade one deterministic metric past its 5% band
    write_probe(
        results_dir,
        "demo_probe",
        {"gbps": 80.0, "speedup": 4.0, "elapsed_s": 2.0, "identical": True},
    )
    results = trend.collect_results(results_dir)
    rows = trend.compare(trend.load_baselines(baselines_path), results)
    status = {row["key"]: row["status"] for row in rows}
    assert status["demo_probe.gbps"] == "REGRESSED"
    assert status["demo_probe.speedup"] == "ok"
    assert (
        trend.main([
            "--results-dir", str(results_dir), "--baselines", str(baselines_path),
            "--bench-dir", str(tmp_path),
        ])
        == 1
    )
    # the report names the regression with its band
    report = trend.format_report(rows)
    assert "REGRESSED" in report and "demo_probe.gbps" in report


def test_identity_booleans_are_exact(results_dir, tmp_path):
    baselines_path = tmp_path / "baselines.json"
    trend.update_baselines(trend.collect_results(results_dir), baselines_path)
    write_probe(
        results_dir,
        "demo_probe",
        {"gbps": 100.0, "speedup": 4.0, "elapsed_s": 2.0, "identical": False},
    )
    rows = trend.compare(
        trend.load_baselines(baselines_path), trend.collect_results(results_dir)
    )
    status = {row["key"]: row["status"] for row in rows}
    assert status["demo_probe.identical"] == "REGRESSED"


def test_missing_metric_is_loud_unless_allowed(results_dir, tmp_path):
    baselines_path = tmp_path / "baselines.json"
    trend.update_baselines(trend.collect_results(results_dir), baselines_path)
    (results_dir / "demo_probe.json").unlink()
    # the probe script exists, so its absent result is also a
    # probe-level absence — but it IS baselined, so --allow-missing
    # still excuses it (partial local runs stay possible)
    (tmp_path / "demo_probe.py").write_text("# probe stub\n")
    argv = [
        "--results-dir", str(results_dir), "--baselines", str(baselines_path),
        "--bench-dir", str(tmp_path),
    ]
    assert trend.main(argv) == 1
    assert trend.main(argv + ["--allow-missing"]) == 0


def test_unbaselined_absent_probe_fails_even_with_allow_missing(
    results_dir, tmp_path, capsys
):
    """A probe that crashed before persisting AND was never baselined
    must not silently pass: there are no MISSING rows to trip on, so
    the probe-level completeness check is the only thing that catches
    it — and --allow-missing does not excuse it."""
    baselines_path = tmp_path / "baselines.json"
    trend.update_baselines(trend.collect_results(results_dir), baselines_path)
    (tmp_path / "demo_probe.py").write_text("# probe stub\n")
    (tmp_path / "brandnew_probe.py").write_text("# probe stub\n")
    argv = [
        "--results-dir", str(results_dir), "--baselines", str(baselines_path),
        "--bench-dir", str(tmp_path),
    ]
    assert trend.main(argv) == 1
    assert trend.main(argv + ["--allow-missing"]) == 1
    assert "brandnew_probe" in capsys.readouterr().out


def test_expected_probes_derive_from_scripts(tmp_path):
    (tmp_path / "alpha_probe.py").write_text("# probe stub\n")
    (tmp_path / "beta_probe.py").write_text("# probe stub\n")
    (tmp_path / "helper.py").write_text("# not a probe\n")
    assert trend.expected_probes(tmp_path) == {"alpha_probe", "beta_probe"}


def test_repo_probe_scripts_all_baselined():
    """Every committed *_probe.py has baseline coverage, so the
    probe-level gate can excuse partial runs without going blind."""
    baselined = {k.split(".", 1)[0] for k in trend.load_baselines()}
    assert trend.expected_probes() <= baselined


def test_source_size_metrics_may_shrink_but_not_grow():
    """loc_probe's ``*_lines`` get a zero-tolerance, lower-is-better
    band: one added line needs a baseline bump."""
    band = trend.default_band("riscv_lines", 2789)
    assert band == {"value": 2789, "tolerance": 0.0, "direction": "lower"}
    assert trend.check_metric(band, 2789)["status"] == "ok"
    assert trend.check_metric(band, 2500)["status"] == "ok"
    assert trend.check_metric(band, 2790)["status"] == "REGRESSED"
    committed = trend.load_baselines()
    loc = {k: v for k, v in committed.items() if k.startswith("loc_probe.")}
    assert "loc_probe.total_lines" in loc
    assert all(v["direction"] == "lower" and v["tolerance"] == 0 for v in loc.values())
    # reach_probe's unexplained dead code per package: the same ratchet
    assert trend.default_band("core_unreached", 0) == {
        "value": 0, "tolerance": 0.0, "direction": "lower"}
    reach = {k: v for k, v in committed.items() if k.startswith("reach_probe.")}
    assert "reach_probe.total_unreached" in reach
    assert all(v["direction"] == "lower" and v["tolerance"] == 0 for v in reach.values())


def test_update_preserves_hand_tuned_bands(results_dir, tmp_path):
    baselines_path = tmp_path / "baselines.json"
    trend.update_baselines(trend.collect_results(results_dir), baselines_path)
    doc = json.loads(baselines_path.read_text())
    doc["metrics"]["demo_probe.gbps"]["tolerance"] = 0.33
    baselines_path.write_text(json.dumps(doc))
    # values move with the new results; the hand-tuned band survives
    write_probe(
        results_dir,
        "demo_probe",
        {"gbps": 120.0, "speedup": 4.0, "elapsed_s": 2.0, "identical": True},
    )
    metrics = trend.update_baselines(
        trend.collect_results(results_dir), baselines_path
    )
    assert metrics["demo_probe.gbps"]["value"] == 120.0
    assert metrics["demo_probe.gbps"]["tolerance"] == 0.33


def test_update_keeps_exact_numeric_gates(results_dir, tmp_path):
    """An identity count (``verify_probe.proven_accesses``) stays an
    exact gate across ``--update``: it must not turn into a 5% band
    that a lost proof slips through."""
    baselines_path = tmp_path / "baselines.json"
    trend.update_baselines(trend.collect_results(results_dir), baselines_path)
    doc = json.loads(baselines_path.read_text())
    doc["metrics"]["demo_probe.gbps"] = {"value": 100.0, "exact": True}
    baselines_path.write_text(json.dumps(doc))
    metrics = trend.update_baselines(
        trend.collect_results(results_dir), baselines_path
    )
    assert metrics["demo_probe.gbps"] == {"value": 100.0, "exact": True}
    assert trend.check_metric(metrics["demo_probe.gbps"], 97.0)["status"] == "REGRESSED"


def test_band_classes():
    assert trend.default_band("p.elapsed_s", 2.0)["direction"] == "lower"
    assert (
        trend.default_band("p.elapsed_s", 2.0)["tolerance"]
        == trend.ABS_SECONDS_TOLERANCE
    )
    assert trend.default_band("p.events_per_sec", 5e5) == {
        "value": 5e5,
        "tolerance": trend.ABS_RATE_TOLERANCE,
        "direction": "higher",
    }
    assert trend.default_band("p.speedup", 4.0)["tolerance"] == trend.RATIO_TOLERANCE
    assert trend.default_band("p.hit_rate", 0.97)["tolerance"] == trend.TIGHT_TOLERANCE
    assert trend.default_band("p.ok", True) == {"value": True, "exact": True}


def test_committed_baselines_are_well_formed():
    """The repo's own baselines.json parses and every entry is sane."""
    metrics = trend.load_baselines(BENCH_DIR / "baselines.json")
    assert metrics, "committed baselines.json must not be empty"
    for key, band in metrics.items():
        assert "." in key, key
        assert "value" in band, key
        if not band.get("exact"):
            assert band.get("direction") in ("higher", "lower"), key
            # zero is a band too: source-size metrics may not grow at all
            assert float(band.get("tolerance", -1)) >= 0, key
    # the 1-shard == 2-shard rack identity is gated, exactly
    assert metrics["fluid_contended_probe.cluster_shards_identical"] == {
        "value": True,
        "exact": True,
    }


def test_committed_baselines_name_existing_probes():
    """No orphan bands: every probe a committed baseline names is a
    ``benchmarks/<probe>.py`` script, so retiring a probe retires its
    bands with it."""
    baselined = {key.split(".", 1)[0] for key in trend.load_baselines()}
    assert baselined - trend.expected_probes() == set()
