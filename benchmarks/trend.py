"""Bench-trend regression gate: probe results vs committed baselines.

``make bench-smoke`` leaves one schema-stamped JSON per probe under
``benchmarks/results/``; this tool compares those numbers against
``benchmarks/baselines.json`` with per-metric tolerance bands and
fails (exit 1) on any regression, printing a before/after table.  CI
runs it after the smoke probes so a slow drift that stays above the
hard floors still trips the gate.

Baseline entries::

    "fluid_probe.speedup": {"value": 297.3, "tolerance": 0.85, "direction": "higher"}

* ``direction: higher`` — the metric must stay >= value * (1 - tolerance)
* ``direction: lower``  — the metric must stay <= value * (1 + tolerance)
* ``exact: true``       — the metric must equal the value (identity
  guarantees like ``shards_identical``; no band)

Wall-clock metrics get wide bands (shared runners are noisy);
deterministic metrics (simulated Gbps, hit rates, occupancies) get
tight ones.  ``--update`` regenerates the baseline file from the
current results, preserving hand-edited bands for existing keys —
rerun it after an intentional perf change and commit the diff
(see docs/CI.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINES_PATH = BENCH_DIR / "baselines.json"

#: metric keys never gated: configuration echoes and the floors
#: themselves (guarded by the probes), not measurements
SKIP_KEYS = frozenset(
    {
        "n_rpus",
        "packet_size",
        "packets",
        "events",
        "firmwares",
        "rules",
    }
)
SKIP_PREFIXES = ("floor", "ceiling")

#: absolute wall-clock durations (seconds, us/packet): only
#: order-of-magnitude blowups trip — shared CI runners can be several
#: times slower than the machine that wrote the baseline
ABS_SECONDS_HINTS = ("elapsed", "us_per", "overhead")
ABS_SECONDS_TOLERANCE = 9.0  # allowed <= 10x baseline
#: absolute wall-clock rates (instructions/events per second):
#: higher-is-better counterpart of the above, allowed >= baseline/10
ABS_RATE_HINTS = ("_ips", "per_sec")
ABS_RATE_TOLERANCE = 0.9
#: wall-clock *ratios* (speedups): machine-relative, so a band tighter
#: than the absolutes holds across hosts — but still wide, since the
#: ratio shifts with CPU cache/branch behaviour
RATIO_TOLERANCE = 0.85
#: everything else is deterministic simulation output: tight band
TIGHT_TOLERANCE = 0.05

#: metrics where smaller is better
LOWER_IS_BETTER_HINTS = ("overhead", "us_per", "elapsed", "failed", "failures")


def _gated(key: str) -> bool:
    return key not in SKIP_KEYS and not key.startswith(SKIP_PREFIXES)


def default_band(key: str, value: Any) -> Dict[str, Any]:
    """The auto-assigned baseline entry for one metric."""
    if isinstance(value, bool):
        return {"value": value, "exact": True}
    if key.endswith("_lines"):
        # source size (loc_probe): any growth takes a baseline bump
        return {"value": value, "tolerance": 0.0, "direction": "lower"}
    seconds = key.endswith("_s") or any(h in key for h in ABS_SECONDS_HINTS)
    lower = seconds or any(h in key for h in LOWER_IS_BETTER_HINTS)
    if seconds:
        tolerance = ABS_SECONDS_TOLERANCE
    elif any(h in key for h in ABS_RATE_HINTS):
        tolerance = ABS_RATE_TOLERANCE
    elif "speedup" in key:
        tolerance = RATIO_TOLERANCE
    else:
        tolerance = TIGHT_TOLERANCE
    return {
        "value": value,
        "tolerance": tolerance,
        "direction": "lower" if lower else "higher",
    }


def collect_results(results_dir: Path = RESULTS_DIR) -> Dict[str, Any]:
    """Flatten every probe JSON into ``probe.metric -> value``."""
    flat: Dict[str, Any] = {}
    for path in sorted(results_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        if not str(doc.get("schema", "")).startswith("repro-bench/"):
            continue
        probe = doc.get("probe", path.stem)
        for key, value in doc.get("metrics", {}).items():
            if _gated(key) and isinstance(value, (int, float, bool)):
                flat[f"{probe}.{key}"] = value
    return flat


def expected_probes(bench_dir: Path = BENCH_DIR) -> set:
    """Probe names the gate must see results for: one per ``*_probe.py``.

    Deriving the expectation from the scripts themselves (rather than
    from the baseline file) closes the silent-pass hole where a probe
    crashes before persisting its JSON — or was never baselined at all —
    and the trend gate happily reports "all metrics within bands".
    """
    return {path.stem for path in bench_dir.glob("*_probe.py")}


def present_probes(results_dir: Path = RESULTS_DIR) -> set:
    """Probe names with a schema-stamped JSON under ``results_dir``."""
    found = set()
    for path in results_dir.glob("*.json"):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if str(doc.get("schema", "")).startswith("repro-bench/"):
            found.add(doc.get("probe", path.stem))
    return found


def load_baselines(path: Path = BASELINES_PATH) -> Dict[str, Dict[str, Any]]:
    doc = json.loads(path.read_text())
    return doc["metrics"]


def check_metric(band: Dict[str, Any], current: Any) -> Dict[str, Any]:
    """Compare one metric against its band; returns the verdict row."""
    baseline = band["value"]
    row = {"baseline": baseline, "current": current}
    if band.get("exact"):
        row["limit"] = f"== {baseline}"
        row["status"] = "ok" if current == baseline else "REGRESSED"
        return row
    tolerance = float(band.get("tolerance", TIGHT_TOLERANCE))
    if band.get("direction", "higher") == "lower":
        limit = baseline * (1 + tolerance)
        row["limit"] = f"<= {limit:.6g}"
        row["status"] = "ok" if current <= limit else "REGRESSED"
    else:
        limit = baseline * (1 - tolerance)
        row["limit"] = f">= {limit:.6g}"
        row["status"] = "ok" if current >= limit else "REGRESSED"
    return row


def compare(
    baselines: Dict[str, Dict[str, Any]], results: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Verdict rows for every baselined metric, sorted by key."""
    rows = []
    for key in sorted(baselines):
        band = baselines[key]
        if key not in results:
            rows.append(
                {
                    "key": key,
                    "baseline": band["value"],
                    "current": None,
                    "limit": "-",
                    "status": "MISSING",
                }
            )
            continue
        row = check_metric(band, results[key])
        row["key"] = key
        rows.append(row)
    return rows


def format_report(rows: List[Dict[str, Any]]) -> str:
    """The before/after table CI prints."""
    headers = ["metric", "baseline", "current", "allowed", "status"]
    table = [headers]
    for row in rows:
        current = row["current"]
        table.append(
            [
                row["key"],
                f"{row['baseline']:.6g}"
                if isinstance(row["baseline"], float)
                else str(row["baseline"]),
                "-"
                if current is None
                else (f"{current:.6g}" if isinstance(current, float) else str(current)),
                row["limit"],
                row["status"],
            ]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def update_baselines(
    results: Dict[str, Any], path: Path = BASELINES_PATH
) -> Dict[str, Dict[str, Any]]:
    """Regenerate the baseline file from ``results``.

    Existing entries keep their (possibly hand-tuned) band — an
    ``exact`` gate stays exact, a tolerance band keeps its tolerance
    and direction; only the reference value moves.  New metrics get
    :func:`default_band`; metrics that vanished from the results are
    dropped.
    """
    previous: Dict[str, Dict[str, Any]] = {}
    if path.exists():
        previous = load_baselines(path)
    metrics: Dict[str, Dict[str, Any]] = {}
    for key in sorted(results):
        band = default_band(key, results[key])
        old = previous.get(key)
        if old is not None and old.get("exact"):
            band = {"value": results[key], "exact": True}
        elif old is not None and not band.get("exact"):
            band["tolerance"] = old.get("tolerance", band["tolerance"])
            band["direction"] = old.get("direction", band["direction"])
        metrics[key] = band
    doc = {
        "comment": "bench-trend reference values; regenerate with "
        "`make bench-trend-update` after an intentional perf change "
        "(see docs/CI.md)",
        "metrics": metrics,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", type=Path, default=RESULTS_DIR)
    parser.add_argument("--baselines", type=Path, default=BASELINES_PATH)
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=BENCH_DIR,
        help="directory whose *_probe.py scripts define the expected "
        "probe set (every probe must leave a result JSON)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline file from the current results "
        "(keeps hand-tuned bands) instead of gating",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="treat baselined metrics absent from the results as "
        "skipped rather than failures (partial local runs)",
    )
    args = parser.parse_args(argv)

    results = collect_results(args.results_dir)
    if args.update:
        metrics = update_baselines(results, args.baselines)
        print(f"wrote {len(metrics)} baselines to {args.baselines}")
        return 0

    if not args.baselines.exists():
        print(f"no baseline file at {args.baselines}; run with --update first")
        return 1
    baselines = load_baselines(args.baselines)

    # probe-level completeness: every *_probe.py must have left a result
    # JSON.  A probe that is ALSO absent from the baselines would
    # otherwise sail through even without --allow-missing (no MISSING
    # rows to trip on), so un-baselined absences are fatal regardless.
    baselined_probes = {key.split(".", 1)[0] for key in baselines}
    absent = expected_probes(args.bench_dir) - present_probes(args.results_dir)
    fatal_absent = sorted(
        absent if not args.allow_missing else absent - baselined_probes
    )
    if fatal_absent:
        print(
            f"{len(fatal_absent)} probe(s) left no result JSON in "
            f"{args.results_dir}: {', '.join(fatal_absent)} — run "
            "`make bench-smoke` (a crashed probe must fail the gate, "
            "not silently pass it)"
        )
        return 1

    rows = compare(baselines, results)
    print(format_report(rows))
    regressed = [r for r in rows if r["status"] == "REGRESSED"]
    missing = [r for r in rows if r["status"] == "MISSING"]
    if missing and not args.allow_missing:
        print(
            f"\n{len(missing)} baselined metric(s) missing from "
            f"{args.results_dir} — run `make bench-smoke` first, or pass "
            "--allow-missing for a partial check"
        )
        return 1
    if regressed:
        print(f"\n{len(regressed)} metric(s) regressed past their band")
        return 1
    print(f"\nall {len(rows) - len(missing)} gated metrics within bands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
