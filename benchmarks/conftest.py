"""Shared fixtures and helpers for the benchmark suite.

Each benchmark regenerates one table or figure from the paper: it runs
the simulation experiment, prints the rows/series the paper reports,
writes them under ``benchmarks/results/``, and asserts the shape
(who wins, where the knees fall) — not absolute hardware numbers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist
from repro.accel.pigasus import generate_ruleset, parse_rules

RESULTS_DIR = Path(__file__).parent / "results"

#: Set ``REPRO_CI=1`` (the GitHub workflow does) to relax the perf
#: floors: shared CI runners are slow and noisy, so CI only catches
#: order-of-magnitude regressions while local runs keep the tight
#: floors that guard the fast paths.
REPRO_CI = os.environ.get("REPRO_CI", "") not in ("", "0")

#: Regression floors shared by the pytest benchmarks and the standalone
#: ``make bench-smoke`` probes (e.g. kernel_probe.py).  These are the
#: single source of truth — probes import them from here.
FLOOR_EVENTS_PER_SEC = 10_000 if REPRO_CI else 50_000
#: verify_probe.py: wall-clock ceiling for statically verifying every
#: bundled firmware (CFG + WCET + MMIO + lint).  The analyzer must stay
#: cheap enough to run as a pre-flight on every sweep.
FLOOR_VERIFY_SECONDS = 20.0 if REPRO_CI else 5.0
#: fluid_probe.py: effective-speedup floor for the fluid fast-forward
#: tier on a steady-state forwarder run (simulated packets per
#: wall-clock second, fluid vs pure event on the same spec).  The
#: arithmetic skip must beat event simulation by a wide margin locally;
#: CI keeps an order-of-magnitude guard.
FLOOR_FLUID_SPEEDUP = 10.0 if REPRO_CI else 50.0
#: fluid_contended_probe.py: effective-speedup floor for the fluid tier
#: on a *contended* forwarder spec (offered > service capacity, MAC
#: FIFOs backlogged, drops every period).  The rotating-period detector
#: pays for a much longer confirmation window here (the drop pattern
#: rotates through hundreds of boundaries before repeating), so the
#: floor sits below the uncontended one.
FLOOR_FLUID_CONTENDED_SPEEDUP = 4.0 if REPRO_CI else 20.0
#: fluid_contended_probe.py, cluster leg: wall-clock speedup of a
#: 2-board rack run at fluid fidelity vs event fidelity (same spec,
#: byte-identical results).  Per-board warps clip to the sync horizon,
#: so the attainable speedup tracks the horizon length.
FLOOR_CLUSTER_FLUID_SPEEDUP = 3.0 if REPRO_CI else 10.0
#: cluster resilience: worst sampled cluster throughput while one of
#: N boards is wedged must stay above this fraction of the surviving
#: boards' fair share ((N-1)/N of baseline).  Deterministic.
FLOOR_CLUSTER_DIP_FRACTION = 0.9


def persist_probe_json(name: str, metrics: dict) -> Path:
    """Write one probe's metrics as a schema-stamped JSON document.

    Every ``make bench-smoke`` probe prints its table *and* persists its
    numbers under ``benchmarks/results/<name>.json`` so regressions can
    be diffed across runs instead of scraped from CI logs.
    """
    from repro.schema import stamp

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = stamp({"probe": name, "ci": REPRO_CI, "metrics": metrics}, "repro-bench")
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="session")
def perf_floors():
    """The (possibly CI-relaxed) regression floors, as a dict."""
    return {
        "events_per_sec": FLOOR_EVENTS_PER_SEC,
        "verify_seconds": FLOOR_VERIFY_SECONDS,
        "fluid_speedup": FLOOR_FLUID_SPEEDUP,
        "fluid_contended_speedup": FLOOR_FLUID_CONTENDED_SPEEDUP,
        "cluster_fluid_speedup": FLOOR_CLUSTER_FLUID_SPEEDUP,
        "cluster_dip_fraction": FLOOR_CLUSTER_DIP_FRACTION,
    }


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def ids_rules():
    """The synthetic ruleset standing in for the Pigasus-generated one."""
    return parse_rules(generate_ruleset(120))


@pytest.fixture(scope="session")
def blacklist():
    """The 1050-entry synthetic emerging-threats blacklist (§7.2)."""
    return parse_blacklist(generate_blacklist(1050))


@pytest.fixture(scope="session")
def blacklist_matcher(blacklist):
    return IpBlacklistMatcher(blacklist)


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print a result table and persist it under benchmarks/results/."""

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit
