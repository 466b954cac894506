"""Names fixed by the end-to-end benchmark: workloads, layers, metrics.

``BENCHMARK.json`` at the repository root is the single definition of
the workloads (with why each is there), the end-to-end metrics (unit,
direction, regression bound) and the per-layer metrics; this module
loads it for the launcher (``run.py``), the in-process measurement
(``worker.py``), ``compare.py`` and the tests, and adds the two things
the file cannot say: the layer list and which per-layer metrics are
deterministic.  It imports nothing from ``repro``, so the launcher and
the comparison tool run without ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
SCHEMA = "repro-e2e-bench/1"

#: the repo's packages, as the tracer attributes time to them
LAYERS: Tuple[str, ...] = (
    "analysis",
    "serve.session",
    "sim.kernel",
    "sim.stats",
    "sim.resources",
    "core",
    "firmware",
    "accel",
    "traffic",
    "packet",
    "riscv",
    "replay",
    "fluid",
    "cluster",
    "verify",
)

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

#: workload name -> why it is in the benchmark
WORKLOADS: Dict[str, str] = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
#: end-to-end metric name -> its BENCHMARK.json entry (unit, better, bound)
END_TO_END: Dict[str, dict] = {m["name"]: m for m in BENCHMARK["end_to_end"]}
#: per-layer metric name -> its BENCHMARK.json entry (unit, better)
PER_LAYER: Dict[str, dict] = {m["name"]: m for m in BENCHMARK["per_layer"]}
RUN_SECONDS: int = BENCHMARK["run_seconds"]


def out_dir(seed: int, scale: float = 1.0) -> Path:
    """Where the documents of one seed go (created on demand); reduced-size
    passes get a directory of their own so they never overwrite real runs."""
    name = f"seed{seed}" if scale == 1.0 else f"seed{seed}-scale{scale:g}"
    path = OUT_DIR / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def is_span_metric(name: str) -> bool:
    """Whether only the traced iteration can give this per-layer metric."""
    return (
        name.startswith("trace.")
        or name == "cluster.ipc_wait_s"
        or name.endswith((".self_s", ".calls", ".share"))
    )


#: per-layer metrics read from public result fields on every run
COUNTER_NAMES = tuple(name for name in PER_LAYER if not is_span_metric(name))


def is_deterministic(name: str) -> bool:
    """Whether a per-layer metric must repeat exactly run to run.

    Host-time readings (rates per host second, span times and the shares
    derived from them) are noisy; every other per-layer metric is a
    count made by the deterministic simulator.
    """
    if name.startswith("trace.") or name == "cluster.ipc_wait_s":
        return False
    return not name.endswith(("_per_s", ".self_s", ".share"))
