"""End-to-end benchmark of the simulator: seven workloads, one command.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]]

Runs each selected workload (default: all seven) in a fresh subprocess
(``worker.py``, given ``PYTHONPATH=src``), checks that its outputs are
correct, writes the full result documents under ``benchmarks/e2e/out/``
and prints every metric by name with its unit as one JSON document on
the last line of standard output:

* one ``--workload``: ``{"correct", "attempted", "failed", "metrics"}``
  — the end-to-end metrics, or with ``--trace 1`` the per-layer ones;
* all workloads: ``{"schema", "seed", "trace", "workloads": {name: ...}}``
  with the same four keys per workload plus its timing detail, counters
  and the reason the workload exists (``why``).

``--seed`` (default 1; 2 is the held-out seed for later claims) seeds
every generated input.  ``--seconds`` (default: ``run_seconds`` of
``BENCHMARK.json``) is how long the timed iterations of one workload
run.  Exits non-zero, printing no result, if a workload cannot be
measured at all — for instance where ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional

from benchdefs import HERE, REPO_ROOT, RUN_SECONDS, SCHEMA, WORKLOADS, out_dir

#: the contract allows a run 180 s; leave room to report the failure
WORKER_TIMEOUT_S = 170.0
CONTRACT_KEYS = ("correct", "attempted", "failed", "metrics")


def run_worker(
    workload: str, seed: int, seconds: float, trace: int, scale: float
) -> Dict[str, Any]:
    """Measure one workload in a fresh process; return its document."""
    src = REPO_ROOT / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # a random string-hash seed per process is run-to-run noise that no
    # number of iterations inside one process can average away
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--scale", str(scale),
    ]  # fmt: skip
    # own session: the worker and the shard workers it spawns form one
    # process group, so nothing can outlive this call
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: no result within {WORKER_TIMEOUT_S:g}s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all seven")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the per-iteration packet counts (reduced-size test pass only)",
    )  # fmt: skip
    args = parser.parse_args(argv)
    # a terminated launcher must still reap its worker's process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: {REPO_ROOT / 'src' / 'repro'} not found: nothing to measure",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    out = out_dir(args.seed, args.scale)
    suffix = ".trace.json" if args.trace else ".json"
    docs: Dict[str, Dict[str, Any]] = {}
    for name in names:
        try:
            doc = run_worker(name, args.seed, args.seconds, args.trace, args.scale)
        except RuntimeError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        (out / (name + suffix)).write_text(json.dumps(doc, indent=1) + "\n")
        for problem in doc["problems"]:
            print(f"run.py: {name}: {problem}", file=sys.stderr)
        docs[name] = doc

    if args.workload:
        printed: Dict[str, Any] = {key: docs[args.workload][key] for key in CONTRACT_KEYS}
    else:
        printed = {
            "schema": SCHEMA,
            "seed": args.seed,
            "trace": args.trace,
            "workloads": docs,
        }
        (out / ("all" + suffix)).write_text(json.dumps(printed, indent=1) + "\n")
    print(json.dumps(printed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
