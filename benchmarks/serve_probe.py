"""Standalone serving-mode probe for ``make serve-smoke``.

Runs the same forwarding spec two ways — the batch
:func:`run_experiment` path and an incremental :class:`SimSession`
stepped in fixed event chunks with a telemetry snapshot per chunk —
and scores the stepper's wall-clock overhead.  Before scoring it
proves the two paths produced *byte-identical* ``ExperimentResult``
JSON: batch and stepped runs share one loop, so the only thing the
stepper is allowed to cost is re-entering it and taking a snapshot
once per chunk, and ``FLOOR_SERVE_OVERHEAD`` in
``benchmarks/conftest.py`` bounds that.

Timing noise on a shared host is one-sided, so each side is measured
``REPS`` times interleaved and the best rep is scored.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import FLOOR_SERVE_OVERHEAD, persist_probe_json  # noqa: E402

from repro import (  # noqa: E402
    ExperimentSpec,
    MeasurementWindow,
    SimSession,
    TrafficProfile,
    run_experiment,
)
from repro.core import RosebudConfig  # noqa: E402

N_RPUS = 8
PACKET_SIZE = 512
OFFERED_GBPS = 100.0
WARMUP = 500
MEASURE = 4000
CHUNK_EVENTS = 2000
REPS = 3
RESULTS_PATH = "benchmarks/results/serve_overhead.txt"


def _spec() -> ExperimentSpec:
    return ExperimentSpec(
        config=RosebudConfig(n_rpus=N_RPUS),
        traffic=TrafficProfile(packet_size=PACKET_SIZE, offered_gbps=OFFERED_GBPS),
        window=MeasurementWindow(warmup_packets=WARMUP, measure_packets=MEASURE),
    )


def run_batch():
    t0 = time.perf_counter()
    result = run_experiment(_spec())
    return time.perf_counter() - t0, result


def run_stepped():
    t0 = time.perf_counter()
    session = SimSession(_spec())
    snapshots = 0
    while not session.measurement_done:
        session.step(n_events=CHUNK_EVENTS)
        session.snapshot()
        snapshots += 1
    result = session.result()
    return time.perf_counter() - t0, result, snapshots


def main() -> int:
    best_batch = best_stepped = float("inf")
    batch_json = stepped_json = None
    snapshots = 0
    for _rep in range(REPS):
        wall, result = run_batch()
        best_batch = min(best_batch, wall)
        batch_json = json.dumps(result.to_dict(), sort_keys=True)

        wall, result, snapshots = run_stepped()
        best_stepped = min(best_stepped, wall)
        stepped_json = json.dumps(result.to_dict(), sort_keys=True)

    if batch_json != stepped_json:
        print("FAIL: stepped result diverged from the batch ExperimentResult")
        return 1

    overhead = best_stepped / best_batch - 1.0
    lines = [
        f"forwarder, {N_RPUS} RPUs, {WARMUP}+{MEASURE} packets of "
        f"{PACKET_SIZE}B at {OFFERED_GBPS:.0f}G (best of {REPS} reps)",
        f"  batch   : {best_batch:8.3f} s  (run_experiment)",
        f"  stepped : {best_stepped:8.3f} s  "
        f"({CHUNK_EVENTS}-event chunks, {snapshots} snapshots)",
        f"  overhead: {100 * overhead:+7.1f} %",
        "  results : byte-identical",
    ]
    report = "\n".join(lines)
    print(report)
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w") as fh:
        fh.write(report + "\n")
    persist_probe_json("serve_probe", {
        "packets": WARMUP + MEASURE,
        "packet_size": PACKET_SIZE,
        "n_rpus": N_RPUS,
        "batch_s": best_batch,
        "stepped_s": best_stepped,
        "overhead": overhead,
        "ceiling": FLOOR_SERVE_OVERHEAD,
        "snapshots": snapshots,
        "results_identical": batch_json == stepped_json,
    })

    if overhead > FLOOR_SERVE_OVERHEAD:
        print(f"FAIL: stepper overhead {100 * overhead:.1f}% over ceiling "
              f"{100 * FLOOR_SERVE_OVERHEAD:.0f}%")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
