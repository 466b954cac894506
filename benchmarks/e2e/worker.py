"""Measure one workload in this process and print its result document.

Started by ``run.py`` as a fresh subprocess per workload (with
``PYTHONPATH=src``), so ``peak_rss_mb``, the process-wide replay caches
and the default CPU backend never leak between workloads.  The only
further processes are the two shard workers ``rack-2shard`` spawns
itself.

Load shape: closed loop, one client.  One untimed warm-up iteration
(imports, lazy init), then timed iterations back to back until
``--seconds`` of them have run — never fewer than ``MIN_ITERATIONS``,
never more than ``MAX_ITERATIONS``.  The timed region of an iteration
is the single run call; everything before it is set-up.  Every timing
is reported as the median over the iterations with N, min and max
beside it (N < 20, so no tail percentile qualifies).

With ``--trace 1`` the process runs ``TRACE_REFERENCE_ITERATIONS``
untraced iterations, then ``SAMPLED_ITERATIONS`` under
:class:`layertrace.StackSampler` (time busy per layer) and one under
:class:`layertrace.CallTracer` (calls per layer, spans for the trace
viewer); end-to-end metrics always come from an untraced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchdefs import (
    COUNTER_NAMES,
    END_TO_END,
    HERE,
    PER_LAYER,
    SCHEMA,
    WORKLOADS,
    out_dir,
)

MIN_ITERATIONS = 5
MAX_ITERATIONS = 19
TRACE_REFERENCE_ITERATIONS = 3
SAMPLED_ITERATIONS = 2
#: where the rack parent blocks while its shard workers advance
IPC_WAIT_FUNCTIONS = ("ProcessShard.advance", "ProcessShard.request")
#: model_err_pct above which a run is not correct: the paper-referenced
#: workloads may sit this far from the paper's figure (ids-event's
#: cycles/packet over a 3000-packet window moves with the seed's attack
#: and flow mix: 0.05-2.7% over seeds 1-10), the differential ones must
#: agree with their reference exactly
MODEL_ERR_LIMIT = {"fwd-event": 1.5, "ids-event": 5.0}
#: fresh interpreters timed for the one-time import cost (median taken)
IMPORT_SAMPLES = 3


@dataclass
class Iteration:
    setup_s: float  # input generation + build
    run_s: float
    cpu_s: float
    obs: Any


def _cpu_seconds() -> float:
    """User+sys of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def iterate(make_workload: Callable[[], Any], tracer: Any = None) -> Tuple[Iteration, Any, Any]:
    """Generate inputs, build, run (timed), observe; returns the
    readings, the workload and the run's result.  A tracer (either
    instrument of ``layertrace``) is installed before the build, so that
    objects bind the traced callables, and observes the timed region only."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        workload = make_workload()
        handle = workload.build()
        t1 = time.perf_counter()
        # every timed region starts from the same collector state: what
        # the previous iteration left behind is not this one's cost
        gc.collect()
        cpu0 = _cpu_seconds()
        t_run = time.perf_counter()
        if tracer is not None:
            tracer.begin_region()
        result = workload.run(handle)
        if tracer is not None:
            tracer.end_region()
        t2 = time.perf_counter()
        cpu1 = _cpu_seconds()
    finally:
        if tracer is not None:
            tracer.uninstall()
    obs = workload.observe(handle, result)
    return Iteration(t1 - t0, t2 - t_run, cpu1 - cpu0, obs), workload, result


def _fresh_import_seconds() -> float:
    """Wall time of a new interpreter importing the workloads (and with
    them ``repro``): what a user pays once per process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "workloads.py")], check=True)
    return time.perf_counter() - t0


def _summary(values: List[float]) -> Dict[str, float]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def _with_units(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": value, "unit": (END_TO_END.get(name) or PER_LAYER[name])["unit"]}
        for name, value in values.items()
    }


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float) -> Dict[str, Any]:
    # set-up time is an end-to-end metric: a traced run does not report it
    import_s = [] if trace else [_fresh_import_seconds() for _ in range(IMPORT_SAMPLES)]
    from workloads import WORKLOAD_CLASSES

    def make_workload() -> Any:
        return WORKLOAD_CLASSES[name](seed, scale)

    problems: List[str] = []
    good: List[Iteration] = []
    attempted = 0
    failed = 0
    last: Any = None  # (workload, result) of the last good iteration

    def attempt(tracer: Any = None) -> Optional[Iteration]:
        nonlocal attempted, failed, last
        attempted += 1
        last = None  # free the previous run before building the next
        try:
            iteration, workload, result = iterate(make_workload, tracer)
        except Exception:
            failed += 1
            problems.append(f"iteration {attempted} raised:\n{traceback.format_exc()}")
            return None
        bad = list(iteration.obs.problems)
        if good and iteration.obs.digest != good[0].obs.digest:
            bad.append("result digest differs from the first iteration's")
        if bad:
            failed += 1
            problems.extend(f"iteration {attempted}: {p}" for p in bad)
            return None
        last = (workload, result)
        return iteration

    try:
        iterate(make_workload)  # warm-up: imports, lazy init, caches; not counted
    except Exception:
        problems.append(f"warm-up raised:\n{traceback.format_exc()}")

    t_loop = time.perf_counter()
    floor, limit = (MIN_ITERATIONS, MAX_ITERATIONS)
    if trace:
        floor = limit = TRACE_REFERENCE_ITERATIONS
    while attempted < limit and (
        attempted < floor or time.perf_counter() - t_loop < seconds
    ):
        iteration = attempt()
        if iteration is not None:
            good.append(iteration)
    if not good:
        raise RuntimeError("no iteration succeeded:\n" + "\n".join(problems))

    model_err, reference = last[0].model_error(last[1])
    if model_err > MODEL_ERR_LIMIT.get(name, 0.0):
        problems.append(f"model_err_pct {model_err:.4g} exceeds its limit ({reference})")

    sampler = tracer = None
    if trace:
        from layertrace import CallTracer, StackSampler

        sampler = StackSampler()
        sampled = [attempt(sampler) for _ in range(SAMPLED_ITERATIONS)]
        tracer = CallTracer()
        tracer.iteration = attempted + 1
        traced = attempt(tracer)
        if traced is None or None in sampled:
            sampler = tracer = None  # already counted as failed iterations

    obs = good[-1].obs
    packets = obs.packets
    run_s = [it.run_s for it in good]
    setup_s = [it.setup_s for it in good]
    cpu_s = [it.cpu_s for it in good]
    median_run = statistics.median(run_s)

    counters = dict.fromkeys(COUNTER_NAMES, 0.0)
    counters.update(obs.counters)
    counters["model_err_pct"] = model_err
    counters["sim.kernel.events_per_s"] = counters["sim.kernel.events"] / median_run
    counters["riscv.instr_per_s"] = counters["riscv.instret"] / median_run

    if not trace:
        metrics = {
            "sim_pkts_per_s": packets / median_run,
            "sim_cycles_per_s": obs.sim_cycles / median_run,
            "cpu_us_per_pkt": statistics.median(cpu_s) / packets * 1e6,
            "setup_s": statistics.median(import_s) + statistics.median(setup_s),
            "peak_rss_mb": _peak_rss_mib(),
        }
    else:
        # a metric whose layer the workload does not build reads 0
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(counters)

    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "workload": name,
        "why": WORKLOADS[name],
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "digest": obs.digest,
        "packets": packets,
        "reference": reference,
        "timing": {
            "setup_s": _summary(setup_s),
            "run_s": _summary(run_s),
            "cpu_s": _summary(cpu_s),
        },
        "counters": _with_units(counters),
    }
    if import_s:
        doc["timing"]["import_s"] = _summary(import_s)

    if tracer is not None:
        wall = sampler.wall_s
        busy = sampler.seconds_by_layer()
        calls = tracer.calls_by_layer()
        for layer in busy:
            metrics[f"{layer}.self_s"] = busy[layer] / SAMPLED_ITERATIONS
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.share"] = busy[layer] / wall
        metrics["cluster.ipc_wait_s"] = (
            sampler.seconds_in("cluster", IPC_WAIT_FUNCTIONS) / SAMPLED_ITERATIONS
        )
        metrics["trace.overhead_x"] = traced.run_s / median_run
        metrics["trace.unattributed_share"] = sampler.unattributed_s() / wall
        chrome = out_dir(seed, scale) / f"{name}.chrome-trace.json"
        chrome.write_text(json.dumps(tracer.chrome_trace()))
        doc["trace_detail"] = {
            "sampled_wall_s": wall / SAMPLED_ITERATIONS,
            "sampling_overhead_x": wall / SAMPLED_ITERATIONS / median_run,
            "samples": sampler.samples,
            "traced_wall_s": traced.run_s,
            "chrome_trace": str(chrome.relative_to(HERE)),
            "spans_kept": len(tracer.spans),
            "top_self_time": [
                dict(row, self_s=row["self_s"] / SAMPLED_ITERATIONS) for row in sampler.top()
            ],
            "top_calls": tracer.top(),
        }

    doc["metrics"] = _with_units(metrics)
    doc["problems"] = problems
    doc["correct"] = not problems
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
