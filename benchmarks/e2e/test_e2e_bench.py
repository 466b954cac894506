"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (tier-1's
``testpaths = ["tests"]`` does not collect this file).  One reduced-size
pass over all seven workloads, untraced and traced, through the real
command; the rest checks ``BENCHMARK.json`` against the benchmark
contract and the tracer against the objects it wraps.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest
from benchdefs import (
    BENCHMARK,
    END_TO_END,
    HERE,
    LAYERS,
    PER_LAYER,
    WORKLOADS,
    is_deterministic,
    out_dir,
)
from layertrace import CallTracer, layer_of

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: packet counts of the reduced-size pass, as a share of the real ones
SCALE = 0.1


def run_benchmark(*args: str) -> dict:
    """Run ``run.py`` as the driver does; return its last line, parsed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "0", "--scale", str(SCALE), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced() -> dict:
    return run_benchmark("--seed", "1")["workloads"]


@pytest.fixture(scope="module")
def traced() -> dict:
    return run_benchmark("--seed", "1", "--trace", "1")["workloads"]


# -- BENCHMARK.json against the contract ---------------------------------------


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert len(names) == len(set(names)), "a name is used once"
    for name in names:
        assert NAME_RE.match(name), name
    setup = END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_the_seven_workloads_and_the_layer_metrics_are_listed():
    assert list(WORKLOADS) == [
        "fwd-event", "ids-event", "fluid-contended", "rack-2shard",
        "iss-plain", "iss-replay-hit", "iss-replay-miss",
    ]  # fmt: skip
    for layer in LAYERS:
        for suffix in ("self_s", "calls", "share"):
            assert f"{layer}.{suffix}" in PER_LAYER
    assert len(PER_LAYER) == 69
    assert is_deterministic("sim.kernel.events") and is_deterministic("core.calls")
    assert not is_deterministic("riscv.instr_per_s") and not is_deterministic("core.share")


# -- the reduced-size pass --------------------------------------------------------


def test_every_workload_reports_every_end_to_end_metric(untraced):
    assert list(untraced) == list(WORKLOADS)
    for name, doc in untraced.items():
        assert doc["correct"] and doc["failed"] == 0, (name, doc["problems"])
        assert doc["attempted"] >= 5
        assert doc["why"] == WORKLOADS[name]
        assert set(doc["metrics"]) == set(END_TO_END), name
        for metric, entry in doc["metrics"].items():
            assert NAME_RE.match(metric)
            assert entry["unit"] == END_TO_END[metric]["unit"]
            assert entry["value"] > 0, (name, metric)
        assert doc["timing"]["run_s"]["n"] == doc["attempted"] - doc["failed"]
        assert doc["counters"]["model_err_pct"]["value"] <= 1.5


def test_single_workload_prints_exactly_the_contract_keys():
    printed = run_benchmark("--workload", "fwd-event", "--seed", "1", "--trace", "0")
    assert list(printed) == ["correct", "attempted", "failed", "metrics"]
    assert printed["correct"] is True and printed["failed"] == 0
    assert set(printed["metrics"]) == set(END_TO_END)
    for entry in printed["metrics"].values():
        assert set(entry) == {"value", "unit"}


def test_traced_pass_reports_every_per_layer_metric(untraced, traced):
    for name, doc in traced.items():
        # a traced or sampled iteration whose result digest differed from
        # the untraced ones would have been counted as failed
        assert doc["correct"] and doc["failed"] == 0, (name, doc["problems"])
        assert doc["digest"] == untraced[name]["digest"]
        assert set(doc["metrics"]) == set(PER_LAYER), name
        values = {metric: entry["value"] for metric, entry in doc["metrics"].items()}
        for metric, entry in doc["metrics"].items():
            assert entry["unit"] == PER_LAYER[metric]["unit"]
        # deterministic counters repeat exactly between the two passes
        for metric, entry in untraced[name]["counters"].items():
            if is_deterministic(metric):
                assert values[metric] == entry["value"], (name, metric)
        # layer self times sum to the sampled wall, short of the unattributed
        # part: under 5% at full size, but the reduced regions are ~0.1 s, where
        # the millisecond after the last tick is a point of share by itself
        wall = doc["trace_detail"]["sampled_wall_s"]
        attributed = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        assert attributed == pytest.approx(wall, rel=0.1), name
        assert values["trace.unattributed_share"] <= 0.1
        assert sum(values[f"{layer}.calls"] for layer in LAYERS) > 0
        chrome = json.loads((HERE / doc["trace_detail"]["chrome_trace"]).read_text())
        assert chrome["traceEvents"], name


def test_layers_split_as_the_workloads_were_chosen_to_show(traced):
    def share(workload: str, layer: str) -> float:
        return traced[workload]["metrics"][f"{layer}.share"]["value"]

    assert share("fwd-event", "firmware") + share("fwd-event", "accel") < 0.05
    assert share("ids-event", "firmware") + share("ids-event", "accel") > 0.15
    assert share("iss-replay-hit", "riscv") < share("iss-plain", "riscv") / 2
    assert share("iss-plain", "replay") == 0
    assert share("fwd-event", "fluid") == 0 and share("fluid-contended", "fluid") > 0
    assert traced["rack-2shard"]["metrics"]["cluster.ipc_wait_s"]["value"] > 0
    per_pkt = {
        traced[w]["metrics"]["riscv.instr_per_pkt"]["value"]
        for w in ("iss-plain", "iss-replay-hit", "iss-replay-miss")
    }
    assert max(per_pkt) - min(per_pkt) < 1.0  # replayed packets still retire


def test_seed_decides_the_inputs(untraced):
    for name in ("fwd-event", "iss-replay-hit"):
        run_benchmark("--workload", name, "--seed", "1")
        same = json.loads((out_dir(1, SCALE) / f"{name}.json").read_text())
        run_benchmark("--workload", name, "--seed", "2")
        other = json.loads((out_dir(2, SCALE) / f"{name}.json").read_text())
        assert same["digest"] == untraced[name]["digest"]
        assert other["digest"] != same["digest"]


def test_no_result_where_the_program_is_missing(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command must fail without printing a result."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fwd-event",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the tracer against the objects it wraps -----------------------------------------


def test_layer_of_matches_the_longest_package():
    assert layer_of("repro.sim.kernel") == "sim.kernel"
    assert layer_of("repro.serve.session") == "serve.session"
    assert layer_of("repro.core.rpu") == "core"
    assert layer_of("repro.accel.pigasus.string_match") == "accel"
    assert layer_of("repro.sim.clock") is None
    assert layer_of("repro.corelike") is None


def test_tracer_restores_every_object_it_wrapped():
    from repro import SimSession  # loads session, system and the layers below
    from repro.sim import kernel

    original_schedule_at = vars(kernel.Simulator)["schedule_at"]
    tracer = CallTracer()
    tracer.install()
    try:
        wrapped = list(tracer.wrapped)
        assert vars(kernel.Simulator)["schedule_at"] is not original_schedule_at
        assert len(wrapped) > 100
        assert hasattr(vars(SimSession)["step"], "__wrapped__")
        sim = kernel.Simulator()
        tracer.begin_region()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now), name="probe")
        sim.run()
        tracer.end_region()
        assert fired == [1.0]
        assert tracer.calls_by_layer()["sim.kernel"] >= 3  # schedule, schedule_at, run
    finally:
        tracer.uninstall()
    assert vars(kernel.Simulator)["schedule_at"] is original_schedule_at
    assert not hasattr(vars(SimSession)["step"], "__wrapped__")
    first_original = {}
    for owner, attr, original in wrapped:  # schedule_at is wrapped twice
        first_original.setdefault((id(owner), attr), (owner, original))
    for (_, attr), (owner, original) in first_original.items():
        assert vars(owner)[attr] is original, (owner, attr)
