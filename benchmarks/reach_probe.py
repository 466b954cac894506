"""Reachability probe: which ``src/repro`` functions no front door calls.

Runs every *front door* of the repository in this one process under a
stdlib profile hook (``cProfile``, plus ``threading.setprofile`` for
threads) that records each code object called, then matches the code objects' ``(file,
co_firstlineno)`` against the AST ``def``s under ``src/repro``.  The
front doors are what a user of the reproduction runs:

* the seven ``BENCHMARK.json`` workloads (imported read-only from
  ``benchmarks/e2e/workloads.py``) at a reduced ``scale``; the sharded
  rack runs through its in-process twin, ``ClusterEngine(shards=1)``;
* every ``examples/*.py``;
* every subcommand ``repro.cli.build_parser()`` registers, with its
  cheapest arguments, once per code path a flag selects:
  ``calibrate --cpu-backend``, ``sweep --cache-dir`` twice (the second
  run reads the cache back; ``--jobs 1`` is the in-process twin of the
  worker pool), ``verify --deep`` and ``verify --json``, ``chaos
  --json``, ``cluster --shards 2 --event`` (the parent side of the
  shard workers) and ``cluster --fidelity fluid``, ``trace`` for both
  kinds, ``disasm`` of the image ``image`` wrote, and ``serve --check``
  on ``examples/serve_session.jsonl`` and on :func:`serve_script`, a
  scenario written to the scratch directory that drives every live
  control action, a pcap inject of the trace ``trace`` wrote, the fluid
  tier under control and injection, a fault list and an IMIX source
  given as JSON, pre-flight verification, and a cluster session;
* the paper-claim ``benchmarks/test_*.py`` files, through
  ``pytest.main``;
* ``kernel_probe``, ``verify_probe`` and ``loc_probe``;
* ``python -m repro.riscv.isa`` and ``python -m repro.verify.detlint``.

Tests are not front doors.  A function no front door reaches is either
deleted or carries a one-line ``# front door: <who needs it>`` comment
directly above its ``def`` (above its decorators); the same note on a
class covers its methods, on a function its nested closures, and
between a module's docstring and its first statement the whole module.
A note names what no in-process door can run: code that only runs in a
spawned worker process (the shard workers, the sweep pool), error
paths, RV32 forms no bundled firmware executes, or a reference a named
test compares against.

The probe persists ``<package>_unreached`` — the unreached functions
*without* a note, per top-level package as ``loc_probe`` groups them —
plus ``total_unreached``.  ``benchmarks/baselines.json`` holds each with
``direction: lower`` and ``tolerance: 0``, so ``make bench-trend`` fails
when new dead code appears.  The JSON also lists every unreached and
every noted function by qualified name, and the probe itself exits 1
after printing the unreached names to stderr when there are any.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src" / "repro"
CONFTEST = os.path.realpath(BENCH_DIR / "conftest.py")

NOTE = "# front door:"
#: workload packet counts relative to BENCHMARK.json's full size
WORKLOAD_SCALE = 0.05


# -- the def matcher --------------------------------------------------------


@dataclass(frozen=True)
class Def:
    """One ``def`` under the scanned root."""

    package: str
    qualname: str  # "module.path:Class.method"
    key: Tuple[str, int]  # (real path, line of the def or its first decorator)
    noted: bool


def _noted_above(lines: List[str], first: int) -> bool:
    """Whether the comment block directly above line ``first`` (1-based)
    holds a front-door note."""
    index = first - 2
    while index >= 0 and lines[index].lstrip().startswith("#"):
        if lines[index].lstrip().startswith(NOTE):
            return True
        index -= 1
    return False


def _module_noted(tree: ast.Module, lines: List[str]) -> bool:
    """A note between the module docstring and the first statement."""
    body = list(tree.body)
    start = 0
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        start = body[0].end_lineno
        body = body[1:]
    stop = body[0].lineno - 1 if body else len(lines)
    return any(line.startswith(NOTE) for line in lines[start:stop])


def _walk(node: ast.AST, prefix: str, covered: bool, lines: List[str], out: list) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            noted = covered or _noted_above(lines, first)
            name = prefix + child.name
            if isinstance(child, ast.ClassDef):
                _walk(child, name + ".", noted, lines, out)
            else:
                out.append((name, first, noted))
                _walk(child, name + ".<locals>.", noted, lines, out)
        else:
            _walk(child, prefix, covered, lines, out)


def collect_defs(root: Path = SRC) -> List[Def]:
    """Every function and method defined in a ``*.py`` under ``root``."""
    defs = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = parts[0] if len(parts) > 1 else "top"
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        found: list = []
        _walk(tree, "", _module_noted(tree, lines), lines, found)
        real = os.path.realpath(path)
        for name, first, noted in found:
            defs.append(Def(package, f"{module}:{name}", (real, first), noted))
    return defs


class CallRecorder:
    """Records every Python code object called while active: cProfile
    (the stdlib's C ``setprofile`` hook) on this thread, a Python
    ``threading.setprofile`` hook on threads started meanwhile."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self._thread_codes: Set = set()

    def _thread_hook(self, frame, event, arg) -> None:
        if event == "call":
            self._thread_codes.add(frame.f_code)

    def __enter__(self) -> "CallRecorder":
        threading.setprofile(self._thread_hook)
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profile.disable()
        threading.setprofile(None)

    def keys(self) -> Set[Tuple[str, int]]:
        codes = {e.code for e in self._profile.getstats() if not isinstance(e.code, str)}
        real: Dict[str, str] = {}
        out = set()
        for code in codes | self._thread_codes:
            name = code.co_filename
            if name not in real:
                real[name] = os.path.realpath(name)
            out.add((real[name], code.co_firstlineno))
        return out


def unreached(defs: Iterable[Def], reached: Set[Tuple[str, int]]) -> Tuple[list, list]:
    """``(counted, noted)``: the unreached defs without and with a note."""
    counted, noted = [], []
    for d in defs:
        if d.key not in reached:
            (noted if d.noted else counted).append(d)
    return counted, noted


# -- the front doors ----------------------------------------------------------


def _workloads() -> None:
    sys.path.insert(0, str(BENCH_DIR / "e2e"))
    from workloads import WORKLOAD_CLASSES

    for cls in WORKLOAD_CLASSES.values():
        if getattr(cls, "SHARDS", 1) > 1:
            # the in-process twin of the shard workers
            cls = type(cls.__name__, (cls,), {"SHARDS": 1})
        workload = cls(seed=1, scale=WORKLOAD_SCALE)
        handle = workload.build()
        result = workload.run(handle)
        workload.observe(handle, result)
        workload.model_error(result)


def _examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")


def serve_script(path: Path, pcap: Path) -> Path:
    """Write the scenario the probe's second ``serve`` run replays: every
    ``SimSession._ctl_*`` action, an ``inject`` of ``pcap``, of built
    packets to a port and through the host's virtual Ethernet, a fluid
    session under control and injection, JSON faults with an IMIX
    source, a failing pre-flight (``verify: warn``), and a cluster
    session through step/control/snapshot/run/result."""
    small = {"rpus": 8, "warmup": 100, "packets": 400}
    requests = [
        ("open", {"firmware": "firewall", "rules": 20, "size": 64, "gbps": 200,
                  "verify": "warn", **small}),
        ("step", {"n_events": 2000}),
        ("control", {"action": "set_lb", "policy": "rr"}),
        ("control", {"action": "set_receive_mask", "mask": 255}),
        ("control", {"action": "wedge", "rpu": 3}),
        ("control", {"action": "unwedge", "rpu": 3}),
        ("control", {"action": "evict", "rpu": 2}),
        ("inject", {"pcap": str(pcap), "gbps": 5}),
        ("inject", {"count": 8, "size": 128}),
        ("inject", {"count": 4, "size": 128, "port": None}),
        ("snapshot", None), ("run", None), ("close", None),
        ("open", {"size": 512, "gbps": 100, "fidelity": "fluid", **small}),
        ("step", {"n_events": 2000}),
        ("control", {"action": "set_lb", "policy": "rr"}),
        ("inject", {"pcap": str(pcap), "gbps": 5}),
        ("run", None), ("close", None),
        ("open", {"gbps": 50, "fidelity": "fluid", "source": "imix",
                  "faults": [{"kind": "watchdog"}], **small}),
        ("run", None), ("close", None),
        ("open", {"size": 512, "gbps": 40, "cluster": 2, **small}),
        ("step", {"n_events": 3}),
        ("control", {"action": "drain", "board": 1}),
        ("snapshot", None),
        ("control", {"action": "restore", "board": 1}),
        ("run", None), ("result", None), ("close", None),
    ]
    lines = []
    for index, (method, params) in enumerate(requests, 1):
        request = {"id": index, "method": method}
        if params is not None:
            request["params"] = params
        lines.append(json.dumps(request))
    path.write_text("\n".join(lines) + "\n")
    return path


def _cli_invocations(scratch: Path) -> Dict[str, List[List[str]]]:
    """The cheapest invocations of each registered subcommand, one per
    code path a flag selects, in run order (``image`` writes what
    ``disasm`` reads, ``trace`` the pcap the serve scenario injects)."""
    small = ["--warmup", "100", "--packets", "300"]
    image = str(scratch / "fw.rfw")
    attack = scratch / "attack.pcap"
    sweep = ["sweep", "--sizes", "512", "--rpu-set", "8", "--gbps-set", "100",
             "--jobs", "1", "--cache-dir", str(scratch / "cache"),
             "--out", str(scratch / "sweep.csv"), *small]
    return {
        "profile": [["profile", "--rpus", "8", "--size", "512", *small]],
        "firewall": [["firewall", "--rpus", "8", *small]],
        "ids": [["ids", "--rpus", "8", *small]],
        "nat": [["nat", "--rpus", "8", *small]],
        "loopback": [["loopback", "--rpus", "8", *small]],
        "latency": [["latency", "--rpus", "8", "--sizes", "512", "--packets", "100"]],
        "sweep": [sweep, sweep],
        "chaos": [
            ["chaos", "--rpus", "8", "--warmup", "200", "--packets", "2000",
             "--fault", "rpu_wedge:at=20000,target=3", "--fault", "watchdog",
             "--json", str(scratch / "chaos.json")],
            ["chaos", "--rpus", "8", "--warmup", "200", "--packets", "2000",
             "--firmware", "firewall", "--rules", "20",
             "--fault", "link_flap:at=20000,target=0,duration=5000",
             "--fault", "accel_fault:at=20000,target=-1,duration=5000"],
        ],
        "cluster": [
            ["cluster", "--boards", "2", "--rpus", "8", *small],
            ["cluster", "--boards", "2", "--rpus", "8", "--shards", "2",
             "--event", "drain:20000:1", "--event", "restore:40000:1",
             "--json", str(scratch / "cluster.json"), *small],
            ["cluster", "--boards", "2", "--rpus", "8", "--fidelity", "fluid", *small],
        ],
        "resources": [["resources", "--rpus", "8"]],
        "calibrate": [["calibrate", "--packets", "50"],
                      ["calibrate", "--packets", "50", "--cpu-backend", "interp"]],
        "verify": [["verify", "--all", "--deep"],
                   ["verify", "--all", "--json", str(scratch / "verify.json")]],
        "image": [["image", "forwarder", "--out", image]],
        "disasm": [["disasm", "forwarder"], ["disasm", image]],
        "trace": [["trace", "--rules", "20", "--out", str(attack)],
                  ["trace", "--kind", "ids", "--rules", "20",
                   "--out", str(scratch / "ids.pcap")]],
        "serve": [
            ["serve", "--script", str(ROOT / "examples" / "serve_session.jsonl"), "--check"],
            ["serve", "--script", str(serve_script(scratch / "probe.jsonl", attack)),
             "--check"],
        ],
    }


def registered_subcommands() -> Set[str]:
    from repro.cli import build_parser

    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    return set()


def _cli(scratch: Path) -> None:
    from repro.cli import main

    invocations = _cli_invocations(scratch)
    missing = registered_subcommands() - set(invocations)
    if missing:
        raise SystemExit(f"reach_probe: no front-door invocation for {sorted(missing)}")
    for argvs in invocations.values():
        for argv in argvs:
            if main(argv) != 0:
                raise SystemExit(f"reach_probe: `repro {' '.join(argv)}` failed")


class _ScratchResults:
    """pytest plugin: point the conftest that ``pytest.main`` loads at
    the scratch results directory."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def pytest_plugin_registered(self, plugin) -> None:
        _redirect_results(self.scratch, [plugin])


def _paper_benchmarks(scratch: Path) -> None:
    import pytest

    files = sorted(str(p) for p in BENCH_DIR.glob("test_*.py"))
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--benchmark-disable", *files],
                       plugins=[_ScratchResults(scratch)])
    if code != 0:
        raise SystemExit(f"reach_probe: paper-claim benchmarks exited {code}")


def _probes() -> None:
    for name in ("kernel_probe", "verify_probe", "loc_probe"):
        # their exit codes gate wall-clock floors, which the hook slows
        with contextlib.suppress(SystemExit):
            runpy.run_path(str(BENCH_DIR / f"{name}.py"), run_name="__main__")


def _modules() -> None:
    for module in ("repro.riscv.isa", "repro.verify.detlint"):
        sys.argv = [module]
        with contextlib.suppress(SystemExit), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module(module, run_name="__main__", alter_sys=True)


def _redirect_results(scratch: Path, modules: Iterable) -> None:
    """The probes and the paper benchmarks persist their results through
    ``benchmarks/conftest.py``; keep the committed ones untouched."""
    for module in modules:
        if os.path.realpath(getattr(module, "__file__", None) or "") == CONFTEST:
            module.RESULTS_DIR = scratch


def run_front_doors(recorder: CallRecorder) -> Dict[str, float]:
    """Run every front door under ``recorder``; per-door wall clock."""
    import conftest

    timings = {}
    argv, results_dir, cwd = list(sys.argv), conftest.RESULTS_DIR, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        os.chdir(ROOT)
        doors = [
            ("workloads", _workloads),
            ("examples", _examples),
            ("cli", lambda: _cli(scratch)),
            ("paper_benchmarks", lambda: _paper_benchmarks(scratch)),
            ("probes", _probes),
            ("modules", _modules),
        ]
        try:
            for name, door in doors:
                _redirect_results(scratch, list(sys.modules.values()))
                start = time.perf_counter()
                with recorder, contextlib.redirect_stdout(io.StringIO()):
                    door()
                timings[name] = round(time.perf_counter() - start, 1)
                print(f"  {name:<17} {timings[name]:>6.1f} s", file=sys.stderr)
        finally:
            sys.argv, conftest.RESULTS_DIR = argv, results_dir
            os.chdir(cwd)
    return timings


def main() -> int:
    start = time.perf_counter()
    defs = collect_defs()
    recorder = CallRecorder()
    sys.path.insert(0, str(BENCH_DIR))
    with recorder:  # importing repro runs module-level calls too
        import conftest
    timings = run_front_doors(recorder)
    counted, noted = unreached(defs, recorder.keys())

    packages = sorted({d.package for d in defs})
    metrics = {f"{p}_unreached": sum(d.package == p for d in counted) for p in packages}
    metrics["total_unreached"] = len(counted)
    for package in packages:
        total = sum(d.package == package for d in defs)
        print(f"  {package:<10} {metrics[package + '_unreached']:>4} unreached"
              f" of {total:>4} ({sum(d.package == package for d in noted)} noted)")
    print(f"  total      {len(counted):>4} unreached of {len(defs):>4}"
          f" ({len(noted)} noted) in {time.perf_counter() - start:.0f} s")
    conftest.persist_probe_json(
        "reach_probe",
        metrics,
        functions=len(defs),
        door_seconds=timings,
        unreached=sorted(d.qualname for d in counted),
        noted=sorted(d.qualname for d in noted),
    )
    if counted:
        print(f"reach_probe: {len(counted)} function(s) no front door reaches and no"
              " `# front door:` note explains; delete or note each:", file=sys.stderr)
        for d in sorted(counted, key=lambda d: d.qualname):
            print(f"  {d.qualname}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
