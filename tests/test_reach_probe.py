"""The reachability probe's def matcher (``benchmarks/reach_probe.py``).

Loads the probe by file path (benchmarks/ is not a package) and runs its
matcher over a tiny fixture package: a decorated def is keyed by its
decorator line (where CPython starts its code object), a nested closure
is its own function, and a ``# front door:`` note on a class or module
covers every def inside it.  Also checks that the probe's CLI doors pass
the flags that select the code paths a plain invocation skips.
"""

import importlib.util
import json
import textwrap
from pathlib import Path

from repro.serve import SimSession

from .conftest import load_bench_module

reach_probe = load_bench_module("reach_probe")

MOD = '''\
"""A fixture module."""

import functools


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)

    return wrapper


@deco
def decorated():
    return 1


def outer():
    def inner():
        return 2

    return inner


def never():
    return 3


# front door: a noted class covers its methods
class Noted:
    def method(self):
        return 4
'''

NOTED_MOD = '''\
"""A whole module kept on purpose."""
# front door: the note between docstring and first statement covers it all

import os


def helper():
    return os.sep
'''


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"reach_fixture_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matcher_counts_decorated_nested_and_noted_defs(tmp_path):
    package = tmp_path / "root" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(textwrap.dedent(MOD))
    (package / "noted.py").write_text(NOTED_MOD)
    defs = reach_probe.collect_defs(tmp_path / "root")
    names = {d.qualname.split(":")[1] for d in defs}
    assert names == {
        "deco", "deco.<locals>.wrapper", "decorated", "outer", "outer.<locals>.inner",
        "never", "Noted.method", "helper",
    }
    assert {d.package for d in defs} == {"pkg"}

    with reach_probe.CallRecorder() as recorder:
        # importing applies the decorator: deco is reached, wrapper not yet
        module = _load(package / "mod.py")
        _load(package / "noted.py")
        assert module.decorated() == 1
        module.outer()
    counted, noted = reach_probe.unreached(defs, recorder.keys())
    # the decorated def ran, so it matched on its decorator line
    assert sorted(d.qualname for d in counted) == ["pkg.mod:never", "pkg.mod:outer.<locals>.inner"]
    assert sorted(d.qualname for d in noted) == ["pkg.mod:Noted.method", "pkg.noted:helper"]


def test_cli_doors_pass_every_flag_path(tmp_path):
    """The probe runs the flag and RPC paths a plain invocation skips:
    deep and JSON verification, a cached sweep read back, a sharded
    cluster with scheduled events, JSON reports, and a serve scenario
    that drives every live control action and a pcap inject."""
    invocations = reach_probe._cli_invocations(tmp_path)
    argvs = [argv for runs in invocations.values() for argv in runs]

    def some(command, *flags):
        return any(argv[0] == command and all(f in argv for f in flags) for argv in argvs)

    assert some("verify", "--all", "--deep")
    assert some("verify", "--all", "--json")
    assert some("chaos", "--json")
    assert some("cluster", "--shards", "--event", "--json")
    assert some("cluster", "--fidelity")
    assert some("calibrate", "--cpu-backend")
    # the second sweep over the same cache directory reads every point back
    sweeps = [argv for argv in argvs if argv[0] == "sweep"]
    assert len(sweeps) == 2 and sweeps[0] == sweeps[1]
    assert "--cache-dir" in sweeps[0] and "--out" in sweeps[0]

    # the generated scenario injects the pcap the probe's own trace writes
    assert list(invocations).index("trace") < list(invocations).index("serve")
    trace_out = {argv[argv.index("--out") + 1] for argv in argvs if argv[0] == "trace"}
    scripts = [argv[argv.index("--script") + 1] for argv in argvs if argv[0] == "serve"]
    requests = [json.loads(line) for path in scripts for line in Path(path).read_text().splitlines()
                if line.startswith("{")]
    actions = {r["params"]["action"] for r in requests if r["method"] == "control"}
    session_actions = {
        name[len("_ctl_"):] for name in dir(SimSession) if name.startswith("_ctl_")
    }
    assert session_actions <= actions
    injected = {r["params"].get("pcap") for r in requests if r["method"] == "inject"}
    assert injected & trace_out
