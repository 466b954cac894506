"""The reachability probe's def matcher (``benchmarks/reach_probe.py``).

Loads the probe by file path (benchmarks/ is not a package) and runs its
matcher over a tiny fixture package: a decorated def is keyed by its
decorator line (where CPython starts its code object), a nested closure
is its own function, and a ``# front door:`` note on a class or module
covers every def inside it.
"""

import importlib.util
import textwrap
from pathlib import Path

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
