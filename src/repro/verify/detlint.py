"""Determinism lint: the static guard behind the byte-identity suite.

PRs 6–9 test determinism *dynamically* — same seed, same trace bytes,
across process restarts and cluster topologies.  Those tests catch a
regression after it lands; this AST lint catches the three classic ways
nondeterminism sneaks into the hot paths before it runs:

* **wall-clock reads** (``time.time``/``perf_counter``/``monotonic``,
  ``datetime.now`` …) — anything derived from one diverges across runs
  and hosts;
* **unseeded RNG** — module-level ``random.*`` draws from the shared
  global generator (seeded from the OS), and ``random.Random()``
  without arguments does the same; simulation code must thread an
  explicit seeded generator;
* **iteration over set literals / ``set()`` / ``frozenset()``** in
  ``for`` or comprehensions without a ``sorted()`` wrapper — set order
  is salted per process, so any state built by such a loop can differ
  between identical runs.

Scope is ``src/repro/{sim,core,cluster,fluid}`` — the code whose
outputs the determinism guarantees cover.  Verified legitimate uses
(e.g. wall-time *reporting* that never feeds simulation state) are
suppressed in place with ``# detlint: ok(reason)`` on the same line;
the reason is mandatory so every exemption self-documents.

Run as ``python -m repro.verify.detlint [paths...]`` (wired into
``make lint`` and the CI lint job); exits 1 when any finding survives.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

#: Fully-qualified callables whose results depend on the wall clock.
WALLCLOCK_FNS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Module-level draws from the process-global (OS-seeded) generator.
UNSEEDED_RNG_FNS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.uniform",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.getrandbits",
        "random.randbytes",
        "random.gauss",
        "random.expovariate",
    }
)

_SUPPRESS_RE = re.compile(r"#\s*detlint:\s*ok\([^)]+\)")

#: Default lint scope, relative to the package root (``src/``).
DEFAULT_TARGETS = ("repro/sim", "repro/core", "repro/cluster", "repro/fluid")


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    code: str  # "wall-clock" | "unseeded-rng" | "set-iteration"
    message: str

    # front door: printed only when detlint finds a violation, and the
    # tree it lints is kept free of them
    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.code}: {self.message}"


class _Aliases(ast.NodeVisitor):
    """Map local names to the canonical dotted names they import."""

    def __init__(self) -> None:
        self.names: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.names[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports never reach time/random/datetime
        for alias in node.names:
            self.names[alias.asname or alias.name] = f"{node.module}.{alias.name}"


def _dotted(node: ast.expr) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: Sequence[str], aliases: Dict[str, str]) -> None:
        self.path = path
        self.lines = source_lines
        self.aliases = aliases
        self.findings: List[Finding] = []

    # -- helpers -------------------------------------------------------------

    def _suppressed(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.lines):
            return bool(_SUPPRESS_RE.search(self.lines[line - 1]))
        return False

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        if not self._suppressed(node):
            self.findings.append(Finding(self.path, node.lineno, code, message))

    def _resolve(self, func: ast.expr) -> str:
        parts = _dotted(func)
        if not parts:
            return ""
        root = self.aliases.get(parts[0])
        if root is not None:
            parts = root.split(".") + parts[1:]
        return ".".join(parts)

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        fqn = self._resolve(node.func)
        if fqn in WALLCLOCK_FNS:
            self._emit(
                node,
                "wall-clock",
                f"{fqn}() reads the wall clock; derive time from the "
                "simulated clock or suppress with '# detlint: ok(reason)'",
            )
        elif fqn in UNSEEDED_RNG_FNS:
            self._emit(
                node,
                "unseeded-rng",
                f"{fqn}() draws from the process-global RNG; thread a "
                "seeded random.Random through instead",
            )
        elif fqn == "random.Random" and not node.args and not node.keywords:
            self._emit(
                node,
                "unseeded-rng",
                "random.Random() without a seed is seeded from the OS; "
                "pass an explicit seed",
            )
        self.generic_visit(node)

    # -- set iteration -------------------------------------------------------

    def _check_iterable(self, it: ast.expr) -> None:
        if isinstance(it, ast.Call):
            fqn = self._resolve(it.func)
            if fqn in ("set", "frozenset"):
                self._emit(
                    it,
                    "set-iteration",
                    f"iterating a {fqn}() has per-process order; wrap in "
                    "sorted(...)",
                )
        elif isinstance(it, ast.Set):
            self._emit(
                it,
                "set-iteration",
                "iterating a set literal has per-process order; wrap in "
                "sorted(...) or use a tuple",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text."""
    tree = ast.parse(source, filename=path)
    aliases = _Aliases()
    aliases.visit(tree)
    linter = _Linter(path, source.splitlines(), aliases.names)
    linter.visit(tree)
    return linter.findings


def lint_paths(paths: Sequence[Path]) -> List[Finding]:
    """Lint every ``*.py`` under each path (or the file itself)."""
    findings: List[Finding] = []
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            findings.extend(
                lint_source(file.read_text(encoding="utf-8"), str(file))
            )
    return findings


def default_targets() -> List[Path]:
    src_root = Path(__file__).resolve().parents[2]
    return [src_root / target for target in DEFAULT_TARGETS]


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    paths = [Path(a) for a in argv] if argv else default_targets()
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"detlint: no such path: {p}", file=sys.stderr)
        return 2
    findings = lint_paths(paths)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"detlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
