"""AST linter: is a behavioural firmware's per-packet effect pure?

The fluid tier (``repro.fluid``) may only skip periods it can prove
repetitive, and that needs ``FirmwareModel.process()`` to be a pure
function of the packet class.  A firmware claims so with the class-level
declaration ``replay_safe = True``; this linter checks the claim against
the source, and :func:`repro.verify.fluidgate.fluid_gate` admits only
``replay-safe`` classes:

* ``replay-safe`` — declares ``replay_safe`` and ``process()`` (plus
  every ``self.*()`` method it calls) performs no mutation beyond
  ``self.x += 1``-style counter bumps.
* ``stateful`` — keeps the default ``replay_safe = False``.  Mutations
  found are reported as evidence the opt-out is correct.
* ``unsafe`` — declares ``replay_safe`` **but** the linter finds mutable
  attribute/subscript writes, container mutators on ``self``-rooted
  state, or ``random``/``time`` use: the declaration is not credible.

``tests/test_replay_lint.py`` pins the classification of every bundled
firmware and its agreement with the fluid gate.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import List, Optional, Set

#: Container methods that mutate their receiver.
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "add", "discard", "update", "setdefault", "sort", "reverse",
    }
)

#: Modules whose use inside ``process`` makes results non-repeatable.
_NONDETERMINISTIC = frozenset({"random", "secrets", "time", "datetime"})

CLASS_REPLAY_SAFE = "replay-safe"
CLASS_STATEFUL = "stateful"
CLASS_UNSAFE = "unsafe"


@dataclass(frozen=True)
class LintFinding:
    code: str
    message: str
    func: str
    lineno: int  # within the method source

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "func": self.func,
            "lineno": self.lineno,
        }


@dataclass
class ReplayLintReport:
    cls_name: str
    classification: str
    findings: List[LintFinding] = field(default_factory=list)
    counter_bumps: int = 0  # allowed self.x += 1 style adds
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "class": self.cls_name,
            "classification": self.classification,
            "findings": [f.to_dict() for f in self.findings],
            "counter_bumps": self.counter_bumps,
            "notes": self.notes,
        }


def _root_is_self(node: ast.expr) -> bool:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


class _MethodLinter(ast.NodeVisitor):
    def __init__(self, func_name: str) -> None:
        self.func_name = func_name
        self.findings: List[LintFinding] = []
        self.counter_bumps = 0
        self.self_calls: Set[str] = set()

    def _finding(self, code: str, message: str, node: ast.AST) -> None:
        self.findings.append(
            LintFinding(code, message, self.func_name, getattr(node, "lineno", 0))
        )

    def _check_target(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_target(elt, node)
        elif isinstance(target, ast.Attribute):
            self._finding(
                "attribute-write",
                f"assigns attribute '{ast.unparse(target)}'",
                node,
            )
        elif isinstance(target, ast.Subscript):
            self._finding(
                "subscript-write",
                f"assigns subscript '{ast.unparse(target)}'",
                node,
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node)
        self.generic_visit(node)

    # front door: an annotated assignment in a firmware method; no bundled
    # firmware model's methods contain one
    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Attribute):
            if isinstance(node.op, ast.Add) and _root_is_self(target):
                # the one mutation a replay_safe firmware may make:
                # integer counter bumps (the fluid ledger scales them)
                self.counter_bumps += 1
            else:
                self._finding(
                    "attribute-write",
                    f"augmented-assigns attribute '{ast.unparse(target)}'",
                    node,
                )
        elif isinstance(target, ast.Subscript):
            self._finding(
                "subscript-write",
                f"augmented-assigns subscript '{ast.unparse(target)}'",
                node,
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            # self.helper(...) -> analyze transitively
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                self.self_calls.add(func.attr)
            elif func.attr in _MUTATORS and _root_is_self(func.value):
                self._finding(
                    "container-mutation",
                    f"calls mutator '.{func.attr}()' on "
                    f"'{ast.unparse(func.value)}'",
                    node,
                )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in _NONDETERMINISTIC:
            self._finding(
                "nondeterminism",
                f"uses module '{node.id}' (results not repeatable)",
                node,
            )
        self.generic_visit(node)


def _method_ast(cls: type, name: str) -> Optional[ast.AST]:
    func = getattr(cls, name, None)
    if func is None or not callable(func):
        return None
    func = inspect.unwrap(func)
    if not hasattr(func, "__code__"):
        return None  # builtin / C-level
    try:
        source = textwrap.dedent(inspect.getsource(func))
        return ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return None


def lint_firmware_class(cls) -> ReplayLintReport:
    """Classify one :class:`FirmwareModel` subclass (or instance)."""
    if not isinstance(cls, type):
        cls = type(cls)

    findings: List[LintFinding] = []
    counter_bumps = 0
    notes: List[str] = []

    visited: Set[str] = set()
    queue = ["process"]
    while queue:
        name = queue.pop()
        if name in visited:
            continue
        visited.add(name)
        tree = _method_ast(cls, name)
        if tree is None:
            if name == "process":
                notes.append("process() source unavailable; structural "
                             "checks skipped")
            continue
        linter = _MethodLinter(name)
        linter.visit(tree)
        findings.extend(linter.findings)
        counter_bumps += linter.counter_bumps
        queue.extend(linter.self_calls - visited)

    if not getattr(cls, "replay_safe", False):
        classification = CLASS_STATEFUL
        if not findings:
            notes.append(
                "no mutations found, but replay_safe is not declared: "
                "the fluid tier refuses this firmware (declare it to opt in)"
            )
    elif findings:
        classification = CLASS_UNSAFE
    else:
        classification = CLASS_REPLAY_SAFE

    return ReplayLintReport(
        cls_name=cls.__name__,
        classification=classification,
        findings=findings,
        counter_bumps=counter_bumps,
        notes=notes,
    )
