"""Every documented CLI invocation parses against the real parser.

Scans the README, both EXPERIMENTS documents, ``docs/*.md``, the
Makefile, the GitHub workflows and the scripted serve scenario's header
for ``python -m repro.cli <subcommand> ...`` and ``repro <subcommand>
...`` (in backticks or after a ``$`` prompt) and feeds each one to
``build_parser().parse_args``.  Nothing is run: a flag a subcommand
does not accept, or a subcommand that does not exist, fails here
instead of in a reader's shell.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

from .conftest import load_bench_module

ROOT = Path(__file__).resolve().parent.parent

#: where an invocation starts; its arguments follow the match
_START = re.compile(r"(?:-m repro\.cli|(?:`|\$ )repro)\s+")
#: where the documented command stops (markup, elision, shell syntax)
_STOP = re.compile(r"`|…|\.\.\.|;|\||>|&&|\s#")


def _doc_files():
    files = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "Makefile"]
    files += sorted((ROOT / "docs").glob("*.md"))
    files += sorted((ROOT / ".github" / "workflows").glob("*.yml"))
    return [path for path in files if path.exists()]


def _logical_lines(text):
    """Lines with shell ``\\`` continuations and YAML folded ``--flag``
    continuation lines joined to the line they continue."""
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if lines and (lines[-1].endswith("\\") or line.startswith("--")):
            lines[-1] = lines[-1].rstrip("\\").rstrip() + " " + line
        else:
            lines.append(line)
    return lines


def _invocations():
    sources = [(path, path.read_text()) for path in _doc_files()]
    scenario = ROOT / "examples" / "serve_session.jsonl"
    header = [line for line in scenario.read_text().splitlines() if line.startswith("#")]
    sources.append((scenario, "\n".join(header)))
    found = []
    for path, text in sources:
        for line in _logical_lines(text):
            for match in _START.finditer(line):
                command = _STOP.split(line[match.end():], 1)[0]
                # optional groups are documented as accepted; shell loop
                # variables and upper-case placeholders (N, PATH) stand
                # for a value
                command = command.replace("[", "").replace("]", "")
                command = re.sub(r"\$\w+|\b[A-Z]+\b", "1", command)
                found.append((f"{path.relative_to(ROOT)}: {command.strip()}",
                              shlex.split(command)))
    return found


INVOCATIONS = _invocations()


def test_docs_name_the_cli():
    assert len(INVOCATIONS) >= 30
    # every registered subcommand is documented, and nothing else is
    assert {argv[0] for _, argv in INVOCATIONS} == load_bench_module("reach_probe").registered_subcommands()


@pytest.mark.parametrize("argv", [argv for _, argv in INVOCATIONS],
                         ids=[label for label, _ in INVOCATIONS])
def test_documented_invocation_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{argv} rejected: {capsys.readouterr().err.strip()}")
