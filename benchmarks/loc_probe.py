"""Source-size probe for ``make bench-smoke``: lines per ``src/repro`` package.

Counts the physical lines (what ``wc -l`` counts) of every ``*.py``
under each top-level package of ``src/repro`` — sub-packages included,
the package-less top-level modules under ``top`` — and persists them as
``<package>_lines`` metrics.  ``benchmarks/baselines.json`` holds each
with ``direction: lower`` and ``tolerance: 0``, so ``make bench-trend``
fails when a package grows: growing one takes a baseline bump
(``make bench-trend-update``) and a reason in the commit that makes it
(ROADMAP item 4).  Shrinking passes; re-run the update to ratchet down.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import persist_probe_json  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def count_lines(root: Path = SRC) -> dict:
    """``{package: physical lines}`` plus ``total``."""
    counts = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = parts[0] if len(parts) > 1 else "top"
        with path.open("rb") as handle:
            counts[package] = counts.get(package, 0) + sum(1 for _ in handle)
    counts["total"] = sum(counts.values())
    return counts


def main() -> int:
    counts = count_lines()
    for package, lines in counts.items():
        print(f"  {package:<10} {lines:>6}")
    persist_probe_json("loc_probe", {f"{package}_lines": n for package, n in counts.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
