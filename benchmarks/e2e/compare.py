"""Compare two result documents of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two runs of one
commit) and ``B`` the candidate.  Either file is what ``run.py`` wrote:
an all-workloads document (``out/seed<N>/all.json`` or ``--out``) or a
single workload's.  For every workload in both, per end-to-end metric it
prints both values, the relative change (positive = worse) and the bound
from ``BENCHMARK.json``, marking rows that are out of bound; then it
lists every deterministic per-layer metric whose value differs, and
every workload that was not correct or had failed iterations.  Exits
non-zero on any of the three.

Host-time per-layer readings (rates, span times, shares) are printed
for information only when both files are traced runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from benchdefs import END_TO_END, PER_LAYER, is_deterministic


def load(path: str) -> Dict[str, Dict[str, Any]]:
    """``workload -> document`` from either shape ``run.py`` writes."""
    with open(path) as fh:
        doc = json.load(fh)
    if "workloads" in doc:
        return doc["workloads"]
    return {doc["workload"]: doc}


def readings(doc: Dict[str, Any]) -> Dict[str, float]:
    """Every metric value in a workload document, by name."""
    values = {name: entry["value"] for name, entry in doc.get("counters", {}).items()}
    values.update({name: entry["value"] for name, entry in doc["metrics"].items()})
    return values


def worsening(name: str, base: float, candidate: float) -> float:
    """Relative change of an end-to-end metric, signed so that positive
    is worse; the share of ``base`` the bound is stated in."""
    change = (candidate - base) / base
    return change if END_TO_END[name]["better"] == "lower" else -change


def compare(a: Dict[str, Dict[str, Any]], b: Dict[str, Dict[str, Any]]) -> List[str]:
    """Print the comparison; return one line per finding."""
    findings: List[str] = []
    for workload in a:
        if workload not in b:
            print(f"{workload}: only in the first file")
            continue
        doc_a, doc_b = a[workload], b[workload]
        print(f"{workload}  (seeds {doc_a.get('seed')} / {doc_b.get('seed')})")
        for label, doc in (("A", doc_a), ("B", doc_b)):
            if not doc["correct"] or doc["failed"]:
                findings.append(
                    f"{workload}: {label} not correct "
                    f"({doc['failed']}/{doc['attempted']} iterations failed)"
                )
        va, vb = readings(doc_a), readings(doc_b)
        for name, entry in END_TO_END.items():
            if name not in va or name not in vb:
                continue
            worse = worsening(name, va[name], vb[name])
            out = worse > entry["bound"]
            print(
                f"  {name:18s} {va[name]:14.4f} {vb[name]:14.4f} {entry['unit']:9s}"
                f" {worse:+8.2%} worse (bound {entry['bound']:.0%})"
                + ("  OUT OF BOUND" if out else "")
            )
            if out:
                findings.append(
                    f"{workload}: {name} worse by {worse:.2%}, bound {entry['bound']:.0%}"
                )
        for name in PER_LAYER:
            if name not in va or name not in vb or va[name] == vb[name]:
                continue
            if is_deterministic(name):
                print(f"  {name:28s} {va[name]!r} != {vb[name]!r}  DIFFERS (deterministic)")
                findings.append(f"{workload}: {name} {va[name]!r} != {vb[name]!r}")
            elif doc_a.get("trace") and doc_b.get("trace"):
                print(f"  {name:28s} {va[name]:14.6g} {vb[name]:14.6g}  (host time)")
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", metavar="A.json")
    parser.add_argument("b", metavar="B.json")
    args = parser.parse_args(argv)
    findings = compare(load(args.a), load(args.b))
    if findings:
        print(f"\n{len(findings)} finding(s):")
        for line in findings:
            print(f"  {line}")
        return 1
    print("\nagree: every end-to-end metric within its bound, "
          "every deterministic per-layer metric equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
