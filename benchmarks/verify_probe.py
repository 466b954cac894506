"""Standalone static-verification probe for ``make verify-fw``.

Runs the full ``repro.verify`` pipeline (CFG build, abstract
interpretation with loop-bound inference and memory-safety proofs,
WCET, MMIO footprint check, floorplan check, replay lint) over every
bundled firmware at its documented operating point and asserts:

* every firmware PASSes its line-rate budget (the CI gate's contract —
  a regression that bloats a firmware past its budget fails here
  before it fails in a days-long sweep);
* every firmware's memory safety is fully proven — zero unproven
  access sites and zero violations (the paper's "catch it before the
  FPGA build" pitch, statically);
* no error-level diagnostics (unknown MMIO, self-modifying stores,
  unplaceable RPU counts, loop-bound mismatches);
* the abstract interpreter runs one fixpoint per firmware: the number
  of fixpoint engines built (``fixpoints``) is at most the number of
  firmwares;
* the whole deep pass stays under ``FLOOR_VERIFY_SECONDS`` wall clock,
  so the engine pre-flight stays effectively free per sweep point.

Floors live in ``benchmarks/conftest.py`` (``REPRO_CI=1`` relaxes the
runtime ceiling for shared runners; verdicts are deterministic and
stay strict).
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import FLOOR_VERIFY_SECONDS, persist_probe_json  # noqa: E402

from repro.verify import absint, verify_all  # noqa: E402


class _CountingEngine(absint._Engine):
    """The fixpoint engine, counting how many are built."""

    built = 0

    def __init__(self, *args, **kwargs):
        _CountingEngine.built += 1
        super().__init__(*args, **kwargs)


def main() -> int:
    absint._Engine = _CountingEngine
    start = time.perf_counter()
    reports = verify_all()
    elapsed = time.perf_counter() - start
    fixpoints = _CountingEngine.built

    failed = []
    unsafe = []
    proven = unproven = violations = inferred_bounds = 0
    for report in reports:
        print(report.verdict.summary())
        s = report.safety
        proven += s.proven
        unproven += s.unproven
        violations += s.violations
        inferred_bounds += sum(
            1 for p in (report.wcet.bound_provenance or {}).values()
            if p == "inferred"
        )
        print(f"  memory safety: {s.proven} proven / {s.unproven} unproven "
              f"/ {s.violations} violation(s); stack "
              f"{s.stack_depth_bytes}/{s.stack_limit_bytes} B")
        for diag in report.all_diagnostics():
            print(f"  {diag.format()}")
        if not report.passed:
            failed.append(report.name)
        if s.unproven or s.violations or not s.passed:
            unsafe.append(report.name)

    print(f"\nverified {len(reports)} firmwares in {elapsed:.2f}s "
          f"(floor {FLOOR_VERIFY_SECONDS:.0f}s); "
          f"{proven} access sites proven, {inferred_bounds} loop bound(s) "
          f"inferred, {fixpoints} fixpoint(s)")
    persist_probe_json("verify_probe", {
        "firmwares": len(reports),
        "fixpoints": fixpoints,
        "elapsed_s": elapsed,
        "ceiling_s": FLOOR_VERIFY_SECONDS,
        "failed": failed,
        "proven_accesses": proven,
        "unproven_accesses": unproven,
        "memsafe_violations": violations,
        "inferred_bounds": inferred_bounds,
        "all_memory_safe": not unsafe,
    })
    if failed:
        print(f"FAIL: {failed} miss their documented line-rate budget")
        return 1
    if unsafe:
        print(f"FAIL: {unsafe} have unproven or violating memory accesses")
        return 1
    if fixpoints > len(reports):
        print(f"FAIL: {fixpoints} fixpoints for {len(reports)} firmwares; "
              "the analysis must run one per firmware")
        return 1
    if elapsed > FLOOR_VERIFY_SECONDS:
        print(f"FAIL: verification took {elapsed:.2f}s "
              f"> {FLOOR_VERIFY_SECONDS:.0f}s floor")
        return 1
    print("PASS: all firmwares hold their documented operating points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
