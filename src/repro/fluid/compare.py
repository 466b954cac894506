"""Fluid-vs-event result comparison under the byte-identity contract.

The fluid tier's promise is that warping changes *what is simulated*,
never *what is measured*: every integer counter in the result must be
byte-identical to the event-accurate run, and every float must agree to
1e-6 relative (the warp ledger adds ``k * delta`` in one step where the
event run adds ``delta`` k times, so the last-ulp rounding of float
accumulators can legitimately differ).

Two kinds of keys are excluded from the comparison:

* ``fluid`` blocks — they *describe* the warping (warp counts,
  occupancy, de-opts) and differ between tiers by construction.
* ``elapsed``/wall-clock fields — host-time measurements.

``events_processed`` is compared with a small absolute tolerance
(default 8): it is a kernel execution statistic, not a system counter,
and in contended regimes the event-accurate orbit itself is not
event-*count* periodic — no-op re-poll events reschedule on float-time
ties as the clock magnitude grows — so the count drifts while every
system counter stays byte-identical.  Callers comparing contended runs
should pass a wider ``events_atol`` (~1% of the total).
"""

from __future__ import annotations

import math
from typing import Any, List, Tuple

#: keys whose subtrees are never compared: fluid telemetry, wall-clock
#: fields, and the spec hash (fidelity is part of the hashed spec, so
#: the two runs being compared legitimately disagree on it)
_SKIP_KEYS = frozenset(
    {"fluid", "elapsed_s", "wall_s", "events_per_sec", "spec_key"}
)

#: integer keys compared with an absolute tolerance instead of exactly
_TOLERANT_INT_KEYS = frozenset({"events_processed"})

_FLOAT_RTOL = 1e-6
_FLOAT_ATOL = 1e-6
_EVENTS_ATOL = 8


def diff_results(
    fluid: Any,
    event: Any,
    path: str = "$",
    events_atol: int = _EVENTS_ATOL,
) -> List[str]:
    """Return a list of human-readable mismatches (empty = identical).

    ``fluid``/``event`` are the ``to_dict()`` trees of the two runs (or
    any JSON-shaped substructure).  Ints must match exactly, floats to
    ``1e-6`` relative, and ``fluid``/wall-clock keys are skipped.
    """
    out: List[str] = []
    _walk(fluid, event, path, events_atol, out)
    return out


def _walk(a: Any, b: Any, path: str, events_atol: int, out: List[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        keys_a = set(a) - _SKIP_KEYS
        keys_b = set(b) - _SKIP_KEYS
        for k in sorted(keys_a ^ keys_b):
            out.append(f"{path}.{k}: present in only one result")
        for k in sorted(keys_a & keys_b):
            if k in _TOLERANT_INT_KEYS and _both_ints(a[k], b[k]):
                if abs(a[k] - b[k]) > events_atol:
                    out.append(
                        f"{path}.{k}: {a[k]} vs {b[k]} "
                        f"(|diff| > {events_atol})"
                    )
                continue
            _walk(a[k], b[k], f"{path}.{k}", events_atol, out)
        return
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", events_atol, out)
        return
    if _both_ints(a, b):
        if a != b:
            out.append(f"{path}: {a} != {b} (int, must be byte-identical)")
        return
    if isinstance(a, float) or isinstance(b, float):
        if not _num(a) or not _num(b):
            out.append(f"{path}: {a!r} vs {b!r}")
        elif not math.isclose(a, b, rel_tol=_FLOAT_RTOL, abs_tol=_FLOAT_ATOL):
            out.append(f"{path}: {a!r} != {b!r} (float, rel_tol {_FLOAT_RTOL})")
        return
    if a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def _both_ints(a: Any, b: Any) -> bool:
    return (
        isinstance(a, int)
        and isinstance(b, int)
        and not isinstance(a, bool)
        and not isinstance(b, bool)
    )


def _num(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)
