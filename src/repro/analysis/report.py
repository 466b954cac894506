"""Plain-text table/series formatting for the benchmark harness.

Each benchmark prints the same rows/series its paper artifact reports;
these helpers keep that output consistent and readable.
"""

from __future__ import annotations

from typing import List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """A fixed-width table; floats are rendered with sensible precision."""

    def render(cell: object) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 100:
                return f"{cell:.0f}"
            if abs(cell) >= 1:
                return f"{cell:.1f}"
            return f"{cell:.3f}"
        return str(cell)

    str_rows = [[render(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_utilization_row(name: str, vector, capacity) -> List[object]:
    """One Tables-1..4 style row: value (percent) per resource kind."""
    cells: List[object] = [name]
    for kind in ("luts", "registers", "bram", "uram", "dsp"):
        value = getattr(vector, kind)
        cap = getattr(capacity, kind)
        pct = 100.0 * value / cap if cap else 0.0
        cells.append(f"{value} ({pct:.1f}%)" if value else "0")
    return cells
