"""ASCII rendering of tables and histograms.

No plotting stack is available offline, so every figure is regenerated as
text: the same series the paper plots, printed as aligned tables/bars and
dumped as CSV next to them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_table", "render_histogram", "to_csv"]


def render_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Monospace table with right-aligned numeric formatting."""
    def fmt(cell) -> str:
        if isinstance(cell, float) or isinstance(cell, np.floating):
            return f"{cell:.3f}"
        return str(cell)

    cells = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_histogram(values, bins: int = 10, title: str = "",
                     width: int = 40,
                     value_range: tuple[float, float] | None = None) -> str:
    """Vertical-count histogram rendered as horizontal bars per bin."""
    values = np.asarray(values, dtype=np.float64)
    counts, edges = np.histogram(values, bins=bins, range=value_range)
    top = counts.max() if counts.size and counts.max() > 0 else 1
    lines = [title] if title else []
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * count / top))
        lines.append(f"[{lo:6.2f},{hi:6.2f}) {str(count).rjust(4)} | {bar}")
    return "\n".join(lines)


def to_csv(headers: list[str], rows: list[list]) -> str:
    """Simple CSV serialisation (no quoting needs in our data)."""
    out = [",".join(headers)]
    for row in rows:
        out.append(",".join(
            f"{c:.6g}" if isinstance(c, (float, np.floating)) else str(c)
            for c in row
        ))
    return "\n".join(out) + "\n"
