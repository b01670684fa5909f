"""Plain-text rendering helpers for the CLI, the benches and the examples.

The paper's tables and figures render through :mod:`repro.eval.claims`.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = [
    "render_table",
    "format_count",
    "render_histogram",
]


def format_count(value: float) -> str:
    """Human format for params/FLOPs: 1.23M, 0.02B, 540K."""
    value = float(value)
    if value >= 1e9:
        return f"{value / 1e9:.2f}B"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}K"
    return f"{value:.0f}"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_histogram(
    histogram: Sequence[float], bin_edges: Sequence[float], width: int = 40, title: str = ""
) -> str:
    """ASCII bar chart of a (relative-frequency) histogram."""
    lines: List[str] = []
    if title:
        lines.append(title)
    peak = max(histogram) or 1.0
    for i, freq in enumerate(histogram):
        lo, hi = bin_edges[i], bin_edges[i + 1]
        bar = "#" * int(round(width * freq / peak))
        lines.append(f"  [{lo:.1f},{hi:.1f}) {freq:5.2f} {bar}")
    return "\n".join(lines)
