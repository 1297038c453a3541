"""Native SVG line charts, so plotting needs no external dependency.

Good enough for eyeballing multiplier paths and curve shapes; CSV remains
the primary data interface.
"""

from __future__ import annotations

from typing import Sequence

_COLORS = ("#1f6fb2", "#d1495b", "#3a7d44", "#8a5fbf", "#c97b1f", "#4d4d4d")


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from lo to hi."""
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def line_chart(
    path,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write a standalone 760 x 460 SVG with one polyline per (label, xs, ys) series."""
    width, height = 760, 460
    left, right, top, bottom = 64, 16, 36, 48
    plot_w = width - left - right
    plot_h = height - top - bottom

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.1f}" y1="{top + plot_h}" x2="{px(tx):.1f}" '
            f'y2="{top + plot_h + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px(tx):.1f}" y="{top + plot_h + 18}" '
            f'text-anchor="middle">{tx:g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{left - 4}" y1="{py(ty):.1f}" x2="{left}" '
            f'y2="{py(ty):.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{py(ty) + 4:.1f}" text-anchor="end">{ty:.3g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{left + plot_w / 2:.1f}" y="{height - 10}" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{ylabel}</text>'
        )

    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = top + 16 + 16 * i
        parts.append(
            f'<line x1="{left + plot_w - 120}" y1="{ly - 4}" '
            f'x2="{left + plot_w - 100}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{left + plot_w - 94}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
