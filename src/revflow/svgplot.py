"""Minimal static SVG line plots (no plotting dependency).

Each series is normalized to its own [min, max] so quantities with very
different scales share one panel; the legend carries the actual ranges.
"""

from __future__ import annotations

import math

__all__ = ["write_line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 900, 480
_ML, _MR, _MT, _MB = 70, 230, 40, 50


def _scale(values):
    lo = min(values)
    hi = max(values)
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi == lo:
        return lo, hi, lambda v: 0.5
    span = hi - lo
    return lo, hi, lambda v: (v - lo) / span


def write_line_plot(path, x, series, title):
    """Write polylines of ``series`` (name -> values) against ``x``, the time t, as SVG."""
    x = [float(v) for v in x]
    if len(x) < 2:
        x = x + x  # degenerate run: draw flat markers
        series = {k: list(v) + list(v) for k, v in series.items()}
    x_lo, x_hi, x_norm = _scale(x)

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    parts.append(f'<text x="{_ML}" y="{_MT - 14}" font-family="sans-serif" '
                 f'font-size="15">{title}</text>')
    parts.append(f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 14}" font-family="sans-serif" '
                 f'font-size="12" text-anchor="middle">t</text>')
    parts.append(f'<text x="{_ML}" y="{_H - 30}" font-family="sans-serif" font-size="11" '
                 f'text-anchor="middle">{x_lo:.6g}</text>')
    parts.append(f'<text x="{_ML + plot_w}" y="{_H - 30}" font-family="sans-serif" '
                 f'font-size="11" text-anchor="middle">{x_hi:.6g}</text>')

    for idx, (name, values) in enumerate(series.items()):
        values = [float(v) for v in values]
        color = _COLORS[idx % len(_COLORS)]
        lo, hi, norm = _scale(values)
        pts = " ".join(
            f"{_ML + x_norm(xv) * plot_w:.2f},{_MT + (1.0 - norm(v)) * plot_h:.2f}"
            for xv, v in zip(x, values)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = _MT + 18 + 18 * idx
        lx = _ML + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{name} [{lo:.4g}, {hi:.4g}]</text>')

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
