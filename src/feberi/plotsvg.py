"""Minimal SVG line charts (no plotting dependency).

Fixed 860x520 viewport, linear axes with 5 ticks per axis, scientific tick
labels when the range calls for them, one polyline per series and a simple
legend.  Output is deterministic for identical input.
"""

from __future__ import annotations

import math

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 860, 520
_ML, _MR, _MT, _MB = 90, 30, 46, 64


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    a = abs(v)
    if 1e-3 <= a < 1e4:
        return f"{v:.6g}"
    return f"{v:.3e}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / (n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out or [lo, hi]


def line_plot(path, series, title: str, xlabel: str, ylabel: str) -> None:
    """Write an SVG line chart.

    ``series`` is a list of (x array, y array, label) triples sharing axes,
    each array taken as float64.  The axis limits and the pixel coordinates
    are computed on whole arrays, in the order of operations of the scalar
    ``sx`` and ``sy``.
    """
    series = [(np.asarray(x, dtype=float).ravel(), np.asarray(y, dtype=float).ravel(), label)
              for x, y, label in series]
    xs_all = np.concatenate([x for x, _, _ in series])
    ys_all = np.concatenate([y for _, y, _ in series])
    if not xs_all.size:
        raise ValueError("nothing to plot")
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + max(1e-30, abs(y_lo))
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return _MT + ph - (v - y_lo) / (y_hi - y_lo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
           f'font-family="sans-serif" font-size="16">{title}</text>']
    # axes box
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
               'stroke="black" stroke-width="1"/>')
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        out.append(f'<line x1="{x:.1f}" y1="{_MT + ph}" x2="{x:.1f}" '
                   f'y2="{_MT + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.1f}" y="{_MT + ph + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        out.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" '
                   'stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    out.append(f'<text x="{_ML + pw / 2:.1f}" y="{_H - 14}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    out.append(f'<text x="22" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 22 {_MT + ph / 2:.1f})">{ylabel}</text>')
    for i, (x, y, label) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{a:.2f},{b:.2f}"
                       for a, b in zip(sx(x).tolist(), sy(y).tolist()))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.6"/>')
        ly = _MT + 16 + 16 * i
        out.append(f'<line x1="{_ML + pw - 150}" y1="{ly - 4}" x2="{_ML + pw - 122}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_ML + pw - 116}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
