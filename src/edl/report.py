"""Dependency-free polyline SVG plots for experiment artifacts.

One fixed canvas, linear or log axes, deterministic float formatting: two
runs with the same inputs emit byte-identical files.
"""

from __future__ import annotations

import math

from .util import atomic_write_text, format_float

_WIDTH, _HEIGHT = 640.0, 420.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 24.0, 40.0, 48.0
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _transform(values, log):
    out = []
    for v in values:
        v = float(v)
        if log:
            if v <= 0.0:
                raise ValueError("log axis requires positive values")
            v = math.log10(v)
        out.append(v)
    return out


def _ticks(lo, hi):
    """Five evenly spaced ticks from lo to hi."""
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def _fmt(x):
    return format_float(round(float(x), 6))


def line_plot_svg(series, title, xlabel, ylabel, logx=False, logy=False):
    """Render [(label, xs, ys), ...] to an SVG string."""
    if not series:
        raise ValueError("nothing to plot")
    txs, tys = [], []
    for _, xs, ys in series:
        if len(xs) != len(ys) or len(xs) == 0:
            raise ValueError("each series needs matching nonempty x and y")
        txs.extend(_transform(xs, logx))
        tys.extend(_transform(ys, logy))
    x_lo, x_hi = min(txs), max(txs)
    y_lo, y_hi = min(tys), max(tys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="white"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="22" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]
    axis = (
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#333" stroke-width="1"/>'
    )
    parts.append(axis)
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        label = f"1e{_fmt(t)}" if logx else _fmt(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_MARGIN_T + plot_h)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(_MARGIN_T + plot_h + 5)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(_MARGIN_T + plot_h + 20)}" '
            f'text-anchor="middle" font-family="monospace" font-size="10">{label}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        label = f"1e{_fmt(t)}" if logy else _fmt(t)
        parts.append(
            f'<line x1="{_fmt(_MARGIN_L - 5)}" y1="{_fmt(y)}" x2="{_fmt(_MARGIN_L)}" '
            f'y2="{_fmt(y)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(_MARGIN_L - 8)}" y="{_fmt(y + 3)}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{label}</text>'
        )
    parts.append(
        f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" y="{_fmt(_HEIGHT - 10)}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(_MARGIN_T + plot_h / 2)}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 14 {_fmt(_MARGIN_T + plot_h / 2)})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(
            f"{_fmt(px(x))},{_fmt(py(y))}"
            for x, y in zip(_transform(xs, logx), _transform(ys, logy))
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 14 + 14 * i
        parts.append(
            f'<line x1="{_fmt(_MARGIN_L + plot_w - 130)}" y1="{_fmt(ly - 4)}" '
            f'x2="{_fmt(_MARGIN_L + plot_w - 110)}" y2="{_fmt(ly - 4)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(_MARGIN_L + plot_w - 105)}" y="{_fmt(ly)}" '
            f'font-family="monospace" font-size="10">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_line_plot(path, series, title, xlabel, ylabel, logx=False, logy=False):
    atomic_write_text(path, line_plot_svg(series, title, xlabel, ylabel, logx, logy))
