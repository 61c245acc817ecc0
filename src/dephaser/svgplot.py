"""Minimal deterministic SVG line charts; no plotting dependency.

Output is plain XML text with fixed 2-decimal coordinates, so identical
data always yields identical bytes.
"""
from __future__ import annotations

import math
from typing import Sequence

_WIDTH = 640
_HEIGHT = 440
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 16, 16, 48


def _decade_span(values):
    lo = math.floor(math.log10(min(values)))
    hi = math.ceil(math.log10(max(values)))
    if lo == hi:
        hi += 1
    return lo, hi


def loglog_svg_text(x: Sequence[float], y: Sequence[float], *,
                    x_label: str, y_label: str) -> str:
    """Render a log-log polyline chart as an SVG document string.

    Non-finite and non-positive points are dropped (a vanishing rate has
    no place on a log axis). Raises ValueError when nothing is plottable.
    """
    pts = [(float(a), float(b)) for a, b in zip(x, y)
           if math.isfinite(a) and math.isfinite(b) and a > 0.0 and b > 0.0]
    if not pts:
        raise ValueError("no positive finite points to plot")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = _decade_span(xs)
    y0, y1 = _decade_span(ys)
    pw = _WIDTH - _LEFT - _RIGHT
    ph = _HEIGHT - _TOP - _BOTTOM

    def px(v: float) -> float:
        return _LEFT + (math.log10(v) - x0) / (x1 - x0) * pw

    def py(v: float) -> float:
        return _TOP + ph - (math.log10(v) - y0) / (y1 - y0) * ph

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for e in range(x0, x1 + 1):
        gx = px(10.0**e)
        lines.append(f'<line x1="{gx:.2f}" y1="{_TOP}" x2="{gx:.2f}" '
                     f'y2="{_TOP + ph}" stroke="#cccccc" stroke-width="1"/>')
        lines.append(f'<text x="{gx:.2f}" y="{_TOP + ph + 16}" '
                     'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle" fill="#333333">1e{e}</text>')
    for e in range(y0, y1 + 1):
        gy = py(10.0**e)
        lines.append(f'<line x1="{_LEFT}" y1="{gy:.2f}" x2="{_LEFT + pw}" '
                     f'y2="{gy:.2f}" stroke="#cccccc" stroke-width="1"/>')
        lines.append(f'<text x="{_LEFT - 6}" y="{gy:.2f}" '
                     'font-family="sans-serif" font-size="11" '
                     f'text-anchor="end" dominant-baseline="middle" '
                     'fill="#333333">1e' + str(e) + "</text>")
    coords = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in pts)
    lines.append(f'<polyline points="{coords}" fill="none" '
                 'stroke="#1f6fb2" stroke-width="1.5"/>')
    lines.append(f'<text x="{_LEFT + pw / 2:.2f}" y="{_HEIGHT - 12}" '
                 'font-family="sans-serif" font-size="12" '
                 f'text-anchor="middle" fill="#333333">{x_label}</text>')
    lines.append(f'<text x="14" y="{_TOP + ph / 2:.2f}" '
                 'font-family="sans-serif" font-size="12" '
                 'text-anchor="middle" fill="#333333" '
                 f'transform="rotate(-90 14 {_TOP + ph / 2:.2f})">{y_label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

