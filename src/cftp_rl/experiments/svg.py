"""Minimal hand-rolled SVG line charts; a pure function of the plotted rows.

No charting dependency: experiments emit CSV tables and these charts are
deterministic renderings of exactly those tables.
"""

from __future__ import annotations

import math

PALETTE = ["#d62728", "#2ca02c", "#1f77b4", "#ff7f0e", "#9467bd", "#8c564b", "#17becf"]

WIDTH, HEIGHT = 760, 500
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 170, 40, 55


def _ticks_linear(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _ticks_log(lo: float, hi: float) -> list[float]:
    low = math.floor(math.log10(lo))
    high = math.ceil(math.log10(hi))
    return [10.0**e for e in range(low, high + 1)]


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.1e}"
    return f"{value:g}"


def _visible(xs, ys, log_x: bool, log_y: bool) -> list[tuple[float, float]]:
    """The (x, y) points a chart can place: no NaN, and positive on a log axis."""
    return [
        (x, y)
        for x, y in zip(xs, ys)
        if not (math.isnan(x) or math.isnan(y))
        and not (log_x and x <= 0)
        and not (log_y and y <= 0)
    ]


def _offset(value: float, lo: float, hi: float, log: bool, span: float) -> float:
    """Distance of ``value`` from the axis start, on an axis of length ``span``."""
    if log:
        lo, hi = math.log10(lo), math.log10(max(hi, lo * 10))
        return span * (math.log10(value) - lo) / (hi - lo)
    if hi == lo:
        return span / 2
    return span * (value - lo) / (hi - lo)


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    x_label: str,
    y_label: str,
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """Render named (x, y) polylines with axes, ticks, and a legend."""
    points = [p for _, xs, ys in series for p in _visible(xs, ys, log_x, log_y)]
    if not points:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(p[0] for p in points), max(p[0] for p in points)
    y_lo, y_hi = min(p[1] for p in points), max(p[1] for p in points)
    axis_y = HEIGHT - MARGIN_BOTTOM

    def x_pos(x: float) -> float:
        return MARGIN_LEFT + _offset(x, x_lo, x_hi, log_x, WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def y_pos(y: float) -> float:
        return axis_y - _offset(y, y_lo, y_hi, log_y, HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{WIDTH - MARGIN_RIGHT}" y2="{axis_y}" '
        'stroke="black"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" y2="{axis_y}" '
        'stroke="black"/>',
    ]
    # Per axis: its range and scale, then a tick mark and a label at position p.
    axes = (
        (x_lo, x_hi, log_x, x_pos,
         lambda p: f'<line x1="{p:.1f}" y1="{axis_y}" x2="{p:.1f}" y2="{axis_y + 5}" stroke="black"/>',
         lambda p: f'<text x="{p:.1f}" y="{axis_y + 20}" text-anchor="middle"'),
        (y_lo, y_hi, log_y, y_pos,
         lambda p: f'<line x1="{MARGIN_LEFT - 5}" y1="{p:.1f}" x2="{MARGIN_LEFT}" y2="{p:.1f}" stroke="black"/>',
         lambda p: f'<text x="{MARGIN_LEFT - 9}" y="{p + 4:.1f}" text-anchor="end"'),
    )
    for lo, hi, log, pos, mark, label in axes:
        for tick in _ticks_log(lo, hi) if log else _ticks_linear(lo, hi):
            if lo <= tick <= hi * (1 + 1e-12):
                p = pos(tick)
                parts.append(mark(p))
                parts.append(f'{label(p)} font-size="11" font-family="sans-serif">{_fmt(tick)}</text>')
    parts.append(
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2:.1f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-size="13" font-family="sans-serif">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{(MARGIN_TOP + axis_y) / 2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {(MARGIN_TOP + axis_y) / 2:.1f})">'
        f"{y_label}</text>"
    )
    for idx, (name, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        coords = [f"{x_pos(x):.2f},{y_pos(y):.2f}" for x, y in _visible(xs, ys, log_x, log_y)]
        if coords:
            parts.append(
                f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="1.8"/>'
            )
        ly = MARGIN_TOP + 18 * idx
        lx = WIDTH - MARGIN_RIGHT + 12
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="3"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-size="12" font-family="sans-serif">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
