"""Matplotlib-free SVG rendering of experiment results.

The campaign CLI (``python -m repro.campaign report --svg out.svg``) renders
an aggregated :class:`~repro.stats.results.ExperimentResult` — every series,
with 95%-confidence error bars where the aggregation recorded them — as a
single self-contained SVG document.  The writer is deliberately hand-rolled:
the container bakes no plotting stack, and the output only needs axes, tick
labels, polylines, error bars and a legend.

Everything is pure string assembly over :func:`_escape`, so the output is
valid XML by construction and byte-deterministic for a given result object.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.stats.results import ExperimentResult, Series

#: Qualitative palette (colorblind-safe Okabe–Ito subset), cycled per series.
PALETTE = (
    "#0072B2",  # blue
    "#D55E00",  # vermillion
    "#009E73",  # green
    "#CC79A7",  # purple
    "#E69F00",  # orange
    "#56B4E9",  # sky
    "#F0E442",  # yellow
    "#000000",  # black
)

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 44.0
_LEGEND_ROW = 16.0


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for XML character data.

    The same output as ``xml.sax.saxutils.escape``, whose import pulls in
    ``urllib.request``, ``http.client``, ``email`` and ``ssl``: every process
    that imports :mod:`repro` would carry them.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _nice_ticks(low: float, high: float, count: int = 5) -> List[float]:
    """Round tick positions covering [low, high] (always >= 2 ticks)."""
    if high <= low:
        high = low + 1.0
    span = high - low
    raw_step = span / max(count - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for multiple in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = multiple * magnitude
        if step >= raw_step:
            break
    first = math.floor(low / step) * step
    ticks = []
    value = first
    while value <= high + step * 0.5:
        if value >= low - step * 0.5:
            ticks.append(round(value, 10))
        value += step
    return ticks or [low, high]


def _format_tick(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


class _Canvas:
    """Maps data space onto the SVG pixel grid of the plot area."""

    def __init__(self, width: float, height: float, legend_rows: int,
                 x_range: Tuple[float, float], y_range: Tuple[float, float]) -> None:
        self.width = width
        self.height = height
        self.plot_left = _MARGIN_LEFT
        self.plot_top = _MARGIN_TOP + legend_rows * _LEGEND_ROW
        self.plot_right = width - _MARGIN_RIGHT
        self.plot_bottom = height - _MARGIN_BOTTOM
        self.x_min, self.x_max = x_range
        self.y_min, self.y_max = y_range
        if self.x_max <= self.x_min:
            self.x_max = self.x_min + 1.0
        if self.y_max <= self.y_min:
            self.y_max = self.y_min + 1.0

    def x(self, value: float) -> float:
        span = self.x_max - self.x_min
        fraction = (value - self.x_min) / span
        return self.plot_left + fraction * (self.plot_right - self.plot_left)

    def y(self, value: float) -> float:
        span = self.y_max - self.y_min
        fraction = (value - self.y_min) / span
        return self.plot_bottom - fraction * (self.plot_bottom - self.plot_top)


def _data_ranges(series: Sequence[Series]) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    xs: List[float] = []
    ys: List[float] = []
    for one in series:
        xs.extend(one.x_values)
        errors = one.y_errors if one.y_errors else [0.0] * len(one.y_values)
        for y, err in zip(one.y_values, errors):
            ys.extend((y - err, y + err))
    if not xs:
        return (0.0, 1.0), (0.0, 1.0)
    y_low = min(min(ys), 0.0)  # anchor at zero: these are rates/ratios/counts
    return (min(xs), max(xs)), (y_low, max(ys))


def render_svg(result: ExperimentResult, width: int = 640, height: int = 420,
               title: Optional[str] = None, x_label: str = "x") -> str:
    """Render ``result``'s series as a complete SVG document string.

    Series with ``y_errors`` get vertical 95%-CI error bars with caps.
    Results without series render an "(no series)" placeholder so the export
    path never fails on table-only experiments.
    """
    title = title if title is not None else f"{result.experiment_id}: {result.description}"
    series = [s for s in result.series.values() if s.x_values]
    legend_rows = len(series)
    x_range, y_range = _data_ranges(series)
    canvas = _Canvas(float(width), float(height), legend_rows, x_range, y_range)

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">')
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    parts.append(f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
                 f'font-size="13" font-weight="bold">{_escape(title)}</text>')

    if not series:
        parts.append(f'<text x="{width / 2:.1f}" y="{height / 2:.1f}" '
                     f'text-anchor="middle" fill="#888">(no series)</text>')
        parts.append("</svg>")
        return "\n".join(parts)

    # --- axes, grid and ticks -----------------------------------------
    axis = (f'M {canvas.plot_left:.1f} {canvas.plot_top:.1f} '
            f'L {canvas.plot_left:.1f} {canvas.plot_bottom:.1f} '
            f'L {canvas.plot_right:.1f} {canvas.plot_bottom:.1f}')
    for tick in _nice_ticks(canvas.x_min, canvas.x_max):
        x = canvas.x(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{canvas.plot_bottom:.1f}" '
                     f'x2="{x:.1f}" y2="{canvas.plot_bottom + 4:.1f}" '
                     f'stroke="#333" stroke-width="1"/>')
        parts.append(f'<text x="{x:.1f}" y="{canvas.plot_bottom + 16:.1f}" '
                     f'text-anchor="middle">{_escape(_format_tick(tick))}</text>')
    for tick in _nice_ticks(canvas.y_min, canvas.y_max):
        y = canvas.y(tick)
        parts.append(f'<line x1="{canvas.plot_left:.1f}" y1="{y:.1f}" '
                     f'x2="{canvas.plot_right:.1f}" y2="{y:.1f}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{canvas.plot_left - 6:.1f}" y="{y + 3.5:.1f}" '
                     f'text-anchor="end">{_escape(_format_tick(tick))}</text>')
    parts.append(f'<path d="{axis}" fill="none" stroke="#333" stroke-width="1"/>')
    parts.append(f'<text x="{(canvas.plot_left + canvas.plot_right) / 2:.1f}" '
                 f'y="{canvas.plot_bottom + 32:.1f}" text-anchor="middle" '
                 f'fill="#555">{_escape(x_label)}</text>')

    # --- series: error bars below markers below lines -----------------
    for index, one in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        points = [(canvas.x(x), canvas.y(y))
                  for x, y in zip(one.x_values, one.y_values)]
        if one.y_errors:
            for (x, y), err in zip(zip(one.x_values, one.y_values), one.y_errors):
                if err <= 0:
                    continue
                px = canvas.x(x)
                top, bottom = canvas.y(y + err), canvas.y(y - err)
                parts.append(f'<line class="errorbar" x1="{px:.1f}" y1="{top:.1f}" '
                             f'x2="{px:.1f}" y2="{bottom:.1f}" '
                             f'stroke="{color}" stroke-width="1"/>')
                for cap_y in (top, bottom):
                    parts.append(f'<line x1="{px - 3:.1f}" y1="{cap_y:.1f}" '
                                 f'x2="{px + 3:.1f}" y2="{cap_y:.1f}" '
                                 f'stroke="{color}" stroke-width="1"/>')
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        for x, y in points:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" fill="{color}"/>')

    # --- legend --------------------------------------------------------
    for index, one in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        y = _MARGIN_TOP - 8 + index * _LEGEND_ROW
        parts.append(f'<line x1="{canvas.plot_left:.1f}" y1="{y:.1f}" '
                     f'x2="{canvas.plot_left + 18:.1f}" y2="{y:.1f}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{canvas.plot_left + 24:.1f}" y="{y + 3.5:.1f}">'
                     f'{_escape(one.label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(result: ExperimentResult, path: str, **kwargs) -> None:
    """Render ``result`` and write it to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_svg(result, **kwargs))
