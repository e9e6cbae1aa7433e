"""Serialization with byte-stable output: CSV, JSON, and minimal SVG charts.

This module states the CSV schema. One fixed set of columns serves all three
models so files diff cleanly; fields a model does not use stay empty, never
zero. ``CSV_COLUMNS`` derives from the ``sweep --outputs`` groups
(``OUTPUT_GROUPS``). Floats are rendered with Python's shortest round-trip
representation, line endings are '\n', and nothing time- or
environment-dependent is ever written, so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping, Sequence

from .market import Equilibrium
from .params import ALL_DECISION_FIELDS, ModelId, Params

#: The ``sweep --outputs`` groups, in column order: the columns each one fills.
OUTPUT_GROUPS = {
    "decisions": ALL_DECISION_FIELDS,
    "demands": ("q1", "q2", "q3", "q4"),
    "profits": ("pi_m", "pi_r", "pi_s"),
    "validity": ("interior_valid",),
}

#: Fixed column order of every sweep/solve CSV: the model, its parameters,
#: the output groups, then whether the row fell in a singularity guard band.
CSV_COLUMNS = ("model", "alpha", "c_m", "c_r", "delta", "s",
               *(column for group in OUTPUT_GROUPS.values() for column in group), "singular")


def format_value(value) -> str:
    """Shortest round-trip text for one CSV cell; empty for absent fields."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _base_row(model: ModelId, params: Params, singular: bool) -> dict:
    return {**dict.fromkeys(CSV_COLUMNS), "model": ModelId(model).value,
            **params.as_dict(), "singular": singular}


def equilibrium_row(eq: Equilibrium) -> dict:
    """One CSV row for a solved equilibrium: the base row with every group filled."""
    return {**_base_row(eq.model, eq.params, False), **eq.decisions.as_dict(),
            **eq.demands.as_dict(), **eq.profit.as_dict(),
            "interior_valid": eq.validity.interior}


def singular_row(model: ModelId, params: Params) -> dict:
    """A sweep row inside a guard band: the base row, marked singular, values left empty."""
    return _base_row(model, params, True)


def rows_to_csv(rows: Iterable[Mapping], columns: Sequence[str] = CSV_COLUMNS) -> str:
    """Header plus one line per row, in ``columns`` order; a missing cell stays empty."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(row.get(name)) for name in columns))
    return "\n".join(lines) + "\n"


def to_json(payload) -> str:
    """Canonical JSON: two-space indent, keys in construction order."""
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


# -- minimal self-contained SVG line charts ---------------------------------

_W, _H = 640, 420
_ML, _MR_, _MT, _MB = 64, 16, 34, 44


def _ticks(lo: float, hi: float) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def line_chart_svg(title: str, xs: list[float], ys: list[float], y_label: str) -> str:
    """One polyline of ``y_label`` against alpha; deterministic text output.

    Points with non-finite y are dropped. Intended as a convenience view of
    sweep columns; the CSV remains the contract.
    """
    pts = [(x, y) for x, y in zip(xs, ys) if y == y and abs(y) != float("inf")]
    if not pts:
        pts = [(0.0, 0.0)]
    px = [p[0] for p in pts]
    py = [p[1] for p in pts]
    x_lo, x_hi = min(px), max(px)
    y_lo, y_hi = min(py), max(py)
    if y_hi == y_lo:  # pad by 0.5, or by one float step toward 0 where 0.5 is below the spacing
        y_lo = min(y_lo - 0.5, math.nextafter(y_lo, 0.0))
        y_hi = max(y_hi + 0.5, math.nextafter(y_hi, 0.0))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    span_x = x_hi - x_lo
    span_y = y_hi - y_lo
    plot_w = _W - _ML - _MR_
    plot_h = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / span_x * plot_w

    def sy(y: float) -> float:
        return _MT + (y_hi - y) / span_y * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{sx(tx):.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.3g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{_ML - 6}" y="{sy(ty):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.4g}</text>')
    parts.append(
        f'<text x="{_W / 2:.1f}" y="{_H - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">alpha</text>')
    parts.append(
        f'<text x="14" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_MT + plot_h / 2:.1f})">{y_label}</text>')
    coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f6fb2" '
                 f'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
