"""Serialization with byte-stable output: CSV, JSON, and minimal SVG charts.

This module states the CSV schema. One fixed set of columns serves all three
models so files diff cleanly; fields a model does not use stay empty, never
zero. Floats are rendered with Python's shortest round-trip representation,
line endings are '\n', and nothing time- or environment-dependent is ever
written, so identical inputs yield byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Iterable, Mapping, Sequence

from .market import Equilibrium
from .params import ALL_DECISION_FIELDS, ModelId, Params

#: Fixed column order of every sweep/solve CSV: the model, its parameters, the
#: decisions, the segment masses, the profits, whether the point is interior,
#: then whether the row fell in a singularity guard band.
CSV_COLUMNS = ("model", "alpha", "c_m", "c_r", "delta", "s", *ALL_DECISION_FIELDS,
               "q1", "q2", "q3", "q4", "pi_m", "pi_r", "pi_s", "interior_valid", "singular")


def format_value(value) -> str:
    """Shortest round-trip text for one CSV cell; empty for absent fields."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)  # str is repr on a float


def _base_row(model: ModelId, params: Params, singular: bool) -> dict:
    return {**dict.fromkeys(CSV_COLUMNS), "model": ModelId(model).value,
            **params.as_dict(), "singular": singular}


def equilibrium_row(eq: Equilibrium) -> dict:
    """One CSV row for a solved equilibrium: the base row with its values filled."""
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
    """Canonical JSON: two-space indent, keys in construction order, no Infinity or NaN."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


# -- minimal self-contained SVG line charts ---------------------------------

_W, _H = 640, 420
_ML, _MR_, _MT, _MB = 64, 16, 34, 44


def _axis(lo: float, hi: float):
    """(ticks, lo/2, hi/2, half the span) of an axis over [lo, hi]; half-values
    keep a range wider than the float range finite. A flat range is padded by
    0.5, or by one float step toward 0 where 0.5 is below the spacing."""
    if hi / 2 == lo / 2:
        lo = min(lo - 0.5, math.nextafter(lo, 0.0))
        hi = max(hi + 0.5, math.nextafter(hi, 0.0))
    half = hi / 2 - lo / 2
    # rounding may carry the top tick one step past the largest float
    ticks = [min(2 * (lo / 2 + i * (half / 4)), sys.float_info.max) for i in range(5)]
    return ticks, lo / 2, hi / 2, half


def line_chart_svg(title: str, xs: list[float], ys: list[float], y_label: str) -> str:
    """One polyline of ``y_label`` against alpha; deterministic text output.

    Points with a non-finite coordinate are dropped. Intended as a convenience
    view of sweep columns; the CSV remains the contract.
    """
    pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)] or [(0.0, 0.0)]
    px, py = zip(*pts)
    x_ticks, half_x_lo, _, half_x_span = _axis(min(px), max(px))
    y_ticks, _, half_y_hi, half_y_span = _axis(min(py), max(py))
    plot_w = _W - _ML - _MR_
    plot_h = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x / 2 - half_x_lo) / half_x_span * plot_w

    def sy(y: float) -> float:
        return _MT + (half_y_hi - y / 2) / half_y_span * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tx in x_ticks:
        parts.append(
            f'<text x="{sx(tx):.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.3g}</text>')
    for ty in y_ticks:
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
