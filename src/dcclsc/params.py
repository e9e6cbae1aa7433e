"""Market primitives and per-model decision bundles.

Everything downstream consumes the two value types defined here: ``Params``
(cost and preference primitives) and ``DecisionSet`` (one model's bundle of
prices, subsidies and transfer price). Both are immutable and validated at
construction, so they are safe to share between concurrent tasks. This module
alone reads a value, one reader per input kind, each returning what it read:
``read_id``, ``read_int``, ``read_interval``, and both types for finite
reals.

``PLAYER_FIELDS`` is the one statement of which player sets which decision in
each model; the report order of ``decision_fields`` and the oracle's split
into leader and follower variables are both read from it.
"""

from __future__ import annotations

import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import OutOfDomain, Violation


def read_id(table, field: str, value):
    """(the id ``value`` names in any case, blanks around, - as _; its entry), else OutOfDomain."""
    text = value.strip().replace("-", "_").upper() if isinstance(value, str) else None
    if (key := next((key for key in table if key.upper() == text), None)) is None:
        raise OutOfDomain.single(field, value, "expected one of " + ", ".join(table))
    return key, table[key]


def read_int(field: str, value, least: int) -> int:
    """``value`` as an int (numpy's too, not a bool) >= ``least``, else OutOfDomain."""
    is_int = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (is_int and value >= least):
        raise OutOfDomain.single(field, int(value) if is_int else value,
                                 f"must be {'' if is_int else 'an int '}>= {least}")
    return int(value)


def read_interval(field: str, value, positive: bool = False) -> tuple[float, float]:
    """(lo, hi) floats of ``value``: finite, lo < hi, hi - lo finite, 0 < lo if ``positive``,
    each checked on the floats, so ends that round to one float are refused; else OutOfDomain."""
    # a 0-d array is one number, not a pair (and iterating it raises TypeError)
    listed = isinstance(value, (tuple, list)) or isinstance(value, np.ndarray) and value.ndim
    pair = tuple(value) if listed else ()
    if len(pair) == 2 and all(map(is_finite_real, pair)):
        lo, hi = float(pair[0]), float(pair[1])
        if lo < hi and hi - lo <= sys.float_info.max and (lo > 0.0 or not positive):
            return lo, hi
    raise OutOfDomain.single(field, value, "must be an interval (lo, hi), finite, "
                             + ("0 < lo < hi" if positive else "lo < hi, hi - lo finite"))


class ModelId(str, Enum):
    """The three recycling frameworks: manufacturer-led, retailer-led, joint.

    ``ModelId(value)`` also reads a name in any case with outer blanks, else OutOfDomain."""

    M = "M"
    R = "R"
    MR = "MR"

    @classmethod
    def _missing_(cls, value):
        return read_id(cls.__members__, "model", value)[1]

    # bound by name in perfbench/workloads.py
    @classmethod
    def parse(cls, text: str) -> "ModelId":
        return cls(text)


#: Union of all decision-variable names, in canonical report order.
ALL_DECISION_FIELDS = ("p_m", "p_r", "w", "b_m", "b_r", "t")

#: Each model's decisions by player: (the manufacturer's, who leads; the
#: retailer's, who follows). The models differ only in who funds the trade-in:
#: the manufacturer's subsidy b_m (M), the retailer's b_r paid for through the
#: transfer price t (R), or both (MR).
PLAYER_FIELDS = {
    ModelId.M: (("p_m", "w", "b_m"), ("p_r",)),
    ModelId.R: (("p_m", "w", "t"), ("p_r", "b_r")),
    ModelId.MR: (("p_m", "w", "b_m", "t"), ("p_r", "b_r")),
}

_FIELDS = {model: tuple(n for n in ALL_DECISION_FIELDS if n in leader + follower)
           for model, (leader, follower) in PLAYER_FIELDS.items()}


def decision_fields(model: ModelId) -> tuple[str, ...]:
    """One model's decision-variable names, in canonical report order."""
    return _FIELDS[ModelId(model)]


@dataclass(frozen=True)
class Params:
    """Market primitives, each a finite real stored as the float it equals.

    Parameters
    ----------
    alpha : float
        Primary customers' preference for the direct channel, in (0, 1).
    c_m : float
        Unit manufacturing cost, > 0. Valuations are normalized to [0, 1]
        but costs are deliberately not clamped to that range.
    c_r : float
        Unit remanufacturing cost, with 0 < c_r < c_m.
    s : float
        Government unit subsidy for remanufacturing, >= 0. Zero, the
        boundary of the assumed s > 0 regime, is accepted.

    The ranges are checked on the stored floats, so costs that round to one
    float are refused. ``delta`` is always derived as c_m - c_r.
    """

    alpha: float
    c_m: float
    c_r: float
    s: float

    def __post_init__(self):
        fields = vars(self)  # frozen refuses setattr, not a write to the instance dict
        out = [Violation(name, value, "must be a finite real")
               for name, value in fields.items() if not is_finite_real(value)]
        if out:
            raise OutOfDomain(out)
        fields.update({name: float(value) for name, value in fields.items()})
        alpha, c_m, c_r, s = self.alpha, self.c_m, self.c_r, self.s
        if not 0.0 < alpha < 1.0:
            out.append(Violation("alpha", alpha, "0 < alpha < 1"))
        if not c_m > 0.0:
            out.append(Violation("c_m", c_m, "c_m > 0"))
        if not c_r > 0.0:
            out.append(Violation("c_r", c_r, "c_r > 0"))
        if 0.0 < c_m <= c_r:
            out.append(Violation("c_m", c_m, "c_m > c_r (remanufacturing must save cost; "
                                             f"c_r={c_r!r})"))
        if not s >= 0.0:
            out.append(Violation("s", s, "s >= 0"))
        if out:
            raise OutOfDomain(out)

    @property
    def delta(self) -> float:
        """Unit cost saving from remanufacturing, c_m - c_r (always > 0)."""
        return self.c_m - self.c_r

    def as_dict(self) -> dict[str, float]:
        return {
            "alpha": self.alpha,
            "c_m": self.c_m,
            "c_r": self.c_r,
            "delta": self.delta,
            "s": self.s,
        }


#: What the kernels read of the parameters, on any number type. A ``Params``
#: serves as one; an exact solve passes one of Fractions.
Primitives = namedtuple("Primitives", "alpha c_m delta s")


def read_params(value, exact: bool = False):
    """``value`` if a ``Params`` (or with ``exact`` a ``Primitives`` of Fractions), else
    OutOfDomain."""
    if isinstance(value, Params) or (exact and isinstance(value, Primitives)
                                     and all(isinstance(v, Fraction) for v in value)):
        return value
    raise OutOfDomain.single("params", value, "must be a Params"
                             + (" or a Primitives of Fractions" if exact else ""))


def is_finite_real(value) -> bool:
    """An int or a float, numpy's too, not a bool, within the float range.

    A numpy scalar is compared as a Python float: compared as itself, a float32
    would cast the bound to its own inf, and pass an inf, with a warning."""
    if isinstance(value, (np.integer, np.floating)):
        value = float(value)
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# bound by name in perfbench/tracer.py LAYERS
def validate_params(raw: Mapping[str, float]) -> Params:
    """``Params`` of the four primitives in ``raw``, a missing one read as None.

    One ``OutOfDomain`` names every value that is not a finite real (a string,
    a missing key); the ranges are checked only when all four are. ``delta``,
    if present in ``raw``, is ignored and recomputed.
    """
    return Params(**{k: raw.get(k) for k in ("alpha", "c_m", "c_r", "s")})


@dataclass(frozen=True)
class DecisionSet:
    """One model's decision bundle.

    ``model`` is read by ``ModelId`` and tags field presence (``PLAYER_FIELDS``):
    each field it uses is stored as a float; unused fields must be None.

    The structural requirement t >= b_r for R and MR is deliberately NOT a
    construction error; closed forms are evaluated first and judged by the
    validity report afterwards.
    """

    model: ModelId
    p_m: float
    p_r: float
    w: float
    b_m: float | None = None
    b_r: float | None = None
    t: float | None = None

    def __post_init__(self):
        fields = vars(self)  # frozen refuses setattr, not a write to the instance dict
        fields["model"] = ModelId(self.model)
        required = decision_fields(self.model)
        violations = []
        model = self.model.value
        for name in ALL_DECISION_FIELDS:
            value = getattr(self, name)
            if name in required and not is_finite_real(value):
                violations.append(Violation(name, value, f"model {model} requires a finite {name}"))
            elif name not in required and value is not None:
                violations.append(Violation(name, value, f"model {model} does not use {name}"))
        if violations:
            raise OutOfDomain(violations)
        fields.update({name: float(fields[name]) for name in required})

    def as_dict(self) -> dict[str, float]:
        """Decision values keyed by field name, in the model's canonical order."""
        return {name: getattr(self, name) for name in decision_fields(self.model)}
