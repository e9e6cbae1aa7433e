"""Market primitives and per-model decision bundles.

Everything downstream consumes the two value types defined here: ``Params``
(cost and preference primitives) and ``DecisionSet`` (one model's bundle of
prices, subsidies and transfer price). Both are immutable and validated at
construction, so they are safe to share between concurrent tasks.

``PLAYER_FIELDS`` is the one statement of which player sets which decision in
each model; the report order of ``decision_fields`` and the oracle's split
into leader and follower variables are both read from it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .errors import OutOfDomain, Violation


class ModelId(str, Enum):
    """The three recycling frameworks: manufacturer-led, retailer-led, joint."""

    M = "M"
    R = "R"
    MR = "MR"

    @classmethod
    def parse(cls, text: str) -> "ModelId":
        try:
            return cls(text.strip().upper())
        except (AttributeError, ValueError):
            raise OutOfDomain.single("model", text, "expected one of M, R, MR") from None


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
    """Market primitives.

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

    The remanufacturing saving ``delta`` is always derived as c_m - c_r and
    cannot be set independently.
    """

    alpha: float
    c_m: float
    c_r: float
    s: float

    def __post_init__(self):
        violations = _check(self.alpha, self.c_m, self.c_r, self.s)
        if violations:
            raise OutOfDomain(violations)

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


def is_finite_real(value) -> bool:
    """An int or a float (numpy's float64 is one) no larger in magnitude than any float."""
    return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def _check(alpha, c_m, c_r, s) -> list[Violation]:
    out = []
    for name, value in (("alpha", alpha), ("c_m", c_m), ("c_r", c_r), ("s", s)):
        if not is_finite_real(value):
            out.append(Violation(name, value, "must be a finite real"))
    if out:
        return out
    if not 0.0 < alpha < 1.0:
        out.append(Violation("alpha", alpha, "0 < alpha < 1"))
    if not c_m > 0.0:
        out.append(Violation("c_m", c_m, "c_m > 0"))
    if not c_r > 0.0:
        out.append(Violation("c_r", c_r, "c_r > 0"))
    if c_r > 0.0 and c_m > 0.0 and not c_m > c_r:
        out.append(Violation("c_m", c_m, f"c_m > c_r (remanufacturing must save cost; c_r={c_r!r})"))
    if not s >= 0.0:
        out.append(Violation("s", s, "s >= 0"))
    return out


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

    Field presence is tagged by ``model`` (``PLAYER_FIELDS``); unused fields
    must be None.

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
        object.__setattr__(self, "model", ModelId(self.model))
        required = set(decision_fields(self.model))
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

    def as_dict(self) -> dict[str, float]:
        """Decision values keyed by field name, in the model's canonical order."""
        return {name: getattr(self, name) for name in decision_fields(self.model)}
