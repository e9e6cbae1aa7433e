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

import math
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
        except ValueError:
            raise OutOfDomain.single("model", float("nan"), f"unknown model {text!r}; expected one of M, R, MR") from None


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


def _check(alpha, c_m, c_r, s) -> list[Violation]:
    out = []
    for name, value in (("alpha", alpha), ("c_m", c_m), ("c_r", c_r), ("s", s)):
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
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


_REQUIRED_KEYS = ("alpha", "c_m", "c_r", "s")


# bound by name in perfbench/tracer.py LAYERS
def validate_params(raw: Mapping[str, float]) -> Params:
    """Build a ``Params`` from a name->value mapping, collecting all violations.

    Missing keys and constraint violations are reported together in a single
    ``OutOfDomain``. ``delta``, if present in ``raw``, is ignored and
    recomputed (callers may not set it independently).
    """
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise OutOfDomain([Violation(k, float("nan"), "required key missing") for k in missing])
    return Params(**{k: float(raw[k]) for k in _REQUIRED_KEYS})


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
        for name in ALL_DECISION_FIELDS:
            value = getattr(self, name)
            if name in required:
                if value is None or not math.isfinite(value):
                    violations.append(Violation(name, value if value is not None else float("nan"),
                                                f"model {self.model.value} requires a finite {name}"))
            elif value is not None:
                violations.append(Violation(name, value, f"model {self.model.value} does not use {name}"))
        if violations:
            raise OutOfDomain(violations)

    def as_dict(self) -> dict[str, float]:
        """Decision values keyed by field name, in the model's canonical order."""
        return {name: getattr(self, name) for name in decision_fields(self.model)}
