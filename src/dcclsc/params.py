"""Market primitives and per-model decision bundles.

Everything downstream consumes the two value types defined here: ``Params``
(cost and preference primitives) and ``DecisionSet`` (one model's bundle of
prices, subsidies and transfer price). Both are immutable and validated at
construction, so they are safe to share between concurrent tasks.
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


#: Ordered decision-variable names per model (stable column ordering).
_DECISION_FIELDS = {
    ModelId.M: ("p_m", "p_r", "w", "b_m"),
    ModelId.R: ("p_m", "p_r", "w", "b_r", "t"),
    ModelId.MR: ("p_m", "p_r", "w", "b_m", "b_r", "t"),
}

#: Union of all decision-variable names, in canonical report order.
ALL_DECISION_FIELDS = ("p_m", "p_r", "w", "b_m", "b_r", "t")


def decision_fields(model: ModelId) -> tuple[str, ...]:
    """Ordered decision-variable names for one model."""
    return _DECISION_FIELDS[ModelId(model)]


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
        Government unit subsidy for remanufacturing, >= 0. Zero is accepted
        as a boundary case and exposed via ``subsidy_boundary``.

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

    @property
    def subsidy_boundary(self) -> bool:
        """True when s == 0, the boundary of the assumed s > 0 regime."""
        return self.s == 0.0

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


def validate_params(raw: Mapping[str, float]) -> Params:
    """Build a ``Params`` from a name->value mapping, collecting all violations.

    Missing keys and constraint violations are reported together in a single
    ``OutOfDomain``. ``delta``, if present in ``raw``, is ignored and
    recomputed (callers may not set it independently).
    """
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise OutOfDomain([Violation(k, float("nan"), "required key missing") for k in missing])
    return Params(
        alpha=float(raw["alpha"]),
        c_m=float(raw["c_m"]),
        c_r=float(raw["c_r"]),
        s=float(raw["s"]),
    )


@dataclass(frozen=True)
class DecisionSet:
    """One model's decision bundle.

    Field presence is tagged by ``model``: M uses (p_m, p_r, w, b_m), R uses
    (p_m, p_r, w, b_r, t), and MR uses all six. Unused fields must be None.

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

    def replace(self, **updates: float) -> "DecisionSet":
        fields = {name: getattr(self, name) for name in ALL_DECISION_FIELDS}
        fields.update(updates)
        return DecisionSet(model=self.model, **fields)
