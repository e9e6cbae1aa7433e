"""Choice-model primitives: utilities, segment demands, profits, validity.

Segment indices follow a fixed convention. Segment 1 is primary demand in
the manufacturer's direct channel, segment 2 is primary demand through the
retailer, segment 3 is trade-in volume collected under the manufacturer's
subsidy (M, MR) or the retailer's subsidy (R), and segment 4 (MR only) is
trade-in volume collected under the retailer's subsidy.

Demands are the closed-form masses implied by utility maximization over
valuations v, u ~ Uniform[0, 1] and are returned UNCLAMPED: the equilibrium
algebra downstream is derived from the unclamped linear forms, and silent
clamping would mask validity violations. Range membership is reported via
``ValidityReport`` instead.

For the joint model the segment-3 mass has two published variants that
contradict each other; the utility-consistent form is the default and the
other is kept behind an explicit ``MrDemandVariant.AS_PRINTED`` switch so
numeric audits can adjudicate between them.

``PROFIT_TERMS`` states each model's payoffs once, as (margin check name,
per-unit margin, payer, segment) terms; the profits and the informational
margin checks of ``validity`` are read from it. A decision set names its
model (``DecisionSet.model``); every function of one reads the model there.
A ``model`` argument that ``demand`` and ``make_equilibrium`` still take
must agree (``model_of``).

The choice model is four utilities: alpha*v - p_m (direct channel) against
v - p_r (retailer), and b_m - u (manufacturer's subsidy) against
b_r - alpha*u (retailer's subsidy), each subsidy's where the model sets it.
``utilities`` writes them out for one pair, the tests' reference;
``choice_masks`` computes them in place for one pair or a 1-D array of
them, writing every block of the simulation's draws into one
``choice_workspace``. ``segment_masses``, ``profit_parts`` and
``profit_values`` broadcast over arrays and run on Fractions too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np

from .errors import OutOfDomain, Singularity, Violation
from .params import DecisionSet, ModelId, Params, is_finite_real, read_id

#: Guard on alpha * (1 - alpha) below which segment masses are not evaluated.
ALPHA_PRODUCT_GUARD = 1e-12

#: Per-unit margins, each written once; ``d`` has the six decisions as
#: attributes, ``p`` is the Params. A unit traded in saves the manufacturer
#: the remanufacturing saving delta and earns it the government subsidy s.
_MARGINS = {
    "direct": lambda d, p: d.p_m - p.c_m,
    "wholesale": lambda d, p: d.w - p.c_m,
    "retail": lambda d, p: d.p_r - d.w,
    "tradein_m": lambda d, p: p.delta + p.s + d.p_m - p.c_m - d.b_m,
    "tradein_via_r": lambda d, p: p.delta + p.s + d.w - p.c_m - d.t,
    "tradein_r": lambda d, p: d.p_r + d.t - d.w - d.b_r,
}

MANUFACTURER, RETAILER = 0, 1  # payers: indices into (pi_m, pi_r)
_PRIMARY = (("margin_direct", "direct", MANUFACTURER, 1),
            ("margin_wholesale", "wholesale", MANUFACTURER, 2),
            ("margin_retail", "retail", RETAILER, 2))

#: Each model's profit terms, (margin check name, margin, payer, segment): a
#: player's profit sums margin * segment mass over its terms, in this order.
PROFIT_TERMS = {
    ModelId.M: _PRIMARY + (("margin_tradein_m", "tradein_m", MANUFACTURER, 3),),
    ModelId.R: _PRIMARY + (("margin_tradein_m", "tradein_via_r", MANUFACTURER, 3),
                           ("margin_tradein_r", "tradein_r", RETAILER, 3)),
    ModelId.MR: _PRIMARY + (("margin_tradein_m", "tradein_m", MANUFACTURER, 3),
                            ("margin_tradein_m_via_r", "tradein_via_r", MANUFACTURER, 4),
                            ("margin_tradein_r", "tradein_r", RETAILER, 4)),
}


class MrDemandVariant(str, Enum):
    """Which segment-3 mass the joint model uses.

    ADOPTED:    q3 = (b_m - b_r) / (1 - alpha), the form consistent with the
                utility thresholds (and the only one nonnegative at b_m = b_r).
    AS_PRINTED: q3 = 1 - (b_m - b_r) / (1 - alpha), the conflicting published
                variant, retained for adjudication only.
    ``MrDemandVariant(value)`` also reads ``read_id``'s spellings, else OutOfDomain.
    """

    ADOPTED = "adopted"
    AS_PRINTED = "as_printed"

    @classmethod
    def _missing_(cls, value):
        return read_id({m.value: m for m in cls}, "variant", value)[1]


@dataclass(frozen=True)
class DemandProfile:
    """Unclamped segment masses; q4 is present only for the joint model."""

    q1: float
    q2: float
    q3: float
    q4: float | None = None

    def as_dict(self) -> dict[str, float]:
        return {name: q for name, q in vars(self).items() if q is not None}


@dataclass(frozen=True)
class ProfitProfile:
    """Manufacturer and retailer profits; the chain profit is their exact sum."""

    pi_m: float
    pi_r: float

    @property
    def pi_s(self) -> float:
        return self.pi_m + self.pi_r

    def as_dict(self) -> dict[str, float]:
        return {"pi_m": self.pi_m, "pi_r": self.pi_r, "pi_s": self.pi_s}


@dataclass(frozen=True)
class ValidityCheck:
    """One constraint with its signed slack (positive = strictly satisfied)."""

    name: str
    slack: float
    informational: bool = False

    @property
    def ok(self) -> bool:
        return self.slack > 0.0


@dataclass(frozen=True)
class ValidityReport:
    """All per-constraint flags for one decision set, one per condition (``validity``).

    ``interior`` is True iff every non-informational check holds strictly;
    margin checks are informational and never gate interiority.
    """

    checks: tuple[ValidityCheck, ...]

    @property
    def interior(self) -> bool:
        return all(c.ok for c in self.checks if not c.informational)

    def check(self, name: str) -> ValidityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failing(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.informational and not c.ok)

    def as_dict(self) -> dict:
        return {
            "interior": self.interior,
            "checks": {c.name: {"ok": c.ok, "slack": c.slack, "informational": c.informational}
                       for c in self.checks},
        }


def _choose(x, y, chose_x, chose_y, tmp):
    """Masks (x chosen, y chosen), written in place: ties go to x, zero utility participates."""
    np.bitwise_and(np.greater_equal(x, y, out=chose_x), np.greater_equal(x, 0.0, out=tmp),
                   out=chose_x)
    np.bitwise_and(np.invert(chose_x, out=chose_y), np.greater_equal(y, 0.0, out=tmp), out=chose_y)
    return chose_x, chose_y


def _check_valuations(v: float, u: float):
    violations = [Violation(name, x, "valuations live on [0, 1]")
                  for name, x in (("v", v), ("u", u))
                  if not (is_finite_real(x) and 0.0 <= x <= 1.0)]
    if violations:
        raise OutOfDomain(violations)


# bound by name in perfbench/tracer.py LAYERS
def utilities(decisions: DecisionSet, v: float, u: float, params: Params) -> dict[str, float]:
    """Per-segment utilities of one (v, u) customer pair, as Python floats.

    v is the primary customer's valuation, u the replacement customer's
    return-cost valuation; both are scalars in [0, 1]. U1 = alpha*v - p_m
    (direct channel) and U2 = v - p_r (retailer); then one trade-in utility
    per subsidy the decisions' model sets, b_m - u (manufacturer's) before
    b_r - alpha*u (retailer's): U3, or in the joint model U3 and U4.
    """
    _check_valuations(v, u)
    d, a, v, u = decisions, params.alpha, float(v), float(u)
    values = [a * v - d.p_m, v - d.p_r]  # a subsidy the model does not set is None
    if d.b_m is not None:
        values.append(d.b_m - u)
    if d.b_r is not None:
        values.append(d.b_r - a * u)
    return {f"U{i}": x for i, x in enumerate(values, 1)}


def choice_workspace(n: int):
    """``out`` of :func:`choice_masks` on n pairs: float utilities (2, n), bool masks (5, n)."""
    return np.empty((2, n)), np.empty((5, n), dtype=bool)


def choice_masks(decisions: DecisionSet, v, u, params: Params, out=None):
    """Vectorized choice kernel: boolean masks (s1, s2, s3, s4) of the segments
    that (v, u) pairs choose, with s4 None outside the joint model.

    v and u are scalars or 1-D arrays of one length (a scalar is one pair).
    Tie-breaking is fixed for determinism: channel indifference resolves to
    the direct channel, subsidy indifference to the manufacturer's subsidy,
    and zero-utility customers participate. ``out``, a :func:`choice_workspace`
    of the pairs' length, receives the utilities and the masks; None allocates one.
    """
    # the trade-in utilities overwrite the primary ones, so a block of n
    # pairs needs two float rows and five bool rows (21 bytes a pair)
    d, a = decisions, params.alpha
    (x, y), (s1, s2, s3, s4, tmp) = choice_workspace(np.size(v)) if out is None else out
    _choose(np.subtract(np.multiply(a, v, out=x), d.p_m, out=x), np.subtract(v, d.p_r, out=y),
            s1, s2, tmp)
    if d.b_r is None:  # M: the manufacturer's subsidy alone
        return s1, s2, np.greater_equal(np.subtract(d.b_m, u, out=x), 0.0, out=s3), None
    np.subtract(d.b_r, np.multiply(a, u, out=y), out=y)
    if d.b_m is None:  # R: the retailer's subsidy alone
        return s1, s2, np.greater_equal(y, 0.0, out=s3), None
    return (s1, s2, *_choose(np.subtract(d.b_m, u, out=x), y, s3, s4, tmp))


# bound by name in perfbench/tracer.py LAYERS
def choice_segment(decisions: DecisionSet, v: float, u: float,
                   params: Params) -> tuple[int, int]:
    """Resolve the choice of one (v, u) pair: (primary segment, trade-in segment).

    Returns segment 0 for non-participation; ties resolve as in
    :func:`choice_masks`.
    """
    _check_valuations(v, u)
    s1, s2, s3, s4 = choice_masks(decisions, v, u, params)  # s4 is None outside MR
    return (1 if s1 else 2 if s2 else 0), (3 if s3 else 4 if s4 else 0)


def require_variant(model: ModelId, variant) -> tuple[ModelId, MrDemandVariant]:
    """(``model``, ``variant``) as read; OutOfDomain for a variant not adopted outside MR."""
    model, variant = ModelId(model), MrDemandVariant(variant)
    if model is not ModelId.MR and variant is not MrDemandVariant.ADOPTED:
        raise OutOfDomain.single("variant", variant.value,
                                 f"model {model.value} has no segment-3 demand variant")
    return model, variant


def segment_masses(model: ModelId, p_m, p_r, b_m, b_r, alpha: float,
                   variant: MrDemandVariant = MrDemandVariant.ADOPTED):
    """Raw segment-mass kernel; broadcasts over array-valued decisions.

    Returns (q1, q2, q3, q4), q4 None outside the joint model, the one reading ``variant``.
    """
    model, variant = require_variant(model, variant)
    ap = alpha * (1 - alpha)
    if ap < ALPHA_PRODUCT_GUARD:
        raise Singularity("alpha*(1-alpha) in segment masses", alpha, ap, ALPHA_PRODUCT_GUARD)
    q1 = (alpha * p_r - p_m) / ap
    q2 = 1 - (p_r - p_m) / (1 - alpha)
    if model is ModelId.M:
        return q1, q2, b_m, None
    if model is ModelId.R:
        return q1, q2, b_r / alpha, None
    gap = (b_m - b_r) / (1 - alpha)
    q3 = gap if variant is MrDemandVariant.ADOPTED else 1 - gap
    q4 = (b_r - alpha * b_m) / ap
    return q1, q2, q3, q4


def profit_values(model: ModelId, p_m, p_r, w, b_m, b_r, t, params: Params,
                  variant: MrDemandVariant = MrDemandVariant.ADOPTED):
    """Raw profit kernel on unclamped masses; broadcasts over array-valued decisions.

    Returns (pi_m, pi_r), each the sum of its ``PROFIT_TERMS`` in order.
    """
    d = SimpleNamespace(p_m=p_m, p_r=p_r, w=w, b_m=b_m, b_r=b_r, t=t)
    return _profit_sums(profit_parts(model, d, params, variant))


def profit_parts(model: ModelId, d, params, variant: MrDemandVariant = MrDemandVariant.ADOPTED,
                 q=None) -> list[tuple]:
    """Each ``PROFIT_TERMS`` entry's (margin, segment mass, payer) at the decisions ``d``,
    two affine functions of them; ``params`` is a ``Primitives`` record (a ``Params``
    is one), and ``q``, the segment masses, is computed unless given."""
    if q is None:
        q = segment_masses(model, d.p_m, d.p_r, d.b_m, d.b_r, params.alpha, variant)
    return [(_MARGINS[margin](d, params), q[segment - 1], payer)
            for _, margin, payer, segment in PROFIT_TERMS[ModelId(model)]]


def _profit_sums(parts):
    """(pi_m, pi_r): each player's sum of margin * mass over its ``profit_parts``, in order."""
    pi = [None, None]
    for margin, mass, payer in parts:
        # each sum starts from its first term, not from 0 (0 + -0.0 is 0.0)
        term = margin * mass
        pi[payer] = term if pi[payer] is None else pi[payer] + term
    return tuple(pi)


def model_of(model: ModelId, decisions: DecisionSet) -> ModelId:
    """``decisions.model``; OutOfDomain, naming both, if ``model`` is another."""
    if ModelId(model) is decisions.model:
        return decisions.model
    raise OutOfDomain.single("model", ModelId(model).value,
                             f"the decisions belong to model {decisions.model.value}")


def demand(model: ModelId, decisions: DecisionSet, params: Params,
           variant: MrDemandVariant = MrDemandVariant.ADOPTED) -> DemandProfile:
    """Closed-form segment masses for one decision set (unclamped).

    Raises OutOfDomain for another model than the decisions', or naming each
    mass that is not finite, as ``make_equilibrium`` does.
    """
    d = decisions
    profile = DemandProfile(*segment_masses(model_of(model, d), d.p_m, d.p_r, d.b_m, d.b_r,
                                            params.alpha, variant))
    require_finite(profile.as_dict())
    return profile


# bound by name in perfbench/tracer.py LAYERS
def profits(decisions: DecisionSet, params: Params) -> ProfitProfile:
    """Manufacturer and retailer profits at one decision set; OutOfDomain,
    as ``make_equilibrium`` raises it, naming each one that is not finite."""
    d = decisions
    profile = ProfitProfile(*profit_values(d.model, d.p_m, d.p_r, d.w, d.b_m, d.b_r, d.t, params))
    require_finite(profile.as_dict())
    return profile


def _range_check(name: str, value: float) -> ValidityCheck:
    # slack is the distance into [0, 1]; negative outside, zero on the boundary
    return ValidityCheck(name=name, slack=min(value, 1 - value))


# bound by name in perfbench/tracer.py LAYERS
def validity(decisions: DecisionSet, params: Params) -> ValidityReport:
    """Evaluate every interiority constraint with signed slacks.

    Never raises on constraint violations; the report carries them. Each
    condition is checked once: each segment mass in [0, 1] (``q1_in_unit``
    .. ``q4_in_unit``), p_m/alpha > 0 (``primary_threshold_nonneg``), in the
    joint model b_r/alpha in [0, 1] (``tradein_threshold_in_unit``), t > b_r
    where the model has a transfer price (``transfer_covers_subsidy``), and
    (informationally) the per-unit margins of the model's ``PROFIT_TERMS``.
    Every other valuation threshold, and their order, is a mass:
    (p_r - p_m)/(1 - alpha) is 1 - q2 and exceeds p_m/alpha by q1; M's or
    R's trade-in threshold is q3; MR's split (b_m - b_r)/(1 - alpha) is q3
    (1 - q3 as printed) and b_r/alpha exceeds it by q4. Raises OutOfDomain
    where ``demand`` does: a segment mass that is not finite.
    """
    return _validity(decisions, params, demand(decisions.model, decisions, params))


def _validity(decisions: DecisionSet, params: Params, q: DemandProfile) -> ValidityReport:
    d = decisions
    checks = [_range_check(f"{name}_in_unit", mass) for name, mass in q.as_dict().items()]
    checks.append(ValidityCheck("primary_threshold_nonneg", d.p_m / params.alpha))
    if q.q4 is not None:  # q3 and q4 below 1 leave b_r / alpha < 1 open
        checks.append(_range_check("tradein_threshold_in_unit", d.b_r / params.alpha))
    if d.t is not None:
        checks.append(ValidityCheck("transfer_covers_subsidy", d.t - d.b_r))
    checks.extend(ValidityCheck(name, _MARGINS[margin](d, params), informational=True)
                  for name, margin, _, _ in PROFIT_TERMS[d.model])
    return ValidityReport(checks=tuple(checks))


@dataclass(frozen=True)
class Equilibrium:
    """A decision set bundled with its recomputed market outcome.

    ``provenance`` records whether the decisions came from the closed-form
    expressions or from the numeric backward-induction solver. Demands,
    profits and validity are always recomputed from the decisions at
    construction (via :func:`make_equilibrium`), never stored independently.
    An MR point's stationarity is judged by :func:`dcclsc.oracle.certify_mr_variant`.
    """

    params: Params
    decisions: DecisionSet
    demands: DemandProfile
    profit: ProfitProfile
    validity: ValidityReport
    provenance: str
    singularity_distance: float
    demand_variant: MrDemandVariant | None = None

    @property
    def model(self) -> ModelId:
        """The decisions' model, stored once, in ``decisions``."""
        return self.decisions.model

    def as_dict(self) -> dict:
        out = {
            "model": self.model.value,
            "provenance": self.provenance,
            "params": self.params.as_dict(),
            "decisions": dict(self.decisions.as_dict()),
            "demands": self.demands.as_dict(),
            "profits": self.profit.as_dict(),
            "validity": self.validity.as_dict(),
            "singularity_distance": self.singularity_distance,
        }
        if self.demand_variant is not None:
            out["demand_variant"] = self.demand_variant.value
        return out


def make_equilibrium(model: ModelId, decisions: DecisionSet, params: Params,
                     provenance: str, singularity_distance: float,
                     variant: MrDemandVariant = MrDemandVariant.ADOPTED) -> Equilibrium:
    """Package decisions with their freshly computed outcome and validity.

    Both the closed-form and the numeric path end here; the segment masses
    are evaluated once and feed the demands, the profits and the validity
    report. Raises OutOfDomain for another model than the decisions', or when
    a mass, a profit or a slack is not finite, so no payload carries an
    infinity or a NaN (parameters so large that float arithmetic overflows).
    """
    model, variant = require_variant(model_of(model, decisions), variant)
    d = decisions
    q = segment_masses(model, d.p_m, d.p_r, d.b_m, d.b_r, params.alpha, variant)
    demands = DemandProfile(*q)
    eq = Equilibrium(
        params=params,
        decisions=decisions,
        demands=demands,
        profit=ProfitProfile(*_profit_sums(profit_parts(model, d, params, q=q))),
        validity=_validity(d, params, demands),
        provenance=provenance,
        singularity_distance=singularity_distance,
        demand_variant=variant if model is ModelId.MR else None,
    )
    require_finite({**eq.demands.as_dict(), **eq.profit.as_dict(),
                    **{c.name: c.slack for c in eq.validity.checks}})
    return eq


def require_finite(values: dict[str, float]) -> dict[str, float]:
    """``values``, or OutOfDomain naming every value that is not finite, so no
    payload carries an infinity or a NaN; a Fraction, however large, is finite."""
    bad = [Violation(name, v, "must be finite; float arithmetic overflows here")
           for name, v in values.items() if not -math.inf < v < math.inf]
    if bad:
        raise OutOfDomain(bad)
    return values
