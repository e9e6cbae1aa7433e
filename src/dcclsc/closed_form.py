"""Closed-form Stackelberg equilibria for the three recycling models.

The expressions here are evaluated exactly as published. For models M and R
they coincide with the true backward-induction solution (the numeric solver
in :mod:`dcclsc.oracle` confirms this independently). For the joint model MR
the published expressions carry known transcription defects; they are still
evaluated verbatim, and only evaluated: :func:`dcclsc.oracle.certify_mr_variant`
judges whether an MR point is stationary under either segment-3 demand
variant. The numeric oracle, not this module, is the ground truth for MR.

Each model's denominator roots are stated once, in ``POLES``. Only
:func:`decision_values` refuses an evaluation; :func:`equilibrium` adds a guard band.

One deliberate correction is applied: the published reaction of the retailer
in model M is inconsistent with both the equilibrium expressions and their
endpoint values, so :func:`retailer_reaction_m` implements the maximizer of
the retailer profit derived directly from its first-order condition.
"""

from __future__ import annotations

import numpy as np

from .errors import Singularity
from .market import Equilibrium, MrDemandVariant, make_equilibrium, require_finite, require_variant
from .params import DecisionSet, ModelId, Params, read_nonneg

#: Default half-width of the guard band around denominator roots of alpha.
DEFAULT_GUARD = 1e-6

#: Real roots in alpha of each model's published denominators, ascending. The
#: MR roots are those of 2*a^3 + 3*a^2 - 17*a + 4 as numpy.roots computes them:
#: the unit root is one ulp above the correctly rounded root, and the golden MR
#: payloads print distances to this value.
POLES = {ModelId.M: (4.0,), ModelId.R: (2.0 / 9.0,),
         ModelId.MR: (-3.8455740027732475, 0.2479351516421134, 2.0976388511311344)}


def singularity_distance(model: ModelId, alpha: float) -> float:
    """Distance from alpha to the nearest denominator root of the model."""
    return min(abs(alpha - root) for root in POLES[ModelId(model)])


def retailer_reaction_m(w: float, p_m: float, params: Params) -> float:
    """Retailer's optimal price in model M given the leader's (w, p_m).

    This is the unique maximizer of the retailer profit, p_r = (1 - alpha +
    p_m + w) / 2. It reproduces both the equilibrium price expression and
    its alpha -> 0 endpoint, which the published reaction form does not.
    """
    return (1.0 - params.alpha + p_m + w) / 2.0


def decision_values_m(alpha: float, c_m: float, delta: float, s: float) -> dict[str, float]:
    """Model-M equilibrium decisions as a function of raw primitives.

    Defined for any alpha except 4, so it doubles as the endpoint-limit
    evaluator at alpha = 0 and alpha = 1.
    """
    den = alpha - 4
    p_m = -(2 * alpha + 2 * c_m + delta * alpha - alpha * c_m + alpha * s) / den
    w = -(4 * c_m - alpha + 2 * delta * alpha - 2 * alpha * c_m
          + 2 * alpha * s + alpha ** 2 + 4) / (2 * den)
    b_m = -(2 * delta + alpha - c_m + 2 * s) / den
    p_r = -(8 * c_m - 7 * alpha + 4 * delta * alpha - 4 * alpha * c_m
            + 4 * alpha * s + 3 * alpha ** 2 + 12) / (4 * den)
    return {"p_m": p_m, "p_r": p_r, "w": w, "b_m": b_m}


def decision_values_r(alpha: float, c_m: float, delta: float, s: float) -> dict[str, float]:
    """Model-R equilibrium decisions (poles at alpha = 2/9)."""
    p_m = (2 * delta * alpha - 2 * c_m - alpha + 8 * alpha * c_m
           + 2 * alpha * s + 9 * alpha ** 2) / (18 * alpha - 4)
    w = (5 * alpha - c_m + delta * alpha + 4 * alpha * c_m + alpha * s - 1) / (9 * alpha - 2)
    b_r = alpha * (2 * delta - c_m + 2 * s + 1) / (9 * alpha - 2)
    p_r = (4 * delta + 29 * alpha - 6 * c_m + 4 * s + 18 * alpha * c_m
           - 9 * alpha ** 2 - 4) / (36 * alpha - 8)
    t = -(4 * delta + alpha - 2 * c_m + 4 * s - 20 * delta * alpha
          + 10 * alpha * c_m - 20 * alpha * s - 9 * alpha ** 2) / (4 * (9 * alpha - 2))
    return {"p_m": p_m, "p_r": p_r, "w": w, "b_r": b_r, "t": t}


def mr_helper_values(alpha: float, c_m: float, delta: float, s: float) -> tuple[float, ...]:
    """The three aggregation terms (x1, x2, x3) of the MR equilibrium expressions."""
    a = alpha
    x1 = (3 * delta * a - 2 * c_m + 7 * a * c_m + 3 * a * s
          - 5 * delta * a ** 2 + 2 * delta * a ** 3 + a ** 2 * c_m
          - 2 * a ** 3 * c_m - 5 * a ** 2 * s + 2 * a ** 3)
    x2 = 2 * delta - c_m + 2 * s - 10 * delta * a + 5 * a * c_m
    x3 = -10 * a * s + 4 * delta * a ** 2 - 2 * a ** 2 * c_m + 4 * a ** 2 * s
    return x1, x2, x3


# bound by name in perfbench/tracer.py LAYERS
def mr_helpers(params: Params) -> tuple[float, float, float]:
    """Aggregation terms (x1, x2, x3) evaluated at validated parameters."""
    return mr_helper_values(params.alpha, params.c_m, params.delta, params.s)


def decision_values_mr(alpha: float, c_m: float, delta: float, s: float) -> dict[str, float]:
    """Model-MR equilibrium decisions, evaluated verbatim as published.

    The common denominator 2a^3 + 3a^2 - 17a + 4 has a root near a = 0.24794;
    :func:`decision_values` refuses it. These expressions are known not to be
    stationary points of the joint profits under either demand variant; see
    :func:`dcclsc.oracle.certify_mr_variant`.
    """
    a = alpha
    x1, x2, x3 = mr_helper_values(alpha, c_m, delta, s)
    den = 3 * a ** 2 - 17 * a + 2 * a ** 3 + 4
    p_m = -(x1 - 2 * a + 12 * a ** 2 - 6 * a ** 3) / den
    w = -(17 * a + 2 * x1 + 4 * a ** 2 - 11 * a ** 3 + 2 * a ** 4 - 4) / (2 * den)
    b_m = (2 * x2 + x3 - 19 * a + 8 * delta * a - 18 * a * c_m
           + 18 * a * s - 4 * a ** 2 + 11 * a ** 3 + 4) / (2 * den)
    b_r = a * (5 * a + x2 - x3 + 3 * a ** 2 - 4 * a ** 3) / den
    p_r = (4 * delta + 23 * a + 4 * s + x1 + delta * a - 5 * a ** 2
           - 9 * a ** 3 + 3 * a ** 4 - 4) / (2 * den)
    t = (a + 1) * (a + x2 + x3 - 6 * a ** 2 + 3 * a ** 3) / den
    return {"p_m": p_m, "p_r": p_r, "w": w, "b_m": b_m, "b_r": b_r, "t": t}


_VALUE_FUNCTIONS = {
    ModelId.M: decision_values_m,
    ModelId.R: decision_values_r,
    ModelId.MR: decision_values_mr,
}


def decision_values(model: ModelId, alpha: float, c_m: float, delta: float,
                    s: float) -> dict[str, float]:
    """Equilibrium decision values for any model at raw primitives.

    ``alpha`` is a float, a Fraction (exact with Fraction primitives) or a numpy
    grid, refused at its failing point nearest a pole as that float: Singularity
    (guard 0) at a zero denominator, whatever its numerator, else OutOfDomain.
    """
    model = ModelId(model)
    if isinstance(alpha, np.ndarray):
        with np.errstate(all="ignore"):
            values = _VALUE_FUNCTIONS[model](alpha, c_m, delta, s)
        finite = np.logical_and.reduce([np.isfinite(v) for v in values.values()])
        if not finite.all():
            i = min(np.flatnonzero(~finite), key=lambda j: singularity_distance(model, alpha[j]))
            decision_values(model, float(alpha[i]), c_m, delta, s)
            require_finite({name: v[i] for name, v in values.items()})  # numpy may round otherwise
        return values
    try:
        return require_finite(_VALUE_FUNCTIONS[model](alpha, c_m, delta, s))
    except ZeroDivisionError:
        raise Singularity(f"model {model.value} closed form", alpha,
                          singularity_distance(model, alpha), 0.0) from None


def limits(model: ModelId, params: Params) -> dict[str, tuple[float, float]]:
    """Each decision's limits as alpha -> 0 and alpha -> 1, both outside the domain."""
    at0, at1 = (decision_values(model, a, params.c_m, params.delta, params.s) for a in (0.0, 1.0))
    return {name: (at0[name], at1[name]) for name in at0}


def equilibrium(model: ModelId, params: Params, guard: float = DEFAULT_GUARD,
                variant: MrDemandVariant = MrDemandVariant.ADOPTED) -> Equilibrium:
    """Closed-form equilibrium of any model, with outcome and validity attached.

    Reads ``variant``, refused outside MR, where the outcome is computed under
    it, and ``guard``; raises Singularity within ``guard`` of a denominator
    root of alpha, then refuses as :func:`decision_values` does.
    """
    model, variant = require_variant(model, variant)
    guard = read_nonneg("guard", guard)
    dist = singularity_distance(model, params.alpha)
    if dist < guard:
        raise Singularity(f"model {model.value} closed form", params.alpha, dist, guard)
    decisions = DecisionSet(model=model, **decision_values(
        model, params.alpha, params.c_m, params.delta, params.s))
    return make_equilibrium(model, decisions, params, "closed_form", dist, variant=variant)


# bound by name in perfbench/tracer.py LAYERS and perfbench/workloads.py
def equilibrium_m(params: Params) -> Equilibrium:
    return equilibrium(ModelId.M, params)


# bound by name in perfbench/tracer.py LAYERS and perfbench/workloads.py
def equilibrium_r(params: Params) -> Equilibrium:
    return equilibrium(ModelId.R, params)


# bound by name in perfbench/tracer.py LAYERS
def equilibrium_mr(params: Params) -> Equilibrium:
    return equilibrium(ModelId.MR, params)
