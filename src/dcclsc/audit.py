"""Numeric audit of the published ordering, monotonicity, threshold,
uniqueness, and endpoint claims.

Each audit encodes one published claim: its applicability condition, the
claimed conclusion, and the published threshold expression, evaluated
verbatim. Each claim is stated whole in its row of ``_ORDERING``,
``_MONOTONICITY`` or ``_ENDPOINTS``: its threshold, which raises Singularity
only where its own denominator vanishes, and optionally an alternate
published threshold (a monotonicity row); or its published limits as
alpha -> 0 and 1, optionally flagged as indeterminate as printed (an
endpoint row). :func:`thresholds` collects the primary thresholds from those
rows. Conclusions are tested against the closed-form expressions on the
model's :func:`default_alpha_grid`, which holds no pole, in one array call,
refused only where the closed form overflows (the claims are statements about
those expressions; the numeric solver serves only the uniqueness theorems).
Disagreements are reported, never corrected: several published claims
demonstrably fail; surfacing them is this module's point.

Verdicts are bit-reproducible functions of (claim id, params); an unknown
claim id is OutOfDomain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import closed_form, market, oracle
from .errors import NonConcave, Singularity
from .params import ModelId, Params, read_id

#: Default audit grids: the manufacturer-led model is evaluated across the
#: whole preference range; the other two start above their denominator poles.
GRID_STEP = 0.01
MONOTONE_TOL = 1e-9
ENDPOINT_TOL = 1e-9


def default_alpha_grid(model: ModelId) -> tuple[float, ...]:
    model = ModelId(model)
    lo, hi = (0.01, 0.99) if model is ModelId.M else (0.30, 0.95)
    n = int(math.floor((hi - lo) / GRID_STEP + 1e-9)) + 1
    return tuple(lo + k * GRID_STEP for k in range(n))


@dataclass(frozen=True)
class AuditVerdict:
    """One claim, its numeric test, and whether they agree.

    ``condition_value`` is the signed slack of the claim's applicability
    inequality (positive means the primary branch of the claim applies);
    None for unconditional claims. ``evidence`` is a grid of (alpha, value)
    pairs for whatever quantity the claim is about.
    """

    prop_id: str
    sub_id: str | None
    variable: str | None
    params: Params
    condition_value: float | None
    claimed: str
    observed: str
    agree: bool
    evidence: tuple[tuple[float, float], ...]
    notes: tuple[str, ...] = field(default_factory=tuple)


def _grid_values(model: ModelId, params: Params):
    """The model's audit grid and every decision on it."""
    grid = np.asarray(default_alpha_grid(model), float)
    return grid, closed_form.decision_values(model, grid, params.c_m, params.delta, params.s)


def _relation(diffs: np.ndarray) -> str:
    return ("less_than" if np.all(diffs < 0.0)
            else "greater_than" if np.all(diffs > 0.0) else "mixed")


def _ratio(what: str, params: Params, num: float, den: float) -> float:
    """A published threshold num / den, refused where its denominator vanishes."""
    if abs(den) < 1e-12:
        raise Singularity(what, params.alpha, abs(den), 1e-12)
    return num / den


#: Ordering claims: prop -> (model, (a, b), published threshold alpha as a
#: function of Params or None if unconditional, relation of a to b above it).
#: P3's threshold 2/9, the pole of model R, lies below that model's grid.
_ORDERING = {
    "P1": (ModelId.M, ("p_m", "p_r"), None, "less_than"),
    "P3": (ModelId.R, ("p_m", "p_r"), lambda p: 2.0 / 9.0, "less_than"),
    "P5": (ModelId.MR, ("p_m", "p_r"), lambda p: _ratio(
        "price-ordering threshold", p, 6.0 * p.c_m - 4.0 * p.delta - 4.0 * p.s + 4.0,
        3.0 * p.c_m - 3.0 * p.delta - 3.0 * p.s + 21.0), "less_than"),
    "P6": (ModelId.MR, ("b_m", "b_r"), lambda p: _ratio(
        "subsidy-ordering threshold", p, 5.0 * p.c_m - 10.0 * p.delta - 10.0 * p.s + 8.0,
        10.0 * p.delta - 5.0 * p.c_m + 10.0 * p.s + 2.0), "greater_than"),
}

_OPPOSITE = {"less_than": "greater_than", "greater_than": "less_than"}


def audit_ordering(prop: str, params: Params) -> AuditVerdict:
    """Audit one pairwise ordering claim on the model's alpha grid.

    The claimed side is evaluated pointwise from the claim's threshold (an
    unconditional claim's lies below the whole grid); points within one grid
    step of the threshold are excluded from the agreement test (the claim
    asserts equality exactly there). The verdict disagrees if any point
    beyond that band contradicts the claimed side.
    """
    prop, (model, (var_a, var_b), threshold, above_claim) = read_id(_ORDERING, "prop", prop)
    theta = -math.inf if threshold is None else threshold(params)
    grid, values = _grid_values(model, params)
    diffs = values[var_a] - values[var_b]
    step = float(np.min(np.diff(grid)))

    signs = np.sign(diffs)
    in_band = np.abs(grid - theta) <= step
    sign = 1.0 if above_claim == "greater_than" else -1.0
    expected = np.where(grid > theta, sign, -sign)
    agree = bool(np.all(signs[~in_band] == expected[~in_band]))
    notes = []
    if np.all(grid > theta):
        claimed, condition = above_claim, float(np.min(grid) - theta)
    elif np.all(grid < theta):
        claimed, condition = _OPPOSITE[above_claim], float(np.max(grid) - theta)
    else:
        claimed, condition = "mixed", 0.0
        notes.append(f"threshold alpha={theta!r} lies inside the grid; "
                     f"claimed ordering flips there")
    if np.any(in_band):
        # equality claim at the threshold, tolerance 10x the grid
        # interpolation error of the difference
        i = int(np.argmin(np.abs(grid - theta)))
        lo, hi = max(i - 1, 0), min(i + 1, len(grid) - 1)
        slope = abs(diffs[hi] - diffs[lo]) / max((grid[hi] - grid[lo]), step)
        tol_eq = 10.0 * step * max(slope, 1e-12)
        notes.append(
            f"equality at threshold: |diff|={abs(float(diffs[i])):.6g} at "
            f"alpha={float(grid[i])!r}, tolerance {tol_eq:.6g}, "
            f"{'within' if abs(float(diffs[i])) <= tol_eq else 'OUTSIDE'} tolerance")
    flips = grid[1:][signs[1:] != signs[:-1]].tolist()
    if flips:
        notes.append("observed sign flips near alpha in " + repr([round(f, 6) for f in flips]))

    return AuditVerdict(
        prop_id=prop, sub_id=None, variable=f"{var_a} vs {var_b}", params=params,
        condition_value=None if threshold is None else condition,
        claimed=claimed, observed=_relation(diffs), agree=agree,
        evidence=tuple(zip(grid.tolist(), diffs.tolist())),
        notes=tuple(notes),
    )


#: Monotonicity claims: prop -> (model, ((sub id, variable, increasing-when,
#: published c_m threshold as a function of (delta, s), and optionally an
#: alternate published threshold of the same form), ...)). "below":
#: increasing iff c_m < the threshold; "above": increasing iff c_m > it. An
#: alternate (P4's b_r, whose proof block prints another expression than the
#: proposition text) is evaluated and reported in a note.
_MONOTONICITY = {
    "P2": (ModelId.M, (("i", "w", "below", lambda d, s: 2.0 * d + 2.0 * s + 1.0),
                       ("ii", "b_m", "below", lambda d, s: 2.0 * d + 2.0 * s + 4.0),
                       ("ii", "p_m", "below", lambda d, s: 2.0 * d + 2.0 * s + 4.0),
                       ("iii", "p_r", "below", lambda d, s: (4.0 * (d + s) - 1.0) / 2.0))),
    "P4": (ModelId.R, (("i", "w", "below", lambda d, s: (5.0 + d + s) / 4.0),
                       ("ii", "b_r", "below", lambda d, s: 2.0 * d + 2.0 * s + 1.0,
                        lambda d, s: (2.0 * d + 2.0 * s + 8.0) / 3.0),
                       ("iii", "p_m", "below", lambda d, s: (2.0 * d + 2.0 * s + 8.0) / 3.0),
                       ("iv", "p_r", "below", lambda d, s: (4.0 * (d + s) - 1.0) / 2.0),
                       ("v", "t", "above", lambda d, s: (4.0 * (d + s) + 9.0) / 2.0))),
    "P7": (ModelId.MR, (("i", "w", "below", lambda d, s: (10.0 * d + 6.0 * s + 8.0) / 9.0),
                        ("ii", "b_m", "below", lambda d, s: 2.0 * d + 2.0 * s + 1.0),
                        ("ii", "b_r", "below", lambda d, s: (8.0 * d + 8.0 * s + 5.0) / 5.0),
                        ("iii", "p_m", "below", lambda d, s: (6.0 * d + 6.0 * s + 4.0) / 7.0),
                        ("iii", "p_r", "below", lambda d, s: (6.0 * d + 6.0 * s + 4.0) / 5.0),
                        ("iv", "t", "above", lambda d, s: (6.0 * d + 6.0 * s + 9.0) / 4.0))),
}


@dataclass(frozen=True)
class Thresholds:
    """All published cost and preference thresholds, evaluated at one Params.

    ``alpha_star`` separates the price ordering of the joint model and
    ``alpha_hat`` its subsidy ordering; the ``prop*`` maps carry the c_m
    thresholds governing each decision variable's claimed monotonicity in
    alpha. Every value is finite; it may lie outside (0, 1), which is
    meaningful (no interior crossing), not an error.
    """

    alpha_star: float
    alpha_hat: float
    prop2: dict[str, float]
    prop4: dict[str, float]
    prop7: dict[str, float]


def thresholds(params: Params) -> Thresholds:
    """Evaluate every published threshold expression at ``params``, from the claim rows.

    Raises Singularity where a threshold's denominator vanishes, and one
    OutOfDomain naming each threshold that is not finite (``prop2.w`` for
    P2's threshold of w), as ``market.require_finite`` refuses it.
    """
    def cost(prop: str) -> dict[str, float]:
        return {var: thr(params.delta, params.s)
                for _, var, _, thr, *_ in _MONOTONICITY[prop][1]}
    th = Thresholds(alpha_star=_ORDERING["P5"][2](params), alpha_hat=_ORDERING["P6"][2](params),
                    prop2=cost("P2"), prop4=cost("P4"), prop7=cost("P7"))
    market.require_finite({"alpha_star": th.alpha_star, "alpha_hat": th.alpha_hat,
                           **{f"{prop}.{var}": value for prop in ("prop2", "prop4", "prop7")
                              for var, value in getattr(th, prop).items()}})
    return th


def classify_direction(values) -> tuple[str, list[int]]:
    """Classify a grid of values as increasing/decreasing/non_monotone.

    A direction holds when every forward difference respects it within
    MONOTONE_TOL; otherwise the grid indices ``i`` where the direction
    changes (difference ``i - 1`` rises beyond MONOTONE_TOL and difference
    ``i`` does not, or the reverse) are returned.
    """
    d = np.diff(np.asarray(values, dtype=float))
    if np.all(d >= -MONOTONE_TOL):
        return "increasing", []
    if np.all(d <= MONOTONE_TOL):
        return "decreasing", []
    rising = d > MONOTONE_TOL
    return "non_monotone", (np.flatnonzero(rising[1:] != rising[:-1]) + 1).tolist()


def _claimed_direction(direction: str, threshold, params: Params) -> tuple[float, float, str]:
    """A c_m threshold's value, the claim's condition slack, and the claimed direction."""
    thr = threshold(params.delta, params.s)
    condition = (thr - params.c_m) if direction == "below" else (params.c_m - thr)
    return thr, condition, "increasing" if condition > 0.0 else "decreasing"


def audit_monotonicity(prop: str, params: Params) -> list[AuditVerdict]:
    """Audit one proposition's monotonicity claims, one verdict per variable.

    The observed direction comes from finite differences of the closed form
    over the model's grid; the claimed direction from the published c_m threshold.
    """
    prop, (model, items) = read_id(_MONOTONICITY, "prop", prop)
    grid, values = _grid_values(model, params)
    out = []
    for sub_id, var, direction, threshold, *alternate in items:
        observed, swap_idx = classify_direction(values[var])
        thr, condition, claimed = _claimed_direction(direction, threshold, params)
        notes = []
        if swap_idx:
            locs = [round(a, 6) for a in grid[swap_idx].tolist()]
            notes.append("direction changes near alpha in " + repr(locs))
        for alt_threshold in alternate:
            alt, _, alt_claim = _claimed_direction(direction, alt_threshold, params)
            notes.append(
                f"alternate published threshold {alt!r} would claim {alt_claim}; "
                f"primary threshold {thr!r} claims {claimed}")
        out.append(AuditVerdict(
            prop_id=prop, sub_id=sub_id, variable=var, params=params,
            condition_value=condition, claimed=claimed, observed=observed,
            agree=bool(claimed == observed),
            evidence=tuple(zip(grid.tolist(), values[var].tolist())),
            notes=tuple(notes),
        ))
    return out


_THEOREM_MODEL = {"T1": ModelId.M, "T2": ModelId.R, "T3": ModelId.MR}


def audit_uniqueness(theorem: str, params: Params) -> AuditVerdict:
    """Audit an equilibrium-uniqueness theorem numerically.

    With unclamped masses both stages' profits are exactly quadratic, so the
    numeric optimum is the unique equilibrium exactly when the follower's
    Hessian and the leader's reduced Hessian are negative definite there.
    Where either is not, the solve has no optimum to offer: the verdict is
    ``not_unique`` with no evidence and the solver's eigenvalues as its note.
    """
    theorem, model = read_id(_THEOREM_MODEL, "theorem", theorem)
    try:
        eq = oracle.solve_stackelberg_numeric(model, params)
    except NonConcave as exc:
        observed, evidence, notes = "not_unique", (), [str(exc)]
    else:
        soc = oracle.check_soc(model, eq, params)
        observed = ("unique" if soc.follower_negative_definite and soc.leader_negative_definite
                    else "not_unique")
        evidence = ((params.alpha, eq.profit.pi_m),)
        notes = [f"follower eigenvalues {tuple(round(e, 6) for e in soc.follower_hessian_eigs)}",
                 f"leader eigenvalues "
                 f"{tuple(round(e, 6) for e in soc.leader_reduced_hessian_eigs)}"]
        failing = eq.validity.failing()
        if failing:
            notes.append("validity caveat: " + ", ".join(failing))
        if model is ModelId.MR:
            certified = oracle.certify_mr_variant(eq.decisions, params)
            notes.append(f"numeric optimum is stationary under variant: {certified}")
    return AuditVerdict(
        prop_id=theorem, sub_id=None, variable=None, params=params,
        condition_value=None, claimed="unique", observed=observed,
        agree=observed == "unique", evidence=evidence, notes=tuple(notes))


#: Endpoint claims: model -> ((variable, published limit as alpha -> 0 and as
#: alpha -> 1, each a function of (c_m, delta, s), and optionally True: the
#: alpha -> 1 expression is indeterminate as printed, evaluated at alpha = 1), ...).
_ENDPOINTS = {
    ModelId.M: (
        ("p_m", lambda c, d, s: c / 2.0, lambda c, d, s: (2.0 + c + d + s) / 3.0),
        ("w", lambda c, d, s: (c + 1.0) / 2.0, lambda c, d, s: (c + d + s + 2.0) / 3.0),
        ("b_m", lambda c, d, s: (2.0 * d - c + 2.0 * s) / 4.0,
         lambda c, d, s: (2.0 * d - c + 2.0 * s - 1.0) / 3.0),
        ("p_r", lambda c, d, s: (2.0 * c + 3.0) / 4.0, lambda c, d, s: (c + d + s + 2.0) / 3.0)),
    ModelId.R: (
        ("w", lambda c, d, s: (c - 1.0) / 2.0, lambda c, d, s: (5.0 + c + d + s) / 4.0),
        ("b_r", lambda c, d, s: 0.0, lambda c, d, s: (2.0 * d + 2.0 * s + 1.0 - c) / 7.0),
        ("p_m", lambda c, d, s: c / 2.0, lambda c, d, s: (2.0 * d + 2.0 * s + 8.0 + c) / 14.0),
        ("p_r", lambda c, d, s: (2.0 * c + 3.0) / 4.0, lambda c, d, s: (c + d + s + 2.0) / 3.0),
        ("t", lambda c, d, s: (4.0 * d + 4.0 * s - 2.0 * c + 9.0) / 4.0,
         lambda c, d, s: (20.0 * d - 10.0 * c + 20.0 * s + 9.0) / 4.0, True)),
}


def audit_endpoints(model: ModelId, params: Params) -> list[AuditVerdict]:
    """Compare closed-form endpoint limits against every published endpoint.

    Each mismatch is reported with both values; nothing is asserted. The
    joint model has no published endpoint block, so its list is empty.
    """
    model = ModelId(model)
    if model not in _ENDPOINTS:
        return []
    lim, costs = closed_form.limits(model, params), (params.c_m, params.delta, params.s)
    out = []
    for var, at0, at1, *indeterminate in _ENDPOINTS[model]:
        for at, published in ((0.0, at0(*costs)), (1.0, at1(*costs))):
            computed = lim[var][int(at)]
            if indeterminate and at == 1.0:
                observed = "indeterminate_as_printed"
                notes = ("published endpoint expression retains alpha symbols; "
                         "value shown evaluates it at alpha=1",)
            else:
                diff = computed - published
                observed = ("equal" if abs(diff) <= ENDPOINT_TOL
                            else "greater_than" if diff > 0 else "less_than")
                notes = () if observed == "equal" else (
                    f"computed limit {computed!r} vs published {published!r} (gap {diff:.6g})",)
            out.append(AuditVerdict(
                prop_id=f"LIM-{model.value}", sub_id=f"alpha->{int(at)}", variable=var,
                params=params, condition_value=None, claimed="equal",
                observed=observed, agree=observed == "equal",
                evidence=((at, computed), (at, published)), notes=notes,
            ))
    return out
