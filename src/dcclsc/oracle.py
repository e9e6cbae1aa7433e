"""Numeric ground truth: backward-induction Stackelberg solver and choice simulation.

Nothing in this module evaluates the closed-form equilibrium expressions.
Segment masses enter the profits unclamped, so every profit is exactly
quadratic in the decisions and the retailer's best response is affine in the
leader's variables. The solver uses that structure, and only profit
evaluations, to solve each game exactly:

1. one central-difference stencil of the retailer's profit over all of the
   model's decisions, at a fixed anchor, gives its exact gradient and
   Hessian, hence its best response as an affine map of the leader's
   variables and its concavity;
2. the manufacturer's reduced profit (best response substituted) is
   evaluated once, vectorized, on a central-difference stencil around the
   centre of the search box, which gives its gradient and Hessian exactly;
3. a Hessian that is not negative definite raises NonConcave;
4. one Newton step, plus at most one clean-up step, lands on the stationary
   point to roundoff;
5. a point outside the search box or on its edge raises BoxBoundary, so an
   ill-posed instance is reported rather than truncated.

The stationarity residuals, the MR certification and the second-order
checks reuse the same map and one stencil at the point. A quadratic has at
most one stationary point, so negative-definite Hessians at both stages
also decide uniqueness; no restarts are needed.

``monte_carlo_demand`` simulates the discrete-choice model directly from the
utility definitions and fixed tie-breaking rules, providing the independent
check on the closed-form segment masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from . import market
from .closed_form import singularity_distance
from .errors import BoxBoundary, NonConcave, OutOfDomain, Violation
from .market import DemandProfile, Equilibrium, MrDemandVariant, make_equilibrium
from .params import ALL_DECISION_FIELDS, PLAYER_FIELDS, DecisionSet, ModelId, Params

#: Base search interval; the default box scales it with the cost level.
_BASE_BOX = (-1.0, 3.0)


def default_leader_box(params: Params) -> dict[str, tuple[float, float]]:
    """Default search intervals: [-1, 3] scaled by (1 + c_m + s), for every variable.

    Equilibrium prices and subsidies grow with the unit cost and the
    government subsidy, so a fixed box would cut off the optimum at costly
    parameters (the figure presets reach p_r above 16).
    """
    scale = 1.0 + params.c_m + params.s
    return dict.fromkeys(ALL_DECISION_FIELDS, (_BASE_BOX[0] * scale, _BASE_BOX[1] * scale))


#: Step below which the leader's Newton step counts as converged; a longer
#: first step is followed by one clean-up step.
LEADER_TOL = 1e-8


@dataclass(frozen=True)
class OracleConfig:
    """Search box and seed of the numeric solver.

    Parameters
    ----------
    leader_box : mapping of variable name to (lo, hi), optional
        Search intervals; the solver raises ``BoxBoundary`` rather than
        silently truncating when the optimum lies on or beyond an edge.
        None (the default) derives the box from the parameters via
        :func:`default_leader_box`.
    seed : int
        Recorded in :meth:`as_dict` only: the solver draws nothing random.
    """

    leader_box: Mapping[str, tuple[float, float]] | None = None
    seed: int = 0

    def box(self, name: str, params: Params) -> tuple[float, float]:
        box = self.leader_box if self.leader_box is not None else default_leader_box(params)
        return tuple(box[name])

    def as_dict(self) -> dict:
        box = self.leader_box
        return {
            "leader_box": None if box is None else {k: list(v) for k, v in box.items()},
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SocReport:
    """Second-order-condition check of one equilibrium point.

    Carries central-difference Hessian eigenvalues of the follower profit in
    the follower variables and of the leader's reduced profit (follower
    substituted) in the leader variables; a stage counts as negative
    definite iff all of its eigenvalues are below -1e-9.
    """

    follower_hessian_eigs: tuple[float, ...]
    leader_reduced_hessian_eigs: tuple[float, ...]
    follower_negative_definite: bool
    leader_negative_definite: bool

    def as_dict(self) -> dict:
        return {
            "follower_hessian_eigs": list(self.follower_hessian_eigs),
            "leader_reduced_hessian_eigs": list(self.leader_reduced_hessian_eigs),
            "follower_negative_definite": self.follower_negative_definite,
            "leader_negative_definite": self.leader_negative_definite,
        }


_EIG_THRESHOLD = -1e-9
#: Step of every central-difference stencil; any step is exact on a
#: quadratic, and a wide one keeps roundoff in the differences small.
_STEP = 0.5
#: Largest ratio max|profit| / max|Hessian entry| at which a stencil still
#: resolves the curvature: its roundoff, eps * max|profit| / step^2, stays
#: below 1e-6 of the largest entry (unit costs up to about 1e9).
_RESOLVABLE = 1e-6 * _STEP * _STEP / float(np.finfo(float).eps)
#: Where the retailer's profit is differenced; on a quadratic any anchor
#: identifies the same best-response map.
_ANCHOR = dict(zip(ALL_DECISION_FIELDS, (1.0, 1.0, 1.0, 0.5, 0.5, 0.5)))


def _profits(model: ModelId, points: np.ndarray, params: Params, variant: MrDemandVariant):
    """(pi_m, pi_r) over an (n, k) array with one column per decision of the
    model, the leader's variables first, then the follower's."""
    leader, follower = PLAYER_FIELDS[model]
    dec = dict.fromkeys(ALL_DECISION_FIELDS)
    dec.update(zip(leader + follower, points.T))
    return market.profit_values(model, *dec.values(), params, variant)


@lru_cache(maxsize=None)
def _stencil(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit central-difference stencil in k dimensions and its pair indices (i, j).

    Rows: the origin, then +e_i, -e_i for each i, then e_i + e_j, e_i - e_j,
    -e_i + e_j, -e_i - e_j for each pair i < j; 1 + 2k + 2k(k-1) rows in all.
    Cached and read-only: every solve and check reuses the same few stencils.
    """
    eye = np.eye(k)
    i, j = np.triu_indices(k, 1)
    axes = np.stack([eye, -eye], axis=1).reshape(-1, k)
    corners = np.stack([eye[i] + eye[j], eye[i] - eye[j], -eye[i] + eye[j], -eye[i] - eye[j]],
                       axis=1).reshape(-1, k)
    offsets = np.vstack([np.zeros((1, k)), axes, corners])
    offsets.flags.writeable = False
    return offsets, i, j


def _central_differences(f: Callable, x0: np.ndarray,
                         hessian: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradient (and Hessian) of f at x0 from one vectorized stencil evaluation.

    ``f`` maps an (n, k) array of points to n values. Central differences
    carry no truncation error on a quadratic, whatever the step. This is the
    only place the oracle differences a profit. Raises OutOfDomain when a
    profit overflows on the stencil, or when its roundoff swamps the
    curvature the stencil measures (decisions so large that the step is lost).
    """
    k = len(x0)
    offsets, i, j = _stencil(k)
    if not hessian:
        offsets = offsets[:1 + 2 * k]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f(x0 + _STEP * offsets)
    size = float(np.abs(vals).max())
    if not math.isfinite(size):
        raise OutOfDomain.single("profit", size, "overflows on the difference stencil")
    plus, minus = vals[1:1 + 2 * k:2], vals[2:1 + 2 * k:2]
    grad = (plus - minus) / (2.0 * _STEP)
    if not hessian:
        return grad, None
    H = np.diag((plus - 2.0 * vals[0] + minus) / (_STEP * _STEP))
    pp, pm, mp, mm = vals[1 + 2 * k:].reshape(-1, 4).T
    H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4.0 * _STEP * _STEP)
    if size > _RESOLVABLE * np.abs(H).max():
        raise OutOfDomain.single("profit", size, "too large to resolve its curvature "
                                                 f"with the difference step {_STEP}")
    return grad, H


@dataclass(frozen=True)
class _AffineResponse:
    """The retailer's exact best response y*(x) = y0 + K (x - x0).

    ``eigs`` are the eigenvalues of the retailer's Hessian in its own
    variables; the profit is quadratic, so they hold at every point.
    """

    x0: np.ndarray
    y0: np.ndarray
    K: np.ndarray
    eigs: np.ndarray

    def __call__(self, leader: np.ndarray) -> np.ndarray:
        """Best responses to an (n, k) array of leader points, as (n, m)."""
        return self.y0 + (leader - self.x0) @ self.K.T


def _best_response(model: ModelId, params: Params,
                   variant: MrDemandVariant) -> _AffineResponse:
    """Identify the retailer's best response from one stencil of its profit.

    The stencil spans all of the model's decisions at a fixed anchor z0 and
    gives the exact gradient g and Hessian H; zeroing the follower gradient
    gives y0 = z0_f - H_ff^-1 g_f and K = -H_ff^-1 H_fl. Raises NonConcave
    unless H_ff is negative definite (relative to its largest eigenvalue);
    that fails for model R at alpha <= 1/5 and for model MR at alpha <= 1/4.
    """
    leader, follower = PLAYER_FIELDS[model]
    k = len(leader)
    z0 = np.array([_ANCHOR[n] for n in leader + follower])
    grad, H = _central_differences(lambda z: _profits(model, z, params, variant)[1], z0)
    H_ff = H[k:, k:]
    eigs = np.linalg.eigvalsh(H_ff)
    if not np.all(eigs < -1e-9 * np.max(np.abs(eigs))):
        raise NonConcave(
            f"retailer profit not concave in {', '.join(follower)}: "
            f"finite-difference Hessian eigenvalues {np.array2string(eigs, precision=4)}")
    y0 = z0[k:] - np.linalg.solve(H_ff, grad[k:])
    return _AffineResponse(x0=z0[:k], y0=y0, K=-np.linalg.solve(H_ff, H[k:, :k]), eigs=eigs)


def _leader_objective(model: ModelId, params: Params, variant: MrDemandVariant,
                      response: _AffineResponse) -> Callable:
    """Reduced leader profit (retailer at its best response) over (n, k) leader points."""
    return lambda x: _profits(model, np.hstack([x, response(x)]), params, variant)[0]


def best_response_retailer(model: ModelId, leader_vars: Mapping[str, float],
                           params: Params,
                           variant: MrDemandVariant = MrDemandVariant.ADOPTED) -> dict[str, float]:
    """Maximize the retailer profit over the follower's variables.

    ``leader_vars`` must contain exactly the leader's variables for the
    model, those of ``params.PLAYER_FIELDS``.
    Raises NonConcave when the retailer objective has no interior maximum.
    """
    model = ModelId(model)
    leader, follower = PLAYER_FIELDS[model]
    if set(leader_vars) != set(leader):
        raise OutOfDomain([Violation("leader_vars", float("nan"),
                                     f"model {model.value} leader sets {sorted(leader)}, "
                                     f"got {sorted(leader_vars)}")])
    x = np.array([[float(leader_vars[n]) for n in leader]])
    y = _best_response(model, params, variant)(x)[0]
    return dict(zip(follower, map(float, y)))


def solve_stackelberg_numeric(model: ModelId, params: Params,
                              cfg: OracleConfig | None = None,
                              variant: MrDemandVariant = MrDemandVariant.ADOPTED) -> Equilibrium:
    """Numeric Stackelberg equilibrium by backward induction.

    The manufacturer's profit, with the retailer replaced by its exact best
    response, is exactly quadratic, so its gradient and Hessian are read from
    one central-difference stencil around the centre of the search box, and
    one Newton step lands on the stationary point; a step longer than
    ``LEADER_TOL`` is followed by one clean-up step from a fresh gradient,
    which removes the roundoff of the first. Deterministic for a fixed config.

    Raises
    ------
    BoxBoundary
        when the optimum lies outside the leader box or on its edge.
    NonConcave
        when either stage's objective has no interior maximum.
    OutOfDomain
        when the parameters are so large that a profit overflows or its
        curvature is lost to roundoff.
    """
    model = ModelId(model)
    cfg = cfg or OracleConfig()
    names, follower = PLAYER_FIELDS[model]
    boxes = [cfg.box(n, params) for n in names]
    x = np.array([sum(box) / 2.0 for box in boxes])
    response = _best_response(model, params, variant)
    f = _leader_objective(model, params, variant, response)
    grad, H = _central_differences(f, x)
    eigs = np.linalg.eigvalsh(H)
    if not np.all(eigs < 0.0):
        raise NonConcave(
            "leader reduced profit not concave: finite-difference Hessian "
            f"eigenvalues {np.array2string(eigs, precision=4)}")
    step = np.linalg.solve(H, -grad)
    x = x + step
    if np.max(np.abs(step)) >= LEADER_TOL:
        grad, _ = _central_differences(f, x, hessian=False)
        x = x + np.linalg.solve(H, -grad)
    for n, value, (lo, hi) in zip(names, map(float, x), boxes):
        edge = 1e-6 * max(1.0, hi - lo)
        if value - lo <= edge or hi - value <= edge:
            raise BoxBoundary(n, value, (lo, hi))
    solution = np.concatenate([x, response(x[None])[0]])
    decisions = DecisionSet(model=model, **dict(zip(names + follower, map(float, solution))))
    return make_equilibrium(model, decisions, params, "numeric_oracle",
                            singularity_distance(model, params.alpha), variant=variant)


def check_soc(model: ModelId, eq: Equilibrium, params: Params,
              variant: MrDemandVariant = MrDemandVariant.ADOPTED) -> SocReport:
    """Second-order conditions at an equilibrium point.

    The follower's Hessian comes with its best-response map; the leader's
    reduced Hessian from one central-difference stencil at the point. A
    stage is negative definite iff all its eigenvalues are < -1e-9. Raises
    NonConcave when the retailer has no best response to substitute.
    """
    model = ModelId(model)
    response = _best_response(model, params, variant)
    x = np.array([getattr(eq.decisions, n) for n in PLAYER_FIELDS[model][0]], dtype=float)
    _, H = _central_differences(_leader_objective(model, params, variant, response), x)
    eig_f, eig_l = response.eigs, np.linalg.eigvalsh(H)
    return SocReport(
        follower_hessian_eigs=tuple(float(e) for e in eig_f),
        leader_reduced_hessian_eigs=tuple(float(e) for e in eig_l),
        follower_negative_definite=bool(np.all(eig_f < _EIG_THRESHOLD)),
        leader_negative_definite=bool(np.all(eig_l < _EIG_THRESHOLD)),
    )


@dataclass(frozen=True)
class MonteCarloDemand:
    """Empirical segment shares with binomial standard errors."""

    shares: DemandProfile
    stderr: DemandProfile
    n: int
    seed: int

    def as_dict(self) -> dict:
        return {"shares": self.shares.as_dict(), "stderr": self.stderr.as_dict(),
                "n": self.n, "seed": self.seed}


_MC_CHUNK = 1 << 18


def monte_carlo_demand(model: ModelId, decisions: DecisionSet, params: Params,
                       n: int, seed: int) -> MonteCarloDemand:
    """Simulate the discrete-choice model on n iid (v, u) ~ Uniform[0,1]^2 pairs.

    Choices follow the utility argmax with participation at zero utility and
    the fixed tie-breaks (direct channel, manufacturer subsidy). Each chunk
    of draws derives its own substream from (seed, chunk index), so results
    are bit-identical regardless of chunking or evaluation order.
    """
    if n < 1:
        raise OutOfDomain.single("n", n, "must be >= 1")
    model = ModelId(model)
    counts = [0, 0, 0, 0]
    done = 0
    chunk_idx = 0
    while done < n:
        m = min(_MC_CHUNK, n - done)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(chunk_idx,))))
        draws = rng.random((m, 2))
        masks = market.choice_masks(model, decisions, draws[:, 0], draws[:, 1], params)
        for i, mask in enumerate(masks):
            if mask is not None:
                counts[i] += int(np.count_nonzero(mask))
        done += m
        chunk_idx += 1
    shares = [c / n for c, mask in zip(counts, masks) if mask is not None]
    stderr = [math.sqrt(max(p * (1.0 - p), 0.0) / n) for p in shares]
    return MonteCarloDemand(shares=DemandProfile(*shares), stderr=DemandProfile(*stderr),
                            n=n, seed=seed)


def stationarity_residuals(model: ModelId, decisions: DecisionSet, params: Params,
                           variant: MrDemandVariant = MrDemandVariant.ADOPTED) -> dict[str, float]:
    """Scaled first-order residuals of a candidate equilibrium point.

    Central-difference partials of the retailer profit in the follower's
    variables and of the leader's reduced profit (follower at its best
    response) in the leader's variables, divided by max(1, |profit|) at the
    point; one gradient stencil each. All residuals vanish at a true
    interior Stackelberg solution. Raises NonConcave when the retailer has
    no best response to substitute.
    """
    model = ModelId(model)
    leader, follower = PLAYER_FIELDS[model]
    x = np.array([getattr(decisions, n) for n in leader], dtype=float)
    y = np.array([getattr(decisions, n) for n in follower], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # the stencils below raise on it
        at_point = _profits(model, np.concatenate([x, y])[None], params, variant)
    scale_m, scale_r = (max(1.0, abs(float(v[0]))) for v in at_point)

    def retailer(ys):
        return _profits(model, np.hstack([np.broadcast_to(x, (len(ys), len(x))), ys]),
                        params, variant)[1]

    grad_f, _ = _central_differences(retailer, y, hessian=False)
    response = _best_response(model, params, variant)
    grad_l, _ = _central_differences(_leader_objective(model, params, variant, response), x,
                                     hessian=False)
    out = {f"follower:{n}": abs(float(g)) / scale_r for n, g in zip(follower, grad_f)}
    out.update({f"leader:{n}": abs(float(g)) / scale_m for n, g in zip(leader, grad_l)})
    return out


#: Residual threshold below which a candidate point counts as stationary.
STATIONARITY_TOL = 1e-6


def certify_mr_variant(decisions: DecisionSet, params: Params,
                       tol: float = STATIONARITY_TOL) -> str:
    """Which segment-3 demand variant, if any, makes an MR point stationary.

    Returns "adopted", "as_printed", "both", or "none"; or
    "follower_non_concave" when the retailer profit is not concave (alpha
    <= 1/4), so no Stackelberg point exists to certify against. The verdict
    is a deterministic function of (decisions, params).
    """
    passing = []
    for variant in (MrDemandVariant.ADOPTED, MrDemandVariant.AS_PRINTED):
        try:
            res = stationarity_residuals(ModelId.MR, decisions, params, variant)
        except NonConcave:
            return "follower_non_concave"
        if max(res.values()) <= tol:
            passing.append(variant.value)
    if not passing:
        return "none"
    if len(passing) == 2:
        return "both"
    return passing[0]


#: Consecutive guard-band rejections after which ``sample_params`` gives up.
_MAX_REJECTIONS = 100_000


def sample_params(n: int, seed: int, alpha_range: tuple[float, float] = (0.3, 0.95),
                  c_m_range: tuple[float, float] = (0.05, 0.95),
                  s_max: float = 0.3, guard_band: float = 0.01) -> list[Params]:
    """Seeded random admissible parameter draws for verification protocols.

    alpha is uniform on ``alpha_range`` excluding ``guard_band``-wide bands
    around the closed-form poles (2/9 and the MR denominator root), c_m is
    uniform on ``c_m_range``, c_r uniform on (0, c_m), s uniform on
    [0, s_max]. Deterministic given (n, seed). Raises OutOfDomain when
    ``alpha_range`` has no admissible mass, detected as 100,000 consecutive
    draws inside the guard bands.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out = []
    rejected = 0
    while len(out) < n:
        alpha = float(rng.uniform(*alpha_range))
        if any(singularity_distance(m, alpha) < guard_band for m in (ModelId.R, ModelId.MR)):
            rejected += 1
            if rejected == _MAX_REJECTIONS:
                raise OutOfDomain.single("alpha_range", alpha_range,
                                         f"no admissible alpha outside the pole guard "
                                         f"bands of half-width {guard_band}")
            continue
        rejected = 0
        c_m = float(rng.uniform(*c_m_range))
        c_r = float(c_m * rng.uniform(0.05, 0.95))
        s = float(rng.uniform(0.0, s_max))
        out.append(Params(alpha=alpha, c_m=c_m, c_r=c_r, s=s))
    return out
