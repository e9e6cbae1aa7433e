"""Numeric ground truth: backward-induction Stackelberg solver and choice simulation.

Nothing in this module evaluates the closed-form equilibrium expressions.
Segment masses enter the profits unclamped, so every profit is exactly
quadratic in the decisions and the retailer's best response is affine in the
leader's variables. The solver uses that structure, and only profit
evaluations, to solve each game exactly:

1. the retailer's best response is one Newton step built from central
   differences at a fixed anchor, vectorized over arrays of leader points;
2. the manufacturer's reduced profit (best response substituted) is
   evaluated once, vectorized, on a central-difference stencil around the
   centre of the search box, which gives its gradient and Hessian exactly;
3. a Hessian that is not negative definite raises NonConcave;
4. one Newton step, plus at most one clean-up step, lands on the stationary
   point to roundoff;
5. a point outside the search box or on its edge raises BoxBoundary, so an
   ill-posed instance is reported rather than truncated.

``monte_carlo_demand`` simulates the discrete-choice model directly from the
utility definitions and fixed tie-breaking rules, providing the independent
check on the closed-form segment masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping

import numpy as np

from . import market
from .errors import BoxBoundary, NonConcave, OutOfDomain, Violation
from .market import DemandProfile, Equilibrium, MrDemandVariant, make_equilibrium
from .params import DecisionSet, ModelId, Params

#: Leader decision variables per model (the follower owns the rest).
LEADER_FIELDS = {
    ModelId.M: ("p_m", "w", "b_m"),
    ModelId.R: ("p_m", "w", "t"),
    ModelId.MR: ("p_m", "w", "b_m", "t"),
}

#: Follower decision variables per model.
FOLLOWER_FIELDS = {
    ModelId.M: ("p_r",),
    ModelId.R: ("p_r", "b_r"),
    ModelId.MR: ("p_r", "b_r"),
}

#: Base search interval; the default box scales it with the cost level.
_BASE_BOX = (-1.0, 3.0)


def default_leader_box(params: Params) -> dict[str, tuple[float, float]]:
    """Default search intervals: [-1, 3] scaled by (1 + c_m + s), for every variable.

    Equilibrium prices and subsidies grow with the unit cost and the
    government subsidy, so a fixed box would cut off the optimum at costly
    parameters (the figure presets reach p_r above 16).
    """
    scale = 1.0 + params.c_m + params.s
    box = (_BASE_BOX[0] * scale, _BASE_BOX[1] * scale)
    return {name: box for name in ("p_m", "p_r", "w", "b_m", "b_r", "t")}


@dataclass(frozen=True)
class OracleConfig:
    """Tuning knobs of the numeric solver and simulator.

    Parameters
    ----------
    leader_tol : float
        Step size below which the leader's Newton step counts as converged;
        a larger first step is followed by one clean-up step.
    leader_box : mapping of variable name to (lo, hi), optional
        Search intervals; the solver raises ``BoxBoundary`` rather than
        silently truncating when the optimum lies on or beyond an edge.
        None (the default) derives the box from the parameters via
        :func:`default_leader_box`.
    seed : int
        Substream root for everything stochastic (Monte Carlo, multistart).
    mc_samples : int
        Default sample count for the choice simulation.
    """

    leader_tol: float = 1e-8
    leader_box: Mapping[str, tuple[float, float]] | None = None
    seed: int = 0
    mc_samples: int = 1_000_000

    def __post_init__(self):
        if not self.leader_tol > 0:
            raise OutOfDomain.single("leader_tol", self.leader_tol, "must be > 0")

    def box(self, name: str, params: Params) -> tuple[float, float]:
        box = self.leader_box if self.leader_box is not None else default_leader_box(params)
        return tuple(box[name])

    def as_dict(self) -> dict:
        box = self.leader_box
        return {
            "leader_tol": self.leader_tol,
            "leader_box": None if box is None else {k: list(v) for k, v in box.items()},
            "seed": self.seed,
            "mc_samples": self.mc_samples,
        }


@dataclass(frozen=True)
class SocReport:
    """Second-order-condition check of one equilibrium point.

    Carries finite-difference Hessian eigenvalues of the follower profit in
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
_STEP = 0.25
_FOLLOWER_ANCHOR = {"p_r": 1.0, "b_r": 0.5}
#: Step of the leader's central-difference stencil; any step is exact on a
#: quadratic, and a wide one keeps roundoff in the differences small.
_LEADER_STEP = 0.5


def _assemble(model: ModelId, **named) -> dict:
    """Full six-slot decision mapping with None in unused slots."""
    slots = {"p_m": None, "p_r": None, "w": None, "b_m": None, "b_r": None, "t": None}
    slots.update(named)
    return slots


def _profits(model: ModelId, dec: dict, params: Params, variant: MrDemandVariant):
    return market.profit_values(model, dec["p_m"], dec["p_r"], dec["w"], dec["b_m"],
                                dec["b_r"], dec["t"], params, variant)


def _follower_curvatures(model: ModelId, params: Params,
                         variant: MrDemandVariant) -> tuple[float, float | None, float | None]:
    """Second differences of the retailer profit at a fixed anchor.

    The profit is quadratic in the follower variables, so these curvatures
    (scaled by the step squared) are position-independent and decide
    concavity globally. Raises NonConcave when the follower Hessian is not
    negative definite; for model R that happens for alpha <= 1/5 and for
    model MR for alpha <= 1/4.
    """
    h = _STEP
    anchor = _assemble(model, p_m=1.0, w=1.0, b_m=0.5, t=0.5)

    def f(p_r, b_r):
        d = dict(anchor)
        d["p_r"], d["b_r"] = p_r, b_r
        return float(_profits(model, d, params, variant)[1])

    p0, b0 = _FOLLOWER_ANCHOR["p_r"], _FOLLOWER_ANCHOR["b_r"]
    c_pp = f(p0 + h, b0) - 2.0 * f(p0, b0) + f(p0 - h, b0)
    if ModelId(model) is ModelId.M:
        if not c_pp < 0.0:
            raise NonConcave(f"retailer profit not concave in p_r (second difference {c_pp:.3e})")
        return c_pp, None, None
    c_bb = f(p0, b0 + h) - 2.0 * f(p0, b0) + f(p0, b0 - h)
    c_pb = (f(p0 + h, b0 + h) - f(p0 + h, b0 - h)
            - f(p0 - h, b0 + h) + f(p0 - h, b0 - h)) / 4.0
    det = c_pp * c_bb - c_pb * c_pb
    if not (c_pp < 0.0 and det > 1e-9 * abs(c_pp * c_bb)):
        raise NonConcave(
            "retailer profit not jointly concave in (p_r, b_r): "
            f"second differences ({c_pp:.3e}, {c_bb:.3e}), determinant {det:.3e}"
        )
    return c_pp, c_bb, c_pb


def _follower_solve(model: ModelId, leader: dict, params: Params,
                    variant: MrDemandVariant = MrDemandVariant.ADOPTED) -> dict:
    """Best response of the retailer, vectorized over leader-valued arrays.

    The objective is exactly quadratic, so a single step built from central
    differences at a fixed anchor (a finite-difference Newton step with the
    constant probed curvature) is exact up to roundoff.
    """
    model = ModelId(model)

    def objective(p_r, b_r):
        dec = _assemble(model, **leader, p_r=p_r, b_r=b_r)
        return _profits(model, dec, params, variant)[1]

    c_pp, c_bb, c_pb = _follower_curvatures(model, params, variant)
    h = _STEP
    p0, b0 = _FOLLOWER_ANCHOR["p_r"], _FOLLOWER_ANCHOR["b_r"]
    if model is ModelId.M:
        g_p = (objective(p0 + h, None) - objective(p0 - h, None)) / 2.0
        return {"p_r": p0 - g_p * h / c_pp}
    g_p = (objective(p0 + h, b0) - objective(p0 - h, b0)) / 2.0
    g_b = (objective(p0, b0 + h) - objective(p0, b0 - h)) / 2.0
    det = c_pp * c_bb - c_pb * c_pb
    return {
        "p_r": p0 - h * (c_bb * g_p - c_pb * g_b) / det,
        "b_r": b0 - h * (c_pp * g_b - c_pb * g_p) / det,
    }


def best_response_retailer(model: ModelId, leader_vars: Mapping[str, float],
                           params: Params, cfg: OracleConfig | None = None,
                           variant: MrDemandVariant = MrDemandVariant.ADOPTED) -> dict[str, float]:
    """Maximize the retailer profit over the follower's variables.

    ``leader_vars`` must contain exactly the leader's variables for the
    model: {w, p_m, b_m} for M, {w, p_m, t} for R, {w, p_m, b_m, t} for MR.
    Raises NonConcave when the retailer objective has no interior maximum.
    The follower step needs no tuning, so ``cfg`` is accepted but unused.
    """
    model = ModelId(model)
    expected = set(LEADER_FIELDS[model])
    got = set(leader_vars)
    if got != expected:
        raise OutOfDomain([Violation("leader_vars", float("nan"),
                                     f"model {model.value} leader sets {sorted(expected)}, got {sorted(got)}")])
    leader = {k: float(v) for k, v in leader_vars.items()}
    sol = _follower_solve(model, leader, params, variant)
    return {k: float(v) for k, v in sol.items()}


def _reduced_leader_profit(model: ModelId, leader: dict, params: Params,
                           variant: MrDemandVariant):
    follower = _follower_solve(model, leader, params, variant)
    dec = _assemble(model, **leader, **follower)
    return _profits(model, dec, params, variant)[0]


def _leader_objective(model: ModelId, params: Params, variant: MrDemandVariant) -> Callable:
    """Reduced leader profit over an (n, k) array of leader points."""
    names = LEADER_FIELDS[model]

    def f(points: np.ndarray) -> np.ndarray:
        leader = {n: points[:, i] for i, n in enumerate(names)}
        return _reduced_leader_profit(model, leader, params, variant)

    return f


def _stencil_offsets(k: int) -> np.ndarray:
    """Unit central-difference stencil in k dimensions.

    Rows: the origin, then +e_i, -e_i for each i, then e_i + e_j, e_i - e_j,
    -e_i + e_j, -e_i - e_j for each pair i < j; 1 + 2k + 2k(k-1) rows in all.
    """
    eye = np.eye(k)
    rows = [np.zeros(k)]
    for i in range(k):
        rows += [eye[i], -eye[i]]
    for i, j in combinations(range(k), 2):
        rows += [eye[i] + eye[j], eye[i] - eye[j], -eye[i] + eye[j], -eye[i] - eye[j]]
    return np.array(rows)


def _central_differences(f: Callable, x0: np.ndarray, h: float,
                         hessian: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradient (and Hessian) of f at x0 from one vectorized stencil evaluation.

    ``f`` maps an (n, k) array of points to n values. Central differences
    carry no truncation error on a quadratic, whatever the step.
    """
    k = len(x0)
    offsets = _stencil_offsets(k)
    if not hessian:
        offsets = offsets[:1 + 2 * k]
    vals = f(x0 + h * offsets)
    plus, minus = vals[1:1 + 2 * k:2], vals[2:1 + 2 * k:2]
    grad = (plus - minus) / (2.0 * h)
    if not hessian:
        return grad, None
    H = np.diag((plus - 2.0 * vals[0] + minus) / (h * h))
    corners = vals[1 + 2 * k:].reshape(-1, 4)
    for (i, j), (pp, pm, mp, mm) in zip(combinations(range(k), 2), corners):
        H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
    return grad, H


def solve_leader(model: ModelId, params: Params, cfg: OracleConfig | None = None,
                 variant: MrDemandVariant = MrDemandVariant.ADOPTED,
                 centre: Mapping[str, float] | None = None) -> dict[str, float]:
    """Stationary point of the leader's reduced profit (follower substituted).

    The reduced profit is exactly quadratic, so its gradient and Hessian are
    read from one central-difference stencil around ``centre`` (default: the
    centre of the search box), and one Newton step lands on the stationary
    point; a step longer than ``leader_tol`` is followed by one clean-up
    step from a fresh gradient, which removes the roundoff of the first.
    Raises NonConcave unless every Hessian eigenvalue is negative. The
    result is not checked against the search box.
    """
    model = ModelId(model)
    cfg = cfg or OracleConfig()
    names = LEADER_FIELDS[model]
    if centre is None:
        x = np.array([sum(cfg.box(n, params)) / 2.0 for n in names])
    else:
        x = np.array([float(centre[n]) for n in names])
    f = _leader_objective(model, params, variant)
    grad, H = _central_differences(f, x, _LEADER_STEP)
    eigs = np.linalg.eigvalsh(H)
    if not np.all(eigs < 0.0):
        raise NonConcave(
            "leader reduced profit not concave: finite-difference Hessian "
            f"eigenvalues {np.array2string(eigs, precision=4)}")
    step = np.linalg.solve(H, -grad)
    x = x + step
    if np.max(np.abs(step)) >= cfg.leader_tol:
        grad, _ = _central_differences(f, x, _LEADER_STEP, hessian=False)
        x = x + np.linalg.solve(H, -grad)
    return {n: float(x[i]) for i, n in enumerate(names)}


def solve_stackelberg_numeric(model: ModelId, params: Params,
                              cfg: OracleConfig | None = None,
                              variant: MrDemandVariant = MrDemandVariant.ADOPTED) -> Equilibrium:
    """Numeric Stackelberg equilibrium by backward induction.

    The manufacturer's profit, with the retailer replaced by its computed
    best response, is maximized exactly by :func:`solve_leader` from the
    centre of the search box. Deterministic for a fixed config.

    Raises
    ------
    BoxBoundary
        when the optimum lies outside the leader box or on its edge.
    NonConcave
        when either stage's objective has no interior maximum.
    """
    model = ModelId(model)
    cfg = cfg or OracleConfig()
    leader = solve_leader(model, params, cfg, variant)
    for n, value in leader.items():
        lo, hi = cfg.box(n, params)
        edge = 1e-6 * max(1.0, hi - lo)
        if value - lo <= edge or hi - value <= edge:
            raise BoxBoundary(n, value, (lo, hi))

    follower = {k: float(v) for k, v in
                _follower_solve(model, leader, params, variant).items()}
    decisions = DecisionSet(model=model, **leader, **follower)

    from .closed_form import singularity_distance

    return make_equilibrium(model, decisions, params, "numeric_oracle",
                            singularity_distance(model, params.alpha), variant=variant)


def _richardson_hessian(f: Callable, x0: np.ndarray, h: float) -> np.ndarray:
    # one Richardson extrapolation step: eliminates the O(h^2) error term
    return (4.0 * _central_differences(f, x0, h / 2.0)[1]
            - _central_differences(f, x0, h)[1]) / 3.0


def check_soc(model: ModelId, eq: Equilibrium, params: Params,
              cfg: OracleConfig | None = None,
              variant: MrDemandVariant = MrDemandVariant.ADOPTED) -> SocReport:
    """Finite-difference second-order conditions at an equilibrium point.

    Central differences with step 1e-4 and one Richardson extrapolation;
    a stage is negative definite iff all its eigenvalues are < -1e-9.
    The checks need no tuning, so ``cfg`` is accepted but unused.
    """
    model = ModelId(model)
    h = 1e-4
    dec = {k: getattr(eq.decisions, k) for k in ("p_m", "p_r", "w", "b_m", "b_r", "t")}

    f_names = FOLLOWER_FIELDS[model]

    def follower_obj(points):
        d = dict(dec)
        d.update({n: points[:, i] for i, n in enumerate(f_names)})
        return _profits(model, d, params, variant)[1]

    x_f = np.array([dec[n] for n in f_names], dtype=float)
    eig_f = np.linalg.eigvalsh(_richardson_hessian(follower_obj, x_f, h))

    x_l = np.array([dec[n] for n in LEADER_FIELDS[model]], dtype=float)
    leader_obj = _leader_objective(model, params, variant)
    eig_l = np.linalg.eigvalsh(_richardson_hessian(leader_obj, x_l, h))

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
    a = params.alpha
    d = decisions
    counts = {"q1": 0, "q2": 0, "q3": 0, "q4": 0}
    done = 0
    chunk_idx = 0
    while done < n:
        m = min(_MC_CHUNK, n - done)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(chunk_idx,))))
        draws = rng.random((m, 2))
        v, u = draws[:, 0], draws[:, 1]
        u1 = a * v - d.p_m
        u2 = v - d.p_r
        s1 = (u1 >= u2) & (u1 >= 0.0)
        s2 = ~s1 & (u2 >= 0.0)
        counts["q1"] += int(np.count_nonzero(s1))
        counts["q2"] += int(np.count_nonzero(s2))
        if model is ModelId.M:
            counts["q3"] += int(np.count_nonzero(d.b_m - u >= 0.0))
        elif model is ModelId.R:
            counts["q3"] += int(np.count_nonzero(d.b_r - a * u >= 0.0))
        else:
            u3 = d.b_m - u
            u4 = d.b_r - a * u
            s3 = (u3 >= u4) & (u3 >= 0.0)
            s4 = ~s3 & (u4 >= 0.0)
            counts["q3"] += int(np.count_nonzero(s3))
            counts["q4"] += int(np.count_nonzero(s4))
        done += m
        chunk_idx += 1

    def share(k):
        return counts[k] / n

    def se(k):
        p = share(k)
        return math.sqrt(max(p * (1.0 - p), 0.0) / n)

    with_q4 = model is ModelId.MR
    shares = DemandProfile(q1=share("q1"), q2=share("q2"), q3=share("q3"),
                           q4=share("q4") if with_q4 else None)
    stderr = DemandProfile(q1=se("q1"), q2=se("q2"), q3=se("q3"),
                           q4=se("q4") if with_q4 else None)
    return MonteCarloDemand(shares=shares, stderr=stderr, n=n, seed=seed)


def stationarity_residuals(model: ModelId, decisions: DecisionSet, params: Params,
                           variant: MrDemandVariant = MrDemandVariant.ADOPTED,
                           cfg: OracleConfig | None = None,
                           h: float = 1e-5) -> dict[str, float]:
    """Scaled first-order residuals of a candidate equilibrium point.

    Central-difference partials of the retailer profit in the follower's
    variables and of the leader's reduced profit (follower re-solved at each
    perturbation) in the leader's variables, divided by max(1, |profit|).
    All residuals vanish at a true interior Stackelberg solution. Raises
    NonConcave when the retailer has no best response to re-solve. The
    check needs no tuning, so ``cfg`` is accepted but unused.
    """
    model = ModelId(model)
    dec = {k: getattr(decisions, k) for k in ("p_m", "p_r", "w", "b_m", "b_r", "t")}
    pi_m_val, pi_r_val = _profits(model, dec, params, variant)
    out: dict[str, float] = {}
    scale_r = max(1.0, abs(float(pi_r_val)))
    for name in FOLLOWER_FIELDS[model]:
        dp = dict(dec); dp[name] += h
        dm = dict(dec); dm[name] -= h
        deriv = (float(_profits(model, dp, params, variant)[1])
                 - float(_profits(model, dm, params, variant)[1])) / (2.0 * h)
        out[f"follower:{name}"] = abs(deriv) / scale_r

    scale_m = max(1.0, abs(float(pi_m_val)))
    leader = {n: dec[n] for n in LEADER_FIELDS[model]}
    for name in LEADER_FIELDS[model]:
        lp = dict(leader); lp[name] += h
        lm = dict(leader); lm[name] -= h
        deriv = (float(_reduced_leader_profit(model, lp, params, variant))
                 - float(_reduced_leader_profit(model, lm, params, variant))) / (2.0 * h)
        out[f"leader:{name}"] = abs(deriv) / scale_m
    return out


#: Residual threshold below which a candidate point counts as stationary.
STATIONARITY_TOL = 1e-6


def certify_mr_variant(decisions: DecisionSet, params: Params,
                       tol: float = STATIONARITY_TOL,
                       cfg: OracleConfig | None = None) -> str:
    """Which segment-3 demand variant, if any, makes an MR point stationary.

    Returns "adopted", "as_printed", "both", or "none"; or
    "follower_non_concave" when the retailer profit is not concave (alpha
    <= 1/4), so no Stackelberg point exists to certify against. The verdict
    is a deterministic function of (decisions, params).
    """
    passing = []
    for variant in (MrDemandVariant.ADOPTED, MrDemandVariant.AS_PRINTED):
        try:
            res = stationarity_residuals(ModelId.MR, decisions, params, variant, cfg)
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
    from .closed_form import singularity_distance

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
