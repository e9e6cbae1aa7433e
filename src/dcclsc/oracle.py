"""Numeric ground truth: backward-induction Stackelberg solver and choice simulation.

Nothing in this module evaluates the closed-form equilibrium expressions or
reads their poles: its sampling guard and the singularity distance of a
numeric equilibrium use the game's own poles (``_POLES``).
Segment masses enter the profits unclamped, so both players' profits are
exactly quadratic in the decisions, and one call of the profit kernel on one
central-difference stencil over all of the model's decisions identifies the
game: both profits' exact gradients and Hessians. The stencil is centred at
the centre of the search box or at a given point; its step is 1/8 of each
variable's box width, so its roundoff keeps to the decisions' scale at any
cost level. The rest is linear algebra on that model:

1. zeroing the retailer's gradient in its own variables gives its best
   response, an affine map y*(x) = y0 + K (x - x0) of the leader's variables;
2. with Q = [I; K], the manufacturer's reduced profit has gradient
   Q^T grad pi_m and Hessian Q^T H_m Q; a Hessian of either stage that is not
   negative definite raises NonConcave;
3. the solve steps from the box centre to where both first-order conditions
   hold, identifies the game again there and takes one clean-up step; a step
   that lands outside the box or on its edge raises BoxBoundary.

The stationarity residuals and the second-order checks identify the game
once at the point, the MR certification once per demand variant. A
quadratic has at most one stationary point, so negative-definite Hessians at
both stages also decide uniqueness; no restarts are needed.

``monte_carlo_demand`` simulates the discrete-choice model directly from the
utility definitions and fixed tie-breaking rules, providing the independent
check on the closed-form segment masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import market
from .errors import BoxBoundary, NonConcave, OutOfDomain
from .market import DemandProfile, Equilibrium, MrDemandVariant, make_equilibrium, model_of
from .params import ALL_DECISION_FIELDS, PLAYER_FIELDS, DecisionSet, ModelId, Params

#: The game's own poles in alpha: the roots of the common denominators of its
#: equilibria, alpha - 4 (M), 9 alpha - 2 (R) and 2 alpha^2 - 15 alpha + 4 (MR).
#: The published MR expressions put theirs elsewhere; the oracle never reads those.
_POLES = {ModelId.M: (4.0,), ModelId.R: (2.0 / 9.0,),
          ModelId.MR: ((15.0 - math.sqrt(193.0)) / 4.0, (15.0 + math.sqrt(193.0)) / 4.0)}


def _pole_distance(model: ModelId, alpha: float) -> float:
    """Distance from alpha to the nearest pole of the model's game."""
    return min(abs(alpha - pole) for pole in _POLES[model])


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


@dataclass(frozen=True)
class OracleConfig:
    """Search box and seed of the numeric solver.

    Parameters
    ----------
    leader_box : mapping of variable name to (lo, hi), optional
        Search intervals; the solver raises ``BoxBoundary`` rather than
        silently truncating when the optimum lies on or beyond an edge.
        The difference stencil starts at the box centre and steps 1/8 of
        each interval's width. None (the default) derives the box from the
        parameters via :func:`default_leader_box`; a variable the mapping
        leaves out, such as a follower's, takes its default interval.
    seed : int
        Recorded in :meth:`as_dict` only: the solver draws nothing random.
    """

    leader_box: Mapping[str, tuple[float, float]] | None = None
    seed: int = 0

    def box(self, name: str, params: Params) -> tuple[float, float]:
        box = self.leader_box or {}
        return tuple(box[name]) if name in box else default_leader_box(params)[name]

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
    definite iff all of its eigenvalues are below -1e-9 times the largest
    eigenvalue magnitude, the rule the solver applies too.
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


def _negative_definite(eigs: np.ndarray) -> bool:
    """The oracle's one concavity rule: every eigenvalue below -1e-9 * max|eig|."""
    return bool(np.all(eigs < -1e-9 * np.max(np.abs(eigs))))


#: Stencil step as a share of each variable's box width (0.5 on [-1, 3]): any
#: step is exact on a quadratic, one scaled to the box keeps roundoff small.
_STENCIL_SHARE = 0.125
#: Largest ratio max|profit| / max|second difference| on a stencil at which
#: it still resolves the curvature: the roundoff of a difference,
#: eps * max|profit|, stays below 1e-6 of the largest one.
_RESOLVABLE = 1e-6 / float(np.finfo(float).eps)


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


@dataclass(frozen=True)
class _Game:
    """Both players' exact quadratic profits around ``z0`` (leader's variables first).

    ``values``, ``grad`` and ``hess`` hold (pi_m, pi_r) and their gradients
    and Hessians at z0. The retailer's best response is
    y*(x) = z0_f + shift + K (x - z0_l), with Q = [I; K] and the eigenvalues
    ``follower_eigs`` of its Hessian in its own variables.
    """

    k: int
    z0: np.ndarray
    values: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    shift: np.ndarray
    Q: np.ndarray
    follower_eigs: np.ndarray

    def response(self, x: np.ndarray) -> np.ndarray:
        """The retailer's best response to the leader point x."""
        return self.z0[self.k:] + self.shift + (x - self.z0[:self.k]) @ self.Q[self.k:].T

    def leader(self) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of the manufacturer's reduced profit at z0's
        leader point: Q^T grad pi_m, taken at the best response, and Q^T H_m Q."""
        grad = self.grad[0] + self.hess[0][:, self.k:] @ self.shift
        return self.Q.T @ grad, self.Q.T @ self.hess[0] @ self.Q

    def stationary_point(self) -> np.ndarray:
        """The point where both first-order conditions hold: the retailer's
        gradient in its own variables and the leader's Q^T grad pi_m vanish."""
        k, Q = self.k, self.Q
        jacobian = np.vstack([Q.T @ self.hess[0], self.hess[1, k:]])
        residual = np.concatenate([Q.T @ self.grad[0], self.grad[1, k:]])
        return self.z0 - np.linalg.solve(jacobian, residual)


def _identify(model: ModelId, params: Params, centre: DecisionSet | None = None,
              cfg: OracleConfig | None = None, variant=MrDemandVariant.ADOPTED) -> _Game:
    """Identify the game from one evaluation of both profits on one stencil.

    The stencil is centred at the decisions ``centre``, else at the centre
    of ``cfg``'s box, and steps 1/8 of each variable's box width. Central
    differences are exact on a quadratic up to roundoff. The retailer's best
    response has shift = -H_ff^-1 g_f and K = -H_ff^-1 H_fl. This is the
    only place the oracle evaluates a profit; ``variant`` matters for MR only.

    Raises OutOfDomain when a profit overflows on the stencil or its roundoff
    swamps the curvature, and NonConcave unless the retailer's Hessian in its
    own variables is negative definite (relative to its largest eigenvalue);
    that fails for model R at alpha <= 1/5 and for model MR at alpha <= 1/4.
    """
    leader, follower = PLAYER_FIELDS[model]
    k, n = len(leader), len(leader) + len(follower)
    cfg = cfg or OracleConfig()
    lo, hi = np.array([cfg.box(name, params) for name in leader + follower], dtype=float).T
    z0 = ((lo + hi) / 2.0 if centre is None
          else np.array([getattr(centre, name) for name in leader + follower], dtype=float))
    step = _STENCIL_SHARE * (hi - lo)
    offsets, i, j = _stencil(n)
    dec = dict.fromkeys(ALL_DECISION_FIELDS)
    with np.errstate(over="ignore", invalid="ignore"):
        dec.update(zip(leader + follower, (z0 + step * offsets).T))
        vals = np.array(market.profit_values(model, *dec.values(), params, variant))
    size = np.abs(vals).max(axis=1)
    if not np.all(np.isfinite(size)):
        raise OutOfDomain.single("profit", float(size.max()), "overflows on the difference stencil")
    plus, minus = vals[:, 1:1 + 2 * n:2], vals[:, 2:1 + 2 * n:2]
    hess = np.zeros((2, n, n))  # second differences first, in units of the step
    hess[:, range(n), range(n)] = plus - 2.0 * vals[:, :1] + minus
    pp, pm, mp, mm = vals[:, 1 + 2 * n:].reshape(2, -1, 4).transpose(2, 0, 1)
    hess[:, i, j] = hess[:, j, i] = (pp - pm - mp + mm) / 4.0
    if np.any(size / _RESOLVABLE > np.abs(hess).max(axis=(1, 2))):
        raise OutOfDomain.single("profit", float(size.max()),
                                 "too large to resolve its curvature with a difference "
                                 f"step of {_STENCIL_SHARE} of each box width")
    grad = (plus - minus) / (2.0 * step)
    hess /= np.outer(step, step)
    H_ff = hess[1, k:, k:]
    eigs = np.linalg.eigvalsh(H_ff)
    if not _negative_definite(eigs):
        raise NonConcave(
            f"retailer profit not concave in {', '.join(follower)}: "
            f"finite-difference Hessian eigenvalues {np.array2string(eigs, precision=4)}")
    response = -np.linalg.solve(H_ff, np.column_stack([grad[1, k:], hess[1, k:, :k]]))
    return _Game(k=k, z0=z0, values=vals[:, 0], grad=grad, hess=hess, shift=response[:, 0],
                 Q=np.vstack([np.eye(k), response[:, 1:]]), follower_eigs=eigs)


# bound by name in perfbench/tracer.py LAYERS
def best_response_retailer(model: ModelId, leader_vars: Mapping[str, float],
                           params: Params) -> dict[str, float]:
    """Maximize the retailer profit over the follower's variables.

    ``leader_vars`` must contain exactly the leader's variables for the
    model, those of ``params.PLAYER_FIELDS``; the retailer's profit is the
    same under both segment-3 variants. Raises NonConcave when the retailer
    objective has no interior maximum.
    """
    model = ModelId(model)
    leader, follower = PLAYER_FIELDS[model]
    if set(leader_vars) != set(leader):
        raise OutOfDomain.single("leader_vars", sorted(leader_vars),
                                 f"model {model.value} leader sets {sorted(leader)}")
    x = np.array([float(leader_vars[n]) for n in leader])
    y = _identify(model, params).response(x)
    return dict(zip(follower, map(float, y)))


def solve_stackelberg_numeric(model: ModelId, params: Params,
                              cfg: OracleConfig | None = None) -> Equilibrium:
    """Numeric Stackelberg equilibrium by backward induction.

    Both profits are exactly quadratic, so one identification at the centre
    of the search box and one linear solve of both players' first-order
    conditions land on the equilibrium; a second identification at that
    point and one clean-up solve remove the roundoff of the first.
    Deterministic for a fixed config.

    Raises
    ------
    BoxBoundary
        when either step lands outside the search box or on its edge.
    NonConcave
        when either stage's objective has no interior maximum.
    OutOfDomain
        when the parameters are so large that a profit overflows or its
        curvature is lost to roundoff.
    """
    model = ModelId(model)
    cfg = cfg or OracleConfig()
    leader, follower = PLAYER_FIELDS[model]
    decisions = None
    for _ in range(2):  # the Newton step, then the clean-up step
        game = _identify(model, params, decisions, cfg)
        eigs = np.linalg.eigvalsh(game.leader()[1])
        if not _negative_definite(eigs):
            raise NonConcave(
                "leader reduced profit not concave: finite-difference Hessian "
                f"eigenvalues {np.array2string(eigs, precision=4)}")
        point = dict(zip(leader + follower, map(float, game.stationary_point())))
        for name in leader:
            lo, hi = cfg.box(name, params)
            edge = 1e-6 * max(1.0, hi - lo)
            if point[name] - lo <= edge or hi - point[name] <= edge:
                raise BoxBoundary(name, point[name], (lo, hi))
        decisions = DecisionSet(model=model, **point)
    return make_equilibrium(model, decisions, params, "numeric_oracle",
                            _pole_distance(model, params.alpha))


def check_soc(model: ModelId, eq: Equilibrium, params: Params) -> SocReport:
    """Second-order conditions at an equilibrium point.

    One identification at the point gives the follower's Hessian and the
    leader's reduced Hessian, each judged by the solver's concavity rule.
    Raises OutOfDomain unless ``model`` and ``params`` are the equilibrium's,
    and NonConcave when the retailer has no best response to substitute.
    """
    model = model_of(model, eq.decisions)
    if params != eq.params:
        raise OutOfDomain.single("params", params.as_dict(),
                                 f"the equilibrium is at {eq.params.as_dict()}")
    game = _identify(model, params, eq.decisions)
    eig_f, eig_l = game.follower_eigs, np.linalg.eigvalsh(game.leader()[1])
    return SocReport(
        follower_hessian_eigs=tuple(float(e) for e in eig_f),
        leader_reduced_hessian_eigs=tuple(float(e) for e in eig_l),
        follower_negative_definite=_negative_definite(eig_f),
        leader_negative_definite=_negative_definite(eig_l),
    )


@dataclass(frozen=True)
class MonteCarloDemand:
    """Empirical segment shares with binomial standard errors."""

    shares: DemandProfile
    stderr: DemandProfile
    n: int
    seed: int


#: Pairs per seeded substream, and pairs drawn and classified at once. The
#: block divides the chunk; its workspace (draws 256 KiB, utilities 2 x 128
#: KiB, masks 5 x 16 KiB) stays within a core's L2 cache for any n. A block
#: of 2^13 pairs runs slower: per-block call overhead outweighs the cache.
_MC_CHUNK = 1 << 18
_MC_BLOCK = _MC_CHUNK >> 4


def seeded_generator(seed: int, *spawn_key: int) -> np.random.Generator:
    """PCG64 on ``SeedSequence(seed, spawn_key=spawn_key)``; OutOfDomain if seed < 0."""
    if seed < 0:
        raise OutOfDomain.single("seed", seed, "must be >= 0")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def monte_carlo_demand(model: ModelId, decisions: DecisionSet, params: Params,
                       n: int, seed: int) -> MonteCarloDemand:
    """Simulate the discrete-choice model on n iid (v, u) ~ Uniform[0,1]^2 pairs.

    Choices follow the utility argmax with participation at zero utility and
    the fixed tie-breaks (direct channel, manufacturer subsidy). Pair i is
    draw i mod 2^18 of the substream seeded by (seed, i // 2^18), so
    (seed, n) fixes every draw; the substream is drawn in blocks of
    ``_MC_BLOCK`` pairs, which moves no draw, and every block is drawn and
    classified in one workspace allocated per call (sliced for a partial
    last block). Raises OutOfDomain for n < 1, a negative seed, or a
    ``model`` that is not the decisions' own.
    """
    if n < 1:
        raise OutOfDomain.single("n", n, "must be >= 1")
    model_of(model, decisions)
    size = min(_MC_BLOCK, n)
    draws, (utils, flags) = np.empty((size, 2)), market.choice_workspace(size)
    counts = [0] * 4
    for start in range(0, n, _MC_BLOCK):
        if start % _MC_CHUNK == 0:
            rng = seeded_generator(seed, start // _MC_CHUNK)
        m = min(_MC_BLOCK, n - start)
        rng.random(out=draws[:m])
        masks = market.choice_masks(decisions, draws[:m, 0], draws[:m, 1], params,
                                    out=(utils[:, :m], flags[:, :m]))
        counts = [c + int(np.count_nonzero(mask)) for c, mask in zip(counts, masks)
                  if mask is not None]
    shares = [c / n for c in counts]
    stderr = [math.sqrt(max(p * (1.0 - p), 0.0) / n) for p in shares]
    return MonteCarloDemand(shares=DemandProfile(*shares), stderr=DemandProfile(*stderr),
                            n=n, seed=seed)


def stationarity_residuals(model: ModelId, decisions: DecisionSet,
                           params: Params) -> dict[str, float]:
    """Scaled first-order residuals of a candidate equilibrium point.

    Partials of the retailer profit in the follower's variables and of the
    leader's reduced profit (follower at its best response) in the leader's
    variables, divided by max(1, |profit|) at the point; one identification
    at the point gives all of them. All residuals vanish at a true interior
    Stackelberg solution. Raises OutOfDomain for another model than the
    decisions', and NonConcave when the retailer has no best response.
    """
    model = model_of(model, decisions)
    return _residuals(model, _identify(model, params, decisions))


def _residuals(model: ModelId, game: _Game) -> dict[str, float]:
    leader, follower = PLAYER_FIELDS[model]
    scale_m, scale_r = (max(1.0, abs(float(v))) for v in game.values)
    out = {f"follower:{n}": abs(float(g)) / scale_r
           for n, g in zip(follower, game.grad[1, game.k:])}
    out.update({f"leader:{n}": abs(float(g)) / scale_m
                for n, g in zip(leader, game.leader()[0])})
    return out


#: Residual threshold below which a candidate point counts as stationary.
STATIONARITY_TOL = 1e-6


def certify_mr_variant(decisions: DecisionSet, params: Params) -> str:
    """Which segment-3 demand variant, if any, makes an MR point stationary.

    Returns "adopted", "as_printed", "both", or "none"; or, where no
    Stackelberg point exists to certify against, "follower_non_concave"
    (alpha <= 1/4) or "leader_non_concave" (the leader's reduced profit
    under the adopted variant is not concave, alpha up to 0.27689). The
    verdict is a deterministic function of (decisions, params); it takes
    one identification per variant. Raises OutOfDomain for decisions of
    another model.
    """
    model_of(ModelId.MR, decisions)
    passing = []
    for variant in (MrDemandVariant.ADOPTED, MrDemandVariant.AS_PRINTED):
        try:
            game = _identify(ModelId.MR, params, decisions, variant=variant)
        except NonConcave:
            return "follower_non_concave"
        if variant is MrDemandVariant.ADOPTED and not _negative_definite(
                np.linalg.eigvalsh(game.leader()[1])):
            return "leader_non_concave"
        if max(_residuals(ModelId.MR, game).values()) <= STATIONARITY_TOL:
            passing.append(variant.value)
    if not passing:
        return "none"
    return "both" if len(passing) == 2 else passing[0]


#: Consecutive guard-band rejections after which ``sample_params`` gives up.
_MAX_REJECTIONS = 100_000


def sample_params(n: int, seed: int, alpha_range: tuple[float, float] = (0.3, 0.95),
                  c_m_range: tuple[float, float] = (0.05, 0.95),
                  s_max: float = 0.3, guard_band: float = 0.01) -> list[Params]:
    """Seeded random admissible parameter draws for verification protocols.

    alpha is uniform on ``alpha_range`` excluding ``guard_band``-wide bands
    around the game's poles, 2/9 for R and (15 +- sqrt(193))/4 for MR (those
    in (0, 1), 2/9 and ~0.27689, are where R and MR start to have an
    equilibrium). c_m is uniform on ``c_m_range``, c_r uniform on (0, c_m),
    s uniform on [0, s_max]. Deterministic given (n, seed). Raises
    OutOfDomain for a negative seed, or when ``alpha_range`` has no
    admissible mass, detected as 100,000 consecutive draws inside the guard
    bands.
    """
    rng = seeded_generator(seed)
    out = []
    rejected = 0
    while len(out) < n:
        alpha = float(rng.uniform(*alpha_range))
        if any(_pole_distance(m, alpha) < guard_band for m in (ModelId.R, ModelId.MR)):
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
