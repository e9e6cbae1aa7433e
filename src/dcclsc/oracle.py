"""Numeric ground truth: backward-induction Stackelberg solver and choice simulation.

Nothing in this module evaluates the closed-form equilibrium expressions or
reads their poles: the singularity distance of a numeric equilibrium uses
the game's own poles (``_POLES``).
Segment masses enter the profits unclamped, so both players' profits are
exactly quadratic in the decisions, and one call of the profit kernel on one
central-difference stencil over all of the model's decisions identifies the
game: both profits' exact gradients and Hessians. The stencil is centred at
a given point or in a box (``_bounds``); its step is 1/8 of each variable's
box width or of the point's own magnitude, whichever is larger, so its
roundoff keeps to the decisions' scale at any cost level and near a pole.
The rest is linear algebra on that model:

1. zeroing the retailer's gradient in its own variables gives its best
   response, an affine map y*(x) = y0 + K (x - x0) of the leader's variables;
2. with Q = [I; K], the manufacturer's reduced profit has gradient
   Q^T grad pi_m and Hessian Q^T H_m Q; one record (``_Game``) holds both
   stages, and a stage that ``_negative_definite`` refuses raises NonConcave;
3. the solve steps from the box centre to where both first-order conditions
   hold, identifies the game again there and takes one clean-up step. The
   box bounds no answer: the profits are quadratic, so a step from anywhere
   lands on the stationary point.

The stationarity residuals and the second-order checks identify the game
once at the point, the MR certification once per demand variant. Each
model's stencil layout (``_layout``) is built once and reused by every
identification, and a solve or an MR certification reads its box once for
all of its identifications. A quadratic has at most one stationary point,
so negative-definite Hessians at both stages also decide uniqueness; no
restarts are needed.

``monte_carlo_demand`` simulates the discrete-choice model directly from the
utility definitions and fixed tie-breaking rules, providing the independent
check on the closed-form segment masses.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import market
from .errors import NonConcave, OutOfDomain, Violation
from .market import DemandProfile, Equilibrium, MrDemandVariant, make_equilibrium, model_of
from .params import (ALL_DECISION_FIELDS, PLAYER_FIELDS, DecisionSet, ModelId, Params,
                     is_finite_real, read_int, read_interval)

#: The game's own poles in alpha: the roots of the common denominators of its
#: equilibria, alpha - 4 (M), 9 alpha - 2 (R) and 2 alpha^2 - 15 alpha + 4 (MR).
#: The published MR expressions put theirs elsewhere; the oracle never reads those.
_POLES = {ModelId.M: (4.0,), ModelId.R: (2.0 / 9.0,),
          ModelId.MR: ((15.0 - math.sqrt(193.0)) / 4.0, (15.0 + math.sqrt(193.0)) / 4.0)}

#: Stencil step as a share of each variable's box width (0.5 on [-1, 3]) or of
#: the stencil centre's magnitude, whichever is larger: any step is exact on a
#: quadratic, one scaled to the box and the point keeps roundoff small.
_STENCIL_SHARE = 0.125


def _bounds(names: tuple[str, ...], params: Params,
            box: Mapping[str, tuple[float, float]] | None = None) -> np.ndarray:
    """(lo, hi) arrays of the named variables' box intervals.

    A variable that ``box`` (an ``OracleConfig.leader_box``) leaves out takes
    [-1, 3] scaled by (1 + c_m + s): equilibria grow with the unit cost and
    the government subsidy (the figure presets reach p_r above 16), and the
    first stencil's step keeps to their scale only if the box grows too.
    """
    scale = 1.0 + params.c_m + params.s
    default = (-1.0 * scale, 3.0 * scale)
    box = box or {}
    return np.array([box.get(name, default) for name in names], dtype=float).T


# bound by name in perfbench/workloads.py
@dataclass(frozen=True)
class OracleConfig:
    """An explicit box for one :func:`solve_stackelberg_numeric` call; the package builds none.

    Parameters
    ----------
    leader_box : mapping of variable name to (lo, hi), optional
        Intervals that set the first difference stencil only, centred in
        the box with a step of 1/8 of each interval's width, and bound no
        answer: the optimum may lie outside them. A variable the mapping
        leaves out, such as a follower's, takes its default interval.
        It must be a mapping, each name a decision variable and each
        interval one that ``read_interval`` reads and wide enough that its
        stencil step survives rounding at its centre; else one OutOfDomain
        names every bad name and interval.
    seed : int
        Read by ``read_int`` (>= 0) and never used: the solver draws
        nothing random.
    """

    leader_box: Mapping[str, tuple[float, float]] | None = None
    seed: int = 0

    def __post_init__(self):
        fields = vars(self)  # frozen refuses setattr, not a write to the instance dict
        fields["seed"] = read_int("seed", self.seed, 0)
        if self.leader_box is not None:
            fields["leader_box"] = _read_box(self.leader_box)


def _read_box(box) -> dict[str, tuple[float, float]]:
    """``box`` with float intervals; OutOfDomain naming each unknown name and bad interval."""
    if not isinstance(box, Mapping):
        raise OutOfDomain.single("leader_box", box, "must be a mapping of name to (lo, hi)")
    bad, out = [], {}
    for name, interval in box.items():
        if name not in ALL_DECISION_FIELDS:
            bad.append(Violation("leader_box", name,
                                 "expected one of " + ", ".join(ALL_DECISION_FIELDS)))
            continue
        try:
            lo, hi = out[name] = read_interval(name, interval)
        except OutOfDomain as exc:
            bad.extend(exc.violations)
            continue
        centre, step = lo / 2.0 + hi / 2.0, _STENCIL_SHARE * (hi - lo)
        if centre + step == centre or centre - step == centre:
            bad.append(Violation(name, interval, "too narrow: a stencil step of "
                                 f"{_STENCIL_SHARE} of its width is lost to rounding at its centre"))
    if bad:
        raise OutOfDomain(bad)
    return out


@dataclass(frozen=True)
class SocReport:
    """Second-order-condition check of one equilibrium point.

    Carries central-difference Hessian eigenvalues of the follower profit in
    the follower variables and of the leader's reduced profit (follower
    substituted) in the leader variables, each stage judged by the solver's
    concavity rule, ``_negative_definite``.
    """

    follower_hessian_eigs: tuple[float, ...]
    leader_reduced_hessian_eigs: tuple[float, ...]
    follower_negative_definite: bool
    leader_negative_definite: bool

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}


def _negative_definite(eigs: np.ndarray) -> bool:
    """The oracle's one concavity rule: every eigenvalue below -1e-9 * max|eig|."""
    return bool((eigs < -1e-9 * np.abs(eigs).max()).all())


#: Largest ratio max|profit| / max|second difference| on a stencil at which
#: it still resolves the curvature: the roundoff of a difference,
#: eps * max|profit|, stays below 1e-6 of the largest one.
_RESOLVABLE = 1e-6 / float(np.finfo(float).eps)


@dataclass(frozen=True)
class _Layout:
    """One model's stencil layout, built once per model by ``_layout``; arrays read-only.

    ``offsets``: the unit central-difference stencil over ``names`` (leader's
    first): the origin, +e_i and -e_i for each i, then e_i + e_j, e_i - e_j,
    -e_i + e_j and -e_i - e_j for each pair (``i``, ``j``), i < j. ``diag``
    indexes the Hessian's diagonal, ``eye`` is Q's leader block, and
    ``slots`` maps each ``profit_values`` decision to its column, or None.
    """

    leader: tuple[str, ...]
    follower: tuple[str, ...]
    names: tuple[str, ...]
    offsets: np.ndarray
    i: np.ndarray
    j: np.ndarray
    diag: np.ndarray
    eye: np.ndarray
    slots: tuple[int | None, ...]


@lru_cache(maxsize=None)
def _layout(model: ModelId) -> _Layout:
    leader, follower = PLAYER_FIELDS[model]
    names = leader + follower
    n = len(names)
    unit = np.eye(n)
    i, j = np.triu_indices(n, 1)
    axes = np.stack([unit, -unit], axis=1).reshape(-1, n)
    corners = np.stack([unit[i] + unit[j], unit[i] - unit[j], -unit[i] + unit[j],
                        -unit[i] - unit[j]], axis=1).reshape(-1, n)
    layout = _Layout(leader, follower, names, np.concatenate([np.zeros((1, n)), axes, corners]),
                     i, j, np.arange(n), np.eye(len(leader)),
                     tuple(names.index(f) if f in names else None for f in ALL_DECISION_FIELDS))
    for array in (layout.offsets, i, j, layout.diag, layout.eye):
        array.flags.writeable = False
    return layout


@dataclass(frozen=True)
class _Game:
    """Both players' exact quadratic profits around ``z0`` (leader's variables first).

    ``values``, ``grad`` and ``hess`` hold (pi_m, pi_r) and their gradients
    and Hessians at z0. The retailer's best response is
    y*(x) = z0_f + shift + K (x - z0_l), with Q = [I; K] and the eigenvalues
    ``follower_eigs`` of its Hessian in its own variables. The leader's
    reduced profit has gradient ``leader_grad`` (Q^T grad pi_m, taken at the
    best response) and Hessian ``leader_hess`` (Q^T H_m Q).
    """

    leader: tuple[str, ...]
    follower: tuple[str, ...]
    z0: np.ndarray
    values: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    shift: np.ndarray
    Q: np.ndarray
    follower_eigs: np.ndarray
    leader_grad: np.ndarray
    leader_hess: np.ndarray

    @cached_property
    def leader_eigs(self) -> np.ndarray:
        """Eigenvalues of ``leader_hess``, computed when a verdict first reads them."""
        return np.linalg.eigvalsh(self.leader_hess)

    def response(self, x: np.ndarray) -> np.ndarray:
        """The retailer's best response to the leader point x."""
        k = len(self.leader)
        return self.z0[k:] + self.shift + (x - self.z0[:k]) @ self.Q[k:].T

    def stationary_point(self) -> np.ndarray:
        """The point where both first-order conditions hold: the retailer's
        gradient in its own variables and the leader's Q^T grad pi_m vanish."""
        k, Q = len(self.leader), self.Q
        jacobian = np.concatenate([Q.T @ self.hess[0], self.hess[1, k:]])
        residual = np.concatenate([Q.T @ self.grad[0], self.grad[1, k:]])
        return self.z0 - np.linalg.solve(jacobian, residual)


def _identify(model: ModelId, params: Params, centre: DecisionSet | None = None,
              box: np.ndarray | None = None, variant=MrDemandVariant.ADOPTED) -> _Game:
    """Identify the game from one evaluation of both profits on one stencil.

    ``box`` is the (lo, hi) arrays of the model's decisions, leader's first,
    as ``_bounds`` reads them; None reads the default intervals. A caller
    that identifies more than once reads its box once and passes it.
    The stencil is centred at the decisions ``centre``, else at the box's
    centre, z0, and steps 1/8 of max(box width, |z0|) in each variable, so
    the step grows with a point far out near a pole; its layout comes
    from ``_layout``, built once per model. Central differences are exact on
    a quadratic up to roundoff. The retailer's best response has
    shift = -H_ff^-1 g_f and K = -H_ff^-1 H_fl. This is the only place the
    oracle evaluates a profit; ``variant`` matters for MR only.

    Raises OutOfDomain when a profit, or a difference or gradient of the
    profits, overflows on the stencil or the profits' roundoff swamps the
    curvature, and NonConcave unless the retailer's Hessian in its own
    variables is negative definite (relative to its largest eigenvalue);
    that fails for model R at alpha <= 1/5 and for model MR at alpha <= 1/4.
    """
    layout = _layout(model)
    k, n, diag, i, j = len(layout.leader), len(layout.names), layout.diag, layout.i, layout.j
    lo, hi = _bounds(layout.names, params) if box is None else box
    z0 = (lo / 2.0 + hi / 2.0 if centre is None
          else np.array([getattr(centre, name) for name in layout.names], dtype=float))
    step = _STENCIL_SHARE * np.maximum(hi - lo, np.abs(z0))
    with np.errstate(over="ignore", invalid="ignore"):
        points = (z0 + step * layout.offsets).T
        vals = np.array(market.profit_values(
            model, *(None if slot is None else points[slot] for slot in layout.slots),
            params, variant))
        plus, minus = vals[:, 1:1 + 2 * n:2], vals[:, 2:1 + 2 * n:2]
        hess = np.zeros((2, n, n))  # second differences first, in units of the step
        hess[:, diag, diag] = plus - 2.0 * vals[:, :1] + minus
        pp, pm, mp, mm = vals[:, 1 + 2 * n:].reshape(2, -1, 4).transpose(2, 0, 1)
        hess[:, i, j] = hess[:, j, i] = (pp - pm - mp + mm) / 4.0
        grad = (plus - minus) / (2.0 * step)
    size, curvature = np.abs(vals).max(axis=1), np.abs(hess).max(axis=(1, 2))
    # every stencil value enters a second difference, so this also covers the profits
    if not (np.isfinite(curvature).all() and np.isfinite(grad).all()):
        raise OutOfDomain.single("profit", float(size.max()), "overflows on the difference stencil")
    if (size / _RESOLVABLE > curvature).any():
        raise OutOfDomain.single("profit", float(size.max()),
                                 "too large to resolve its curvature with a difference "
                                 f"step of {_STENCIL_SHARE} of each box width or |decision|")
    hess /= step[:, None] * step
    H_ff = hess[1, k:, k:]
    eigs = np.linalg.eigvalsh(H_ff)
    if not _negative_definite(eigs):
        raise NonConcave(
            f"retailer profit not concave in {', '.join(layout.follower)}: "
            f"finite-difference Hessian eigenvalues {np.array2string(eigs, precision=4)}")
    response = -np.linalg.solve(H_ff, np.concatenate([grad[1, k:, None], hess[1, k:, :k]], axis=1))
    shift, Q = response[:, 0], np.concatenate([layout.eye, response[:, 1:]])
    return _Game(leader=layout.leader, follower=layout.follower, z0=z0, values=vals[:, 0],
                 grad=grad, hess=hess, shift=shift, Q=Q, follower_eigs=eigs,
                 leader_grad=Q.T @ (grad[0] + hess[0][:, k:] @ shift),
                 leader_hess=Q.T @ hess[0] @ Q)


# bound by name in perfbench/tracer.py LAYERS
def best_response_retailer(model: ModelId, leader_vars: Mapping[str, float],
                           params: Params) -> dict[str, float]:
    """Maximize the retailer profit over the follower's variables.

    ``leader_vars`` must be a mapping of exactly the leader's variables for
    the model, those of ``params.PLAYER_FIELDS``, each a finite real; one
    OutOfDomain names every value that is not. The retailer's profit is the
    same under both segment-3 variants. Raises NonConcave when the retailer
    objective has no interior maximum.
    """
    model = ModelId(model)
    leader, follower = PLAYER_FIELDS[model]
    if not isinstance(leader_vars, Mapping):
        raise OutOfDomain.single("leader_vars", leader_vars, "must be a mapping of name to value")
    if set(leader_vars) != set(leader):
        raise OutOfDomain.single("leader_vars", sorted(leader_vars),
                                 f"model {model.value} leader sets {sorted(leader)}")
    bad = [Violation(n, leader_vars[n], "must be a finite real") for n in leader
           if not is_finite_real(leader_vars[n])]
    if bad:
        raise OutOfDomain(bad)
    x = np.array([leader_vars[n] for n in leader], dtype=float)
    y = _identify(model, params).response(x)
    return dict(zip(follower, map(float, y)))


def solve_stackelberg_numeric(model: ModelId, params: Params,
                              cfg: OracleConfig | None = None) -> Equilibrium:
    """Numeric Stackelberg equilibrium by backward induction.

    Both profits are exactly quadratic, so one identification at the centre
    of a box and one linear solve of both players' first-order conditions
    land on the equilibrium; a second identification at that point and one
    clean-up solve remove the roundoff of the first. Deterministic for a
    fixed ``cfg``; only an explicit one (an :class:`OracleConfig`) sets
    another box than the default. The box bounds no answer: just above a
    pole (2/9 for R, 0.276889 for MR) the optimum lies far outside it and
    is returned, and from about 1e-10 above it the leader's concavity rule
    refuses it (NonConcave).

    Raises
    ------
    NonConcave
        when either stage's objective has no interior maximum.
    OutOfDomain
        when ``cfg`` is neither None nor an OracleConfig, or the parameters
        are so large that a profit overflows or its curvature is lost to
        roundoff.
    """
    model = ModelId(model)
    if cfg is not None and not isinstance(cfg, OracleConfig):
        raise OutOfDomain.single("cfg", cfg, "must be None or an OracleConfig")
    layout = _layout(model)
    box = _bounds(layout.names, params, None if cfg is None else cfg.leader_box)  # read once
    decisions = None
    for _ in range(2):  # the Newton step, then the clean-up step
        game = _identify(model, params, decisions, box)
        if not _negative_definite(game.leader_eigs):
            raise NonConcave(
                "leader reduced profit not concave: finite-difference Hessian "
                f"eigenvalues {np.array2string(game.leader_eigs, precision=4)}")
        decisions = DecisionSet(model=model, **dict(zip(layout.names, game.stationary_point())))
    return make_equilibrium(model, decisions, params, "numeric_oracle",
                            min(abs(params.alpha - pole) for pole in _POLES[model]))


def check_soc(model: ModelId, eq: Equilibrium, params: Params) -> SocReport:
    """Second-order conditions at an equilibrium point.

    One identification at the point gives the follower's Hessian and the
    leader's reduced Hessian, each judged by the solver's concavity rule.
    Raises OutOfDomain unless ``model`` and ``params`` are the equilibrium's,
    and NonConcave when the retailer has no best response to substitute.
    """
    model = model_of(model, eq.decisions)
    if params != eq.params:
        shown = params.as_dict() if isinstance(params, Params) else params
        raise OutOfDomain.single("params", shown, f"the equilibrium is at {eq.params.as_dict()}")
    game = _identify(model, params, eq.decisions)
    eig_f, eig_l = game.follower_eigs, game.leader_eigs
    return SocReport(tuple(map(float, eig_f)), tuple(map(float, eig_l)),
                     _negative_definite(eig_f), _negative_definite(eig_l))


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
    """PCG64 on ``SeedSequence(seed, spawn_key=spawn_key)``, ``seed`` read by ``read_int``."""
    seed = read_int("seed", seed, 0)
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
    last block). Raises OutOfDomain for an ``n`` (>= 1) or ``seed`` (>= 0)
    that ``read_int`` refuses, or a ``model`` that is not the decisions' own.
    """
    n, seed = read_int("n", n, 1), read_int("seed", seed, 0)
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
    stderr = [math.sqrt(p * (1.0 - p) / n) for p in shares]
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
    return _residuals(_identify(model, params, decisions))


def _residuals(game: _Game) -> dict[str, float]:
    scale_m, scale_r = (max(1.0, abs(float(v))) for v in game.values)
    out = {f"follower:{n}": abs(float(g)) / scale_r
           for n, g in zip(game.follower, game.grad[1, len(game.leader):])}
    out.update({f"leader:{n}": abs(float(g)) / scale_m
                for n, g in zip(game.leader, game.leader_grad)})
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
    box = _bounds(_layout(ModelId.MR).names, params)  # read once, for both variants
    passing = []
    for variant in (MrDemandVariant.ADOPTED, MrDemandVariant.AS_PRINTED):
        try:
            game = _identify(ModelId.MR, params, decisions, box, variant)
        except NonConcave:
            return "follower_non_concave"
        if variant is MrDemandVariant.ADOPTED and not _negative_definite(game.leader_eigs):
            return "leader_non_concave"
        if max(_residuals(game).values()) <= STATIONARITY_TOL:
            passing.append(variant.value)
    if not passing:
        return "none"
    return "both" if len(passing) == 2 else passing[0]


def sample_params(n: int, seed: int,
                  c_m_range: tuple[float, float] = (0.05, 0.95)) -> list[Params]:
    """Seeded random admissible parameter draws for verification protocols.

    alpha is uniform on (0.3, 0.95), above the game's poles in (0, 1), 2/9
    (R) and (15 - sqrt(193))/4 ~ 0.27689 (MR), where R and MR start to have
    an equilibrium. c_m is uniform on ``c_m_range``, c_r uniform on
    (0.05 c_m, 0.95 c_m), s uniform on [0, 0.3]. Deterministic given
    (n, seed). Raises OutOfDomain for an ``n`` (>= 1) or ``seed`` (>= 0)
    that ``read_int`` refuses, or a ``c_m_range`` that ``read_interval``
    refuses as an interval of positive costs.
    """
    n, rng = read_int("n", n, 1), seeded_generator(seed)
    c_m_range = read_interval("c_m_range", c_m_range, positive=True)
    draws = [(rng.uniform(0.3, 0.95), rng.uniform(*c_m_range), rng.uniform(0.05, 0.95),
              rng.uniform(0.0, 0.3)) for _ in range(n)]
    return [Params(alpha=alpha, c_m=c_m, c_r=c_m * share, s=s) for alpha, c_m, share, s in draws]
