"""Numeric ground truth: backward-induction Stackelberg solver and choice simulation.

Nothing in this module evaluates the closed-form equilibrium expressions or
reads their poles: the singularity distance of a numeric equilibrium uses
the game's own poles (``_POLES``).

Segment masses enter the profits unclamped, so each profit term is an
affine margin times an affine mass (``market.profit_parts``), and both
profits are exactly quadratic; ``_identify`` reads them from the parts at
n + 2 points, with no step, box or cost scale. Gaussian elimination without
row swaps (``_eliminate``) does the rest:

1. zeroing the retailer's gradient in its own variables gives its best
   response, an affine map y*(x) = y0 + K x of the leader's variables;
2. with Q = [I; K], zeroing the leader's reduced gradient Q^T grad pi_m,
   with Hessian Q^T H_m Q, gives the leader's decisions.

Each elimination's pivots are its stage's concavity verdict, and a stage
that fails raises NonConcave; a quadratic has at most one stationary point,
so both stages negative definite also decide uniqueness. The same code runs
on floats and on Fractions (``stackelberg_decisions``, an exact solve on a
``Primitives`` of Fractions). A solve, the residuals and the second-order
checks identify the game once, the MR certification once per demand
variant; only ``check_soc`` calls LAPACK, for its diagnostic eigenvalues.

``monte_carlo_demand`` simulates the discrete-choice model directly from the
utility definitions and fixed tie-breaking rules, providing the independent
check on the closed-form segment masses.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from types import SimpleNamespace

import numpy as np

from . import market
from .errors import NonConcave, OutOfDomain, Violation
from .market import DemandProfile, Equilibrium, MrDemandVariant, make_equilibrium, model_of
from .params import (ALL_DECISION_FIELDS, PLAYER_FIELDS, DecisionSet, ModelId, Params,
                     Primitives, is_finite_real, read_int, read_interval, read_params)

#: The game's own poles in alpha: the roots of the common denominators of its
#: equilibria, alpha - 4 (M), 9 alpha - 2 (R) and 2 alpha^2 - 15 alpha + 4 (MR).
#: The published MR expressions put theirs elsewhere; the oracle never reads those.
_POLES = {ModelId.M: (4.0,), ModelId.R: (2.0 / 9.0,),
          ModelId.MR: ((15.0 - math.sqrt(193.0)) / 4.0, (15.0 + math.sqrt(193.0)) / 4.0)}

# bound by name in perfbench/workloads.py
@dataclass(frozen=True)
class OracleConfig:
    """An explicit box for one :func:`solve_stackelberg_numeric` call, which reads none.

    Only the benchmark builds one. ``leader_box`` must be a mapping, each name
    a decision variable and each interval one that ``read_interval`` reads
    and wide enough that 1/8 of its width survives rounding at its centre;
    else one OutOfDomain names every bad name and interval. ``seed`` is read
    by ``read_int`` (>= 0) and never used.
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
        centre, step = lo / 2.0 + hi / 2.0, (hi - lo) / 8.0
        if centre + step == centre or centre - step == centre:
            bad.append(Violation(name, interval, "too narrow: a stencil step of "
                                 "0.125 of its width is lost to rounding at its centre"))
    if bad:
        raise OutOfDomain(bad)
    return out


@dataclass(frozen=True)
class SocReport:
    """Second-order check of one equilibrium point: the pivot rule's verdicts
    (``_eliminate``) on the follower's Hessian in its own variables and on the
    leader's reduced Hessian, and the same Hessians' eigenvalues as diagnostics."""

    follower_hessian_eigs: tuple[float, ...]
    leader_reduced_hessian_eigs: tuple[float, ...]
    follower_negative_definite: bool
    leader_negative_definite: bool

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}


#: On floats every pivot must lie below -_PIVOT_SHARE * max |A_ij|. The
#: answer's relative roundoff grows like eps * max |A_ij| / |pivot|, so this
#: keeps it near 2e-8; the leader's last pivot crosses it between 1e-9 and
#: 1e-10 above the R and MR poles.
_PIVOT_SHARE = 1e-8


def _eliminate(A: list, B: list) -> tuple[list | None, list]:
    """(X, pivots): X solves A X = B by Gauss-Jordan elimination without row swaps.

    A (a symmetric Hessian) and B are lists of rows, of floats or of
    Fractions. A is negative definite iff every pivot is negative (Sylvester);
    on floats each must lie below -``_PIVOT_SHARE`` * max |A_ij|, a scale no
    eigenvalue exceeds by more than the order of A. X is None at the first
    pivot that fails.
    """
    rows = [a + b for a, b in zip(A, B)]
    scale = max(map(abs, chain.from_iterable(A)))
    bound = 0 if isinstance(scale, Fraction) else -_PIVOT_SHARE * scale
    pivots = []
    for i, row in enumerate(rows):
        pivots.append(row[i])
        if not row[i] < bound:
            return None, pivots
        for other in rows:
            if other is not row and other[i]:
                factor = other[i] / row[i]
                other[i:] = [x - factor * y for x, y in zip(other[i:], row[i:])]
    return [[x / row[i] for x in row[len(rows):]] for i, row in enumerate(rows)], pivots


def _non_concave(stage: str, pivots: list) -> NonConcave:
    shown = ", ".join(f"{float(p):.4g}" for p in pivots)
    return NonConcave(f"{stage} not concave: its Hessian's eigenvalues are not all negative "
                      f"(elimination pivots [{shown}])")


@dataclass(frozen=True)
class _Game:
    """Both players' quadratic profits at decisions 0, leader's variables first.

    ``values`` (2,), ``grad`` (2, n) and ``hess`` (2, n, n) hold (pi_m, pi_r)
    and their gradients and Hessians, arrays of floats or of Fractions
    (dtype object). The retailer's best response is y*(x) = shift + K x.
    """

    leader: tuple[str, ...]
    follower: tuple[str, ...]
    values: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    shift: np.ndarray
    K: np.ndarray

    @cached_property
    def leader_system(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, c): the leader's reduced Hessian Q^T H_m Q and gradient at x = 0, Q = [I; K]."""
        k, H, K = len(self.leader), self.hess[0], self.K
        HQ, u = H[:, :k] + H[:, k:] @ K, self.grad[0] + H[:, k:] @ self.shift
        return HQ[:k] + K.T @ HQ[k:], u[:k] + K.T @ u[k:]

    def leader_point(self) -> tuple[np.ndarray | None, list]:
        """(the leader's stationary decisions, or None where a pivot fails; the pivots)."""
        L, c = self.leader_system
        x, pivots = _eliminate(L.tolist(), (-c[:, None]).tolist())
        return (None if x is None else np.array(x, L.dtype)[:, 0]), pivots

    def at(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, gradients) of (pi_m, pi_r) at z. OutOfDomain unless the sum of
        the quadratic forms' term magnitudes there is finite, which bounds every
        partial sum of any evaluation of them."""
        with np.errstate(over="ignore", invalid="ignore"):
            grads = self.grad + self.hess @ z
            values = self.values + (self.grad + grads) @ z / 2
            size = abs(self.values) + abs(self.grad) @ abs(z) + abs(z) @ abs(self.hess) @ abs(z)
        if not size.max() < math.inf:
            raise OutOfDomain.single("profit", float(max(size)),
                                     "overflows in the game's quadratic form at the point")
        return values, grads


@lru_cache(maxsize=None)
def _design(model: ModelId, dtype: type):
    """``_identify``'s read-only constants: points, cost factors, payers."""
    names = sum(PLAYER_FIELDS[model], ())
    unit = np.eye(len(names) + 2, dtype=dtype)
    payers = unit[:2, :2][[payer for _, _, payer, _ in market.PROFIT_TERMS[model]]]
    unit.flags.writeable = payers.flags.writeable = False
    points = SimpleNamespace(**{**dict.fromkeys(ALL_DECISION_FIELDS), **dict(zip(names, unit[2:]))})
    return points, unit[0], payers


def _identify(model: ModelId, params, variant=MrDemandVariant.ADOPTED) -> _Game:
    """Identify the game from one call of ``market.profit_parts`` on n + 2 points.

    ``params`` is a primitive record of floats or of Fractions. Point 0, the
    decisions 0 with its costs, gives each term's constants a0 and b0; point
    1 (0) and point 2 + i (e_i), both with c_m = delta = s = 0, give its
    slopes a and b, which read alpha only. The term a0 b0 + (a0 b + b0 a).z +
    z.(a b^T).z adds to its payer's profit. Raises OutOfDomain when a value or
    gradient at 0 overflows, and NonConcave unless the retailer's Hessian in
    its own variables is negative definite (R: alpha > 1/5, MR: alpha > 1/4).
    """
    leader, follower = PLAYER_FIELDS[model]
    k, dtype = len(leader), float if isinstance(params.alpha, float) else object
    points, costs, payers = _design(model, dtype)
    record = Primitives(params.alpha, params.c_m * costs, params.delta * costs, params.s * costs)
    with np.errstate(over="ignore", invalid="ignore"):
        parts = market.profit_parts(model, points, record, variant)
        margin, mass = (np.array([part[i] for part in parts]) for i in (0, 1))
        a, b = margin[:, 2:] - margin[:, 1:2], mass[:, 2:] - mass[:, 1:2]
        values = (margin[:, 0] * mass[:, 0]) @ payers
        grad = payers.T @ (margin[:, :1] * b + mass[:, :1] * a)
        hess = (payers.T[:, :, None] * a).transpose(0, 2, 1) @ b
        hess += hess.transpose(0, 2, 1)
    if not abs(values).max() + abs(grad).max() < math.inf:
        raise OutOfDomain.single("profit", float(abs(values).max()),
                                 "overflows in the game's quadratic form at decisions 0")
    H_r = hess[1]
    response, pivots = _eliminate(H_r[k:, k:].tolist(),
                                  np.column_stack([-grad[1, k:], -H_r[k:, :k]]).tolist())
    if response is None:
        raise _non_concave(f"retailer profit in {', '.join(follower)}", pivots)
    response = np.array(response, dtype)
    return _Game(leader, follower, values, grad, hess, response[:, 0], response[:, 1:])


def stackelberg_decisions(model: ModelId, params,
                          variant=MrDemandVariant.ADOPTED) -> dict[str, object]:
    """The game's Stackelberg decisions, exact for a ``Primitives`` of Fractions.

    Raises NonConcave when either stage has no interior maximum, and
    OutOfDomain for a ``params`` that is not a ``Params`` or such a record,
    or when a profit overflows at 0 or at the answer.
    """
    model, variant = market.require_variant(model, variant)
    game = _identify(model, read_params(params, exact=True), variant)
    x, pivots = game.leader_point()
    if x is None:
        raise _non_concave("leader reduced profit", pivots)
    z = np.concatenate([x, game.shift + game.K @ x])
    game.at(z)
    return dict(zip(game.leader + game.follower, z.tolist()))


# bound by name in perfbench/tracer.py LAYERS
def best_response_retailer(model: ModelId, leader_vars: Mapping[str, float],
                           params: Params) -> dict[str, float]:
    """Maximize the retailer profit over the follower's variables.

    ``leader_vars`` must be a mapping of exactly the leader's variables for
    the model, those of ``params.PLAYER_FIELDS``, each a finite real; one
    OutOfDomain names every value that is not, or a ``params`` that is not a
    ``Params``. The retailer's profit is the same under both segment-3
    variants. Raises NonConcave when the retailer objective has no interior
    maximum.
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
    game = _identify(model, read_params(params))
    y = game.shift + game.K @ np.array([leader_vars[n] for n in leader], dtype=float)
    return dict(zip(follower, y.tolist()))


def solve_stackelberg_numeric(model: ModelId, params: Params,
                              cfg: OracleConfig | None = None) -> Equilibrium:
    """Numeric Stackelberg equilibrium: ``stackelberg_decisions`` on a ``Params``.

    ``cfg`` (None or an :class:`OracleConfig`) changes nothing. Just above a
    pole (2/9 for R, 0.276889 for MR) the far-out optimum is returned; from
    about 1e-10 above it the leader's pivot rule refuses it (NonConcave).
    Raises as ``stackelberg_decisions`` does, and OutOfDomain for another ``cfg``.
    """
    model = ModelId(model)
    if cfg is not None and not isinstance(cfg, OracleConfig):
        raise OutOfDomain.single("cfg", cfg, "must be None or an OracleConfig")
    decisions = DecisionSet(model=model, **stackelberg_decisions(model, read_params(params)))
    return make_equilibrium(model, decisions, params, "numeric_oracle",
                            min(abs(params.alpha - pole) for pole in _POLES[model]))


def check_soc(model: ModelId, eq: Equilibrium, params: Params) -> SocReport:
    """Second-order conditions at an equilibrium point, from one identification.

    Raises OutOfDomain for an ``eq`` that is not an ``Equilibrium`` and unless
    ``model`` and ``params`` are the equilibrium's, and NonConcave when the
    retailer has no best response to substitute (so the follower's verdict is
    always True).
    """
    if not isinstance(eq, Equilibrium):
        raise OutOfDomain.single("eq", eq, "must be an Equilibrium")
    model = model_of(model, eq.decisions)
    if params != eq.params:
        shown = params.as_dict() if isinstance(params, Params) else params
        raise OutOfDomain.single("params", shown, f"the equilibrium is at {eq.params.as_dict()}")
    game = _identify(model, params)
    k = len(game.leader)
    eig_f, eig_l = (tuple(np.linalg.eigvalsh(A).tolist())
                    for A in (game.hess[1][k:, k:], game.leader_system[0]))
    return SocReport(eig_f, eig_l, True, game.leader_point()[0] is not None)


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
    that ``read_int`` refuses, decisions that are not a ``DecisionSet`` of
    ``model``, or a ``params`` that is not a ``Params``.
    """
    n, seed = read_int("n", n, 1), read_int("seed", seed, 0)
    _read_point(model, decisions)
    params = read_params(params)
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


def _read_point(model: ModelId, decisions: DecisionSet) -> ModelId:
    """The model of ``decisions``, a ``DecisionSet`` of ``model``; else OutOfDomain."""
    if not isinstance(decisions, DecisionSet):
        raise OutOfDomain.single("decisions", decisions, "must be a DecisionSet")
    return model_of(model, decisions)


def stationarity_residuals(model: ModelId, decisions: DecisionSet,
                           params: Params) -> dict[str, float]:
    """Scaled first-order residuals of a candidate equilibrium point.

    Partials of the retailer profit in the follower's variables and of the
    leader's reduced profit (follower at its best response) in the leader's
    variables, divided by max(1, |profit|) at the point; one identification
    gives all of them. All vanish at a true interior Stackelberg solution.
    Raises OutOfDomain for decisions that are not a ``DecisionSet`` of
    ``model``, another ``params``, or a profit that overflows at the point,
    and NonConcave when the retailer has no best response.
    """
    model = _read_point(model, decisions)
    return _residuals(_identify(model, read_params(params)), decisions)


def _residuals(game: _Game, decisions: DecisionSet) -> dict[str, float]:
    k = len(game.leader)
    z = np.array([getattr(decisions, name) for name in game.leader + game.follower])
    values, grads = game.at(z)
    L, c = game.leader_system
    scale_m, scale_r = np.maximum(1.0, abs(values)).tolist()
    out = {f"follower:{n}": g / scale_r for n, g in zip(game.follower, abs(grads[1, k:]).tolist())}
    out.update({f"leader:{n}": g / scale_m
                for n, g in zip(game.leader, abs(c + L @ z[:k]).tolist())})
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
    one identification per variant. Raises OutOfDomain for decisions that are
    not an MR ``DecisionSet`` or a ``params`` that is not a ``Params``.
    """
    _read_point(ModelId.MR, decisions)
    params = read_params(params)
    passing = []
    for variant in (MrDemandVariant.ADOPTED, MrDemandVariant.AS_PRINTED):
        try:
            game = _identify(ModelId.MR, params, variant)
        except NonConcave:
            return "follower_non_concave"
        if variant is MrDemandVariant.ADOPTED and game.leader_point()[0] is None:
            return "leader_non_concave"
        if max(_residuals(game, decisions).values()) <= STATIONARITY_TOL:
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
