"""The benchmark's workloads: seeded op lists with an output check per op.

Each builder turns the benchmark seed into a fixed list of ``Op`` values. An
op's ``run`` is the timed call into the package; its ``check`` verifies the
output afterwards, untimed, and raises ``CheckFailed`` on a wrong answer.
Functions are looked up on their modules at call time, never bound at build
time, so a traced run sees every call through the tracer's wrappers.

Workloads:

* ``oracle_mr``: ``dcclsc solve --model mr --verify`` on seeded admissible
  draws; dominated by the 4-D leader grid search of the numeric MR solver.
* ``verify_all``: the calls ``dcclsc verify all`` makes (oracle agreement for
  M and R, Monte Carlo demand, proposition and endpoint audits) on draws from
  the benchmark seed; many small solves.
* ``sweeps_audits``: the fig3/fig4/fig5 sweeps through ``cli.main`` at a
  dense alpha step, ``table4``, and the ordering, monotonicity and endpoint
  audits over seeded draws; never touches the leader grid.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

from dcclsc import audit, cli, closed_form, market, oracle, suites
from dcclsc.params import DecisionSet, ModelId, Params, decision_fields

#: Relative tolerance of closed form vs numeric solve (acceptance check A02).
AGREEMENT_TOL = 1e-3
#: Tolerance for values recomputed from the same closed-form expressions.
RECOMPUTE_TOL = 1e-12
#: Family-wise false-alarm probability of all Monte Carlo checks of one run.
MC_FAMILY_ALPHA = 1e-6
MC_DRAWS = 1_000_000

MR_SOLVES = 2          # oracle_mr ops per pass
ORACLE_DRAWS = 100     # verify all defaults: oracle, props, mc, endpoints
PROPS_DRAWS = 50
MC_CASES = 20
ENDPOINT_DRAWS = 25
SWEEP_STEP = 0.001
AUDIT_DRAWS = 25       # sweeps_audits draws, each audited by every claim

FIG4_PARAMS = Params(alpha=0.5, c_m=10.0, c_r=6.0, s=6.0)
PROPS_C_M_RANGE = (0.05, 2.0)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


class CliExit(Exception):
    """``cli.main`` returned a non-zero exit code (an error it reported)."""


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliExit(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _close(a: float, b: float, rel: float = RECOMPUTE_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _param_flags(p: Params) -> list[str]:
    return ["--alpha", repr(p.alpha), "--cm", repr(p.c_m), "--cr", repr(p.c_r),
            "--s", repr(p.s)]


def _check_closed_form(model: ModelId, p: Params, decisions: dict):
    want = closed_form.decision_values(model, p.alpha, p.c_m, p.delta, p.s)
    for name in decision_fields(model):
        _require(_close(decisions[name], want[name]),
                 f"{model.value} {name}={decisions[name]!r}, closed form {want[name]!r}")


# -- oracle_mr ----------------------------------------------------------------

def _check_mr_solve(p: Params, stdout: str):
    payload = json.loads(stdout)
    _check_closed_form(ModelId.MR, p, payload["decisions"])
    numeric = DecisionSet(model=ModelId.MR, **payload["oracle"]["decisions"])
    residuals = oracle.stationarity_residuals(ModelId.MR, numeric, p)
    worst = max(residuals.values())
    _require(worst <= oracle.STATIONARITY_TOL,
             f"numeric MR point not stationary: max residual {worst:.3e}")
    eq = market.make_equilibrium(ModelId.MR, numeric, p, "numeric_oracle", 0.0)
    soc = oracle.check_soc(ModelId.MR, eq, p)
    _require(soc.follower_negative_definite and soc.leader_negative_definite,
             f"second-order conditions fail: {soc.as_dict()}")


def oracle_mr(seed: int, workdir: Path) -> list[Op]:
    # The figure-parameter solves (fig3/4/5 with --verify) are left out: each
    # ends in BoxBoundary because the search box is fixed.
    ops = []
    for i, p in enumerate(oracle.sample_params(MR_SOLVES, seed)):
        argv = ["solve", "--model", "mr", *_param_flags(p), "--verify"]
        ops.append(Op("solve_mr", f"draw {i}", lambda argv=argv: _cli(argv),
                      lambda out, p=p: _check_mr_solve(p, out)))
    return ops


# -- verify_all ---------------------------------------------------------------

def _agreement(p: Params, cfg: oracle.OracleConfig):
    closed = {ModelId.M: closed_form.equilibrium_m(p), ModelId.R: closed_form.equilibrium_r(p)}
    return {m: (eq, oracle.solve_stackelberg_numeric(m, p, cfg)) for m, eq in closed.items()}


def _check_agreement(solved):
    for model, (closed, numeric) in solved.items():
        got = numeric.decisions.as_dict()
        for name, want in closed.decisions.as_dict().items():
            rel = abs(got[name] - want) / max(abs(want), 1e-9)
            _require(rel <= AGREEMENT_TOL,
                     f"{model.value} {name}: numeric {got[name]!r} vs closed form {want!r} "
                     f"(relative {rel:.2e})")


def _check_props_draw(verdict):
    _require(verdict.agree, f"P1 ordering claim disagrees: observed {verdict.observed}")


def _figure_props():
    return audit.audit_monotonicity("P4", FIG4_PARAMS)


def _check_p4_flagged(verdicts):
    b_r = next(v for v in verdicts if v.variable == "b_r")
    _require(not b_r.agree and b_r.claimed == "increasing" and b_r.observed == "decreasing",
             f"P4-ii at fig4 parameters not flagged: claimed {b_r.claimed}, "
             f"observed {b_r.observed}")


def _check_mc(model, decisions, params, mc, z_limit):
    analytic = market.demand(model, decisions, params).as_dict()
    shares, stderr = mc.shares.as_dict(), mc.stderr.as_dict()
    for name, want in analytic.items():
        z = abs(shares[name] - want) / stderr[name] if stderr[name] > 0 else (
            0.0 if shares[name] == want else math.inf)
        _require(z <= z_limit, f"segment {name}: share {shares[name]!r} vs analytic "
                               f"{want!r} is {z:.2f} sigma (limit {z_limit:.2f})")


_EQUAL_PARAMS = Params(alpha=0.6, c_m=0.5, c_r=0.25, s=0.1)
_EQUAL_DECISIONS = DecisionSet(model=ModelId.MR, p_m=0.3, p_r=0.6, w=0.4,
                               b_m=0.3, b_r=0.3, t=0.35)


def _check_equal_subsidy(mc):
    adopted = market.demand(ModelId.MR, _EQUAL_DECISIONS, _EQUAL_PARAMS).q3
    printed = market.demand(ModelId.MR, _EQUAL_DECISIONS, _EQUAL_PARAMS,
                            market.MrDemandVariant.AS_PRINTED).q3
    _require(abs(mc.shares.q3 - adopted) <= 1e-5 and abs(mc.shares.q3 - printed) > 0.5,
             f"equal-subsidy q3 {mc.shares.q3!r}: adopted {adopted!r}, "
             f"as printed {printed!r}")


def _endpoints(p: Params):
    return {m: audit.audit_endpoints(m, p) for m in (ModelId.M, ModelId.R)}


def _check_endpoints(found):
    for model, verdicts in found.items():
        for v in verdicts:
            at = 0 if v.sub_id == "alpha->0" else 1
            want = suites.EXPECTED_ENDPOINT_AGREEMENT[(model.value, v.variable, at)]
            _require(v.agree == want, f"{model.value} {v.variable} {v.sub_id}: "
                                      f"agree={v.agree}, expected {want}")


def verify_all(seed: int, workdir: Path) -> list[Op]:
    ops = []
    cfg = oracle.OracleConfig(leader_box=suites.WIDE_BOX, seed=seed)
    for i, p in enumerate(oracle.sample_params(ORACLE_DRAWS, seed)):
        ops.append(Op("oracle_draw", f"draw {i}", lambda p=p: _agreement(p, cfg),
                      _check_agreement))

    for i, p in enumerate(oracle.sample_params(PROPS_DRAWS, seed, c_m_range=PROPS_C_M_RANGE)):
        ops.append(Op("props_draw", f"draw {i}", lambda p=p: audit.audit_ordering("P1", p),
                      _check_props_draw))
    ops.append(Op("props_figure", "P4 at fig4", _figure_props, _check_p4_flagged))

    # the same case stream suite_mc draws, rooted at the benchmark seed; the z
    # limit is a Bonferroni bound over every segment check of the run, so a
    # correct kernel fails a run with probability at most MC_FAMILY_ALPHA
    cases = []
    for model in (ModelId.M, ModelId.R, ModelId.MR):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(ord(model.value[0]), len(model.value)))))
        for idx in range(MC_CASES):
            cases.append((model, idx, *suites.sample_interior_case(model, rng)))
    n_checks = sum(4 if model is ModelId.MR else 3 for model, *_ in cases)
    z_limit = NormalDist().inv_cdf(1.0 - MC_FAMILY_ALPHA / (2.0 * n_checks))
    for model, idx, params, decisions in cases:
        ops.append(Op(
            "mc_case", f"{model.value} case {idx}",
            lambda m=model, d=decisions, p=params, s=seed + idx:
                oracle.monte_carlo_demand(m, d, p, n=MC_DRAWS, seed=s),
            lambda mc, m=model, d=decisions, p=params: _check_mc(m, d, p, mc, z_limit)))
    ops.append(Op("mc_case", "equal subsidies",
                  lambda: oracle.monte_carlo_demand(ModelId.MR, _EQUAL_DECISIONS, _EQUAL_PARAMS,
                                                    n=MC_DRAWS, seed=seed),
                  _check_equal_subsidy))

    for i, p in enumerate(oracle.sample_params(ENDPOINT_DRAWS, seed)):
        ops.append(Op("endpoint_draw", f"draw {i}", lambda p=p: _endpoints(p),
                      _check_endpoints))
    return ops


# -- sweeps_audits ------------------------------------------------------------

def _read_csv(path: Path) -> list[dict]:
    header, *lines = path.read_text().splitlines()
    names = header.split(",")
    return [dict(zip(names, line.split(","))) for line in lines]


class _SweepCheck:
    """Row values against the closed form, charts present, and byte-stable
    CSV: the first time a preset is checked it is written again, untimed, and
    later passes must reproduce the same bytes."""

    def __init__(self, preset: str, argv: list[str], out: Path, plot_dir: Path,
                 rows: int):
        self.preset, self.argv, self.out, self.plot_dir, self.rows = (
            preset, argv, out, plot_dir, rows)
        self.reference: bytes | None = None

    def __call__(self, _stdout):
        written = self.out.read_bytes()
        if self.reference is None:
            again = self.out.with_name(self.out.stem + "-again.csv")
            _cli(self.argv[:self.argv.index("--out")] + ["--out", str(again)])
            self.reference = again.read_bytes()
        _require(written == self.reference, f"{self.preset}: CSV differs between two writes")
        rows = _read_csv(self.out)
        _require(len(rows) == self.rows, f"{self.preset}: {len(rows)} rows, expected {self.rows}")
        model = ModelId.parse(rows[0]["model"])
        for row in rows:
            _require(row["singular"] == "false", f"{self.preset}: singular row {row['alpha']}")
            p = Params(alpha=float(row["alpha"]), c_m=float(row["c_m"]),
                       c_r=float(row["c_r"]), s=float(row["s"]))
            _check_closed_form(model, p, {n: float(row[n]) for n in decision_fields(model)})
        for name in decision_fields(model):
            svg = (self.plot_dir / f"{model.value}_{name}.svg").read_text()
            _require(svg.startswith("<svg") and "<polyline" in svg,
                     f"{self.preset}: chart for {name} malformed")


def _check_table4(path: Path):
    cells = _read_csv(path)
    published = [(m, a, c_m, c_r, s, var, value)
                 for m, a, c_m, c_r, s, values in suites.PUBLISHED_TABLE_ROWS
                 for var, value in values.items()]
    _require(len(cells) == len(published), f"table4: {len(cells)} cells, "
                                           f"expected {len(published)}")
    for cell, (model, alpha, c_m, c_r, s, var, value) in zip(cells, published):
        _require(cell["variable"] == var and float(cell["published"]) == value,
                 f"table4 cell {cell['model']} {cell['variable']} out of order")
        want = closed_form.decision_values(model, alpha, c_m, c_m - c_r, s)[var]
        _require(_close(float(cell["computed"]), want),
                 f"table4 {model.value} a={alpha} {var}: {cell['computed']} vs {want!r}")


def _audit_draw(p: Params):
    return ([audit.audit_ordering(prop, p) for prop in ("P1", "P3", "P5", "P6")],
            [v for prop in ("P2", "P4", "P7") for v in audit.audit_monotonicity(prop, p)],
            _endpoints(p))


_ORDERING_MODEL = {"P1": ModelId.M, "P3": ModelId.R, "P5": ModelId.MR, "P6": ModelId.MR}
_MONOTONE_MODEL = {"P2": ModelId.M, "P4": ModelId.R, "P7": ModelId.MR}


def _check_evidence(verdict, model: ModelId, p: Params, value):
    grid = audit.default_alpha_grid(model)
    _require(len(verdict.evidence) == len(grid),
             f"{verdict.prop_id}: {len(verdict.evidence)} grid points, expected {len(grid)}")
    for (a, got), want_a in zip(verdict.evidence, grid):
        want = value(closed_form.decision_values(model, want_a, p.c_m, p.delta, p.s))
        _require(a == want_a and _close(got, want),
                 f"{verdict.prop_id} {verdict.variable} at alpha={a!r}: {got!r} vs {want!r}")


def _check_audit_draw(p: Params, result):
    orderings, monotone, endpoints = result
    _check_props_draw(orderings[0])
    for v in orderings:
        a, b = v.variable.split(" vs ")
        _check_evidence(v, _ORDERING_MODEL[v.prop_id], p, lambda d: d[a] - d[b])
        diffs = np.array([d for _, d in v.evidence])
        side = ("less_than" if np.all(diffs < 0) else
                "greater_than" if np.all(diffs > 0) else "mixed")
        _require(v.observed == side, f"{v.prop_id}: observed {v.observed}, evidence {side}")
    for v in monotone:
        _check_evidence(v, _MONOTONE_MODEL[v.prop_id], p, lambda d: d[v.variable])
        steps = np.diff([x for _, x in v.evidence])
        rising, falling = np.all(steps >= -audit.MONOTONE_TOL), np.all(steps <= audit.MONOTONE_TOL)
        side = "increasing" if rising else "decreasing" if falling else "non_monotone"
        _require(v.observed == side and v.agree == (v.claimed == v.observed),
                 f"{v.prop_id}-{v.sub_id} {v.variable}: observed {v.observed}, "
                 f"evidence {side}, agree {v.agree}")
    _check_endpoints(endpoints)


def sweeps_audits(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    ops = []
    for preset in ("fig3", "fig4", "fig5"):
        _, lo, hi, *_ = suites.FIGURE_PRESETS[preset]
        alpha_from = lo + float(rng.uniform(0.0, SWEEP_STEP))
        out, plot_dir = workdir / f"{preset}.csv", workdir / f"{preset}-charts"
        argv = ["sweep", "--preset", preset, "--alpha-from", repr(alpha_from),
                "--alpha-step", repr(SWEEP_STEP), "--out", str(out), "--plot-dir", str(plot_dir)]
        rows = int((hi - alpha_from) / SWEEP_STEP + 1e-9) + 1
        ops.append(Op("sweep", preset, lambda argv=argv: _cli(argv),
                      _SweepCheck(preset, argv, out, plot_dir, rows)))

    table = workdir / "table4.csv"
    ops.append(Op("table4", "csv", lambda: _cli(["table4", "--format", "csv", "--out", str(table)]),
                  lambda _out: _check_table4(table)))
    ops.append(Op("props_figure", "P4 at fig4", _figure_props, _check_p4_flagged))
    for i, p in enumerate(oracle.sample_params(AUDIT_DRAWS, seed, c_m_range=PROPS_C_M_RANGE)):
        ops.append(Op("audit_draw", f"draw {i}", lambda p=p: _audit_draw(p),
                      lambda result, p=p: _check_audit_draw(p, result)))
    return ops


BUILDERS = {
    "oracle_mr": oracle_mr,
    "verify_all": verify_all,
    "sweeps_audits": sweeps_audits,
}
