"""Seeded verification suites: oracle agreement, proposition audits,
Monte Carlo demand consistency, and endpoint identities.

Each suite reads its options (``_suite``), runs a deterministic protocol over
seeded random parameter draws and returns a ``RunReport`` whose ``ok`` is its
verdict. Expected findings are part of the golden pattern: several published
claims are known to fail numerically (the retailer-subsidy monotonicity claim
at the retailer-led figure parameters being the canonical example), and a
suite FAILS if such a finding is absent, just as it fails on any unexpected one.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass, field
from statistics import NormalDist

from . import __version__ as _version
from . import audit, closed_form, market, oracle
from .market import MrDemandVariant
from .params import ALL_DECISION_FIELDS, DecisionSet, ModelId, Params, read_int, read_nonneg

# bound by name in perfbench/workloads.py
#: A fixed stencil box, [-1, 3] in every variable; nothing in the package reads it.
WIDE_BOX = dict.fromkeys(ALL_DECISION_FIELDS, (-1.0, 3.0))

#: Figure sweep parameter presets: (model, alpha_from, alpha_to, c_m, c_r, s).
FIGURE_PRESETS = {
    "fig3": (ModelId.M, 0.01, 0.99, 6.0, 4.0, 1.5),
    "fig4": (ModelId.R, 0.35, 0.90, 10.0, 6.0, 6.0),
    "fig5": (ModelId.MR, 0.35, 0.90, 10.0, 6.0, 6.0),
}

#: Published sensitivity-table rows: (model, alpha, c_m, c_r, s) -> published
#: decision values. Compared against, never asserted.
PUBLISHED_TABLE_ROWS = (
    (ModelId.M, 0.70, 1.2, 1.0, 0.10, {"p_m": 1.3, "p_r": 1.6, "w": 1.15, "b_m": 0.4}),
    (ModelId.M, 0.80, 1.2, 1.0, 0.15, {"p_m": 1.4, "p_r": 1.7, "w": 1.25, "b_m": 0.45}),
    (ModelId.R, 0.65, 1.5, 0.7, 0.20, {"p_m": 1.1, "p_r": 1.5, "w": 1.0, "b_r": 0.5, "t": 0.4}),
    (ModelId.R, 0.75, 1.5, 0.7, 0.25, {"p_m": 1.3, "p_r": 1.7, "w": 1.1, "b_r": 0.55, "t": 0.45}),
    (ModelId.MR, 0.60, 1.0, 0.5, 0.20,
     {"p_m": 1.0, "p_r": 1.4, "w": 1.2, "b_m": 0.35, "b_r": 0.25, "t": 0.5}),
    (ModelId.MR, 0.70, 1.0, 0.5, 0.30,
     {"p_m": 1.2, "p_r": 1.6, "w": 1.3, "b_m": 0.4, "b_r": 0.3, "t": 0.55}),
)

#: Expected endpoint agreement pattern: (model, variable, endpoint) -> bool.
#: The disagreements are stable facts about the published endpoint forms.
EXPECTED_ENDPOINT_AGREEMENT = {
    ("M", "p_m", 0): True, ("M", "w", 0): True, ("M", "b_m", 0): True, ("M", "p_r", 0): True,
    ("M", "p_m", 1): True, ("M", "w", 1): True, ("M", "b_m", 1): False, ("M", "p_r", 1): True,
    ("R", "p_m", 0): True, ("R", "b_r", 0): True, ("R", "w", 0): False,
    ("R", "p_r", 0): False, ("R", "t", 0): False,
    ("R", "p_m", 1): False, ("R", "b_r", 1): True, ("R", "w", 1): False,
    ("R", "p_r", 1): False, ("R", "t", 1): False,
}


@dataclass
class RunReport:
    """Reproducibility envelope of one command or suite run.

    ``elapsed_seconds`` is display-only; it is deliberately excluded from
    the serialized form so that output files are byte-identical across
    repeat runs with identical inputs.
    """

    command: str
    seed: int | None
    config: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)
    ok: bool = True
    elapsed_seconds: float | None = None

    def as_dict(self) -> dict:
        return {
            "version": _version,
            "command": self.command,
            "seed": self.seed,
            "config": self.config,
            "counts": self.counts,
            "findings": self.findings,
            "ok": self.ok,
        }

    def render_text(self) -> str:
        lines = [f"== {self.command} (version {_version}, seed {self.seed}) =="]
        for key, value in self.config.items():
            lines.append(f"   config {key} = {value}")
        for key, value in self.counts.items():
            lines.append(f"   count {key} = {value}")
        for finding in self.findings:
            lines.append(f"   - {finding}")
        lines.append(f"   result: {'PASS' if self.ok else 'FAIL'}")
        if self.elapsed_seconds is not None:
            lines.append(f"   elapsed: {self.elapsed_seconds:.2f}s")
        return "\n".join(lines)


def _suite(fn):
    """``fn`` timed, its options read first: ``tol`` by ``read_nonneg``, others by ``read_int``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        options = {k: read_int(k, v, 0 if k == "seed" else 1) if k != "tol"
                   else read_nonneg(k, v) for k, v in bound.arguments.items()}
        start = time.perf_counter()
        report = fn(**options)
        report.elapsed_seconds = time.perf_counter() - start
        return report
    return wrapper


@_suite
def suite_oracle(samples: int = 100, seed: int = 42, tol: float = 1e-3) -> RunReport:
    """Closed form vs numeric backward induction, at its default stencil, for models M and R.

    Relative deviation per decision variable must stay within ``tol`` on
    every draw; a ``tol`` that is not finite and >= 0 is refused before any
    draw (no deviation could pass a NaN).
    """
    draws = oracle.sample_params(samples, seed)
    worst = 0.0
    worst_case = None
    comparisons = 0
    for idx, p in enumerate(draws):
        for model in (ModelId.M, ModelId.R):
            closed = closed_form.equilibrium(model, p).decisions.as_dict()
            numeric = oracle.solve_stackelberg_numeric(model, p).decisions.as_dict()
            for name, value in closed.items():
                rel = abs(numeric[name] - value) / max(abs(value), 1e-9)
                comparisons += 1
                if rel > worst:
                    worst = rel
                    worst_case = f"draw {idx} model {model.value} variable {name}"
    return RunReport(
        command="verify oracle", seed=seed,
        config={"samples": samples, "tol": tol},
        counts={"draws": len(draws), "comparisons": comparisons},
        findings=[f"max relative deviation {worst:.3e} at {worst_case}"],
        ok=worst <= tol,
    )


@_suite
def suite_props(samples: int = 50, seed: int = 7) -> RunReport:
    """Proposition audits over random draws plus the figure-parameter cases.

    Golden expectations: the direct-price ordering claim agrees on every
    draw, and the retailer-subsidy monotonicity claim DISAGREES at the
    retailer-led figure parameters (failing to flag that is a failure).
    """
    draws = oracle.sample_params(samples, seed, c_m_range=(0.05, 2.0))
    findings = []
    p1_agree = sum(audit.audit_ordering("P1", p).agree for p in draws)
    p1_ok = p1_agree == len(draws)
    findings.append(f"P1 agreement {p1_agree}/{len(draws)}")

    fig4 = Params(0.5, *FIGURE_PRESETS["fig4"][3:])
    p4 = {v.variable: v for v in audit.audit_monotonicity("P4", fig4)}
    subsidy = p4["b_r"]
    flagged = (not subsidy.agree and subsidy.claimed == "increasing"
               and subsidy.observed == "decreasing")
    findings.append(
        "P4-ii at retailer-led figure parameters: claimed "
        f"{subsidy.claimed}, observed {subsidy.observed} "
        f"({'flagged as expected' if flagged else 'NOT FLAGGED'})")
    for verdict in p4.values():
        if verdict.variable != "b_r" and not verdict.agree:
            findings.append(
                f"P4-{verdict.sub_id} {verdict.variable}: claimed {verdict.claimed}, "
                f"observed {verdict.observed}")

    fig3 = Params(0.5, *FIGURE_PRESETS["fig3"][3:])
    for verdict in audit.audit_monotonicity("P2", fig3):
        if not verdict.agree:
            findings.append(
                f"P2-{verdict.sub_id} {verdict.variable} at manufacturer-led figure "
                f"parameters: claimed {verdict.claimed}, observed {verdict.observed}")

    threshold_case = Params(alpha=0.5, c_m=1.0, c_r=0.5, s=0.2)
    for prop in ("P5", "P6"):
        verdict = audit.audit_ordering(prop, threshold_case)
        findings.append(f"{prop}: claimed {verdict.claimed}, observed {verdict.observed}, "
                        f"agree {verdict.agree}")

    return RunReport(
        command="verify props", seed=seed,
        config={"samples": samples},
        counts={"draws": len(draws), "p1_agree": p1_agree},
        findings=findings, ok=p1_ok and flagged,
    )


def sample_interior_case(model: ModelId, rng) -> tuple[Params, DecisionSet]:
    """One decision set whose segment masses are comfortably interior.

    Thresholds are drawn first with margins of at least 0.05 from {0, 1}
    and from each other, then mapped back to prices and subsidies, so the
    analytic masses equal the choice-model measures exactly.
    """
    model = ModelId(model)
    alpha = rng.uniform(0.2, 0.9)
    params = Params(alpha=alpha, c_m=0.5, c_r=0.25, s=0.1)
    t1 = rng.uniform(0.05, 0.45)
    t2 = t1 + rng.uniform(0.05, 0.90 - t1)
    p_m = alpha * t1
    p_r = p_m + (1.0 - alpha) * t2
    w = rng.uniform(0.1, 1.0)
    if model is ModelId.M:
        d = DecisionSet(model=model, p_m=p_m, p_r=p_r, w=w, b_m=rng.uniform(0.05, 0.95))
    elif model is ModelId.R:
        d = DecisionSet(model=model, p_m=p_m, p_r=p_r, w=w,
                        b_r=alpha * rng.uniform(0.05, 0.95), t=rng.uniform(0.0, 1.0))
    else:
        gap = rng.uniform(0.05, 0.55)
        upper = rng.uniform(gap + 0.05, 0.95)
        b_r = alpha * upper
        b_m = b_r + (1.0 - alpha) * gap
        d = DecisionSet(model=model, p_m=p_m, p_r=p_r, w=w, b_m=b_m, b_r=b_r,
                        t=rng.uniform(0.0, 1.0))
    return params, d


def _simulation_seed(seed: int, model: ModelId, idx: int) -> int:
    """Seed of case idx's simulation, drawn from (seed, model, idx) through
    ``SeedSequence``: no two simulations of one run or of two seeds share a stream."""
    key = (ord(model.value[0]), len(model.value), idx)
    return int(oracle.seeded_generator(seed, *key).integers(2**63))


#: Family-wise false-alarm probability of all segment checks of one run.
MC_FAMILY_ALPHA = 1e-6


@_suite
def suite_mc(samples: int = 20, seed: int = 1, n: int = 1_000_000) -> RunReport:
    """Monte Carlo choice simulation vs analytic masses.

    Each segment share is gated at the Bonferroni z limit over all of the
    suite's segment checks, so a correct simulation fails the suite with
    probability at most ``MC_FAMILY_ALPHA``. Also runs the equal-subsidy
    joint case that separates the two published segment-3 variants: the
    simulation must land on 0, not 1.
    """
    # ten segment checks per sample: three each for M and R, four for MR
    z_limit = NormalDist().inv_cdf(1.0 - MC_FAMILY_ALPHA / (2.0 * (10 * samples)))
    findings = []
    checks = 0
    worst_z = 0.0
    for model in (ModelId.M, ModelId.R, ModelId.MR):
        rng = oracle.seeded_generator(seed, ord(model.value[0]), len(model.value))
        for idx in range(samples):
            params, decisions = sample_interior_case(model, rng)
            analytic = market.demand(model, decisions, params)
            mc = oracle.monte_carlo_demand(model, decisions, params, n=n,
                                           seed=_simulation_seed(seed, model, idx))
            for name, want in analytic.as_dict().items():
                got = mc.shares.as_dict()[name]
                # a share of 0 or 1 has no spread; an interior case's analytic share has
                se = mc.stderr.as_dict()[name] or math.sqrt(want * (1.0 - want) / n)
                checks += 1
                z = abs(got - want) / se
                worst_z = max(worst_z, z)
                if z > z_limit:
                    findings.append(
                        f"{model.value} case {idx} segment {name}: share {got!r} vs "
                        f"analytic {want!r} is {z:.2f} sigma (limit {z_limit:.2f})")
    failures = len(findings)

    equal_params = Params(alpha=0.6, c_m=0.5, c_r=0.25, s=0.1)
    equal_dec = DecisionSet(model=ModelId.MR, p_m=0.3, p_r=0.6, w=0.4,
                            b_m=0.3, b_r=0.3, t=0.35)
    # simulated as the joint model's case after the drawn ones
    mc = oracle.monte_carlo_demand(ModelId.MR, equal_dec, equal_params, n=n,
                                   seed=_simulation_seed(seed, ModelId.MR, samples))
    adopted = market.demand(ModelId.MR, equal_dec, equal_params).q3
    printed = market.demand(ModelId.MR, equal_dec, equal_params,
                            MrDemandVariant.AS_PRINTED).q3
    variant_ok = abs(mc.shares.q3 - adopted) <= 1e-5 and abs(mc.shares.q3 - printed) > 0.5
    findings.append(
        f"equal-subsidy joint case: simulated q3 {mc.shares.q3!r}, adopted form "
        f"{adopted!r}, as-printed form {printed!r} "
        f"({'adopted variant confirmed' if variant_ok else 'VARIANT CHECK FAILED'})")

    return RunReport(
        command="verify mc", seed=seed,
        config={"samples": samples, "n": n},
        counts={"checks": checks, "failures": failures,
                "worst_sigma": round(worst_z, 3)},
        findings=findings, ok=failures == 0 and variant_ok,
    )


@_suite
def suite_endpoints(samples: int = 25, seed: int = 5) -> RunReport:
    """Endpoint limits vs published endpoint forms over random draws.

    The observed agreement pattern must match the expected one exactly:
    the known mismatches must appear, the known identities must hold.
    """
    draws = oracle.sample_params(samples, seed)
    deviations = []
    checks = 0
    for idx, p in enumerate(draws):
        for model in (ModelId.M, ModelId.R):
            for verdict in audit.audit_endpoints(model, p):
                endpoint = 0 if verdict.sub_id == "alpha->0" else 1
                expected = EXPECTED_ENDPOINT_AGREEMENT[(model.value, verdict.variable, endpoint)]
                checks += 1
                if verdict.agree != expected:
                    deviations.append(
                        f"draw {idx} {model.value} {verdict.variable} {verdict.sub_id}: "
                        f"agree={verdict.agree}, expected {expected}")
    findings = deviations or ["endpoint agreement pattern reproduced on every draw "
                              "(including the known published-form mismatches)"]
    return RunReport(
        command="verify endpoints", seed=seed,
        config={"samples": samples},
        counts={"draws": len(draws), "checks": checks, "pattern_deviations": len(deviations)},
        findings=findings, ok=not deviations,
    )


#: Every suite by its ``verify`` name, in the order ``verify all`` runs them.
SUITES = {"oracle": suite_oracle, "props": suite_props, "mc": suite_mc,
          "endpoints": suite_endpoints}


def suite_all(**overrides) -> list[RunReport]:
    """Run every suite with its own defaults.

    ``overrides`` (``samples``, ``seed``, ``tol``, ``n``) replace a default
    in each suite whose signature takes that option.
    """
    return [fn(**suite_options(fn, overrides)) for fn in SUITES.values()]


def suite_options(fn, overrides: dict) -> dict:
    """The subset of ``overrides`` that suite ``fn`` takes."""
    accepted = inspect.signature(fn).parameters
    return {k: v for k, v in overrides.items() if k in accepted}
