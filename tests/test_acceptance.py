"""Acceptance gate: eleven numbered checks, one pass/fail line each.

Every check pins its stated tolerance and runtime budget. Run with ``-s``
to see the per-criterion lines on success; on failure the line is part of
the assertion message.

Three checks are red by design and stay red: A01 asserts two retailer-led
endpoint identities (w and p_r as alpha -> 0) whose published values are
inconsistent with the published equilibrium expressions themselves; A07
asserts that all four manufacturer-led decision variables rise monotonically
on the figure sweep, but the retail price provably dips before rising; A09
asserts the joint-model price ordering flips at the published threshold,
which the published expressions do not do. Each failure message shows the
computed and asserted values; the package's audit commands report the same
facts as findings rather than assertions.
"""

import json
from time import perf_counter

import pytest

from dcclsc import ModelId, Params, limits
from dcclsc.audit import (
    audit_monotonicity,
    audit_ordering,
    classify_direction,
    default_alpha_grid,
    thresholds,
)
from dcclsc.cli import main as cli_main
from dcclsc.closed_form import decision_values_m, equilibrium_m, equilibrium_mr
from dcclsc.oracle import certify_mr_variant, sample_params, seeded_generator
from dcclsc.suites import suite_mc, suite_oracle


def _wide_draws(n: int, seed: int) -> list[Params]:
    """``sample_params``' draws on wider ranges: alpha on (0.01, 0.99), c_m on
    (0.05, 2), c_r a share in (0.05, 0.95) of c_m, s on [0, 1]."""
    rng, out = seeded_generator(seed), []
    for _ in range(n):
        alpha, c_m = rng.uniform(0.01, 0.99), rng.uniform(0.05, 2.0)
        out.append(Params(alpha=alpha, c_m=c_m, c_r=c_m * rng.uniform(0.05, 0.95),
                          s=rng.uniform(0.0, 1.0)))
    return out


def _report(cid: str, ok: bool, detail: str):
    line = f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_a01_endpoint_identities():
    """Closed-form alpha->0 limits equal the published endpoint values, 1e-9."""
    start = perf_counter()
    failures = {}
    for p in sample_params(25, seed=20260810):
        lim_m = {k: v[0] for k, v in limits(ModelId.M, p).items()}
        lim_r = {k: v[0] for k, v in limits(ModelId.R, p).items()}
        expected = {
            ("M", "p_m"): (lim_m["p_m"], p.c_m / 2.0),
            ("M", "w"): (lim_m["w"], (p.c_m + 1.0) / 2.0),
            ("M", "b_m"): (lim_m["b_m"], (2.0 * p.delta - p.c_m + 2.0 * p.s) / 4.0),
            ("M", "p_r"): (lim_m["p_r"], (2.0 * p.c_m + 3.0) / 4.0),
            ("R", "w"): (lim_r["w"], (p.c_m - 1.0) / 2.0),
            ("R", "b_r"): (lim_r["b_r"], 0.0),
            ("R", "p_m"): (lim_r["p_m"], p.c_m / 2.0),
            ("R", "p_r"): (lim_r["p_r"], (2.0 * p.c_m + 3.0) / 4.0),
        }
        for key, (computed, published) in expected.items():
            if abs(computed - published) > 1e-9:
                failures.setdefault(key, []).append((computed, published))
    elapsed = perf_counter() - start
    summary = "; ".join(
        f"{model}.{var} off on {len(cases)}/25 draws "
        f"(e.g. computed {cases[0][0]:.6f} vs published {cases[0][1]:.6f})"
        for (model, var), cases in sorted(failures.items()))
    _report("A01 endpoint identities",
            not failures and elapsed < 1.0,
            summary or f"all 8 identities hold on 25 draws, {elapsed:.2f}s")


def test_a02_oracle_agreement():
    """Numeric backward induction matches closed forms, 1e-3 relative, M and R."""
    report = suite_oracle(samples=100, seed=42, tol=1e-3)
    ok = report.ok and report.elapsed_seconds < 60.0
    _report("A02 oracle agreement (M, R)", ok,
            f"{report.findings[0]}, {report.elapsed_seconds:.1f}s over 100 draws")


def test_a03_mr_adjudication():
    """Per-draw stationarity verdict on the joint closed forms is deterministic."""
    start = perf_counter()
    tally: dict[str, int] = {}
    problems = []
    for idx, p in enumerate(sample_params(50, seed=31)):
        first = certify_mr_variant(equilibrium_mr(p).decisions, p)
        second = certify_mr_variant(equilibrium_mr(p).decisions, p)
        if first != second:
            problems.append(f"draw {idx} verdict not deterministic")
        if first not in ("adopted", "as_printed", "none"):
            problems.append(f"draw {idx} verdict {first!r} (ambiguous)")
        tally[first] = tally.get(first, 0) + 1
    elapsed = perf_counter() - start
    ok = not problems and elapsed < 120.0
    detail = (f"verdicts {tally} over 50 draws "
              f"('none' = closed-form/oracle disagreement reported), {elapsed:.1f}s")
    _report("A03 joint-model demand-variant adjudication", ok,
            detail if ok else "; ".join(problems))


def test_a04_foc_identities():
    """Manufacturer-led first-order identities hold to 1e-9 on 1000 draws."""
    start = perf_counter()
    worst = 0.0
    for p in _wide_draws(1000, seed=11):
        d = decision_values_m(p.alpha, p.c_m, p.delta, p.s)
        worst = max(worst,
                    abs(d["p_r"] - (1.0 - p.alpha + d["p_m"] + d["w"]) / 2.0),
                    abs(d["b_m"] - (p.delta + p.s + d["p_m"] - p.c_m) / 2.0))
    golden = Params(alpha=0.9, c_m=0.15, c_r=0.12, s=0.02)
    dg = equilibrium_m(golden).decisions
    rhs = (golden.delta + golden.s + dg.p_m - golden.c_m) / 2.0
    both_sides = abs(dg.b_m - 0.274194) <= 1e-6 and abs(rhs - 0.274194) <= 1e-6
    elapsed = perf_counter() - start
    ok = worst <= 1e-9 and both_sides and elapsed < 1.0
    _report("A04 first-order identities (M)", ok,
            f"max residual {worst:.2e} on 1000 draws; subsidy identity at the "
            f"worked case = {dg.b_m:.6f}; {elapsed:.2f}s")


def test_a05_direct_price_below_retail():
    """p_m < p_r across the whole grid for 50 random draws, zero violations."""
    start = perf_counter()
    violations = 0
    for p in _wide_draws(50, seed=17):
        verdict = audit_ordering("P1", p)
        if not verdict.agree:
            violations += 1
    elapsed = perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    _report("A05 unconditional price ordering (M)", ok,
            f"{violations} violations over 50 draws x 99 grid points, {elapsed:.1f}s")


def test_a06_known_erratum_detected():
    """The retailer-subsidy monotonicity claim must be flagged as wrong."""
    start = perf_counter()
    fig4 = Params(alpha=0.5, c_m=10.0, c_r=6.0, s=6.0)
    verdict = {v.variable: v for v in audit_monotonicity("P4", fig4)}["b_r"]
    evid = dict(verdict.evidence)
    at35 = evid[min(evid, key=lambda a: abs(a - 0.35))]
    at90 = evid[min(evid, key=lambda a: abs(a - 0.90))]
    flagged = (verdict.claimed == "increasing" and verdict.observed == "decreasing"
               and not verdict.agree)
    values_ok = (abs(at35 - 3.3478) < 1e-3 and abs(at90 - 1.6229) < 1e-3
                 and at35 > at90)
    elapsed = perf_counter() - start
    ok = flagged and values_ok and elapsed < 1.0
    _report("A06 known-erratum detection (retailer subsidy)", ok,
            f"claimed {verdict.claimed}, observed {verdict.observed}; "
            f"b_r(0.35)={at35:.4f} > b_r(0.90)={at90:.4f}; condition slack "
            f"{verdict.condition_value:+.0f}; {elapsed:.2f}s")


def test_a07_figure3_qualitative():
    """All four manufacturer-led variables rise monotonically; p_r above p_m."""
    start = perf_counter()
    p = Params(alpha=0.5, c_m=6.0, c_r=4.0, s=1.5)
    grid = default_alpha_grid(ModelId.M)
    series = {var: [] for var in ("p_m", "p_r", "w", "b_m")}
    ordering_ok = True
    for a in grid:
        values = decision_values_m(a, p.c_m, p.delta, p.s)
        for var in series:
            series[var].append(values[var])
        ordering_ok = ordering_ok and values["p_r"] > values["p_m"]
    directions = {var: classify_direction(vals)[0] for var, vals in series.items()}
    th = thresholds(p).prop2
    verdict_ok = (p.c_m < th["w"] and p.c_m < th["p_m"] and p.c_m < th["p_r"])
    not_increasing = sorted(v for v, d in directions.items() if d != "increasing")
    elapsed = perf_counter() - start
    ok = not not_increasing and ordering_ok and verdict_ok and elapsed < 1.0
    _report("A07 manufacturer-led figure sweep", ok,
            f"thresholds 6<{th['w']:.0f}, 6<{th['p_m']:.0f}, 6<{th['p_r']:.1f} "
            f"{'hold' if verdict_ok else 'FAIL'}; p_r>p_m "
            f"{'everywhere' if ordering_ok else 'VIOLATED'}; directions {directions}"
            + (f"; NOT monotone increasing: {not_increasing}" if not_increasing else ""))


def test_a08_monte_carlo_demand():
    """Empirical shares within the Bonferroni z limit of analytic (family-wise 1e-6)."""
    report = suite_mc(samples=20, seed=1, n=1_000_000)
    ok = report.ok and report.elapsed_seconds < 60.0
    _report("A08 Monte Carlo demand consistency", ok,
            f"{report.counts['checks']} checks, worst {report.counts['worst_sigma']} "
            f"sigma, equal-subsidy case q3=0 confirmed, "
            f"{report.elapsed_seconds:.1f}s")


def test_a09_thresholds():
    """Published ordering thresholds: values and observable consequences."""
    start = perf_counter()
    p = Params(alpha=0.5, c_m=1.0, c_r=0.5, s=0.2)
    th = thresholds(p)
    star_ok = abs(th.alpha_star - 0.328767) <= 1e-6
    hat_ok = th.alpha_hat == pytest.approx(1.5, abs=1e-12)

    price = audit_ordering("P5", p)
    grid = [a for a, _ in price.evidence]
    diffs = [d for _, d in price.evidence]
    step = grid[1] - grid[0]
    flips = [grid[i] for i in range(1, len(diffs))
             if (diffs[i] > 0) != (diffs[i - 1] > 0)]
    flip_ok = any(abs(f - th.alpha_star) <= step + 1e-12 for f in flips)

    subsidy = audit_ordering("P6", p)
    constant_ok = subsidy.observed in ("less_than", "greater_than")
    elapsed = perf_counter() - start
    ok = star_ok and hat_ok and flip_ok and constant_ok and elapsed < 5.0
    _report("A09 ordering thresholds (MR)", ok,
            f"alpha*={th.alpha_star:.6f} ({'ok' if star_ok else 'off'}); "
            f"price-ordering flips at {flips or 'none'} vs threshold "
            f"{th.alpha_star:.4f} ({'ok' if flip_ok else 'NO FLIP AT THRESHOLD'}); "
            f"alpha_hat={th.alpha_hat} ({'ok' if hat_ok else 'off'}); subsidy "
            f"ordering constant: {subsidy.observed} "
            f"({'ok' if constant_ok else 'not constant'}); {elapsed:.1f}s")


def test_a10_table_discrepancy_report(tmp_path):
    """The table comparison emits gaps for all rows and flags q1 < 0."""
    start = perf_counter()
    out = tmp_path / "table4.json"
    code = cli_main(["table4", "--format", "json", "--out", str(out)])
    cells = {(c["model"], c["alpha"], c["variable"]): c
             for c in json.loads(out.read_text())["cells"]}
    rows = {(m, a) for (m, a, _) in cells}
    spot = [
        (("M", 0.7, "p_m"), 1.3, 0.960606),
        (("R", 0.65, "t"), 0.4, 0.350812),
        (("R", 0.65, "p_r"), 1.5, 1.532305),
    ]
    spots_ok = all(
        cells[key]["published"] == published
        and abs(cells[key]["computed"] - computed) < 1e-6
        and abs(cells[key]["abs_gap"] - abs(published - computed)) < 1e-6
        for key, published, computed in spot)
    costly = [c for c in cells.values() if c["c_m"] > 1.0]
    flags_ok = costly and all(c["q1"] < 0.0 and not c["interior_valid"] for c in costly)
    elapsed = perf_counter() - start
    ok = code == 0 and len(rows) == 6 and spots_ok and bool(flags_ok) and elapsed < 1.0
    _report("A10 published-table discrepancy report", ok,
            f"6 rows compared; spot gaps ok={spots_ok}; q1<0 flagged on all "
            f"{len(costly)} cells with c_m>1; {elapsed:.2f}s")


def test_a11_determinism(tmp_path):
    """Identical flags and seed produce byte-identical output files."""
    start = perf_counter()
    pairs = []
    for name, argv in (
        ("sweep", ["sweep", "--preset", "fig4", "--out"]),
        ("verify", ["verify", "endpoints", "--samples", "6", "--seed", "3", "--out"]),
        ("simulate", ["simulate", "--model", "m", "--alpha", "0.5", "--pm", "0.3",
                      "--pr", "0.6", "--w", "0.4", "--bm", "0.2", "--n", "200000",
                      "--seed", "5", "--out"]),
    ):
        a = tmp_path / f"{name}_a"
        b = tmp_path / f"{name}_b"
        assert cli_main(argv + [str(a)]) == 0
        assert cli_main(argv + [str(b)]) == 0
        pairs.append((name, a.read_bytes() == b.read_bytes()))
    elapsed = perf_counter() - start
    ok = all(same for _, same in pairs)
    _report("A11 byte-identical outputs", ok,
            ", ".join(f"{name}: {'identical' if same else 'DIFFER'}"
                      for name, same in pairs) + f"; {elapsed:.1f}s")
