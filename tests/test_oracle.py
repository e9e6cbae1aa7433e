"""Numeric solver, second-order checks, Monte Carlo simulation."""

import contextlib
import io
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st
import pytest

from dcclsc import (
    DecisionSet,
    ModelId,
    MrDemandVariant,
    NonConcave,
    OracleConfig,
    OutOfDomain,
    Params,
    certify_mr_variant,
    check_soc,
    equilibrium,
    monte_carlo_demand,
    solve_stackelberg_numeric,
    stationarity_residuals,
)
from dcclsc import market, oracle
from dcclsc.cli import main
from dcclsc.closed_form import (
    decision_values,
    equilibrium_m,
    equilibrium_r,
    limits,
    retailer_reaction_m,
)
from dcclsc.oracle import best_response_retailer, sample_params
from dcclsc.params import PLAYER_FIELDS, Primitives

# true joint-model equilibrium under the adopted demand variant at
# (alpha=0.6, c_m=1, c_r=0.5, s=0.2), frozen from an exact rational solve
# of the two-stage first-order system
GOLDEN_MR_EXACT = {"p_m": Fraction(1081, 1070), "p_r": Fraction(1587, 1070),
                   "w": Fraction(259, 214), "b_m": Fraction(38, 107),
                   "b_r": Fraction(45, 107), "t": Fraction(38, 107)}
GOLDEN_MR_TRUE = {name: float(value) for name, value in GOLDEN_MR_EXACT.items()}


def _exact(p: Params) -> Primitives:
    """The primitive record of ``p``'s floats, read exactly as Fractions."""
    return Primitives(Fraction(p.alpha), Fraction(p.c_m), Fraction(p.c_m) - Fraction(p.c_r),
                      Fraction(p.s))


WIDE_BOX = {k: (-1.0, 3.0) for k in ("p_m", "p_r", "w", "b_m", "b_r", "t")}

_CHUNK, _BLOCK = 1 << 18, oracle._MC_BLOCK
# Monte Carlo cases in which every segment has a positive mass
MC_PARAMS = Params(alpha=0.6, c_m=0.5, c_r=0.25, s=0.1)
MC_DECISIONS = {
    ModelId.M: DecisionSet(model=ModelId.M, p_m=0.3, p_r=0.6, w=0.4, b_m=0.3),
    ModelId.R: DecisionSet(model=ModelId.R, p_m=0.3, p_r=0.6, w=0.4, b_r=0.2, t=0.3),
    ModelId.MR: DecisionSet(model=ModelId.MR, p_m=0.3, p_r=0.6, w=0.4, b_m=0.3, b_r=0.2,
                            t=0.35),
}


class TestBestResponse:
    def test_matches_reaction_function_model_m(self, params_m):
        for w, p_m in [(0.7, 0.6), (0.2, 0.1), (1.5, 0.9), (0.698387, 0.648387)]:
            got = best_response_retailer(ModelId.M, {"w": w, "p_m": p_m, "b_m": 0.2}, params_m)
            assert got["p_r"] == pytest.approx(retailer_reaction_m(w, p_m, params_m), abs=1e-8)

    @given(alpha=st.floats(0.05, 0.95), w=st.floats(-1.0, 3.0), p_m=st.floats(-1.0, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_reaction_exactness_property(self, alpha, w, p_m):
        p = Params(alpha=alpha, c_m=0.5, c_r=0.25, s=0.1)
        got = best_response_retailer(ModelId.M, {"w": w, "p_m": p_m, "b_m": 0.2}, p)
        assert got["p_r"] == pytest.approx(retailer_reaction_m(w, p_m, p), abs=1e-8)

    def test_reaction_at_equal_prices(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        for p_m in (0.0, 0.3, 0.7):
            got = best_response_retailer(ModelId.M, {"w": p_m, "p_m": p_m, "b_m": 0.1}, p)
            assert got["p_r"] == pytest.approx((0.5 + 2.0 * p_m) / 2.0, abs=1e-10)

    def test_model_r_at_golden_leader_values(self, params_r):
        eq = equilibrium_r(params_r)
        got = best_response_retailer(
            ModelId.R, {"p_m": eq.decisions.p_m, "w": eq.decisions.w, "t": eq.decisions.t},
            params_r)
        assert got["p_r"] == pytest.approx(1.532305194805195, abs=1e-6)
        assert got["b_r"] == pytest.approx(0.2532467532467532, abs=1e-6)

    def test_leader_variable_set_is_checked(self, params_m):
        with pytest.raises(OutOfDomain):
            best_response_retailer(ModelId.M, {"w": 0.5, "p_m": 0.4}, params_m)
        with pytest.raises(OutOfDomain):
            best_response_retailer(ModelId.R, {"w": 0.5, "p_m": 0.4, "b_m": 0.1}, params_m)

    def test_wrong_leader_variables_are_named_by_their_keys(self, params_m):
        # once "leader_vars=nan violates: ..."
        with pytest.raises(OutOfDomain) as exc:
            best_response_retailer(ModelId.M, {"w": 0.5, "p_m": 0.4}, params_m)
        assert str(exc.value) == ("leader_vars=['p_m', 'w'] violates: "
                                  "model M leader sets ['b_m', 'p_m', 'w']")

    @pytest.mark.parametrize("model, alpha, concave", [
        (ModelId.R, 0.19, False), (ModelId.R, 0.2, False), (ModelId.R, 0.201, True),
        (ModelId.MR, 0.24, False), (ModelId.MR, 0.25, False), (ModelId.MR, 0.251, True)])
    def test_non_concave_below_follower_threshold(self, model, alpha, concave):
        # joint retailer objective loses concavity at alpha <= 1/5 (R), 1/4 (MR)
        p = Params(alpha=alpha, c_m=0.5, c_r=0.25, s=0.0)
        leader = {"w": 0.5, "p_m": 0.4, "b_m": 0.1, "t": 0.2}
        leader = {n: v for n, v in leader.items() if n in PLAYER_FIELDS[model][0]}
        if concave:
            assert set(best_response_retailer(model, leader, p)) == {"p_r", "b_r"}
        else:
            with pytest.raises(NonConcave):
                best_response_retailer(model, leader, p)


class TestStackelbergSolve:
    def test_model_m_agreement(self, params_m):
        num = solve_stackelberg_numeric(ModelId.M, params_m).decisions.as_dict()
        closed = equilibrium_m(params_m).decisions.as_dict()
        for name in closed:
            assert num[name] == pytest.approx(closed[name], abs=1e-6), name

    def test_model_r_agreement(self, params_r):
        num = solve_stackelberg_numeric(ModelId.R, params_r).decisions.as_dict()
        closed = equilibrium_r(params_r).decisions.as_dict()
        for name in closed:
            assert num[name] == pytest.approx(closed[name], abs=1e-6), name

    def test_model_mr_golden(self, params_mr):
        num = solve_stackelberg_numeric(ModelId.MR, params_mr).decisions.as_dict()
        for name, val in GOLDEN_MR_TRUE.items():
            assert num[name] == pytest.approx(val, abs=1e-6), name

    @pytest.mark.parametrize("model, alpha_lo", [(ModelId.M, 0.01), (ModelId.R, 0.3)])
    @given(alpha=st.floats(0.0, 1.0), c_m=st.floats(0.01, 10.0),
           cost_share=st.floats(0.01, 0.99), s=st.floats(0.0, 6.0))
    @settings(max_examples=100, deadline=None)
    def test_closed_form_equals_exact_oracle(self, model, alpha_lo, alpha, c_m, cost_share, s):
        # admissible domain: costs and subsidies up to the figure presets'
        # levels; model R keeps clear of its pole at 2/9, where the decisions
        # grow without bound (test_r_near_its_pole covers it)
        p = Params(alpha=alpha_lo + (0.99 - alpha_lo) * alpha, c_m=c_m,
                   c_r=cost_share * c_m, s=s)
        num = solve_stackelberg_numeric(model, p).decisions.as_dict()
        for name, value in equilibrium(model, p).decisions.as_dict().items():
            assert num[name] == pytest.approx(value, rel=1e-6, abs=1e-6), name

    @pytest.mark.parametrize("case", ["solve", "certify", "soc", "residuals", "solve_verify"])
    def test_mr_solve_profit_point_budget(self, case, params_mr, monkeypatch):
        # a hardware-independent cost gate: each identification is one call
        # of the parts kernel on n + 2 = 8 points (0 with the costs, 0 and the
        # six unit vectors without), and a solve or a check makes one, a
        # certification one per variant; make_equilibrium's calls are scalar
        identifications = {"solve": 1, "certify": 2, "soc": 1, "residuals": 1,
                           "solve_verify": 3}[case]
        numeric = solve_stackelberg_numeric(ModelId.MR, params_mr)
        run = {
            "solve": lambda: solve_stackelberg_numeric(ModelId.MR, params_mr),
            "certify": lambda: certify_mr_variant(
                equilibrium(ModelId.MR, params_mr).decisions, params_mr),
            "soc": lambda: check_soc(ModelId.MR, numeric, params_mr),
            "residuals": lambda: stationarity_residuals(ModelId.MR, numeric.decisions, params_mr),
            "solve_verify": lambda: main(["solve", "--model", "mr", "--alpha", "0.6", "--cm", "1",
                                          "--cr", "0.5", "--s", "0.2", "--verify"]),
        }[case]
        points = []
        kernel = market.profit_parts

        def counting(*args, **kwargs):
            out = kernel(*args, **kwargs)
            points.append(np.size(out[0][0]))
            return out

        monkeypatch.setattr(market, "profit_parts", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            run()
        assert [n for n in points if n > 1] == [8] * identifications
        assert set(points) <= {1, 8}

    @pytest.mark.parametrize("case", ["M", "R", "MR", "certify", "check_soc", "residuals"])
    def test_box_read_and_lapack_call_budget(self, case, params_mr, monkeypatch):
        # a hardware-independent cost gate: a solve, a check or a certification
        # builds no OracleConfig and makes no numpy.linalg call (once each
        # identification made up to two eigendecompositions and two linear
        # solves); check_soc alone asks for the two Hessians' eigenvalues
        eq = equilibrium(ModelId.MR, params_mr)
        calls = {"OracleConfig": 0}

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return function(*args, **kwargs)
            return counted

        monkeypatch.setattr(OracleConfig, "__post_init__",
                            counting("OracleConfig", OracleConfig.__post_init__))
        for name in np.linalg.__all__:
            function = getattr(np.linalg, name)
            if callable(function) and not isinstance(function, type):
                monkeypatch.setattr(np.linalg, name, counting(name, function))
        {"certify": lambda: certify_mr_variant(eq.decisions, params_mr),
         "check_soc": lambda: check_soc(ModelId.MR, eq, params_mr),
         "residuals": lambda: stationarity_residuals(ModelId.MR, eq.decisions, params_mr),
         }.get(case, lambda: solve_stackelberg_numeric(ModelId(case), params_mr))()
        assert calls == {"OracleConfig": 0, **({"eigvalsh": 2} if case == "check_soc" else {})}

    @pytest.mark.parametrize("cfg", ["x", {"leader_box": None}, WIDE_BOX, 0], ids=repr)
    def test_cfg_that_is_not_an_oracle_config_is_refused(self, params_m, cfg):
        # once "x" and the mappings ended in an AttributeError traceback, and
        # 0 silently meant the default
        with pytest.raises(OutOfDomain) as exc:
            solve_stackelberg_numeric(ModelId.M, params_m, cfg)
        assert str(exc.value) == f"cfg={cfg!r} violates: must be None or an OracleConfig"

    def test_accuracy_against_the_exact_closed_forms(self, params_mr):
        # the published M and R expressions are the game's solution, and
        # evaluated in Fractions they are exact: the oracle stays at roundoff
        eps = np.finfo(float).eps
        for model in (ModelId.M, ModelId.R):
            for p in sample_params(300, 11):
                exact = decision_values(model, Fraction(p.alpha), Fraction(p.c_m),
                                        Fraction(p.delta), Fraction(p.s))
                assert all(isinstance(v, Fraction) for v in exact.values())
                num = solve_stackelberg_numeric(model, p).decisions.as_dict()
                scale = max(abs(v) for v in exact.values())
                for name, value in exact.items():
                    assert abs(Fraction(num[name]) - value) <= 32 * Fraction(eps) * scale, name
        num = solve_stackelberg_numeric(ModelId.MR, params_mr).decisions.as_dict()
        for name, value in GOLDEN_MR_EXACT.items():
            assert abs(Fraction(num[name]) - value) <= 16 * Fraction(math.ulp(float(value))), name

    def test_mr_manufacturer_subsidy_equals_transfer_price(self):
        # a finding of the game's MR solution: b_m* = t*, hence t* - b_r* = (1 - alpha) q3*
        for p in sample_params(300, 11):
            eq = solve_stackelberg_numeric(ModelId.MR, p)
            d = eq.decisions
            scale = max(1.0, *(abs(v) for v in d.as_dict().values()))
            assert abs(d.b_m - d.t) <= 1e-12 * scale
            assert abs((d.t - d.b_r) - (1.0 - p.alpha) * eq.demands.q3) <= 1e-12 * scale

    def test_provenance_and_determinism(self, params_m):
        a = solve_stackelberg_numeric(ModelId.M, params_m)
        b = solve_stackelberg_numeric(ModelId.M, params_m)
        assert a.provenance == "numeric_oracle"
        assert a.decisions == b.decisions  # bit-identical

    def test_box_excluding_the_optimum_does_not_bound_the_answer(self, params_m):
        # golden p_m* is about 0.648, outside each p_m interval; the solver
        # reads no box, and once the solve raised BoxBoundary here
        closed = equilibrium_m(params_m).decisions.as_dict()
        for box in ({**WIDE_BOX, "p_m": (-1.0, 0.5)}, {"p_m": (-1.0, 0.5)},
                    {"p_m": (100.0, 101.0)}):
            num = solve_stackelberg_numeric(ModelId.M, params_m, OracleConfig(leader_box=box))
            for name, value in closed.items():
                assert num.decisions.as_dict()[name] == pytest.approx(value, rel=1e-12), (box, name)

    @pytest.mark.parametrize("model, alpha, outcome", [
        (ModelId.R, 0.21, NonConcave), (ModelId.R, 0.22, NonConcave), (ModelId.R, 0.23, None),
        (ModelId.MR, 0.26, NonConcave), (ModelId.MR, 0.27, NonConcave),
        (ModelId.MR, 0.2768, NonConcave), (ModelId.MR, 0.277, None),
        (ModelId.MR, 0.28, None), (ModelId.MR, 0.30, None)])
    def test_leader_existence_threshold(self, model, alpha, outcome):
        # above the follower bounds 1/5 (R) and 1/4 (MR) the leader's reduced
        # profit is still convex in one direction up to 2/9 (R) and
        # (15 - sqrt(193))/4 = 0.27689 (MR); just above the MR threshold the
        # optimum is large but solves (0.277 and 0.28 once raised BoxBoundary)
        params = Params(alpha=alpha, c_m=1.0, c_r=0.5, s=0.2)
        if outcome is None:
            eq = solve_stackelberg_numeric(model, params)
            assert eq.provenance == "numeric_oracle"
            # the solve and the second-order check apply one concavity rule
            soc = check_soc(model, eq, params)
            assert soc.follower_negative_definite and soc.leader_negative_definite
        else:
            with pytest.raises(outcome, match="leader"):
                solve_stackelberg_numeric(model, params)

    @pytest.mark.parametrize("costs", [(1.0, 0.5, 0.2), (6.0, 3.0, 1.0)])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_r_near_its_pole(self, costs, k):
        # the decisions grow like 1/(9 alpha - 2), to about 1e7 at 1e-8 above
        # the pole; the stencil step grows with the point, so the solve keeps
        # to the exact closed form at the decisions' scale
        p = Params(2.0 / 9.0 + 10.0 ** -k, *costs)
        num = solve_stackelberg_numeric(ModelId.R, p).decisions.as_dict()
        exact = decision_values(ModelId.R, Fraction(p.alpha), Fraction(p.c_m),
                                Fraction(p.c_m) - Fraction(p.c_r), Fraction(p.s))
        for name, value in exact.items():
            assert abs(Fraction(num[name]) - value) <= 1e-6 * max(1, abs(value)), name

    @pytest.mark.parametrize("costs", [(1.0, 0.5, 0.2), (6.0, 3.0, 1.0)])
    @pytest.mark.parametrize("k", range(1, 10))
    def test_mr_near_its_pole(self, costs, k):
        p = Params((15.0 - math.sqrt(193.0)) / 4.0 + 10.0 ** -k, *costs)
        eq = solve_stackelberg_numeric(ModelId.MR, p)
        assert max(stationarity_residuals(ModelId.MR, eq.decisions, p).values()) \
            <= oracle.STATIONARITY_TOL

    @pytest.mark.parametrize("costs", [(1.0, 0.5, 0.2), (6.0, 3.0, 1.0)])
    @pytest.mark.parametrize("model, pole", [
        (ModelId.R, 2.0 / 9.0), (ModelId.MR, (15.0 - math.sqrt(193.0)) / 4.0)])
    def test_refused_at_the_pole(self, model, pole, costs):
        # from 1e-10 above either pole the concavity rule refuses
        with pytest.raises(NonConcave, match="leader"):
            solve_stackelberg_numeric(model, Params(pole + 1e-10, *costs))

    @pytest.mark.parametrize("model, c_m, s", [(ModelId.R, 1e300, 1e300), (ModelId.M, 1e160, 0.0)])
    def test_profit_beyond_float_range_is_refused(self, model, c_m, s):
        # the solver's own refusal, independent of the closed form's
        with pytest.raises(OutOfDomain, match="profit=.*overflows in the game's quadratic form"):
            solve_stackelberg_numeric(model, Params(alpha=0.5, c_m=c_m, c_r=1.0, s=s))

    def test_differences_beyond_float_range_are_refused(self):
        # profits just below the float limit: once their second differences
        # overflowed to inf and NaN outside the errstate block, warned, and
        # passed the curvature test into LAPACK; now the quadratic form's
        # gradient term at the point overflows, without a warning
        p = Params(alpha=0.5, c_m=1e154, c_r=1.0, s=0.0)
        d = equilibrium(ModelId.M, p).decisions
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomain,
                               match="profit=.*overflows in the game's quadratic form"):
                stationarity_residuals(ModelId.M, d, p)

    @pytest.mark.parametrize("box", [{"p_m": (1e308, 1.7e308)}, {"p_m": (-1.7e308, -1e308)},
                                     WIDE_BOX, {"p_m": (-1.0, 0.5)}, {"t": (100.0, 101.0)}])
    def test_explicit_box_changes_no_bit(self, params_mr, box):
        # the solver reads no box: once a box set the first difference
        # stencil, and the first two ended in "overflows on the difference stencil"
        cfg = OracleConfig(leader_box=box)
        for model in ModelId:
            plain = solve_stackelberg_numeric(model, params_mr)
            assert solve_stackelberg_numeric(model, params_mr, cfg) == plain

    @pytest.mark.parametrize("model", list(ModelId))
    @pytest.mark.parametrize("c_m", [1e10, 1e16], ids=["1e10", "1e16"])
    def test_huge_costs_match_the_exact_solve(self, model, c_m):
        # the Hessians read alpha only, so no cost level loses the curvature:
        # once a cost of 1e10 was refused as "too large to resolve its curvature"
        p = Params(alpha=0.5, c_m=c_m, c_r=c_m / 2.0, s=0.0)
        num = solve_stackelberg_numeric(model, p).decisions.as_dict()
        exact = oracle.stackelberg_decisions(model, _exact(p))
        scale = max(abs(v) for v in exact.values())
        for name, value in exact.items():
            assert abs(Fraction(num[name]) - value) <= Fraction(1e-12) * scale, name

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
    def test_mr_singularity_distance_is_the_games(self, alpha):
        # the game's MR pole, not the published denominator's root near 0.24794
        eq = solve_stackelberg_numeric(ModelId.MR, Params(alpha=alpha, c_m=1.0, c_r=0.5, s=0.2))
        assert eq.singularity_distance == abs(alpha - (15 - math.sqrt(193)) / 4)

    def test_as_printed_variant_is_ill_posed(self):
        # the segment-3 "1 - gap" variant makes the leader's reduced profit
        # convex along b_m: its curvature there is 2(1 - kappa)/(1 - alpha) > 0,
        # with kappa = alpha(1 - 2 alpha)/(1 - 4 alpha) the slope of b_r* in b_m;
        # exact on Fractions, and within roundoff on floats
        b_m = PLAYER_FIELDS[ModelId.MR][0].index("b_m")
        for alpha in (Fraction(26, 100), Fraction(3, 10), Fraction(45, 100), Fraction(3, 5),
                      Fraction(9, 10)):
            p = Params(alpha=float(alpha), c_m=1.0, c_r=0.5, s=0.2)
            kappa = alpha * (1 - 2 * alpha) / (1 - 4 * alpha)
            curvature = 2 * (1 - kappa) / (1 - alpha)
            assert curvature > 0
            exact = oracle._identify(ModelId.MR, Primitives(alpha, Fraction(1), Fraction(1, 2),
                                                            Fraction(1, 5)),
                                     MrDemandVariant.AS_PRINTED)
            assert exact.leader_system[0][b_m, b_m] == curvature, alpha
            game = oracle._identify(ModelId.MR, p, MrDemandVariant.AS_PRINTED)
            assert game.leader_system[0][b_m, b_m] == pytest.approx(curvature, rel=1e-12), alpha
            with pytest.raises(NonConcave, match="leader"):
                oracle.stackelberg_decisions(ModelId.MR, p, MrDemandVariant.AS_PRINTED)


class TestExactSolve:
    """The solver's one code path on Fractions: an exact solve."""

    def test_golden_mr_point(self):
        exact = oracle.stackelberg_decisions(
            ModelId.MR, Primitives(Fraction(3, 5), Fraction(1), Fraction(1, 2), Fraction(1, 5)))
        assert exact == GOLDEN_MR_EXACT

    @pytest.fixture(scope="class")
    def draws(self):
        return [(p, {model: oracle.stackelberg_decisions(model, _exact(p)) for model in ModelId})
                for p in sample_params(300, 11)]

    def test_equals_the_published_m_and_r_expressions(self, draws):
        # the published M and R expressions are the game's solution, exactly
        for p, exact in draws:
            for model in (ModelId.M, ModelId.R):
                assert exact[model] == decision_values(model, *_exact(p)), (model, p)

    def test_float_solve_is_within_roundoff_of_the_exact_one(self, draws):
        for p, exact in draws:
            for model, values in exact.items():
                num = solve_stackelberg_numeric(model, p).decisions.as_dict()
                scale = max(abs(v) for v in values.values())
                for name, value in values.items():
                    assert abs(Fraction(num[name]) - value) <= Fraction(1e-12) * scale, (model, p)

    def test_stage_named_at_alpha_one_fifth(self):
        # alpha = 0.2 is the float just above R's follower bound 1/5: exactly,
        # the retailer is concave there and the leader (below 2/9) is not; in
        # floats the retailer's pivot is roundoff, below the pivot rule's share
        p = Params(alpha=0.2, c_m=1.0, c_r=0.5, s=0.2)
        with pytest.raises(NonConcave, match="^leader reduced profit not concave"):
            oracle.stackelberg_decisions(ModelId.R, _exact(p))
        with pytest.raises(NonConcave, match="^retailer profit in p_r, b_r not concave"):
            solve_stackelberg_numeric(ModelId.R, p)

    @pytest.mark.parametrize("params", [Primitives(0.6, 1.0, 0.5, 0.2), (0.6, 1.0, 0.5, 0.2),
                                        None], ids=["float record", "tuple", "none"])
    def test_record_that_is_neither_is_refused(self, params):
        with pytest.raises(OutOfDomain) as exc:
            oracle.stackelberg_decisions(ModelId.M, params)
        assert str(exc.value) == (f"params={params!r} violates: "
                                  "must be a Params or a Primitives of Fractions")


class TestSecondOrderConditions:
    def test_follower_hessian_model_m(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        eq = equilibrium_m(p)
        soc = check_soc(ModelId.M, eq, p)
        assert len(soc.follower_hessian_eigs) == 1
        assert soc.follower_hessian_eigs[0] == pytest.approx(-4.0, abs=1e-4)

    def test_golden_equilibrium_negative_definite(self, params_m):
        soc = check_soc(ModelId.M, equilibrium_m(params_m), params_m)
        assert soc.follower_negative_definite
        assert soc.leader_negative_definite

    def test_report_as_dict(self, params_m):
        soc = check_soc(ModelId.M, equilibrium_m(params_m), params_m)
        assert soc.as_dict() == {
            "follower_hessian_eigs": list(soc.follower_hessian_eigs),
            "leader_reduced_hessian_eigs": list(soc.leader_reduced_hessian_eigs),
            "follower_negative_definite": True,
            "leader_negative_definite": True,
        }

    def test_near_pole_leader_stage_fails(self):
        # just below the pole the reduced leader problem is indefinite
        p = Params(alpha=2.0 / 9.0 - 1e-3, c_m=0.5, c_r=0.25, s=0.1)
        eq = equilibrium(ModelId.R, p)
        soc = check_soc(ModelId.R, eq, p)
        assert soc.follower_negative_definite
        assert not soc.leader_negative_definite
        assert max(soc.leader_reduced_hessian_eigs) > -1e-9


class TestMonteCarlo:
    def test_model_m_shares_within_three_se(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        d = DecisionSet(model=ModelId.M, p_m=0.3, p_r=0.6, w=0.4, b_m=0.2)
        mc = monte_carlo_demand(ModelId.M, d, p, n=1_000_000, seed=7)
        for got, want, se in [(mc.shares.q1, 0.0, mc.stderr.q1),
                              (mc.shares.q2, 0.4, mc.stderr.q2),
                              (mc.shares.q3, 0.2, mc.stderr.q3)]:
            assert abs(got - want) <= 3.0 * se + 1e-12

    def test_model_r_tradein_share(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        d = DecisionSet(model=ModelId.R, p_m=0.3, p_r=0.6, w=0.4, b_r=0.2, t=0.3)
        mc = monte_carlo_demand(ModelId.R, d, p, n=400_000, seed=11)
        assert mc.shares.q3 == pytest.approx(0.4, abs=3.0 * mc.stderr.q3 + 1e-12)

    def test_confirms_golden_equilibrium_masses(self, params_m):
        eq = equilibrium_m(params_m)
        mc = monte_carlo_demand(ModelId.M, eq.decisions, params_m, n=1_000_000, seed=13)
        for name, want in eq.demands.as_dict().items():
            got = mc.shares.as_dict()[name]
            se = mc.stderr.as_dict()[name]
            assert abs(got - want) <= 3.0 * se + 1e-12, name

    def test_mr_equal_subsidies_adjudicates_variant(self):
        p = Params(alpha=0.6, c_m=0.2, c_r=0.1, s=0.0)
        d = DecisionSet(model=ModelId.MR, p_m=0.3, p_r=0.6, w=0.4, b_m=0.3, b_r=0.3, t=0.35)
        mc = monte_carlo_demand(ModelId.MR, d, p, n=1_000_000, seed=3)
        assert mc.shares.q3 == pytest.approx(0.0, abs=1e-5)  # adopted variant: 0, printed: 1
        assert mc.shares.q4 == pytest.approx(0.5, abs=3.0 * mc.stderr.q4)

    def test_deterministic_given_seed(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        d = DecisionSet(model=ModelId.M, p_m=0.3, p_r=0.6, w=0.4, b_m=0.2)
        a = monte_carlo_demand(ModelId.M, d, p, n=300_000, seed=5)
        b = monte_carlo_demand(ModelId.M, d, p, n=300_000, seed=5)
        assert a.shares == b.shares
        assert monte_carlo_demand(ModelId.M, d, p, n=300_000, seed=6).shares != a.shares

    def test_convergence_rate(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        d = DecisionSet(model=ModelId.M, p_m=0.3, p_r=0.6, w=0.4, b_m=0.2)
        small = monte_carlo_demand(ModelId.M, d, p, n=250_000, seed=9)
        big = monte_carlo_demand(ModelId.M, d, p, n=1_000_000, seed=9)
        ratio = small.stderr.q2 / big.stderr.q2
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_sample_count_validated(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        d = DecisionSet(model=ModelId.M, p_m=0.3, p_r=0.6, w=0.4, b_m=0.2)
        with pytest.raises(OutOfDomain):
            monte_carlo_demand(ModelId.M, d, p, n=0, seed=1)

    def test_negative_seed_is_a_domain_error(self):
        with pytest.raises(OutOfDomain, match="seed"):
            monte_carlo_demand(ModelId.M, MC_DECISIONS[ModelId.M], MC_PARAMS, n=10, seed=-1)
        with pytest.raises(OutOfDomain, match="seed"):
            sample_params(1, -1)

    @pytest.mark.parametrize("model", list(ModelId))
    # 2^15 +- 1 straddle the second block edge (and the block size before 2^14)
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 32767, 32768, 32769,
                                   _CHUNK - 1, _CHUNK, _CHUNK + 1, 1_000_000])
    def test_blocks_keep_every_draw(self, model, n):
        # reference: pair i is draw i mod 2^18 of the substream seeded by
        # (seed, i // 2^18), each substream drawn in one call
        assert _CHUNK % _BLOCK == 0
        p, d = MC_PARAMS, MC_DECISIONS[model]
        counts = np.zeros(4, dtype=np.int64)
        for idx, start in enumerate(range(0, n, _CHUNK)):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(17, spawn_key=(idx,))))
            draws = rng.random((min(_CHUNK, n - start), 2))
            masks = market.choice_masks(d, draws[:, 0], draws[:, 1], p)
            counts += [0 if m is None else np.count_nonzero(m) for m in masks]
        mc = monte_carlo_demand(model, d, p, n=n, seed=17)
        shares = list(mc.shares.as_dict().values())
        assert shares == [c / n for c in counts[:len(shares)]]

    @pytest.mark.parametrize("model", list(ModelId))
    def test_memory_bounded_per_block(self, model):
        p, d = MC_PARAMS, MC_DECISIONS[model]
        monte_carlo_demand(model, d, p, n=1000, seed=1)
        tracemalloc.start()
        try:
            monte_carlo_demand(model, d, p, n=1_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * 2**20


class TestStationarity:
    def test_numeric_solution_is_stationary(self, params_m):
        eq = solve_stackelberg_numeric(ModelId.M, params_m)
        res = stationarity_residuals(ModelId.M, eq.decisions, params_m)
        assert max(res.values()) < 1e-6

    def test_closed_forms_are_stationary_for_m_and_r(self):
        from dcclsc.closed_form import equilibrium_m as eq_m, equilibrium_r as eq_r

        for p in sample_params(20, seed=29):
            res_m = stationarity_residuals(ModelId.M, eq_m(p).decisions, p)
            assert max(res_m.values()) < 1e-6, p
            res_r = stationarity_residuals(ModelId.R, eq_r(p).decisions, p)
            assert max(res_r.values()) < 1e-6, p

    def test_true_mr_point_certifies_adopted_variant(self, params_mr):
        d = DecisionSet(model=ModelId.MR, **GOLDEN_MR_TRUE)
        assert certify_mr_variant(d, params_mr) == "adopted"

    @pytest.mark.parametrize("alpha, verdict", [
        (0.24, "follower_non_concave"), (0.26, "leader_non_concave"), (0.6, "none")])
    def test_verdict_names_the_stage_without_an_equilibrium(self, alpha, verdict):
        # on (1/4, 0.27689) the retailer is concave but the leader is not, so
        # no Stackelberg point exists to certify the closed form against
        p = Params(alpha=alpha, c_m=1.0, c_r=0.5, s=0.2)
        assert certify_mr_variant(equilibrium(ModelId.MR, p).decisions, p) == verdict

    def test_printed_mr_point_certifies_nothing(self, params_mr):
        eq = equilibrium(ModelId.MR, params_mr)
        assert certify_mr_variant(eq.decisions, params_mr) == "none"


#: Each model's closed-form equilibrium at the golden MR point.
_OWN = {model: equilibrium(model, Params(alpha=0.6, c_m=1.0, c_r=0.5, s=0.2))
        for model in ModelId}


def _model_refusal(model: ModelId, owner: ModelId) -> str:
    return f"^model='{model.value}' violates: the decisions belong to model {owner.value}$"


class TestOwnModel:
    """An entry taking a model besides the decisions refuses one that
    disagrees, naming both."""

    @pytest.mark.parametrize("model, owner", [(ModelId.M, ModelId.MR), (ModelId.R, ModelId.M)])
    def test_monte_carlo_refuses_another_model(self, model, owner):
        # once a silent simulation of MR decisions as M, and numpy's UFuncTypeError
        eq = _OWN[owner]
        with pytest.raises(OutOfDomain, match=_model_refusal(model, owner)):
            monte_carlo_demand(model, eq.decisions, eq.params, n=10, seed=0)

    def test_stationarity_refuses_another_model(self):
        # once blamed on "overflows on the difference stencil"
        eq = _OWN[ModelId.M]
        with pytest.raises(OutOfDomain, match=_model_refusal(ModelId.R, ModelId.M)):
            stationarity_residuals(ModelId.R, eq.decisions, eq.params)

    def test_certification_refuses_decisions_of_another_model(self):
        eq = _OWN[ModelId.M]
        with pytest.raises(OutOfDomain, match=_model_refusal(ModelId.MR, ModelId.M)):
            certify_mr_variant(eq.decisions, eq.params)

    def test_soc_refuses_another_model(self):
        # once a report on MR's point, judged as M's game
        eq = _OWN[ModelId.MR]
        with pytest.raises(OutOfDomain, match=_model_refusal(ModelId.M, ModelId.MR)):
            check_soc(ModelId.M, eq, eq.params)

    def test_soc_refuses_other_params(self):
        eq, other = _OWN[ModelId.M], Params(alpha=0.3, c_m=1.0, c_r=0.5, s=0.2)
        with pytest.raises(OutOfDomain) as exc:
            check_soc(ModelId.M, eq, other)
        assert str(exc.value) == (f"params={other.as_dict()!r} violates: "
                                  f"the equilibrium is at {eq.params.as_dict()!r}")

    @pytest.mark.parametrize("params", [None, {"alpha": 0.6}], ids=["none", "dict"])
    def test_soc_names_params_that_are_not_params(self, params):
        # once AttributeError from the refusal's own message
        eq = _OWN[ModelId.M]
        with pytest.raises(OutOfDomain) as exc:
            check_soc(ModelId.M, eq, params)
        assert str(exc.value) == (f"params={params!r} violates: "
                                  f"the equilibrium is at {eq.params.as_dict()!r}")

    @pytest.mark.parametrize("eq", [None, 3, "decisions"], ids=["none", "int", "decisions"])
    def test_soc_refuses_what_is_not_an_equilibrium(self, eq):
        # once AttributeError on eq.decisions
        eq = _OWN[ModelId.M].decisions if eq == "decisions" else eq
        with pytest.raises(OutOfDomain) as exc:
            check_soc(ModelId.M, eq, _OWN[ModelId.M].params)
        assert str(exc.value) == f"eq={eq!r} violates: must be an Equilibrium"


_ENTRIES = {
    "solve_stackelberg_numeric": lambda p: solve_stackelberg_numeric(ModelId.M, p),
    "stationarity_residuals": lambda p: stationarity_residuals(
        ModelId.M, _OWN[ModelId.M].decisions, p),
    "certify_mr_variant": lambda p: certify_mr_variant(_OWN[ModelId.MR].decisions, p),
    "best_response_retailer": lambda p: best_response_retailer(
        ModelId.M, {"p_m": 0.5, "w": 0.5, "b_m": 0.1}, p),
    "monte_carlo_demand": lambda p: monte_carlo_demand(ModelId.M, _OWN[ModelId.M].decisions, p,
                                                       n=10, seed=0),
    "limits": lambda p: limits(ModelId.M, p),
    "equilibrium": lambda p: equilibrium(ModelId.M, p),
}


class TestParamsReader:
    """Every entry point reads its ``params`` through ``params.read_params``."""

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    @pytest.mark.parametrize("params", [None, {"alpha": 0.6}, 3, (0.6, 1.0, 0.5, 0.2)],
                             ids=["none", "dict", "int", "tuple"])
    def test_params_that_are_not_params_are_refused(self, entry, params):
        # once AttributeError (for all but check_soc, which names the value
        # as not the equilibrium's), under warnings as errors as well
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomain) as exc:
                _ENTRIES[entry](params)
        assert str(exc.value) == f"params={params!r} violates: must be a Params"

    @pytest.mark.parametrize("entry", ["certify", "residuals", "monte_carlo"])
    @pytest.mark.parametrize("decisions", [None, {"p_m": 0.5}], ids=["none", "dict"])
    def test_decisions_that_are_not_a_decision_set_are_refused(self, entry, decisions):
        # once AttributeError from model_of
        p = _OWN[ModelId.MR].params
        call = {"certify": lambda: certify_mr_variant(decisions, p),
                "residuals": lambda: stationarity_residuals(ModelId.MR, decisions, p),
                "monte_carlo": lambda: monte_carlo_demand(ModelId.MR, decisions, p, n=10,
                                                          seed=0)}[entry]
        with pytest.raises(OutOfDomain) as exc:
            call()
        assert str(exc.value) == f"decisions={decisions!r} violates: must be a DecisionSet"


class TestSampling:
    def test_deterministic_and_admissible(self):
        a = sample_params(50, seed=123)
        b = sample_params(50, seed=123)
        assert a == b
        for p in a:
            assert 0.3 <= p.alpha <= 0.95
            assert 0.0 < p.c_r < p.c_m < 1.0
            assert 0.0 <= p.s <= 0.3
            assert abs(p.alpha - 2.0 / 9.0) >= 0.01
