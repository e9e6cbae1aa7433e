"""Closed-form equilibria: golden values, identities, limits, singularities."""

import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dcclsc
from dcclsc import (
    ModelId,
    OutOfDomain,
    Params,
    Singularity,
    certify_mr_variant,
    decision_fields,
    equilibrium,
    limits,
    singularity_distance,
)
from dcclsc import closed_form
from dcclsc.closed_form import (
    POLES,
    decision_values,
    decision_values_m,
    decision_values_mr,
    decision_values_r,
    equilibrium_m,
    equilibrium_mr,
    equilibrium_r,
    mr_helper_values,
    mr_helpers,
    retailer_reaction_m,
)

#: the one MR pole in (0, 1), near 0.24794
MR_UNIT_ROOT = POLES[ModelId.MR][1]

# frozen from exact rational evaluation of the expressions
GOLDEN_M = {"p_m": 0.6483870967741936, "p_r": 0.7233870967741935,
            "w": 0.6983870967741935, "b_m": 0.27419354838709675}
GOLDEN_R = {"p_m": 1.2016233766233766, "p_r": 1.532305194805195,
            "w": 1.3766233766233766, "b_r": 0.2532467532467532,
            "t": 0.3508116883116883}
GOLDEN_MR_PRINTED = {"p_m": 0.9812286689419796, "w": 1.1812286689419795,
                     "b_m": 1.3668941979522184, "b_r": -0.5795221843003413,
                     "p_r": -1.3140784982935154, "t": 0.48600682593856653}
SENSITIVITY_M_07 = {"p_m": 0.9606060606060606, "p_r": 1.1856060606060606,
                    "w": 1.1106060606060606, "b_m": 0.030303030303030304}


def params_strategy():
    return st.builds(
        lambda alpha, c_r, gap, s: Params(alpha=alpha, c_m=c_r + gap, c_r=c_r, s=s),
        alpha=st.floats(0.01, 0.99),
        c_r=st.floats(0.01, 2.0),
        gap=st.floats(0.001, 2.0),
        s=st.floats(0.0, 1.0),
    )


class TestModelM:
    def test_golden_decisions(self, params_m):
        got = equilibrium_m(params_m).decisions.as_dict()
        for name, val in GOLDEN_M.items():
            assert got[name] == pytest.approx(val, abs=1e-12), name

    def test_golden_is_interior(self, params_m):
        assert equilibrium_m(params_m).validity.interior

    def test_sensitivity_row_violates_interiority(self):
        p = Params(alpha=0.7, c_m=1.2, c_r=1.0, s=0.1)
        eq = equilibrium_m(p)
        for name, val in SENSITIVITY_M_07.items():
            assert eq.decisions.as_dict()[name] == pytest.approx(val, abs=1e-12), name
        assert not eq.validity.interior

    def test_never_singular_on_unit_interval(self):
        for alpha in (1e-9, 0.5, 1.0 - 1e-9):
            p = Params(alpha=alpha, c_m=0.5, c_r=0.25, s=0.0)
            assert equilibrium_m(p).singularity_distance > 3.0

    @given(params_strategy())
    @settings(max_examples=150, deadline=None)
    def test_foc_identities(self, p):
        d = equilibrium_m(p).decisions
        assert d.p_r == pytest.approx((1.0 - p.alpha + d.p_m + d.w) / 2.0, abs=1e-9)
        assert d.b_m == pytest.approx((p.delta + p.s + d.p_m - p.c_m) / 2.0, abs=1e-9)

    def test_subsidy_identity_value_at_golden(self, params_m):
        d = equilibrium_m(params_m).decisions
        rhs = (params_m.delta + params_m.s + d.p_m - params_m.c_m) / 2.0
        assert d.b_m == pytest.approx(0.274194, abs=1e-6)
        assert rhs == pytest.approx(0.274194, abs=1e-6)

    @given(params_strategy())
    @settings(max_examples=150, deadline=None)
    def test_price_gap_formula(self, p):
        # p_m - p_r reduces to (3a^2 - 15a + 12) / (4(a - 4)): negative on (0, 1)
        d = equilibrium_m(p).decisions
        a = p.alpha
        gap = (3.0 * a * a - 15.0 * a + 12.0) / (4.0 * (a - 4.0))
        assert d.p_m - d.p_r == pytest.approx(gap, abs=1e-9)
        assert gap < 0.0

    def test_limits_alpha_zero(self, params_m):
        c_m, delta, s = params_m.c_m, params_m.delta, params_m.s
        at0 = {k: v[0] for k, v in limits(ModelId.M, params_m).items()}
        assert at0["p_m"] == pytest.approx(c_m / 2.0, abs=1e-12)
        assert at0["w"] == pytest.approx((c_m + 1.0) / 2.0, abs=1e-12)
        assert at0["b_m"] == pytest.approx((2.0 * delta - c_m + 2.0 * s) / 4.0, abs=1e-12)
        assert at0["p_r"] == pytest.approx((2.0 * c_m + 3.0) / 4.0, abs=1e-12)

    def test_limits_alpha_one(self, params_m):
        c_m, delta, s = params_m.c_m, params_m.delta, params_m.s
        at1 = {k: v[1] for k, v in limits(ModelId.M, params_m).items()}
        assert at1["p_m"] == pytest.approx((2.0 + c_m + delta + s) / 3.0, abs=1e-12)
        assert at1["w"] == pytest.approx((c_m + delta + s + 2.0) / 3.0, abs=1e-12)
        assert at1["p_r"] == pytest.approx((c_m + delta + s + 2.0) / 3.0, abs=1e-12)
        # true endpoint; the published value has -1 in place of +1
        assert at1["b_m"] == pytest.approx((2.0 * delta - c_m + 2.0 * s + 1.0) / 3.0, abs=1e-12)


class TestRetailerReaction:
    def test_matches_published_endpoint_at_alpha_zero(self):
        c_m = 0.8
        got = (1.0 - 0.0 + c_m / 2.0 + (c_m + 1.0) / 2.0) / 2.0
        assert got == pytest.approx((2.0 * c_m + 3.0) / 4.0, abs=1e-15)

    def test_golden_point(self, params_m):
        assert retailer_reaction_m(0.6983870967741935, 0.6483870967741936, params_m) == \
            pytest.approx(0.7233870967741935, abs=1e-12)

    def test_zero_prices(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        assert retailer_reaction_m(0.0, 0.0, p) == pytest.approx(0.25)


class TestModelR:
    def test_golden_decisions(self, params_r):
        got = equilibrium_r(params_r).decisions.as_dict()
        for name, val in GOLDEN_R.items():
            assert got[name] == pytest.approx(val, abs=1e-12), name

    def test_golden_transfer_covers_subsidy_but_q1_negative(self, params_r):
        eq = equilibrium_r(params_r)
        assert eq.decisions.t > eq.decisions.b_r
        assert not eq.validity.check("q1_in_unit").ok

    def test_pole_raises(self):
        with pytest.raises(Singularity):
            equilibrium_r(Params(alpha=2.0 / 9.0, c_m=0.5, c_r=0.25, s=0.0))

    def test_near_pole_raises_within_guard(self):
        with pytest.raises(Singularity):
            equilibrium_r(Params(alpha=0.2222222, c_m=0.5, c_r=0.25, s=0.0))

    def test_limits_alpha_zero_true_values(self, params_r):
        c_m, delta, s = params_r.c_m, params_r.delta, params_r.s
        at0 = {k: v[0] for k, v in limits(ModelId.R, params_r).items()}
        assert at0["p_m"] == pytest.approx(c_m / 2.0, abs=1e-12)
        assert at0["b_r"] == pytest.approx(0.0, abs=1e-15)
        # true limits of the expressions; both differ from the published endpoint forms
        assert at0["w"] == pytest.approx((c_m + 1.0) / 2.0, abs=1e-12)
        assert at0["p_r"] == pytest.approx((3.0 * c_m - 2.0 * delta - 2.0 * s + 2.0) / 4.0, abs=1e-12)
        assert at0["t"] == pytest.approx((2.0 * delta - c_m + 2.0 * s) / 4.0, abs=1e-12)


class TestModelMR:
    def test_helper_terms_golden(self, params_mr):
        x1, x2, x3 = mr_helpers(params_mr)
        assert x1 == pytest.approx(2.776, abs=1e-12)
        assert x2 == pytest.approx(0.4, abs=1e-12)
        assert x3 == pytest.approx(-0.912, abs=1e-12)

    def test_helper_limits_alpha_zero(self):
        x1, x2, x3 = mr_helper_values(0.0, c_m=1.0, delta=0.5, s=0.2)
        assert x1 == pytest.approx(-2.0)
        assert x2 == pytest.approx(2.0 * 0.5 - 1.0 + 2.0 * 0.2)
        assert x3 == pytest.approx(0.0, abs=1e-15)

    def test_printed_decisions_golden(self, params_mr):
        got = equilibrium(ModelId.MR, params_mr).decisions.as_dict()
        for name, val in GOLDEN_MR_PRINTED.items():
            assert got[name] == pytest.approx(val, abs=1e-12), name

    def test_denominator_root_bracketing(self):
        den = lambda a: 2.0 * a ** 3 + 3.0 * a ** 2 - 17.0 * a + 4.0
        assert den(0.0) == pytest.approx(4.0)
        assert den(0.35) == pytest.approx(-1.49675, abs=1e-5)
        assert den(0.24) > 0.0 > den(0.25)
        assert [r for r in POLES[ModelId.MR] if 0.0 < r < 1.0] == [MR_UNIT_ROOT]
        assert 0.24 < MR_UNIT_ROOT < 0.25

    def test_denominator_roots_are_numpys(self):
        # the literal keeps numpy.roots' values bit for bit: the golden MR
        # payloads print distances to the unit root
        want = sorted(float(r.real) for r in np.roots([2.0, 3.0, -17.0, 4.0])
                      if abs(r.imag) < 1e-12)
        assert [r.hex() for r in POLES[ModelId.MR]] == [r.hex() for r in want]

    def test_import_calls_no_root_finder(self):
        # numpy.roots is an eigenvalue (LAPACK) call; importing the package makes none
        code = ("import numpy\n"
                "def refuse(*args, **kwargs):\n"
                "    raise AssertionError('numpy.roots called')\n"
                "numpy.roots = refuse\n"
                "import dcclsc\n")
        env = dict(os.environ, PYTHONPATH=str(Path(dcclsc.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_pole_raises(self):
        with pytest.raises(Singularity):
            equilibrium_mr(Params(alpha=MR_UNIT_ROOT, c_m=0.5, c_r=0.25, s=0.0))

    def test_certification_records_no_consistent_variant(self, params_mr):
        assert certify_mr_variant(equilibrium_mr(params_mr).decisions, params_mr) == "none"

    def test_outcome_recomputed_from_decisions(self, params_mr):
        from dcclsc import demand

        eq = equilibrium(ModelId.MR, params_mr)
        q = demand(ModelId.MR, eq.decisions, params_mr)
        assert eq.demands == q


class TestContinuity:
    @pytest.mark.parametrize("values,alpha", [
        (decision_values_m, 0.6), (decision_values_r, 0.6), (decision_values_mr, 0.6),
        (decision_values_m, 0.35), (decision_values_r, 0.35), (decision_values_mr, 0.35),
    ])
    def test_small_perturbation_bound(self, values, alpha):
        eps = 1e-7
        base = values(alpha, 1.0, 0.5, 0.2)
        moved = values(alpha + eps, 1.0, 0.5, 0.2)
        for name in base:
            assert abs(moved[name] - base[name]) < 1e3 * eps, name


class TestSingularityDistance:
    def test_distances(self):
        assert singularity_distance(ModelId.M, 0.5) == pytest.approx(3.5)
        assert singularity_distance(ModelId.R, 0.3) == pytest.approx(0.3 - 2.0 / 9.0)
        assert singularity_distance(ModelId.MR, MR_UNIT_ROOT) == pytest.approx(0.0, abs=1e-12)

    def test_equilibrium_records_distance(self, params_r):
        eq = equilibrium_r(params_r)
        assert eq.singularity_distance == pytest.approx(0.65 - 2.0 / 9.0)


#: Costs so large that every model's closed form overflows, at every alpha.
HUGE = Params(0.5, 1e308, 1.0, 0.0)


class TestRefusal:
    """decision_values alone refuses an evaluation, for one alpha or a grid."""

    @pytest.mark.parametrize("model", list(ModelId))
    def test_limits_beyond_float_range_are_a_domain_error(self, model):
        # once inf and nan limits
        with pytest.raises(OutOfDomain, match="float arithmetic overflows"):
            limits(model, HUGE)

    @pytest.mark.parametrize("model", list(ModelId))
    def test_equilibrium_beyond_float_range_names_each_decision(self, model):
        with pytest.raises(OutOfDomain) as exc:
            equilibrium(model, HUGE)
        assert {v.field for v in exc.value.violations} <= set(decision_fields(model))
        assert all("float arithmetic overflows" in v.constraint for v in exc.value.violations)

    @pytest.mark.parametrize("alpha", [2.0 / 9.0, np.array([0.1, 2.0 / 9.0, 0.5]),
                                       np.array([0.5, 0.3, 2.0 / 9.0])],
                             ids=["float", "grid", "grid_ending_on_the_pole"])
    @pytest.mark.parametrize("c_m", [1.0, 1e308])
    def test_zero_denominator_whatever_its_numerator(self, alpha, c_m):
        # at 1e308 every numerator overflows too; the pole still wins, for a
        # float and for a grid, and is reported with guard 0
        with pytest.raises(Singularity) as exc:
            decision_values(ModelId.R, alpha, c_m, c_m / 2.0, 0.0)
        assert (exc.value.alpha, exc.value.distance, exc.value.guard) == (2.0 / 9.0, 0.0, 0.0)
        assert "model R closed form" in str(exc.value)

    def test_guard_zero_reaches_the_zero_denominator(self):
        # decision_values has no band (guard 0); numpy's float64 alpha once
        # warned of a division by zero, then ended in OutOfDomain, not Singularity
        for alpha in (2.0 / 9.0, np.float64(2.0 / 9.0)):
            with pytest.raises(Singularity) as exc:
                decision_values(ModelId.R, alpha, 1.0, 0.5, 0.0)
            assert exc.value.guard == 0.0 and "model R closed form" in str(exc.value)

    # MR's denominator at its float roots is 1e-15 to 1e-14, not 0
    @pytest.mark.parametrize("model, pole", [(ModelId.M, 4.0), (ModelId.R, 2.0 / 9.0)])
    def test_numpy_primitives_read_as_their_python_floats(self, model, pole):
        # a numpy alpha or cost at a zero denominator once warned five times
        # of a division by zero, then ended in OutOfDomain ("float arithmetic
        # overflows"), and a 0-d array alpha in an IndexError traceback
        at_pole = (pole, 1.0, 0.5, 0.2)
        inside = (0.5, 1.0, 0.5, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Singularity) as twin:
                decision_values(model, *at_pole)
            for i in range(4):
                for wrap in (np.float64, np.array):
                    args = [wrap(v) if j == i else v for j, v in enumerate(at_pole)]
                    with pytest.raises(Singularity) as exc:
                        decision_values(model, *args)
                    assert str(exc.value) == str(twin.value)
                    args = [wrap(v) if j == i else v for j, v in enumerate(inside)]
                    values = decision_values(model, *args)
                    assert values == decision_values(model, *inside)
                    assert all(type(v) is float for v in values.values())

    def test_grid_point_finite_only_as_a_float_is_still_refused(self, monkeypatch):
        # numpy's power may round differently from the float path's; a grid
        # point that fails only in the array is refused by its array values
        def overflowing_grid(alpha, c_m, delta, s):
            values = decision_values_m(alpha, c_m, delta, s)
            if isinstance(alpha, np.ndarray):
                values["w"] = np.where(alpha > 0.4, np.inf, values["w"])
            return values

        monkeypatch.setitem(closed_form._VALUE_FUNCTIONS, ModelId.M, overflowing_grid)
        with pytest.raises(OutOfDomain) as exc:
            decision_values(ModelId.M, np.array([0.3, 0.5, 0.7]), 1.0, 0.5, 0.2)
        assert [(v.field, v.value) for v in exc.value.violations] == [("w", np.inf)]

    @pytest.mark.parametrize("value", [Decimal("0.5"), "0.5", None, 10 ** 400, True],
                             ids=["decimal", "str", "none", "huge_int", "bool"])
    @pytest.mark.parametrize("position", range(4))
    def test_primitive_that_is_not_a_number_is_refused(self, value, position):
        # once TypeError (a Decimal, a str, None) or OverflowError (an int
        # beyond float range) from the arithmetic, under warnings as errors
        args = [0.6, 1.0, 0.5, 0.2]
        args[position] = value
        field = ("alpha", "c_m", "delta", "s")[position]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomain) as exc:
                decision_values(ModelId.M, *args)
            if position == 0:
                with pytest.raises(OutOfDomain) as twin:
                    singularity_distance(ModelId.R, value)
                assert str(twin.value) == str(exc.value)
        assert str(exc.value) == f"{field}={value!r} violates: must be a finite real or a Fraction"

    def test_fractions_stay_exact_beyond_float_range(self):
        values = decision_values(ModelId.M, Fraction(1, 2), Fraction(10) ** 400, Fraction(1),
                                 Fraction(0))
        assert all(isinstance(v, Fraction) for v in values.values())
        assert values["p_m"] == Fraction(3 * 10 ** 400 + 3, 7)
