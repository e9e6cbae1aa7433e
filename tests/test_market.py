"""Utilities, segment masses, profits, and validity flags."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcclsc import (
    DecisionSet,
    ModelId,
    MrDemandVariant,
    OutOfDomain,
    Params,
    Singularity,
    demand,
    profits,
    utilities,
    validity,
)
from dcclsc.closed_form import equilibrium_m
from dcclsc.market import choice_masks, choice_segment, profit_values, segment_masses


def _dm(p_m=0.3, p_r=0.6, w=0.4, b_m=0.2):
    return DecisionSet(model=ModelId.M, p_m=p_m, p_r=p_r, w=w, b_m=b_m)


def _dr(p_m=0.3, p_r=0.6, w=0.4, b_r=0.2, t=0.3):
    return DecisionSet(model=ModelId.R, p_m=p_m, p_r=p_r, w=w, b_r=b_r, t=t)


def _dmr(p_m=0.3, p_r=0.6, w=0.4, b_m=0.3, b_r=0.3, t=0.35):
    return DecisionSet(model=ModelId.MR, p_m=p_m, p_r=p_r, w=w, b_m=b_m, b_r=b_r, t=t)


class TestUtilities:
    def test_direct_channel_indifference(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        us = utilities(ModelId.M, _dm(p_m=0.3), 0.6, 0.5, p)
        assert us["U1"] == pytest.approx(0.0, abs=1e-15)

    def test_tradein_indifference(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        us = utilities(ModelId.M, _dm(b_m=0.2), 0.5, 0.2, p)
        assert us["U3"] == pytest.approx(0.0, abs=1e-15)

    def test_mr_subsidy_tie(self):
        p = Params(alpha=0.6, c_m=0.2, c_r=0.1, s=0.0)
        us = utilities(ModelId.MR, _dmr(b_m=0.4, b_r=0.3), 0.5, 0.25, p)
        assert us["U3"] == pytest.approx(0.15)
        assert us["U4"] == pytest.approx(0.15)
        # the tie resolves to the manufacturer's subsidy
        assert choice_segment(ModelId.MR, _dmr(b_m=0.4, b_r=0.3), 0.5, 0.25, p)[1] == 3

    @pytest.mark.parametrize("model, d", [(ModelId.M, _dm()), (ModelId.R, _dr()),
                                          (ModelId.MR, _dmr(b_m=0.4, b_r=0.3))])
    def test_choice_masks_match_per_pair_argmax(self, model, d):
        # reference: the per-pair argmax over utilities with the fixed
        # tie-breaks; the grid holds exact ties, e.g. U3 = U4 at (0.5, 0.25)
        p = Params(alpha=0.6, c_m=0.2, c_r=0.1, s=0.0)
        grid = np.linspace(0.0, 1.0, 41)
        v, u = (a.ravel() for a in np.meshgrid(grid, grid))
        masks = choice_masks(model, d, v, u, p)
        for k in range(v.size):
            us = utilities(model, d, float(v[k]), float(u[k]), p)
            if us["U1"] >= us["U2"] and us["U1"] >= 0.0:
                primary = 1
            elif us["U2"] > us["U1"] and us["U2"] >= 0.0:
                primary = 2
            else:
                primary = 0
            if "U4" not in us:
                tradein = 3 if us["U3"] >= 0.0 else 0
            elif us["U3"] >= us["U4"] and us["U3"] >= 0.0:
                tradein = 3
            elif us["U4"] > us["U3"] and us["U4"] >= 0.0:
                tradein = 4
            else:
                tradein = 0
            chosen = [seg for seg, m in enumerate(masks, 1) if m is not None and m[k]]
            assert chosen == [seg for seg in (primary, tradein) if seg], (v[k], u[k])
            assert choice_segment(model, d, float(v[k]), float(u[k]), p) == (primary, tradein)

    def test_valuations_must_be_in_unit_interval(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        with pytest.raises(OutOfDomain):
            utilities(ModelId.M, _dm(), 1.5, 0.5, p)
        with pytest.raises(OutOfDomain):
            utilities(ModelId.M, _dm(), 0.5, -0.1, p)


class TestDemand:
    def test_model_m_boundary_case(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        q = demand(ModelId.M, _dm(p_m=0.3, p_r=0.6, b_m=0.2), p)
        assert q.q1 == pytest.approx(0.0, abs=1e-15)
        assert q.q2 == pytest.approx(0.4)
        assert q.q3 == pytest.approx(0.2)
        assert q.q4 is None

    def test_model_m_equilibrium_masses(self, params_m):
        q = equilibrium_m(params_m).demands
        assert q.q1 == pytest.approx(0.02956989247311828, abs=1e-12)
        assert q.q2 == pytest.approx(0.25, abs=1e-12)
        assert q.q3 == pytest.approx(0.27419354838709675, abs=1e-12)

    def test_model_r_tradein_mass(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        q = demand(ModelId.R, _dr(b_r=0.2), p)
        assert q.q3 == pytest.approx(0.4)

    def test_mr_equal_subsidies_adopted_variant(self):
        p = Params(alpha=0.6, c_m=0.2, c_r=0.1, s=0.0)
        q = demand(ModelId.MR, _dmr(b_m=0.3, b_r=0.3), p)
        assert q.q3 == pytest.approx(0.0, abs=1e-15)
        assert q.q4 == pytest.approx(0.5)

    def test_mr_equal_subsidies_as_printed_variant(self):
        p = Params(alpha=0.6, c_m=0.2, c_r=0.1, s=0.0)
        q = demand(ModelId.MR, _dmr(b_m=0.3, b_r=0.3), p, MrDemandVariant.AS_PRINTED)
        assert q.q3 == pytest.approx(1.0)

    def test_values_returned_unclamped(self):
        p = Params(alpha=0.7, c_m=1.2, c_r=1.0, s=0.1)
        q = demand(ModelId.M, _dm(p_m=0.96, p_r=1.19, b_m=1.5), p)
        assert q.q1 < 0.0
        assert q.q3 == pytest.approx(1.5)

    def test_singularity_guard(self):
        p = Params(alpha=1.0 - 5e-14, c_m=0.2, c_r=0.1, s=0.0)
        with pytest.raises(Singularity):
            demand(ModelId.M, _dm(), p)

    def test_kernel_broadcasts_over_arrays(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        p_r = np.array([0.5, 0.6, 0.7])
        q1, q2, q3, _ = segment_masses(ModelId.M, 0.3, p_r, 0.2, None, p.alpha)
        for i, pr in enumerate(p_r):
            q = demand(ModelId.M, _dm(p_r=float(pr)), p)
            assert q1[i] == pytest.approx(q.q1)
            assert q2[i] == pytest.approx(q.q2)
        assert q3 == 0.2


class TestProfits:
    def test_equilibrium_profits(self, params_m):
        pr = equilibrium_m(params_m).profit
        assert pr.pi_m == pytest.approx(0.22701612903225807, abs=1e-12)
        assert pr.pi_r == pytest.approx(0.00625, abs=1e-12)

    def test_zero_margin_construction(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.05)
        b_m = p.delta + p.s  # with p_m = c_m this zeroes the trade-in margin
        d = DecisionSet(model=ModelId.M, p_m=p.c_m, p_r=p.c_m, w=p.c_m, b_m=b_m)
        out = profits(ModelId.M, d, p)
        assert out.pi_m == pytest.approx(0.0, abs=1e-15)
        assert out.pi_r == pytest.approx(0.0, abs=1e-15)

    def test_retailer_profit_zero_when_retail_demand_zero(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        d = _dm(p_m=0.2, p_r=0.7, w=0.4)  # p_r - p_m = 1 - alpha forces q2 = 0
        assert demand(ModelId.M, d, p).q2 == pytest.approx(0.0, abs=1e-15)
        assert profits(ModelId.M, d, p).pi_r == pytest.approx(0.0, abs=1e-15)

    def test_r_transfer_at_subsidy_zeroes_tradein_term(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        d = _dr(p_m=0.2, p_r=0.2, w=0.2, b_r=0.3, t=0.3)  # p_r = w and t = b_r
        assert profits(ModelId.R, d, p).pi_r == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("model, variant", [
        (ModelId.M, MrDemandVariant.ADOPTED), (ModelId.R, MrDemandVariant.ADOPTED),
        (ModelId.MR, MrDemandVariant.ADOPTED), (ModelId.MR, MrDemandVariant.AS_PRINTED)])
    def test_profit_terms_match_written_out_profits(self, model, variant):
        # each model's profits written out in full are the reference: the
        # term table must reproduce them bit for bit
        p = Params(alpha=0.6, c_m=1.0, c_r=0.5, s=0.2)
        p_m, p_r, w, b_m, b_r, t = np.random.default_rng(5).uniform(-1.0, 2.0, (6, 1000))
        q1, q2, q3, q4 = segment_masses(model, p_m, p_r, b_m, b_r, p.alpha, variant)
        c_m, delta, s = p.c_m, p.delta, p.s
        base_m = (p_m - c_m) * q1 + (w - c_m) * q2
        base_r = (p_r - w) * q2
        if model is ModelId.M:
            want = base_m + (delta + s + p_m - c_m - b_m) * q3, base_r
        elif model is ModelId.R:
            want = (base_m + (delta + s + w - c_m - t) * q3,
                    base_r + (p_r + t - w - b_r) * q3)
        else:
            want = (base_m + (delta + s + p_m - c_m - b_m) * q3 + (delta + s + w - c_m - t) * q4,
                    base_r + (p_r + t - w - b_r) * q4)
        got = profit_values(model, p_m, p_r, w, b_m, b_r, t, p, variant)
        assert all(np.array_equal(g, x) for g, x in zip(got, want))

    def test_chain_profit_is_exact_sum(self):
        p = Params(alpha=0.65, c_m=1.5, c_r=0.7, s=0.2)
        out = profits(ModelId.R, _dr(), p)
        assert out.pi_s == out.pi_m + out.pi_r  # bitwise, not approximate


class TestValidity:
    def test_interior_equilibrium(self, params_m):
        assert equilibrium_m(params_m).validity.interior

    def test_sensitivity_row_flags_negative_q1(self):
        p = Params(alpha=0.7, c_m=1.2, c_r=1.0, s=0.1)
        eq = equilibrium_m(p)
        assert eq.demands.q1 == pytest.approx(-0.6222943722943723, abs=1e-9)
        report = eq.validity
        assert not report.check("q1_in_unit").ok
        assert not report.interior

    def test_boundary_is_not_interior(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        d = _dm(p_m=0.3, p_r=0.6)  # p_m = alpha * p_r exactly
        report = validity(ModelId.M, d, p)
        assert report.check("q1_in_unit").slack == pytest.approx(0.0, abs=1e-15)
        assert not report.interior

    def test_transfer_flag(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        bad = validity(ModelId.R, _dr(b_r=0.4, t=0.1), p)
        assert not bad.check("transfer_covers_subsidy").ok
        good = validity(ModelId.R, _dr(b_r=0.1, t=0.4), p)
        assert good.check("transfer_covers_subsidy").ok

    def test_margins_are_informational(self):
        p = Params(alpha=0.9, c_m=0.15, c_r=0.12, s=0.02)
        eq = equilibrium_m(p)
        assert eq.validity.interior
        # a negative wholesale margin does not break interiority by itself
        worse = validity(ModelId.M, eq.decisions.replace(w=0.14), p)
        assert not worse.check("margin_wholesale").ok
        assert worse.check("margin_wholesale").informational


finite_price = st.floats(-0.5, 1.5)
unit_alpha = st.floats(0.05, 0.95)


class TestAlgebraicInvariants:
    @given(alpha=unit_alpha, p_m=finite_price, p_r=finite_price)
    @settings(max_examples=200)
    def test_primary_adding_up(self, alpha, p_m, p_r):
        # q1 + q2 = 1 - p_m / alpha, identically in the decisions
        p = Params(alpha=alpha, c_m=0.5, c_r=0.25, s=0.0)
        d = DecisionSet(model=ModelId.M, p_m=p_m, p_r=p_r, w=0.4, b_m=0.2)
        q = demand(ModelId.M, d, p)
        assert q.q1 + q.q2 == pytest.approx(1.0 - p_m / alpha, abs=1e-9, rel=1e-9)

    @given(alpha=unit_alpha, b_m=st.floats(0.0, 1.0), b_r=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_mr_tradein_adding_up(self, alpha, b_m, b_r):
        # q3 + q4 = b_r / alpha under the adopted segment-3 form
        p = Params(alpha=alpha, c_m=0.5, c_r=0.25, s=0.0)
        d = DecisionSet(model=ModelId.MR, p_m=0.3, p_r=0.6, w=0.4, b_m=b_m, b_r=b_r, t=0.5)
        q = demand(ModelId.MR, d, p)
        assert q.q3 + q.q4 == pytest.approx(b_r / alpha, abs=1e-9, rel=1e-9)

    @given(alpha=unit_alpha, p_m=finite_price, p_r=finite_price, w=finite_price,
           b_r=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_profit_sum_identity(self, alpha, p_m, p_r, w, b_r, t):
        p = Params(alpha=alpha, c_m=0.5, c_r=0.25, s=0.1)
        d = DecisionSet(model=ModelId.R, p_m=p_m, p_r=p_r, w=w, b_r=b_r, t=t)
        out = profits(ModelId.R, d, p)
        assert out.pi_s == out.pi_m + out.pi_r

    @given(alpha=unit_alpha, v=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_choice_consistent_with_utilities(self, alpha, v, u):
        p = Params(alpha=alpha, c_m=0.5, c_r=0.25, s=0.0)
        d = _dmr(p_m=0.3, p_r=0.6, b_m=0.35, b_r=0.3)
        us = utilities(ModelId.MR, d, v, u, p)
        primary, tradein = choice_segment(ModelId.MR, d, v, u, p)
        if primary == 1:
            assert us["U1"] >= us["U2"] and us["U1"] >= 0.0
        if tradein == 4:
            assert us["U4"] > us["U3"] and us["U4"] >= 0.0
