"""Utilities, segment masses, profits, and validity flags."""

import dataclasses
from fractions import Fraction

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
    equilibrium,
)
from dcclsc import market
from dcclsc.closed_form import equilibrium_m
from dcclsc.market import (
    choice_masks,
    choice_segment,
    profit_values,
    profits,
    segment_masses,
    utilities,
    validity,
)


def _dm(p_m=0.3, p_r=0.6, w=0.4, b_m=0.2):
    return DecisionSet(model=ModelId.M, p_m=p_m, p_r=p_r, w=w, b_m=b_m)


def _dr(p_m=0.3, p_r=0.6, w=0.4, b_r=0.2, t=0.3):
    return DecisionSet(model=ModelId.R, p_m=p_m, p_r=p_r, w=w, b_r=b_r, t=t)


def _dmr(p_m=0.3, p_r=0.6, w=0.4, b_m=0.3, b_r=0.3, t=0.35):
    return DecisionSet(model=ModelId.MR, p_m=p_m, p_r=p_r, w=w, b_m=b_m, b_r=b_r, t=t)


class TestUtilities:
    def test_direct_channel_indifference(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        us = utilities(_dm(p_m=0.3), 0.6, 0.5, p)
        assert us["U1"] == pytest.approx(0.0, abs=1e-15)

    def test_tradein_indifference(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        us = utilities(_dm(b_m=0.2), 0.5, 0.2, p)
        assert us["U3"] == pytest.approx(0.0, abs=1e-15)

    def test_mr_subsidy_tie(self):
        p = Params(alpha=0.6, c_m=0.2, c_r=0.1, s=0.0)
        us = utilities(_dmr(b_m=0.4, b_r=0.3), 0.5, 0.25, p)
        assert us["U3"] == pytest.approx(0.15)
        assert us["U4"] == pytest.approx(0.15)
        # the tie resolves to the manufacturer's subsidy
        assert choice_segment(_dmr(b_m=0.4, b_r=0.3), 0.5, 0.25, p)[1] == 3

    @pytest.mark.parametrize("model, d, workspace", [
        pytest.param(model, d, workspace, id=f"{model.value}-d{i}" + "-workspace" * workspace)
        for workspace in (False, True)
        for i, (model, d) in enumerate([(ModelId.M, _dm()), (ModelId.R, _dr()),
                                        (ModelId.MR, _dmr(b_m=0.4, b_r=0.3))])])
    def test_choice_masks_match_per_pair_argmax(self, model, d, workspace):
        # reference: the per-pair argmax over utilities with the fixed
        # tie-breaks; the grid holds exact ties, e.g. U3 = U4 at (0.5, 0.25)
        p = Params(alpha=0.6, c_m=0.2, c_r=0.1, s=0.0)
        grid = np.linspace(0.0, 1.0, 41)
        # (v, u) columns of one array, strided like the simulation's draws
        pairs = np.column_stack([a.ravel() for a in np.meshgrid(grid, grid)])
        v, u = pairs[:, 0], pairs[:, 1]
        expected = []
        for k in range(v.size):
            us = utilities(d, float(v[k]), float(u[k]), p)
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
            expected.append([seg for seg in (primary, tradein) if seg])
            assert choice_segment(d, float(v[k]), float(u[k]), p) == (primary, tradein)

        def chosen(masks, k):
            return [seg for seg, m in enumerate(masks, 1) if m is not None and m[k]]

        out = market.choice_workspace(v.size) if workspace else None
        masks = choice_masks(d, v, u, p, out=out)
        assert [chosen(masks, k) for k in range(v.size)] == expected
        if workspace:
            assert all(m is None or np.shares_memory(m, out[1]) for m in masks)
            # a partial last block: the first m pairs on the workspace sliced
            # to m, after scrambling what the full pass left there
            m = v.size // 3 + 1
            out[0].fill(np.nan)
            np.invert(out[1], out=out[1])
            part = choice_masks(d, v[:m], u[:m], p, out=(out[0][:, :m], out[1][:, :m]))
            assert all(x is None or x.shape == (m,) for x in part)
            assert [chosen(part, k) for k in range(m)] == expected[:m]

    def test_valuations_must_be_in_unit_interval(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        with pytest.raises(OutOfDomain):
            utilities(_dm(), 1.5, 0.5, p)
        with pytest.raises(OutOfDomain):
            utilities(_dm(), 0.5, -0.1, p)


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

    @pytest.mark.parametrize("model, decisions", [(ModelId.M, _dm), (ModelId.R, _dr)])
    def test_variant_outside_model_mr_is_refused(self, model, decisions):
        # only model MR reads the variant; the others once ignored it
        p = Params(alpha=0.6, c_m=0.2, c_r=0.1, s=0.0)
        with pytest.raises(OutOfDomain, match=f"^variant='as_printed' violates: model "
                                              f"{model.value} has no segment-3 demand"):
            demand(model, decisions(), p, MrDemandVariant.AS_PRINTED)
        with pytest.raises(OutOfDomain, match="has no segment-3 demand variant"):
            equilibrium(model, Params(alpha=0.6, c_m=1.0, c_r=0.5, s=0.2),
                        variant=MrDemandVariant.AS_PRINTED)
        assert demand(model, decisions(), p, "adopted") == demand(model, decisions(), p)

    @pytest.mark.parametrize("variant", list(MrDemandVariant))
    def test_masses_beyond_float_range_are_a_domain_error(self, variant):
        # once q1=-inf and q2=inf, refused only by the simulate command
        d = _dmr(p_m=1e308, p_r=-1e308, w=0.5, b_m=0.3, b_r=0.2, t=0.4)
        p = Params(0.6, 1, 0.5, 0.2)
        named = (r"^q1=-inf violates: must be finite; float arithmetic overflows here; "
                 r"q2=inf violates: must be finite; float arithmetic overflows here$")
        with pytest.raises(OutOfDomain, match=named):
            demand(ModelId.MR, d, p, variant)
        if variant is MrDemandVariant.ADOPTED:
            with pytest.raises(OutOfDomain, match=named):
                validity(d, p)

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

    @pytest.mark.parametrize("model,variant,want", [
        (ModelId.M, MrDemandVariant.ADOPTED, (Fraction(1, 4), Fraction(1, 4), Fraction(3, 10),
                                              None)),
        (ModelId.R, MrDemandVariant.ADOPTED, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 3),
                                              None)),
        (ModelId.MR, MrDemandVariant.ADOPTED, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4),
                                               Fraction(1, 12))),
        (ModelId.MR, MrDemandVariant.AS_PRINTED, (Fraction(1, 4), Fraction(1, 4),
                                                  Fraction(3, 4), Fraction(1, 12))),
    ])
    def test_kernel_stays_exact_in_fractions(self, model, variant, want):
        got = segment_masses(model, Fraction(3, 10), Fraction(3, 5), Fraction(3, 10),
                             Fraction(1, 5), Fraction(3, 5), variant)
        assert all(g is None or type(g) is Fraction for g in got)
        assert got == want

    @pytest.mark.parametrize("model", list(ModelId))
    def test_equilibrium_evaluates_masses_once(self, model, params_mr, monkeypatch):
        # demands, profits and validity each evaluated them (3 calls)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return segment_masses(*args, **kwargs)

        monkeypatch.setattr(market, "segment_masses", counting)
        equilibrium(model, params_mr)
        assert len(calls) == 1


class TestProfits:
    def test_equilibrium_profits(self, params_m):
        pr = equilibrium_m(params_m).profit
        assert pr.pi_m == pytest.approx(0.22701612903225807, abs=1e-12)
        assert pr.pi_r == pytest.approx(0.00625, abs=1e-12)

    def test_zero_margin_construction(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.05)
        b_m = p.delta + p.s  # with p_m = c_m this zeroes the trade-in margin
        d = DecisionSet(model=ModelId.M, p_m=p.c_m, p_r=p.c_m, w=p.c_m, b_m=b_m)
        out = profits(d, p)
        assert out.pi_m == pytest.approx(0.0, abs=1e-15)
        assert out.pi_r == pytest.approx(0.0, abs=1e-15)

    def test_retailer_profit_zero_when_retail_demand_zero(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        d = _dm(p_m=0.2, p_r=0.7, w=0.4)  # p_r - p_m = 1 - alpha forces q2 = 0
        assert demand(ModelId.M, d, p).q2 == pytest.approx(0.0, abs=1e-15)
        assert profits(d, p).pi_r == pytest.approx(0.0, abs=1e-15)

    def test_r_transfer_at_subsidy_zeroes_tradein_term(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        d = _dr(p_m=0.2, p_r=0.2, w=0.2, b_r=0.3, t=0.3)  # p_r = w and t = b_r
        assert profits(d, p).pi_r == pytest.approx(0.0, abs=1e-15)

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
        out = profits(_dr(), p)
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
        report = validity(d, p)
        assert report.check("q1_in_unit").slack == pytest.approx(0.0, abs=1e-15)
        assert not report.interior

    def test_transfer_flag(self):
        p = Params(alpha=0.5, c_m=0.2, c_r=0.1, s=0.0)
        bad = validity(_dr(b_r=0.4, t=0.1), p)
        assert not bad.check("transfer_covers_subsidy").ok
        good = validity(_dr(b_r=0.1, t=0.4), p)
        assert good.check("transfer_covers_subsidy").ok

    def test_margins_are_informational(self):
        p = Params(alpha=0.9, c_m=0.15, c_r=0.12, s=0.02)
        eq = equilibrium_m(p)
        assert eq.validity.interior
        # a negative wholesale margin does not break interiority by itself
        worse = validity(dataclasses.replace(eq.decisions, w=0.14), p)
        assert not worse.check("margin_wholesale").ok
        assert worse.check("margin_wholesale").informational

    def test_unknown_check_is_a_key_error(self, params_m):
        with pytest.raises(KeyError, match="nope"):
            equilibrium_m(params_m).validity.check("nope")


#: The golden MR point; each model's closed-form decisions there.
_OWN_PARAMS = Params(alpha=0.6, c_m=1.0, c_r=0.5, s=0.2)


def _own(model: ModelId) -> DecisionSet:
    return equilibrium(model, _OWN_PARAMS).decisions


#: (model argument, model of the decisions): once M's masses of MR decisions
#: (q1 = -7.37), a TypeError for (R, M), and an Equilibrium labelled M
#: holding MR decisions.
_DISAGREEING = [(ModelId.M, ModelId.MR), (ModelId.R, ModelId.M)]


class TestOwnModel:
    """A value names its model once; an entry taking a second model refuses
    one that disagrees, naming both."""

    @pytest.mark.parametrize("model, owner", _DISAGREEING)
    def test_demand_refuses_another_model(self, model, owner):
        with pytest.raises(OutOfDomain) as exc:
            demand(model, _own(owner), _OWN_PARAMS)
        assert str(exc.value) == (f"model={model.value!r} violates: "
                                  f"the decisions belong to model {owner.value}")

    @pytest.mark.parametrize("model, owner", _DISAGREEING)
    def test_make_equilibrium_refuses_another_model(self, model, owner):
        with pytest.raises(OutOfDomain, match=f"model='{model.value}' .* model {owner.value}$"):
            market.make_equilibrium(model, _own(owner), _OWN_PARAMS, "closed_form", 1.0)

    @pytest.mark.parametrize("model", list(ModelId))
    def test_equilibrium_model_is_its_decisions(self, model):
        eq = market.make_equilibrium(model, _own(model), _OWN_PARAMS, "closed_form", 1.0)
        assert eq.model is eq.decisions.model is model
        assert eq.as_dict()["model"] == model.value


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
        out = profits(d, p)
        assert out.pi_s == out.pi_m + out.pi_r

    @given(alpha=unit_alpha, v=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_choice_consistent_with_utilities(self, alpha, v, u):
        p = Params(alpha=alpha, c_m=0.5, c_r=0.25, s=0.0)
        d = _dmr(p_m=0.3, p_r=0.6, b_m=0.35, b_r=0.3)
        us = utilities(d, v, u, p)
        primary, tradein = choice_segment(d, v, u, p)
        if primary == 1:
            assert us["U1"] >= us["U2"] and us["U1"] >= 0.0
        if tradein == 4:
            assert us["U4"] > us["U3"] and us["U4"] >= 0.0
