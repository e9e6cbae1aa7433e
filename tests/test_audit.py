"""Proposition, theorem, and endpoint audits."""

import warnings

import pytest

from dcclsc import ModelId, OutOfDomain, Params, Singularity, closed_form, oracle
from dcclsc.audit import (
    AuditVerdict,
    Thresholds,
    audit_endpoints,
    audit_monotonicity,
    audit_ordering,
    audit_uniqueness,
    classify_direction,
    default_alpha_grid,
    thresholds,
)
from dcclsc.audit import _ENDPOINTS, _MONOTONICITY, _ORDERING
from dcclsc.suites import EXPECTED_ENDPOINT_AGREEMENT

FIG3 = Params(alpha=0.5, c_m=6.0, c_r=4.0, s=1.5)
FIG4 = Params(alpha=0.5, c_m=10.0, c_r=6.0, s=6.0)
THRESHOLD_CASE = Params(alpha=0.5, c_m=1.0, c_r=0.5, s=0.2)


class TestThresholds:
    def test_price_ordering_threshold(self):
        th = thresholds(THRESHOLD_CASE)
        assert th.alpha_star == pytest.approx(7.2 / 21.9, abs=1e-12)
        assert th.alpha_star == pytest.approx(0.328767, abs=1e-6)

    def test_subsidy_ordering_threshold_outside_unit_interval(self):
        th = thresholds(THRESHOLD_CASE)
        assert th.alpha_hat == pytest.approx(1.5, abs=1e-12)
        assert not 0.0 < th.alpha_hat < 1.0

    def test_manufacturer_led_cost_thresholds(self):
        th = thresholds(FIG3)
        assert th.prop2["w"] == pytest.approx(8.0)
        assert th.prop2["p_m"] == pytest.approx(11.0)
        assert th.prop2["b_m"] == pytest.approx(11.0)
        assert th.prop2["p_r"] == pytest.approx(6.5)

    def test_threshold_counts(self):
        th = thresholds(THRESHOLD_CASE)
        assert len(set(th.prop2.values())) == 3
        assert len(th.prop4) == 5
        assert len(th.prop7) == 6

    def test_vanishing_denominator_raises(self):
        # 10*delta - 5*c_m + 10*s + 2 = 0 at (c_m=0.6, c_r=0.5, s=0)
        with pytest.raises(Singularity):
            thresholds(Params(alpha=0.5, c_m=0.6, c_r=0.5, s=0.0))

    def test_built_from_the_claim_rows_as_written_out(self):
        # every published threshold written out in full is the reference: the
        # claim rows must reproduce it bit for bit, and refuse where it refuses
        draws = oracle.sample_params(300, 11, c_m_range=(0.05, 2.0))
        for p in draws:
            assert thresholds(p) == _written_out_thresholds(p), p
        for p in (Params(alpha=0.5, c_m=0.6, c_r=0.5, s=0.0),
                  Params(alpha=0.5, c_m=1.0, c_r=0.7, s=0.0)):
            with pytest.raises(Singularity) as want:
                _written_out_thresholds(p)
            with pytest.raises(Singularity) as got:
                thresholds(p)
            assert str(got.value) == str(want.value)

    def test_each_claim_reads_only_its_own_threshold(self):
        # 10*delta - 5*c_m + 10*s + 2 is 4.4e-16 here: only alpha_hat is refused
        p = Params(alpha=0.5, c_m=1.0, c_r=0.7, s=0.0)
        for prop in ("P2", "P4", "P7"):
            assert audit_monotonicity(prop, p)
        assert audit_ordering("P5", p).prop_id == "P5"
        with pytest.raises(Singularity, match="subsidy-ordering threshold"):
            audit_ordering("P6", p)
        with pytest.raises(Singularity, match="subsidy-ordering threshold"):
            thresholds(p)


def _written_out_thresholds(params: Params) -> Thresholds:
    c_m, d, s = params.c_m, params.delta, params.s
    den_star = 3.0 * c_m - 3.0 * d - 3.0 * s + 21.0
    den_hat = 10.0 * d - 5.0 * c_m + 10.0 * s + 2.0
    for name, den in (("price-ordering threshold", den_star),
                      ("subsidy-ordering threshold", den_hat)):
        if abs(den) < 1e-12:
            raise Singularity(name, params.alpha, abs(den), 1e-12)
    return Thresholds(
        alpha_star=(6.0 * c_m - 4.0 * d - 4.0 * s + 4.0) / den_star,
        alpha_hat=(5.0 * c_m - 10.0 * d - 10.0 * s + 8.0) / den_hat,
        prop2={
            "w": 2.0 * d + 2.0 * s + 1.0,
            "b_m": 2.0 * d + 2.0 * s + 4.0,
            "p_m": 2.0 * d + 2.0 * s + 4.0,
            "p_r": (4.0 * (d + s) - 1.0) / 2.0,
        },
        prop4={
            "w": (5.0 + d + s) / 4.0,
            "b_r": 2.0 * d + 2.0 * s + 1.0,
            "p_m": (2.0 * d + 2.0 * s + 8.0) / 3.0,
            "p_r": (4.0 * (d + s) - 1.0) / 2.0,
            "t": (4.0 * (d + s) + 9.0) / 2.0,
        },
        prop7={
            "w": (10.0 * d + 6.0 * s + 8.0) / 9.0,
            "b_m": 2.0 * d + 2.0 * s + 1.0,
            "b_r": (8.0 * d + 8.0 * s + 5.0) / 5.0,
            "p_m": (6.0 * d + 6.0 * s + 4.0) / 7.0,
            "p_r": (6.0 * d + 6.0 * s + 4.0) / 5.0,
            "t": (6.0 * d + 6.0 * s + 9.0) / 4.0,
        },
    )


class TestOrdering:
    def test_direct_price_below_retail_everywhere(self):
        for p in (Params(alpha=0.5, c_m=0.3, c_r=0.1, s=0.05),
                  Params(alpha=0.8, c_m=1.4, c_r=0.2, s=0.4)):
            v = audit_ordering("P1", p)
            assert v.claimed == "less_than"
            assert v.observed == "less_than"
            assert v.agree
            assert len(v.evidence) == len(default_alpha_grid(ModelId.M))

    def test_retailer_led_ordering_above_pole(self):
        p = Params(alpha=0.65, c_m=1.5, c_r=0.7, s=0.2)
        v = audit_ordering("P3", p)
        assert v.claimed == "less_than"  # default grid sits above 2/9
        assert v.observed == "less_than"
        assert v.agree
        # worked values at alpha = 0.65 appear in the evidence
        diff = dict(v.evidence)[0.65]
        assert diff == pytest.approx(1.2016233766233766 - 1.532305194805195, abs=1e-9)

    def test_retailer_led_ordering_both_sides(self):
        p = Params(alpha=0.65, c_m=1.5, c_r=0.7, s=0.2)
        grid = (0.15, 0.18, 0.20, 0.30, 0.40, 0.60)
        v = audit_ordering("P3", p, alpha_grid=grid)
        assert any("above the pole" in n for n in v.notes)
        assert any("below the pole" in n for n in v.notes)

    def test_every_labelled_threshold_notes_both_sides(self):
        labelled = {prop: row for prop, row in _ORDERING.items() if len(row) > 4}
        assert sorted(labelled) == ["P3"]
        p = Params(alpha=0.65, c_m=1.5, c_r=0.7, s=0.2)
        for prop, (_, _, threshold, _, label) in labelled.items():
            theta = threshold(p)
            grid = tuple(theta + d for d in (-0.07, -0.04, -0.02, 0.08, 0.18, 0.38))
            notes = audit_ordering(prop, p, alpha_grid=grid).notes
            for side in ("below", "above"):
                assert len([n for n in notes if n.startswith(f"{side} {label}: observed ")]) == 1

    def test_joint_price_ordering_does_not_flip_at_threshold(self):
        v = audit_ordering("P5", THRESHOLD_CASE)
        assert v.claimed == "mixed"  # threshold lies inside the grid
        assert v.observed == "greater_than"
        assert not v.agree
        assert any("OUTSIDE tolerance" in n for n in v.notes)

    def test_joint_subsidy_ordering_constant_but_reversed(self):
        v = audit_ordering("P6", THRESHOLD_CASE)
        assert v.claimed == "less_than"  # whole grid below alpha_hat = 1.5
        assert v.observed == "greater_than"
        assert not v.agree

    def test_verdict_reproducible(self):
        a = audit_ordering("P5", THRESHOLD_CASE)
        b = audit_ordering("P5", THRESHOLD_CASE)
        assert a == b


class TestMonotonicity:
    def test_classifier(self):
        assert classify_direction([1.0, 2.0, 3.0])[0] == "increasing"
        assert classify_direction([3.0, 2.0, 1.0])[0] == "decreasing"
        assert classify_direction([1.0, 0.5, 2.0])[0] == "non_monotone"
        assert classify_direction([1.0, 1.0, 1.0])[0] == "increasing"  # ties tolerated

    def test_wholesale_increasing_at_low_cost(self):
        p = Params(alpha=0.5, c_m=0.15, c_r=0.12, s=0.02)
        grid = tuple(round(0.05 + 0.01 * k, 10) for k in range(91))
        verdicts = {v.variable: v for v in audit_monotonicity("P2", p, alpha_grid=grid)}
        w = verdicts["w"]
        assert w.claimed == "increasing"  # 0.15 < 1.1
        assert w.condition_value == pytest.approx(1.1 - 0.15, abs=1e-12)
        assert w.observed == "increasing"
        assert w.agree
        evid = dict(w.evidence)
        assert evid[0.1] == pytest.approx(0.5756410256410256, abs=1e-12)
        assert evid[0.9] == pytest.approx(0.6983870967741935, abs=1e-12)

    def test_wholesale_dip_near_zero_detected_on_full_grid(self):
        # the strict classifier catches a ~3e-5 dip below alpha = 0.026 that
        # an endpoint comparison misses entirely
        p = Params(alpha=0.5, c_m=0.15, c_r=0.12, s=0.02)
        verdicts = {v.variable: v for v in audit_monotonicity("P2", p)}
        w = verdicts["w"]
        assert w.observed == "non_monotone"
        assert any("direction changes" in n for n in w.notes)

    def test_retailer_subsidy_erratum_flagged(self):
        verdicts = {v.variable: v for v in audit_monotonicity("P4", FIG4)}
        b_r = verdicts["b_r"]
        assert b_r.claimed == "increasing"  # condition 10 < 21 holds
        assert b_r.condition_value == pytest.approx(11.0)
        assert b_r.observed == "decreasing"
        assert not b_r.agree
        evid = dict(b_r.evidence)
        a35 = min(evid, key=lambda a: abs(a - 0.35))
        a90 = min(evid, key=lambda a: abs(a - 0.90))
        assert evid[a35] == pytest.approx(3.3478260869565215, abs=1e-4)
        assert evid[a90] == pytest.approx(1.6229508196721311, abs=1e-4)

    def test_erratum_verdict_stable_across_grid_resolution(self):
        coarse = {v.variable: v for v in audit_monotonicity("P4", FIG4)}
        lo, hi, step = 0.30, 0.95, 0.001
        fine_grid = tuple(lo + k * step for k in range(int((hi - lo) / step) + 1))
        fine = {v.variable: v for v in audit_monotonicity("P4", FIG4, alpha_grid=fine_grid)}
        assert coarse["b_r"].observed == fine["b_r"].observed == "decreasing"
        assert coarse["b_r"].agree is fine["b_r"].agree is False

    def test_alternate_subsidy_threshold_reported(self):
        verdicts = {v.variable: v for v in audit_monotonicity("P4", FIG4)}
        assert ("alternate published threshold 9.333333333333334 would claim decreasing; "
                "primary threshold 21.0 claims increasing") in verdicts["b_r"].notes

    def test_every_alternate_threshold_is_noted(self):
        rows = [(prop, row) for prop, (_, items) in _MONOTONICITY.items()
                for row in items if len(row) > 4]
        assert [(prop, row[1]) for prop, row in rows] == [("P4", "b_r")]
        for prop, (_, var, direction, primary, alternate) in rows:
            (verdict,) = [v for v in audit_monotonicity(prop, FIG4) if v.variable == var]
            thr, alt = primary(FIG4.delta, FIG4.s), alternate(FIG4.delta, FIG4.s)
            rising = FIG4.c_m < alt if direction == "below" else FIG4.c_m > alt
            noted = [n for n in verdict.notes if n.startswith("alternate published threshold ")]
            assert noted == [f"alternate published threshold {alt!r} would claim "
                             f"{'increasing' if rising else 'decreasing'}; "
                             f"primary threshold {thr!r} claims {verdict.claimed}"]

    def test_transfer_price_has_inverted_condition(self):
        verdicts = {v.variable: v for v in audit_monotonicity("P4", FIG4)}
        t = verdicts["t"]
        # condition is c_m > threshold for the transfer price
        assert t.condition_value == pytest.approx(10.0 - 24.5)
        assert t.claimed == "decreasing"

    def test_retail_price_dip_at_figure_parameters(self):
        verdicts = {v.variable: v for v in audit_monotonicity("P2", FIG3)}
        assert verdicts["p_r"].observed == "non_monotone"
        assert not verdicts["p_r"].agree
        for var in ("w", "b_m", "p_m"):
            assert verdicts[var].agree, var

    def test_joint_model_covers_six_variables(self):
        verdicts = audit_monotonicity("P7", THRESHOLD_CASE)
        assert sorted(v.variable for v in verdicts) == \
            ["b_m", "b_r", "p_m", "p_r", "t", "w"]


_CLAIM_MODEL = {"P1": ModelId.M, "P3": ModelId.R, "P5": ModelId.MR, "P6": ModelId.MR,
                "P2": ModelId.M, "P4": ModelId.R, "P7": ModelId.MR}


def _grid_verdicts(prop: str, params: Params) -> list[AuditVerdict]:
    if prop in ("P2", "P4", "P7"):
        return audit_monotonicity(prop, params)
    return [audit_ordering(prop, params)]


class TestGridEvaluation:
    @pytest.mark.parametrize("prop", sorted(_CLAIM_MODEL))
    def test_one_closed_form_call_per_grid(self, monkeypatch, prop):
        # once one call per grid point: 99 for P1, 66 for the others
        calls = []
        evaluate = closed_form.decision_values

        def counting(*args):
            calls.append(args[0])
            return evaluate(*args)

        monkeypatch.setattr(closed_form, "decision_values", counting)
        _grid_verdicts(prop, THRESHOLD_CASE)
        assert calls == [_CLAIM_MODEL[prop]]

    @pytest.mark.parametrize("prop", sorted(_CLAIM_MODEL))
    def test_evidence_matches_the_scalar_closed_form(self, prop):
        model = _CLAIM_MODEL[prop]
        grid = default_alpha_grid(model)
        for p in oracle.sample_params(4, 13, c_m_range=(0.05, 2.0)):
            for v in _grid_verdicts(prop, p):
                assert tuple(a for a, _ in v.evidence) == grid
                # "p_m vs p_r" for an ordering claim, one variable otherwise
                var_a, _, var_b = v.variable.partition(" vs ")
                for alpha, got in v.evidence:
                    d = closed_form.decision_values(model, alpha, p.c_m, p.delta, p.s)
                    want = d[var_a] - d[var_b] if var_b else d[var_a]
                    assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("model", list(ModelId))
    def test_default_grid_stays_off_the_poles(self, model):
        # a caller's grid may land on a pole (next test); the defaults never do
        for alpha in default_alpha_grid(model):
            assert closed_form.singularity_distance(model, alpha) > closed_form.DEFAULT_GUARD

    def test_grid_point_on_a_pole_raises(self):
        # both grids hold model R's pole 2/9: Singularity names it, as the
        # closed form refuses it at guard 0
        for p, grid in ((Params(alpha=0.65, c_m=1.5, c_r=0.7, s=0.2), (0.1, 2.0 / 9.0, 0.5)),
                        (Params(0.5, 1.0, 0.5, 0.2), (0.2, 2.0 / 9.0, 0.3))):
            for audit, prop in ((audit_ordering, "P3"), (audit_monotonicity, "P4")):
                with pytest.raises(Singularity) as exc:
                    audit(prop, p, alpha_grid=grid)
                assert (exc.value.alpha, exc.value.distance, exc.value.guard) == \
                    (2.0 / 9.0, 0.0, 0.0)
                assert "model R closed form" in str(exc.value)

    @pytest.mark.parametrize("prop", sorted(_CLAIM_MODEL))
    def test_grid_beyond_float_range_is_a_domain_error(self, prop):
        # once numpy's overflow RuntimeWarning, then Singularity at the grid
        # point nearest a pole (alpha 0.99 or 0.3), three units away from it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomain, match="float arithmetic overflows"):
                _grid_verdicts(prop, Params(0.5, 1e308, 1.0, 0.0))


class TestUniqueness:
    def test_manufacturer_led_unique(self, params_m):
        v = audit_uniqueness("T1", params_m)
        assert v.claimed == "unique"
        assert v.observed == "unique"
        assert v.agree

    def test_retailer_led_with_validity_caveat(self, params_r):
        v = audit_uniqueness("T2", params_r)
        assert v.observed == "unique"
        assert any("validity caveat" in n and "q1_in_unit" in n for n in v.notes)

    def test_joint_model_records_certified_variant(self, params_mr):
        v = audit_uniqueness("T3", params_mr)
        assert v.observed == "unique"
        assert any("stationary under variant: adopted" in n for n in v.notes)

    @pytest.mark.parametrize("theorem, alpha, stage", [
        ("T2", 0.21, "leader"), ("T3", 0.26, "leader"), ("T3", 0.2, "retailer"),
        ("T3", 0.2768, "leader")])
    def test_failing_theorem_is_reported_not_raised(self, theorem, alpha, stage):
        # below the existence thresholds the solve raised NonConcave, so the
        # audit could never report T2 or T3 failing
        v = audit_uniqueness(theorem, Params(alpha=alpha, c_m=1.0, c_r=0.5, s=0.2))
        assert (v.claimed, v.observed, v.agree, v.evidence) == ("unique", "not_unique", False, ())
        assert len(v.notes) == 1
        assert v.notes[0].startswith(stage) and "eigenvalues" in v.notes[0]

    @pytest.mark.parametrize("theorem, alpha", [
        ("T2", 2.0 / 9.0 + 1e-4), ("T2", 0.2225), ("T3", 0.277), ("T3", 0.28)])
    def test_optimum_beyond_the_box_is_unique(self, theorem, alpha):
        # just above the existence thresholds both stages are concave, but the
        # optimum lies outside the search box; the audit raised BoxBoundary
        v = audit_uniqueness(theorem, Params(alpha=alpha, c_m=1.0, c_r=0.5, s=0.2))
        assert (v.claimed, v.observed, v.agree, v.evidence) == ("unique", "unique", True, ())
        assert len(v.notes) == 1 and "search box" in v.notes[0]


class TestEndpoints:
    def test_manufacturer_led_pattern(self):
        p = Params(alpha=0.5, c_m=0.6, c_r=0.3, s=0.1)
        verdicts = {(v.variable, v.sub_id): v for v in audit_endpoints(ModelId.M, p)}
        assert len(verdicts) == 8
        assert all(v.agree for (var, sub), v in verdicts.items()
                   if not (var == "b_m" and sub == "alpha->1"))
        assert not verdicts[("b_m", "alpha->1")].agree

    def test_retailer_led_pattern(self):
        p = Params(alpha=0.5, c_m=0.6, c_r=0.3, s=0.1)
        verdicts = {(v.variable, v.sub_id): v for v in audit_endpoints(ModelId.R, p)}
        assert verdicts[("p_m", "alpha->0")].agree
        assert verdicts[("b_r", "alpha->0")].agree
        assert verdicts[("b_r", "alpha->1")].agree
        for key in (("w", "alpha->0"), ("p_r", "alpha->0"), ("t", "alpha->0"),
                    ("w", "alpha->1"), ("p_m", "alpha->1"), ("p_r", "alpha->1")):
            assert not verdicts[key].agree, key

    def test_indeterminate_transfer_endpoint(self):
        p = Params(alpha=0.5, c_m=0.6, c_r=0.3, s=0.1)
        verdicts = {(v.variable, v.sub_id): v for v in audit_endpoints(ModelId.R, p)}
        t1 = verdicts[("t", "alpha->1")]
        assert t1.observed == "indeterminate_as_printed"
        assert t1.claimed == "equal" and t1.agree is False
        assert any("retains alpha" in n for n in t1.notes)
        # the printed expression evaluated at alpha = 1 stands beside the limit
        limit = closed_form.limits(ModelId.R, p)["t"][1]
        printed = (20.0 * p.delta - 10.0 * p.c_m + 20.0 * p.s + 9.0) / 4.0
        assert t1.evidence == ((1.0, float(limit)), (1.0, printed))

    @pytest.mark.parametrize("model", [ModelId.M, ModelId.R])
    def test_limits_beyond_float_range_are_a_domain_error(self, model):
        # once inf and nan limits, judged "equal" or "less_than"
        with pytest.raises(OutOfDomain, match="float arithmetic overflows"):
            audit_endpoints(model, Params(0.5, 1e308, 1.0, 0.0))

    def test_expected_pattern_covers_exactly_the_rows(self):
        # the suite's expected pattern and the rows state the same claims
        claims = {(model.value, var, at) for model, rows in _ENDPOINTS.items()
                  for var, *_ in rows for at in (0, 1)}
        assert set(EXPECTED_ENDPOINT_AGREEMENT) == claims

    def test_joint_model_has_no_published_endpoints(self, params_mr):
        assert audit_endpoints(ModelId.MR, params_mr) == []

    def test_mismatches_carry_both_values(self):
        p = Params(alpha=0.5, c_m=0.6, c_r=0.3, s=0.1)
        verdicts = {(v.variable, v.sub_id): v for v in audit_endpoints(ModelId.R, p)}
        w0 = verdicts[("w", "alpha->0")]
        computed, published = w0.evidence[0][1], w0.evidence[1][1]
        assert computed == pytest.approx((0.6 + 1.0) / 2.0, abs=1e-12)
        assert published == pytest.approx((0.6 - 1.0) / 2.0, abs=1e-12)
