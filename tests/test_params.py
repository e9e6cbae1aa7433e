"""Validation and decision-bundle plumbing."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from dcclsc import DecisionSet, ModelId, OutOfDomain, Params, decision_fields
from dcclsc.params import validate_params


def test_validate_params_computes_delta():
    p = validate_params({"alpha": 0.9, "c_m": 0.15, "c_r": 0.12, "s": 0.02})
    assert p.delta == pytest.approx(0.03, abs=1e-15)


def test_validate_params_sensitivity_row():
    p = validate_params({"alpha": 0.7, "c_m": 1.2, "c_r": 1.0, "s": 0.1})
    assert p.delta == pytest.approx(0.2, abs=1e-15)


def test_validate_params_collects_all_violations():
    with pytest.raises(OutOfDomain) as exc:
        validate_params({"alpha": 1.2, "c_m": 1.0, "c_r": 2.0, "s": 0.1})
    fields = {v.field for v in exc.value.violations}
    assert fields == {"alpha", "c_m"}


def test_validate_params_reports_missing_keys_together():
    with pytest.raises(OutOfDomain) as exc:
        validate_params({"alpha": 0.5})
    assert {v.field for v in exc.value.violations} == {"c_m", "c_r", "s"}


def test_delta_cannot_be_injected():
    p = validate_params({"alpha": 0.5, "c_m": 1.0, "c_r": 0.4, "s": 0.0, "delta": 99.0})
    assert p.delta == pytest.approx(0.6)


def test_zero_subsidy_is_boundary_not_error():
    p = Params(alpha=0.5, c_m=1.0, c_r=0.5, s=0.0)
    assert p.s == 0.0
    assert Params(alpha=0.5, c_m=1.0, c_r=0.5, s=0.1).s > 0.0


def test_nonfinite_rejected():
    with pytest.raises(OutOfDomain):
        Params(alpha=0.5, c_m=float("nan"), c_r=0.5, s=0.0)
    with pytest.raises(OutOfDomain):
        Params(alpha=0.5, c_m=float("inf"), c_r=0.5, s=0.0)


@given(
    alpha=st.floats(0.01, 0.99),
    c_r=st.floats(0.01, 5.0),
    gap=st.floats(0.001, 5.0),
    s=st.floats(0.0, 2.0),
)
def test_validate_params_idempotent(alpha, c_r, gap, s):
    first = validate_params({"alpha": alpha, "c_m": c_r + gap, "c_r": c_r, "s": s})
    second = validate_params(first.as_dict())
    assert first == second
    assert second.delta > 0.0


@pytest.mark.parametrize(
    "model,expected",
    [
        (ModelId.M, ("p_m", "p_r", "w", "b_m")),
        (ModelId.R, ("p_m", "p_r", "w", "b_r", "t")),
        (ModelId.MR, ("p_m", "p_r", "w", "b_m", "b_r", "t")),
    ],
)
def test_decision_fields_order_and_arity(model, expected):
    fields = decision_fields(model)
    assert fields == expected
    assert len(set(fields)) == len(fields)


def test_decision_set_requires_model_fields():
    with pytest.raises(OutOfDomain):
        DecisionSet(model=ModelId.M, p_m=0.5, p_r=0.6, w=0.55)  # b_m missing
    with pytest.raises(OutOfDomain):
        DecisionSet(model=ModelId.M, p_m=0.5, p_r=0.6, w=0.55, b_m=0.1, t=0.2)  # t foreign


def test_decision_set_transfer_below_subsidy_is_constructible():
    # t >= b_r is a validity flag, never a construction error
    d = DecisionSet(model=ModelId.R, p_m=0.5, p_r=0.7, w=0.55, b_r=0.4, t=0.1)
    assert d.t < d.b_r


def test_decision_set_rejects_nonfinite():
    with pytest.raises(OutOfDomain):
        DecisionSet(model=ModelId.M, p_m=math.inf, p_r=0.6, w=0.55, b_m=0.1)


def test_decision_set_dict_round_trip():
    d = DecisionSet(model=ModelId.MR, p_m=1.0, p_r=1.4, w=1.2, b_m=0.35, b_r=0.25, t=0.5)
    assert list(d.as_dict()) == list(decision_fields(ModelId.MR))
    assert dataclasses.replace(d, p_m=1.1).p_m == 1.1
    assert dataclasses.replace(d, p_m=1.1).p_r == d.p_r
    with pytest.raises(OutOfDomain):  # the replacement is validated again
        dataclasses.replace(d, p_m=math.inf)


def test_model_id_parse():
    assert ModelId.parse("mr") is ModelId.MR
    with pytest.raises(OutOfDomain):
        ModelId.parse("x")


def test_unknown_model_is_named_by_its_text():
    # once "model=nan violates: unknown model ' x'"
    with pytest.raises(OutOfDomain, match=r"^model=' x' violates: expected one of M, R, MR$"):
        ModelId.parse(" x")


#: Values that are not finite reals: an int beyond float range, a string, a missing value.
NOT_FINITE_REALS = (10**400, "0.5", None)


def test_params_refuse_what_is_not_a_finite_real():
    # once OverflowError for the int beyond float range
    for bad in NOT_FINITE_REALS:
        with pytest.raises(OutOfDomain) as exc:
            Params(alpha=0.5, c_m=bad, c_r=0.5, s=0.0)
        assert str(exc.value) == f"c_m={bad!r} violates: must be a finite real"


def test_decision_set_refuses_what_is_not_a_finite_real():
    # once OverflowError, TypeError, and a missing b_m shown as nan
    for bad in NOT_FINITE_REALS:
        with pytest.raises(OutOfDomain) as exc:
            DecisionSet(model=ModelId.M, p_m=0.5, p_r=0.6, w=0.55, b_m=bad)
        assert str(exc.value) == f"b_m={bad!r} violates: model M requires a finite b_m"


def test_validate_params_refuses_what_is_not_a_finite_real():
    # once OverflowError, "0.5" converted and accepted, ValueError for "x",
    # and a missing key shown as nan
    for bad in (*NOT_FINITE_REALS, "x"):
        with pytest.raises(OutOfDomain) as exc:
            validate_params({"alpha": 0.5, "c_m": bad, "c_r": 0.5, "s": 0.0})
        assert str(exc.value) == f"c_m={bad!r} violates: must be a finite real"
    with pytest.raises(OutOfDomain) as exc:
        validate_params({"alpha": 0.5, "c_r": 0.5, "s": 0.0})
    assert str(exc.value) == "c_m=None violates: must be a finite real"


def test_model_that_is_not_text_is_named():
    # once AttributeError: 'NoneType' object has no attribute 'strip'
    with pytest.raises(OutOfDomain, match=r"^model=None violates: expected one of M, R, MR$"):
        ModelId.parse(None)
