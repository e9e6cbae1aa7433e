"""Validation and decision-bundle plumbing."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dcclsc import (DecisionSet, ModelId, OracleConfig, OutOfDomain, Params,
                    decision_fields, demand, equilibrium, market, monte_carlo_demand, oracle,
                    suites)
from dcclsc.params import validate_params
from dcclsc.report import to_json


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


#: Values that are not finite reals: an int beyond float range, a string, a
#: missing value, and a bool (once accepted, and written as true into JSON).
NOT_FINITE_REALS = (10**400, "0.5", None, True)


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


@pytest.mark.parametrize("text, model", [(" mr ", ModelId.MR), ("m", ModelId.M),
                                         ("R\n", ModelId.R)])
def test_model_id_reads_any_case_and_outer_blanks(text, model):
    # once only ModelId.parse read these; ModelId(...) raised ValueError
    assert ModelId(text) is model
    assert DecisionSet(model=text, **dict.fromkeys(decision_fields(model), 0.5)).model is model


_GAME = Params(0.6, 1.0, 0.5, 0.2)
_M_DECISIONS = DecisionSet(model=ModelId.M, p_m=0.3, p_r=0.6, w=0.4, b_m=0.2)


@pytest.mark.parametrize("read", [
    ModelId,
    lambda model: DecisionSet(model=model, p_m=0.3, p_r=0.6, w=0.4, b_m=0.2),
    lambda model: equilibrium(model, _GAME),
    lambda model: demand(model, _M_DECISIONS, _GAME),
], ids=["ModelId", "DecisionSet", "equilibrium", "demand"])
@pytest.mark.parametrize("model", ["x", None, "m r"])
def test_unknown_model_is_a_domain_error_wherever_it_is_read(read, model):
    # once ValueError: 'x' is not a valid ModelId, everywhere but ModelId.parse
    with pytest.raises(OutOfDomain) as exc:
        read(model)
    assert str(exc.value) == f"model={model!r} violates: expected one of M, R, MR"


def test_numbers_are_stored_as_the_floats_they_equal():
    # once numpy's float64 and ints were stored as given, and reached CSV
    # cells as np.float64(0.6)
    p = Params(np.float64(0.6), 1, np.float64(0.5), 0)
    d = DecisionSet(model="MR", p_m=np.float64(1.0), p_r=1, w=1.2, b_m=0.35, b_r=0.25,
                    t=np.float64(0.5))
    for value in (*vars(p).values(), *d.as_dict().values()):
        assert type(value) is float
    assert p == Params(0.6, 1.0, 0.5, 0.0)
    assert d == DecisionSet(model=ModelId.MR, p_m=1.0, p_r=1.0, w=1.2, b_m=0.35, b_r=0.25, t=0.5)


#: numpy scalars of other types than float64 whose value is a finite float,
#: each beside its Python twin
NUMPY_TWINS = [(np.int64(1), 1), (np.int32(1), 1), (np.uint8(1), 1), (np.float32(0.5), 0.5),
               (np.float16(0.5), 0.5), (np.longdouble(0.5), 0.5)]


@pytest.mark.parametrize("value, twin", NUMPY_TWINS, ids=lambda v: repr(v))
def test_numpy_scalars_are_read_as_their_python_twins(value, twin):
    # once refused as "must be a finite real", while read_int took np.int64
    assert Params(0.6, 2 * value, value, 0.2) == Params(0.6, 2 * twin, twin, 0.2)
    assert Params(0.6, 1.0, 0.5, value) == Params(0.6, 1.0, 0.5, twin)
    d = DecisionSet(model="M", p_m=value, p_r=0.6, w=value, b_m=0.2)
    assert d == DecisionSet(model="M", p_m=twin, p_r=0.6, w=twin, b_m=0.2)


#: numpy scalars whose value is no finite float, each beside the value a refusal shows
NOT_FINITE = [(np.float32("inf"), "inf"), (np.bool_(True), "True"), (np.float16("nan"), "nan"),
              # beyond float range a longdouble has no Python twin and keeps its numpy repr
              (np.longdouble("1e400"), repr(np.longdouble("1e400").item()))]


@pytest.mark.parametrize("bad, shown", [pytest.param(bad, shown, id=repr(bad))
                                        for bad, shown in NOT_FINITE])
def test_numpy_scalars_that_are_not_finite_floats_are_refused(bad, shown):
    # a float32 inf compared as itself with the float bound casts the bound to
    # inf, passes, and warns of the overflow; once the refusal named a numpy
    # scalar other than a float64 by its repr (c_m=np.float32(inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomain) as exc:
            Params(alpha=0.5, c_m=bad, c_r=0.5, s=0.0)
    assert str(exc.value) == f"c_m={shown} violates: must be a finite real"


def test_costs_that_round_to_one_float_are_refused():
    # once accepted as ints, with delta 0.0 once read as floats
    with pytest.raises(OutOfDomain, match=r"^c_m=1\.152921504606847e\+18 violates: c_m > c_r "):
        Params(0.5, 2**60 + 1, 2**60, 0)


#: Each input kind's readers, by call: (the field a refusal names, the call of
#: one value). Every call reads its value by the one reader of its kind.
_READS = {
    "suite_oracle samples": ("samples", lambda v: suites.suite_oracle(samples=v)),
    "suite_endpoints samples": ("samples", lambda v: suites.suite_endpoints(samples=v)),
    "suite_mc n": ("n", lambda v: suites.suite_mc(samples=1, n=v)),
    "monte_carlo_demand n": ("n", lambda v: monte_carlo_demand("M", _M_DECISIONS, _GAME,
                                                               n=v, seed=1)),
    "sample_params n": ("n", lambda v: oracle.sample_params(v, 1)),
    "seeded_generator seed": ("seed", lambda v: oracle.seeded_generator(v)),
    "sample_params seed": ("seed", lambda v: oracle.sample_params(2, v)),
    "monte_carlo_demand seed": ("seed", lambda v: monte_carlo_demand("M", _M_DECISIONS, _GAME,
                                                                     n=5, seed=v)),
    "suite_endpoints seed": ("seed", lambda v: suites.suite_endpoints(samples=1, seed=v)),
    "OracleConfig seed": ("seed", lambda v: OracleConfig(seed=v)),
    "equilibrium MR variant": ("variant", lambda v: equilibrium("MR", _GAME, variant=v)),
    "equilibrium M variant": ("variant", lambda v: equilibrium("M", _GAME, variant=v)),
    "Params alpha": ("alpha", lambda v: Params(v, 1.0, 0.5, 0.2)),
    "DecisionSet p_m": ("p_m", lambda v: DecisionSet(model="M", p_m=v, p_r=0.6, w=0.4, b_m=0.2)),
    "OracleConfig interval": ("p_m", lambda v: OracleConfig(leader_box={"p_m": v})),
    "OracleConfig name": ("leader_box", lambda v: OracleConfig(leader_box={v: (-1.0, 3.0)})),
    "OracleConfig box": ("leader_box", lambda v: OracleConfig(leader_box=v)),
    "sample_params c_m_range": ("c_m_range",
                                lambda v: oracle.sample_params(2, 1, c_m_range=v)),
    "best_response_retailer p_m": ("p_m", lambda v: oracle.best_response_retailer(
        "M", {"p_m": v, "w": 0.4, "b_m": 0.2}, _GAME)),
    "best_response_retailer leader_vars": ("leader_vars",
                                           lambda v: oracle.best_response_retailer("M", v, _GAME)),
    "utilities v": ("v", lambda v: market.utilities(_M_DECISIONS, v, 0.5, _GAME)),
    "choice_segment v": ("v", lambda v: market.choice_segment(_M_DECISIONS, v, 0.5, _GAME)),
}
_NOT_INTS = (True, 1.5, "5", None)
_REFUSED = [
    *[(read, v) for read in ("suite_oracle samples", "suite_endpoints samples", "suite_mc n",
                             "monte_carlo_demand n", "sample_params n", "seeded_generator seed",
                             "sample_params seed", "monte_carlo_demand seed",
                             "suite_endpoints seed", "OracleConfig seed") for v in _NOT_INTS],
    ("sample_params n", -1), ("OracleConfig seed", -1),
    ("seeded_generator seed", np.int64(-1)), ("monte_carlo_demand seed", np.int64(-1)),
    *[(read, v) for read in ("equilibrium MR variant", "equilibrium M variant")
      for v in ("x", None)],
    ("Params alpha", np.float64("nan")), ("DecisionSet p_m", np.float64("inf")),
    *[("OracleConfig interval", v) for v in ((1, 1), (3, -1), (-1,), (0.0, math.nan), 2.0,
                                             (-1e308, 1e308), (2**60, 2**60 + 1),
                                             (0.0, 5e-324), (1.0, 1.0000000000000002),
                                             np.array(0.5))],
    ("OracleConfig name", "x_z"),
    *[("OracleConfig box", v) for v in ("x", [("p_m", (-1.0, 3.0))])],
    *[("sample_params c_m_range", v) for v in ((0.9, 0.3), (-1, 0.3), (0, 1), "x",
                                               (2**60, 2**60 + 1), np.array(0.5))],
    *[("best_response_retailer p_m", v) for v in (math.nan, "x", True)],
    *[("best_response_retailer leader_vars", v) for v in (None, ["p_m", "w", "b_m"])],
    ("utilities v", "x"), ("choice_segment v", None),
]


@pytest.mark.parametrize("read, value", _REFUSED,
                         ids=[f"{read}={value!r}" for read, value in _REFUSED])
def test_each_input_kind_is_refused_by_its_reader(read, value):
    # once these ran (samples=True ran one draw, sample_params(1.5, 1) drew
    # two, a zero-width box divided by zero, a NaN leader price returned a NaN
    # response, a c_m_range of (0, 1) was drawn from), ended in TypeError
    # (leader_vars None), ValueError or AttributeError (a leader_box "x"),
    # overflowed a box's width hi - lo, stored ends that round to one float as
    # a zero-width interval ((2**60, 2**60 + 1)), divided by a stencil step
    # that rounds to 0 ((0.0, 5e-324)), raised NonConcave on junk eigenvalues
    # from a step lost to rounding at the box centre ((1.0, 1.0000000000000002)),
    # or named a numpy value by its repr (alpha=np.float64(nan))
    field, call = _READS[read]
    with pytest.raises(OutOfDomain) as exc:
        call(value)
    shown = value.item() if isinstance(value, np.generic) else value
    assert str(exc.value).startswith(f"{field}={shown!r} violates: ")


def test_every_bad_leader_value_and_box_entry_is_named_at_once():
    with pytest.raises(OutOfDomain) as exc:
        oracle.best_response_retailer("M", {"p_m": math.nan, "w": "x", "b_m": 0.2}, _GAME)
    assert [v.field for v in exc.value.violations] == ["p_m", "w"]
    with pytest.raises(OutOfDomain) as exc:
        OracleConfig(leader_box={"x_z": (0, 1), "p_m": (1, 1), "w": (0, 1)})
    assert [(v.field, v.value) for v in exc.value.violations] == [("leader_box", "x_z"),
                                                                   ("p_m", (1, 1))]


def test_readers_return_plain_values():
    # once a numpy seed and count reached the report, which to_json refused
    rep = suites.suite_endpoints(samples=np.int64(1), seed=np.int64(5))
    assert json.loads(to_json(rep.as_dict()))["config"] == {"samples": 1}
    assert type(rep.seed) is int
    mc = monte_carlo_demand("M", _M_DECISIONS, _GAME, n=np.int64(5), seed=np.uint8(3))
    assert (type(mc.n), type(mc.seed)) == (int, int)
    assert equilibrium("MR", _GAME, variant=" As-Printed ").demand_variant.value == "as_printed"
    cfg = OracleConfig(leader_box={"p_m": (np.float64(-1), 3)})
    assert (cfg.leader_box, cfg.seed) == ({"p_m": (-1.0, 3.0)}, 0)
    assert [type(end) for end in cfg.leader_box["p_m"]] == [float, float]
