"""
Closed-form equilibria for the three recycling frameworks
=========================================================

Evaluates each framework's published equilibrium expressions at a worked
parameter point, and shows how the attached validity report exposes
parameter choices that push segment masses outside [0, 1].
"""

from dcclsc import ModelId, Params, certify_mr_variant, equilibrium
from dcclsc.closed_form import mr_helpers

# Market primitives: direct-channel preference alpha, manufacturing cost,
# remanufacturing cost, and the government subsidy. The remanufacturing
# saving delta is always derived as c_m - c_r.
params = Params(alpha=0.9, c_m=0.15, c_r=0.12, s=0.02)
print(f"primitives: {params.as_dict()}")

# Manufacturer-led recycling (model M): the manufacturer picks the direct
# price, wholesale price, and trade-in subsidy; the retailer answers with
# its shelf price.
eq = equilibrium(ModelId.M, params)
print("\nmodel M equilibrium")
for name, value in eq.decisions.as_dict().items():
    print(f"  {name:<4} = {value:.6f}")
print(f"  demands: {({k: round(v, 6) for k, v in eq.demands.as_dict().items()})}")
print(f"  profits: {({k: round(v, 6) for k, v in eq.profit.as_dict().items()})}")
print(f"  interior valid: {eq.validity.interior}")

# The same call at one of the published sensitivity rows. Costs above the
# valuation scale drive the direct-channel demand negative; nothing is
# clamped, the validity report carries the violation instead. The report
# checks each condition once, so the one failing check is q1_in_unit: the
# order of the two primary thresholds is the mass q1 itself.
rough = Params(alpha=0.7, c_m=1.2, c_r=1.0, s=0.1)
eq_rough = equilibrium(ModelId.M, rough)
print("\nmodel M at a published sensitivity row (c_m above the valuation scale)")
print(f"  p_m = {eq_rough.decisions.p_m:.6f}, q1 = {eq_rough.demands.q1:.6f}")
print(f"  interior valid: {eq_rough.validity.interior}")
print(f"  failing checks: {eq_rough.validity.failing()}")

# Retailer-led recycling (model R) adds the transfer price t the manufacturer
# pays per collected unit; its expressions have a pole at alpha = 2/9.
params_r = Params(alpha=0.65, c_m=1.5, c_r=0.7, s=0.2)
eq_r = equilibrium(ModelId.R, params_r)
print("\nmodel R equilibrium")
for name, value in eq_r.decisions.as_dict().items():
    print(f"  {name:<4} = {value:.6f}")
print(f"  transfer covers subsidy: {eq_r.decisions.t >= eq_r.decisions.b_r}")

# Joint recycling (model MR). The published expressions are evaluated
# verbatim, and the oracle's stationarity check says whether they are an
# equilibrium under either segment-3 demand variant. Here the answer is
# 'none': the numeric solver, not these expressions, is the trustworthy
# route for this model (see demo 02).
params_mr = Params(alpha=0.6, c_m=1.0, c_r=0.5, s=0.2)
x1, x2, x3 = mr_helpers(params_mr)
print("\nmodel MR aggregation terms")
print(f"  x1 = {x1:.6f}, x2 = {x2:.6f}, x3 = {x3:.6f}")
eq_mr = equilibrium(ModelId.MR, params_mr)
print("model MR published-expression values")
for name, value in eq_mr.decisions.as_dict().items():
    print(f"  {name:<4} = {value:.6f}")
print(f"  stationarity-certified demand variant: "
      f"{certify_mr_variant(eq_mr.decisions, params_mr)}")
print(f"  interior valid: {eq_mr.validity.interior}")
