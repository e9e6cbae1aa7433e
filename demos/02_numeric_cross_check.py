"""
Numeric backward induction as an independent cross-check
========================================================

Solves the leader/follower game without touching the closed forms. Every
profit is quadratic, so one central-difference stencil of both profits
identifies the game exactly: the retailer's best response, an affine map of
the leader's variables, and the gradient and Hessian of the manufacturer's
reduced profit. A Newton step lands on the optimum. For
the manufacturer-led and retailer-led models the numeric optimum lands on
the closed forms to ten significant digits; for the joint model it reveals
that the published expressions are not the solution of the stated game.
"""

from dcclsc import (
    ModelId,
    Params,
    check_soc,
    equilibrium,
    solve_stackelberg_numeric,
    stationarity_residuals,
)
from dcclsc.closed_form import retailer_reaction_m
from dcclsc.oracle import best_response_retailer

# -- follower exactness ------------------------------------------------------
params = Params(alpha=0.9, c_m=0.15, c_r=0.12, s=0.02)
reaction = retailer_reaction_m(w=0.698387, p_m=0.648387, params=params)
numeric = best_response_retailer(ModelId.M, {"w": 0.698387, "p_m": 0.648387, "b_m": 0.27},
                                 params)
print(f"retailer reaction: analytic {reaction:.10f} vs numeric {numeric['p_r']:.10f}")

# -- leader solve, models M and R --------------------------------------------
for model, p in ((ModelId.M, params),
                 (ModelId.R, Params(alpha=0.65, c_m=1.5, c_r=0.7, s=0.2))):
    closed = equilibrium(model, p).decisions.as_dict()
    solved = solve_stackelberg_numeric(model, p).decisions.as_dict()
    worst = max(abs(solved[k] - closed[k]) for k in closed)
    print(f"model {model.value}: max |numeric - closed| = {worst:.2e}")

# -- the joint model disagrees with its published expressions ----------------
params_mr = Params(alpha=0.6, c_m=1.0, c_r=0.5, s=0.2)
published = equilibrium(ModelId.MR, params_mr)
solved = solve_stackelberg_numeric(ModelId.MR, params_mr)
print("\nmodel MR: published expressions vs numeric optimum")
print(f"  {'var':<4}{'published':>12}{'numeric':>12}")
for name, value in published.decisions.as_dict().items():
    print(f"  {name:<4}{value:>12.6f}{solved.decisions.as_dict()[name]:>12.6f}")

# first-order residuals say the same thing pointwise: the numeric optimum is
# stationary, the published values are not (under either demand variant)
res_numeric = stationarity_residuals(ModelId.MR, solved.decisions, params_mr)
res_published = stationarity_residuals(ModelId.MR, published.decisions, params_mr)
print(f"  max residual at numeric optimum:    {max(res_numeric.values()):.2e}")
print(f"  max residual at published values:   {max(res_published.values()):.2e}")

# -- second-order conditions ---------------------------------------------------
soc = check_soc(ModelId.MR, solved, params_mr)
print("\nsecond-order check at the numeric MR optimum")
print(f"  follower Hessian eigenvalues: {[round(e, 4) for e in soc.follower_hessian_eigs]}")
print(f"  leader reduced eigenvalues:   {[round(e, 4) for e in soc.leader_reduced_hessian_eigs]}")
print(f"  negative definite (follower, leader): "
      f"({soc.follower_negative_definite}, {soc.leader_negative_definite})")

# the difference stencil's step grows with the costs and with the point, so
# costly parameters (here the retailer-led figure's) solve at roundoff
fig4 = Params(alpha=0.5, c_m=10.0, c_r=6.0, s=6.0)
solved = solve_stackelberg_numeric(ModelId.R, fig4).decisions.as_dict()
closed = equilibrium(ModelId.R, fig4).decisions.as_dict()
print(f"\nmodel R at the retailer-led figure parameters: numeric p_r = {solved['p_r']:.6f}")
print(f"  max |numeric - closed| = {max(abs(solved[k] - closed[k]) for k in closed):.2e}")

# and so does a point far out: just above the retailer-led pole at alpha = 2/9
# the decisions are large, and the solve still lands on them at roundoff
near_pole = Params(alpha=0.2225, c_m=1.0, c_r=0.5, s=0.2)
solved = solve_stackelberg_numeric(ModelId.R, near_pole).decisions.as_dict()
closed = equilibrium(ModelId.R, near_pole).decisions.as_dict()
print(f"model R at alpha = 0.2225: numeric p_m = {solved['p_m']:.6f}")
print(f"  max |numeric - closed| = {max(abs(solved[k] - closed[k]) for k in closed):.2e}")
