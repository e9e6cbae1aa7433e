"""
Auditing the published comparative-statics claims
=================================================

Every published ordering and monotonicity claim comes with a threshold
condition; the audits evaluate the condition, test the claimed conclusion
against the closed forms on an alpha grid, and report agreement. Several
claims fail, and the audits exist precisely to surface that: the claims
were proven by comparing endpoint values, which misses interior dips.
"""

from dcclsc import ModelId, Params
from dcclsc.audit import (
    audit_endpoints,
    audit_monotonicity,
    audit_ordering,
    audit_uniqueness,
    thresholds,
)

# -- thresholds ---------------------------------------------------------------
case = Params(alpha=0.5, c_m=1.0, c_r=0.5, s=0.2)
th = thresholds(case)
print(f"price-ordering threshold alpha* = {th.alpha_star:.6f}")
print(f"subsidy-ordering threshold      = {th.alpha_hat:.6f} (outside (0,1): "
      f"ordering never flips)")
print(f"cost thresholds, manufacturer-led: {th.prop2}")

# -- the one claim that always holds ------------------------------------------
v = audit_ordering("P1", Params(alpha=0.5, c_m=0.3, c_r=0.1, s=0.05))
print(f"\nP1 direct price below retail price: claimed {v.claimed}, "
      f"observed {v.observed}, agree={v.agree}")

# -- the canonical failure: retailer-subsidy monotonicity ----------------------
fig4 = Params(alpha=0.5, c_m=10.0, c_r=6.0, s=6.0)
print("\nretailer-led monotonicity claims at the figure parameters")
for verdict in audit_monotonicity("P4", fig4):
    mark = "ok " if verdict.agree else "XXX"
    print(f"  [{mark}] {verdict.sub_id:<4}{verdict.variable:<4} "
          f"claimed {verdict.claimed:<11} observed {verdict.observed}")

# the subsidy claim is backed by a condition that holds (c_m=10 < 21), yet
# the expression it describes is strictly decreasing; the audit flags it
subsidy = {v.variable: v for v in audit_monotonicity("P4", fig4)}["b_r"]
evid = dict(subsidy.evidence)
print(f"  subsidy values: b_r(0.35)={evid[0.35]:.4f} ... b_r(0.9)="
      f"{evid[min(evid, key=lambda a: abs(a - 0.9))]:.4f}")

# -- endpoint identities --------------------------------------------------------
print("\nendpoint audit, retailer-led model (published forms vs computed limits)")
p = Params(alpha=0.5, c_m=0.6, c_r=0.3, s=0.1)
for verdict in audit_endpoints(ModelId.R, p):
    if not verdict.agree:
        computed, published = verdict.evidence[0][1], verdict.evidence[1][1]
        print(f"  {verdict.variable:<4} {verdict.sub_id}: computed {computed:+.4f} "
              f"vs published {published:+.4f} ({verdict.observed})")

# -- uniqueness theorems ---------------------------------------------------------
print("\nuniqueness audits (numeric optimum + second order)")
for theorem, p in (("T1", Params(alpha=0.9, c_m=0.15, c_r=0.12, s=0.02)),
                   ("T2", Params(alpha=0.65, c_m=1.5, c_r=0.7, s=0.2)),
                   ("T3", Params(alpha=0.6, c_m=1.0, c_r=0.5, s=0.2))):
    verdict = audit_uniqueness(theorem, p)
    print(f"  {theorem}: observed {verdict.observed}")
    for note in verdict.notes:
        if "caveat" in note or "variant" in note:
            print(f"       {note}")
