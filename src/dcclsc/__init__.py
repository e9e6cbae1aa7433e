"""Pricing equilibria for dual-channel closed-loop supply chains.

A single manufacturer sells new items directly and through one retailer,
and used items flow back for remanufacturing under one of three recycling
frameworks: manufacturer-led (M), retailer-led (R), or joint (MR). The
package evaluates the published closed-form Stackelberg equilibria of the
three frameworks, recomputes them independently by numeric backward
induction and Monte Carlo choice simulation, and audits every published
ordering, monotonicity, threshold, and uniqueness claim numerically.
"""

from .closed_form import (
    DEFAULT_GUARD,
    decision_values,
    equilibrium,
    limits,
    singularity_distance,
)
from .errors import DcclscError, NonConcave, OutOfDomain, Singularity
from .market import (
    DemandProfile,
    Equilibrium,
    MrDemandVariant,
    ProfitProfile,
    ValidityReport,
    demand,
)
from .oracle import (
    MonteCarloDemand,
    OracleConfig,
    SocReport,
    certify_mr_variant,
    check_soc,
    monte_carlo_demand,
    solve_stackelberg_numeric,
    stationarity_residuals,
)
from .params import DecisionSet, ModelId, Params, decision_fields

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GUARD",
    "DcclscError",
    "DecisionSet",
    "DemandProfile",
    "Equilibrium",
    "ModelId",
    "MonteCarloDemand",
    "MrDemandVariant",
    "NonConcave",
    "OracleConfig",
    "OutOfDomain",
    "Params",
    "ProfitProfile",
    "Singularity",
    "SocReport",
    "ValidityReport",
    "certify_mr_variant",
    "check_soc",
    "decision_fields",
    "decision_values",
    "demand",
    "equilibrium",
    "limits",
    "monte_carlo_demand",
    "singularity_distance",
    "solve_stackelberg_numeric",
    "stationarity_residuals",
]
