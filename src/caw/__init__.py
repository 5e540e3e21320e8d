"""Compute-anchored wage model.

A verifiable numerical library and scenario CLI for factor pricing when
AI agents convert compute capital into effective cognitive labor: the wage
ceiling lam * k * r_c, CES cost duality, compute- and capped-labor-market
equilibria, comparative statics, and a reference calibration.
"""

from .bound import Allocation, agent_wage, caw_ceiling, classify_regime, linear_costmin
from .calibration import CalibrationCell, factor_shares, occupation_wage, table1
from .ces import (
    DemandPair,
    ces_output,
    conditional_demands,
    leontief_requirements,
    relative_wage,
    unit_cost,
)
from .errors import (
    CawError,
    CeilingNotBinding,
    DegenerateCeiling,
    Infeasible,
    InvalidInput,
    NoConvergence,
    NoEquilibrium,
    ParseError,
    SolverError,
    ValidationError,
)
from .markets import (
    ClearingPoint,
    clear_market,
    solve_capped_labor_market,
    solve_compute_market,
    solve_coupled,
    solve_scenario,
)
from .model import (
    CesParams,
    CurveKind,
    EquilibriumResult,
    FactorPrices,
    FactorShares,
    IsoElasticCurve,
    PolicyLevers,
    Regime,
    Scenario,
    TaskProfile,
    Technology,
    Violation,
    demand_curve,
    supply_curve,
    validate_scenario,
)
from .scenario_io import OutputTable, emit_scenario, emit_table, parse_scenario
from .statics import (
    SWEEPABLE_PARAMS,
    SemiElasticity,
    StaticsPoint,
    StaticsSetup,
    SweepRow,
    WageBillResponse,
    WageBillState,
    caw_trajectory,
    grid,
    semi_elasticity,
    solve_statics_point,
    sweep,
    wage_bill_response,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "Technology",
    "CesParams",
    "IsoElasticCurve",
    "CurveKind",
    "FactorPrices",
    "PolicyLevers",
    "TaskProfile",
    "Scenario",
    "EquilibriumResult",
    "FactorShares",
    "Regime",
    "Violation",
    "validate_scenario",
    "supply_curve",
    "demand_curve",
    # ces kernel
    "DemandPair",
    "ces_output",
    "unit_cost",
    "conditional_demands",
    "relative_wage",
    "leontief_requirements",
    # wage bound
    "Allocation",
    "agent_wage",
    "caw_ceiling",
    "linear_costmin",
    "classify_regime",
    # markets
    "ClearingPoint",
    "clear_market",
    "solve_compute_market",
    "solve_capped_labor_market",
    "solve_coupled",
    "solve_scenario",
    # statics
    "StaticsSetup",
    "StaticsPoint",
    "SemiElasticity",
    "WageBillState",
    "WageBillResponse",
    "SweepRow",
    "SWEEPABLE_PARAMS",
    "solve_statics_point",
    "semi_elasticity",
    "caw_trajectory",
    "wage_bill_response",
    "sweep",
    "grid",
    # calibration
    "CalibrationCell",
    "table1",
    "occupation_wage",
    "factor_shares",
    # io
    "OutputTable",
    "parse_scenario",
    "emit_scenario",
    "emit_table",
    # errors
    "CawError",
    "InvalidInput",
    "ParseError",
    "ValidationError",
    "SolverError",
    "NoEquilibrium",
    "NoConvergence",
    "DegenerateCeiling",
    "Infeasible",
    "CeilingNotBinding",
]
