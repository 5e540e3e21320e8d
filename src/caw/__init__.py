"""Compute-anchored wage model.

A verifiable numerical library and scenario CLI for factor pricing when
AI agents convert compute capital into effective cognitive labor: the wage
ceiling lam * k * r_c, CES cost duality, compute- and capped-labor-market
equilibria, comparative statics, and a reference calibration.
"""

from types import ModuleType as _ModuleType

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
    solve_batch,
    solve_capped_labor_market,
    solve_compute_market,
    solve_coupled,
    solve_scenario,
)
from .model import (
    SWEEPABLE_PARAMS,
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
    SemiElasticity,
    StaticsPoint,
    StaticsSetup,
    WageBillResponse,
    WageBillState,
    caw_trajectory,
    grid,
    semi_elasticity,
    solve_statics_point,
    wage_bill_response,
)

__version__ = "0.1.0"

# The public surface: every name the imports above bind, and the version. The
# submodules they import are bound here too, as attributes, but not exported.
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
