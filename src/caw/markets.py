"""Market clearing: the classic labor market, the compute capital market,
the ceiling-capped cognitive labor market, and the coupled fixed point where
compute demand derives from agent labor demand.

The compute market pins the rental rate; the capped labor market takes that
rate as given and applies the wage ceiling; the coupled solver closes the
loop by finding the rental rate at which compute supplied equals agent
compute use plus any exogenous compute demand.

Root searches go through :func:`caw.roots.find_root`: Brent's method on
log price over the initial bracket [1e-9, 1e9], expanded geometrically a
bounded number of times, which is scale-free and robust for iso-elastic
curves. Solvers allocate no global state; independent scenarios may be
solved concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import constants
from .bound import caw_ceiling, classify_regime
from .errors import DegenerateCeiling, InvalidInput, NoEquilibrium
from .model import (
    CurveKind,
    EquilibriumResult,
    IsoElasticCurve,
    Regime,
    Scenario,
)
from .roots import find_root


@dataclass(frozen=True)
class ClearingPoint:
    """A market clearing price/quantity with solver diagnostics."""

    price: float
    quantity: float
    iterations: int
    residual: float


def _check_kinds(supply: IsoElasticCurve, demand: IsoElasticCurve) -> None:
    if supply.kind is not CurveKind.SUPPLY:
        raise InvalidInput("supply argument is not a supply curve")
    if demand.kind is not CurveKind.DEMAND:
        raise InvalidInput("demand argument is not a demand curve")


def clear_market(
    supply: IsoElasticCurve, demand: IsoElasticCurve, *, method: str = "closed_form"
) -> ClearingPoint:
    """Unique price with supply(p) == demand(p).

    ``method="closed_form"`` uses p* = (D0/S0)**(1/(es+ed)); the
    ``"root_search"`` method runs the bracketed Brent search on log price.
    The two agree to PRICE_REL_TOL and the test suite cross-checks them.

    When both curves are perfectly inelastic the quantity is pinned and any
    price clears: equal scales return the unit-price convention, unequal
    scales have no equilibrium.
    """
    _check_kinds(supply, demand)
    total_elasticity = supply.elasticity + demand.elasticity
    if total_elasticity == 0.0:
        if supply.scale == demand.scale:
            return ClearingPoint(price=1.0, quantity=supply.scale, iterations=0, residual=0.0)
        raise NoEquilibrium(
            "both curves perfectly inelastic with unequal quantities "
            f"({supply.scale!r} vs {demand.scale!r})"
        )
    if method == "closed_form":
        try:
            price = (demand.scale / supply.scale) ** (1.0 / total_elasticity)
        except OverflowError:
            price = math.inf
        if not 0.0 < price < math.inf:
            raise NoEquilibrium(f"clearing price {price!r} lies outside the floating-point range")
        quantity = supply.quantity(price)
        residual = abs(demand.quantity(price) - supply.quantity(price))
        return ClearingPoint(price=price, quantity=quantity, iterations=0, residual=residual)
    if method == "root_search":
        def excess(p: float) -> float:
            return demand.quantity(p) - supply.quantity(p)

        report = find_root(excess, abs_tol=constants.EXCESS_ABS_TOL_SCALE * supply.scale)
        return ClearingPoint(
            price=report.root,
            quantity=supply.quantity(report.root),
            iterations=report.iterations,
            residual=report.residual,
        )
    raise InvalidInput(f"unknown clearing method {method!r}")


def solve_compute_market(s: Scenario) -> ClearingPoint:
    """Clear compute supply against exogenous compute demand.

    Returns the raw rental rate; policy levers apply at the wage ceiling,
    not here.
    """
    if s.compute_demand_exogenous is None:
        raise InvalidInput("scenario has no exogenous compute demand to clear against")
    return clear_market(s.compute_supply, s.compute_demand_exogenous)


def _capped_at_zero_ceiling(s: Scenario) -> EquilibriumResult:
    # Ceiling exactly zero: only meaningful when labor demand stays bounded
    # as the wage falls to zero (perfectly inelastic demand).
    if s.labor_demand_ts.elasticity > 0.0:
        raise DegenerateCeiling("labor demand is unbounded as the wage falls to zero")
    demand0 = s.labor_demand_ts.scale
    supply0 = s.labor_supply_ts.scale if s.labor_supply_ts.elasticity == 0.0 else 0.0
    l_h = min(supply0, demand0)
    l_a = s.technology.lam * max(0.0, demand0 - supply0)
    return EquilibriumResult(
        regime=Regime.MIXED,
        w_h_star=0.0,
        r_c_star=0.0,
        ceiling=0.0,
        l_h_star=l_h,
        l_a_star=l_a,
        k_c_star=s.technology.k * l_a,
        ceiling_binds=True,
        labor_supply_at_wage=supply0,
        labor_demand_at_wage=demand0,
    )


def solve_capped_labor_market(s: Scenario, r_c_star: float) -> EquilibriumResult:
    """Clear the substitutable-task labor market under the wage ceiling.

    Below the ceiling the market clears as usual. At a binding ceiling the
    wage equals the ceiling, human employment is min(supply, demand) there,
    and agent labor fills the residual effective demand
    lam * (demand - supply). Both curve readings at the equilibrium wage are
    reported so the supply/demand gap is visible, not hidden.
    """
    if r_c_star < 0.0:
        raise InvalidInput(f"rental rate must be nonnegative, got {r_c_star!r}")
    ceiling = caw_ceiling(s.technology, r_c_star, s.policy)
    if ceiling == 0.0:
        return _capped_at_zero_ceiling(s)

    clearing = clear_market(s.labor_supply_ts, s.labor_demand_ts)
    w_clear = clearing.price

    if w_clear <= ceiling:
        regime = classify_regime(w_clear, ceiling, constants.REGIME_BAND_ABS)
        return EquilibriumResult(
            regime=regime,
            w_h_star=w_clear,
            r_c_star=r_c_star,
            ceiling=ceiling,
            l_h_star=clearing.quantity,
            l_a_star=0.0,
            k_c_star=0.0,
            ceiling_binds=regime is Regime.MIXED,
            labor_supply_at_wage=s.labor_supply_ts.quantity(w_clear),
            labor_demand_at_wage=s.labor_demand_ts.quantity(w_clear),
        )

    demand_at_ceiling = s.labor_demand_ts.quantity(ceiling)
    supply_at_ceiling = s.labor_supply_ts.quantity(ceiling)
    l_h = min(supply_at_ceiling, demand_at_ceiling)
    l_a = s.technology.lam * max(0.0, demand_at_ceiling - supply_at_ceiling)
    return EquilibriumResult(
        regime=classify_regime(ceiling, ceiling, constants.REGIME_BAND_ABS),
        w_h_star=ceiling,
        r_c_star=r_c_star,
        ceiling=ceiling,
        l_h_star=l_h,
        l_a_star=l_a,
        k_c_star=s.technology.k * l_a,
        ceiling_binds=True,
        labor_supply_at_wage=supply_at_ceiling,
        labor_demand_at_wage=demand_at_ceiling,
    )


def solve_coupled(s: Scenario) -> EquilibriumResult:
    """Fixed point where compute supplied equals agent use plus exogenous demand.

    At each candidate rental rate the capped labor market determines agent
    labor and hence derived compute demand k * l_a; a bracketed Brent search
    on log rental rate drives total excess compute demand to zero. Any shift
    that moves the rental rate moves the wage ceiling in lockstep.

    The uncapped clearing wage does not depend on the rental rate, so the
    labor market is cleared once; each excess evaluation then only places
    the ceiling against it, with the arithmetic of
    :func:`solve_capped_labor_market`.
    """
    tech, policy = s.technology, s.policy
    labor_demand, labor_supply = s.labor_demand_ts, s.labor_supply_ts
    w_clear = clear_market(labor_supply, labor_demand).price

    def excess(r_c: float) -> float:
        ceiling = caw_ceiling(tech, r_c, policy)
        if ceiling == 0.0:
            derived = solve_capped_labor_market(s, r_c).k_c_star
        elif w_clear <= ceiling:
            derived = 0.0
        else:
            gap = labor_demand.quantity(ceiling) - labor_supply.quantity(ceiling)
            derived = tech.k * (tech.lam * max(0.0, gap))
        exogenous = (
            s.compute_demand_exogenous.quantity(r_c)
            if s.compute_demand_exogenous is not None
            else 0.0
        )
        return derived + exogenous - s.compute_supply.quantity(r_c)

    report = find_root(excess, abs_tol=constants.EXCESS_ABS_TOL_SCALE * s.compute_supply.scale)
    return solve_capped_labor_market(s, report.root)


def solve_scenario(s: Scenario, mode: str = "capped") -> EquilibriumResult:
    """Solve a scenario end to end.

    ``"capped"`` clears the compute market from exogenous demand first and
    feeds the rental rate to the capped labor market; ``"coupled"`` solves
    the joint fixed point.
    """
    if mode == "capped":
        r_c_star = solve_compute_market(s).price
        return solve_capped_labor_market(s, r_c_star)
    if mode == "coupled":
        return solve_coupled(s)
    raise InvalidInput(f"unknown solve mode {mode!r}")
