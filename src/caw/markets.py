"""Market clearing: the classic labor market, the compute capital market,
the ceiling-capped cognitive labor market, and the coupled fixed point where
compute demand derives from agent labor demand.

The compute market pins the rental rate; the capped labor market takes that
rate as given and applies the wage ceiling; the coupled solver closes the
loop by finding the rental rate at which compute supplied equals agent
compute use plus any exogenous compute demand.

Every capped solve runs on one kernel, :func:`solve_capped_batch`: a single
scenario is a batch of one, and a one-parameter sweep computes the stages
its parameter does not touch once for the whole grid.

Root searches go through :func:`caw.roots.find_root`: Brent's method on
log price over the initial bracket [1e-9, 1e9], expanded geometrically a
bounded number of times, which is scale-free and robust for iso-elastic
curves. Solvers allocate no global state; independent scenarios may be
solved concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Sequence

from . import constants
from .bound import caw_ceiling, classify_regime
from .errors import CawError, DegenerateCeiling, InvalidInput, NoEquilibrium
from .model import (
    CurveKind,
    EquilibriumResult,
    IsoElasticCurve,
    PolicyLevers,
    Regime,
    Scenario,
    Technology,
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


def _clearing_price(supply: IsoElasticCurve, demand: IsoElasticCurve) -> float:
    """The closed-form price of :func:`clear_market`; 1.0 when both curves
    are perfectly inelastic with equal scales."""
    _check_kinds(supply, demand)
    total_elasticity = supply.elasticity + demand.elasticity
    if total_elasticity == 0.0:
        if supply.scale == demand.scale:
            return 1.0
        raise NoEquilibrium(
            "both curves perfectly inelastic with unequal quantities "
            f"({supply.scale!r} vs {demand.scale!r})"
        )
    try:
        price = (demand.scale / supply.scale) ** (1.0 / total_elasticity)
    except OverflowError:
        price = math.inf
    if not 0.0 < price < math.inf:
        raise NoEquilibrium(f"clearing price {price!r} lies outside the floating-point range")
    return price


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
    if method == "closed_form" or supply.elasticity + demand.elasticity == 0.0:
        price = _clearing_price(supply, demand)
        quantity = supply.quantity(price)
        residual = abs(demand.quantity(price) - quantity)
        return ClearingPoint(price=price, quantity=quantity, iterations=0, residual=residual)
    _check_kinds(supply, demand)
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


def _exogenous(demand: IsoElasticCurve | None) -> IsoElasticCurve:
    if demand is None:
        raise InvalidInput("scenario has no exogenous compute demand to clear against")
    return demand


def _rental_rate(supply: IsoElasticCurve, demand: IsoElasticCurve | None) -> float:
    return _clearing_price(supply, _exogenous(demand))


def solve_compute_market(s: Scenario) -> ClearingPoint:
    """Clear compute supply against exogenous compute demand.

    Returns the raw rental rate; policy levers apply at the wage ceiling,
    not here.
    """
    return clear_market(s.compute_supply, _exogenous(s.compute_demand_exogenous))


# The scenario fields the capped and coupled solvers read, by public dotted
# name, as (Scenario attribute, field). The technology ratio is stored as
# ``lam`` because of the Python keyword.
SWEEP_FIELDS: dict[str, tuple[str, str]] = {
    "technology.lambda": ("technology", "lam"),
    "technology.k": ("technology", "k"),
    "compute_supply.scale": ("compute_supply", "scale"),
    "compute_supply.elasticity": ("compute_supply", "elasticity"),
    "compute_demand.scale": ("compute_demand_exogenous", "scale"),
    "compute_demand.elasticity": ("compute_demand_exogenous", "elasticity"),
    "labor_demand_ts.scale": ("labor_demand_ts", "scale"),
    "labor_demand_ts.elasticity": ("labor_demand_ts", "elasticity"),
    "labor_supply_ts.scale": ("labor_supply_ts", "scale"),
    "labor_supply_ts.elasticity": ("labor_supply_ts", "elasticity"),
    "policy.tau_c": ("policy", "tau_c"),
    "policy.mu": ("policy", "mu"),
}


def _swept_holders(s: Scenario, param: str, values: Iterable[float]) -> Iterator:
    """The scenario part holding ``param`` with that field set to each value,
    made one at a time by positional construction (less than half the cost
    of ``dataclasses.replace``). Unknown or absent fields raise at once.
    """
    if param not in SWEEP_FIELDS:
        raise InvalidInput(f"unknown sweep parameter {param!r}; valid: {', '.join(SWEEP_FIELDS)}")
    attr, name = SWEEP_FIELDS[param]
    holder = getattr(s, attr)
    if holder is None:
        raise InvalidInput(f"scenario has no {param.split('.')[0]} to sweep")
    names = [f.name for f in fields(holder)]
    args = [getattr(holder, n) for n in names]
    at, cls = names.index(name), type(holder)
    before, after = args[:at], args[at + 1 :]
    return (cls(*before, value, *after) for value in values)


def _capped_at_zero_ceiling(
    tech: Technology, supply: IsoElasticCurve, demand: IsoElasticCurve
) -> EquilibriumResult:
    # Ceiling exactly zero: only meaningful when labor demand stays bounded
    # as the wage falls to zero (perfectly inelastic demand).
    if demand.elasticity > 0.0:
        raise DegenerateCeiling("labor demand is unbounded as the wage falls to zero")
    demand0 = demand.scale
    supply0 = supply.scale if supply.elasticity == 0.0 else 0.0
    l_h = min(supply0, demand0)
    l_a = tech.lam * max(0.0, demand0 - supply0)
    return EquilibriumResult(
        regime=Regime.MIXED,
        w_h_star=0.0,
        r_c_star=0.0,
        ceiling=0.0,
        l_h_star=l_h,
        l_a_star=l_a,
        k_c_star=tech.k * l_a,
        ceiling_binds=True,
        labor_supply_at_wage=supply0,
        labor_demand_at_wage=demand0,
    )


def _place_at_ceiling(
    tech: Technology,
    policy: PolicyLevers,
    r_c_star: float,
    supply: IsoElasticCurve,
    demand: IsoElasticCurve,
    w_clear: float | CawError | None,
) -> EquilibriumResult:
    """One capped labor-market solve at a known rental rate.

    ``w_clear`` is the uncapped clearing wage of ``supply`` against
    ``demand`` (or the error clearing raised) when the caller has it, None
    to clear here; it is read only when the ceiling is positive.
    """
    ceiling = caw_ceiling(tech, r_c_star, policy)
    if ceiling == 0.0:
        return _capped_at_zero_ceiling(tech, supply, demand)
    if w_clear is None:
        w_clear = _clearing_price(supply, demand)
    elif isinstance(w_clear, CawError):
        raise w_clear.with_traceback(None)

    if w_clear <= ceiling:
        regime = classify_regime(w_clear, ceiling, constants.REGIME_BAND_ABS)
        l_h = supply.quantity(w_clear)
        return EquilibriumResult(
            regime=regime,
            w_h_star=w_clear,
            r_c_star=r_c_star,
            ceiling=ceiling,
            l_h_star=l_h,
            l_a_star=0.0,
            k_c_star=0.0,
            ceiling_binds=regime is Regime.MIXED,
            labor_supply_at_wage=l_h,
            labor_demand_at_wage=demand.quantity(w_clear),
        )

    demand_at_ceiling = demand.quantity(ceiling)
    supply_at_ceiling = supply.quantity(ceiling)
    l_h = min(supply_at_ceiling, demand_at_ceiling)
    l_a = tech.lam * max(0.0, demand_at_ceiling - supply_at_ceiling)
    return EquilibriumResult(
        regime=classify_regime(ceiling, ceiling, constants.REGIME_BAND_ABS),
        w_h_star=ceiling,
        r_c_star=r_c_star,
        ceiling=ceiling,
        l_h_star=l_h,
        l_a_star=l_a,
        k_c_star=tech.k * l_a,
        ceiling_binds=True,
        labor_supply_at_wage=supply_at_ceiling,
        labor_demand_at_wage=demand_at_ceiling,
    )


def _attempt(fn, *args):
    """``fn(*args)``, or the CawError it raised."""
    try:
        return fn(*args)
    except CawError as exc:
        return exc


_COMPUTE_PARTS = ("compute_supply", "compute_demand_exogenous")
_LABOR_PARTS = ("labor_supply_ts", "labor_demand_ts")


def solve_capped_batch(
    s: Scenario,
    param: str | None = None,
    values: Sequence[float] = (),
    *,
    r_c_star: float | None = None,
) -> list[EquilibriumResult | CawError]:
    """Capped solves of ``s`` with the field ``param`` (a :data:`SWEEP_FIELDS`
    name) set to each of ``values``, in order; with no ``param``, the one
    solve of ``s`` itself.

    Each row clears the compute market from exogenous demand (or takes
    ``r_c_star`` when given) and places the labor market against the
    ceiling. A row is its :class:`EquilibriumResult` or the CawError its
    solve raised; other exceptions propagate. The compute-market price is
    computed once when no compute curve is swept, and the uncapped labor
    clearing once when no labor curve is swept; what such a shared stage
    returns or raises holds for every row. Values are not validated here.
    """
    if param is None:
        attr, holders = None, [None]
    else:
        holders = _swept_holders(s, param, values)
        attr = SWEEP_FIELDS[param][0]

    rate = r_c_star
    if rate is None and attr not in _COMPUTE_PARTS:
        rate = _attempt(_rental_rate, s.compute_supply, s.compute_demand_exogenous)
    w_clear = None
    if attr not in _LABOR_PARTS:
        w_clear = _attempt(_clearing_price, s.labor_supply_ts, s.labor_demand_ts)

    parts = {
        "technology": s.technology,
        "policy": s.policy,
        "compute_supply": s.compute_supply,
        "compute_demand_exogenous": s.compute_demand_exogenous,
        "labor_supply_ts": s.labor_supply_ts,
        "labor_demand_ts": s.labor_demand_ts,
    }
    rows: list[EquilibriumResult | CawError] = []
    for holder in holders:
        if isinstance(rate, CawError):
            rows.append(rate)
            continue
        if attr is not None:
            parts[attr] = holder
        try:
            r_c = rate
            if r_c is None:
                r_c = _rental_rate(parts["compute_supply"], parts["compute_demand_exogenous"])
            rows.append(
                _place_at_ceiling(
                    parts["technology"],
                    parts["policy"],
                    r_c,
                    parts["labor_supply_ts"],
                    parts["labor_demand_ts"],
                    w_clear,
                )
            )
        except CawError as exc:  # per-row failures are data, not aborts
            rows.append(exc)
    return rows


def _one(rows: list[EquilibriumResult | CawError]) -> EquilibriumResult:
    (row,) = rows
    if isinstance(row, CawError):
        raise row
    return row


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
    return _one(solve_capped_batch(s, r_c_star=r_c_star))


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
        return _one(solve_capped_batch(s))
    if mode == "coupled":
        return solve_coupled(s)
    raise InvalidInput(f"unknown solve mode {mode!r}")
