"""Market clearing: the classic labor market, the compute capital market,
the ceiling-capped cognitive labor market, and the coupled fixed point where
compute demand derives from agent labor demand.

The compute market pins the rental rate; the capped labor market takes that
rate as given and applies the wage ceiling; the coupled solver closes the
loop by finding the rental rate at which compute supplied equals agent
compute use plus any exogenous compute demand.

Every solve runs on one kernel, :func:`solve_batch`: a single scenario in
either mode is a batch of one, and a one-parameter sweep computes the stages
its parameter does not touch once for the whole grid. A capped row takes
the compute-market price, a coupled row finds its fixed-point rate, and
both place the labor market against the ceiling with the same
arithmetic. A sweep may vary only the fields a solve reads,
:data:`caw.model.SWEEPABLE_PARAMS`. A clearing price whose scale ratio
alone leaves the float range is taken in logs. A row whose clearing price,
ceiling, labor quantities or fixed-point compute quantity leave the float
range is a SolverError row, by the one rule :func:`caw.model.in_float_range`.

Curves meet the scenario rules: a solve validates its scenario once, which
holds every curve to them, :func:`clear_market` checks its two curves with
:func:`caw.model.require_curve`, and a given rental rate meets
:func:`caw.bound.require_rate`.

Root searches go through :func:`caw.roots.find_root`: Brent's method on
log price, by default over the initial bracket [1e-9, 1e9] expanded
geometrically a bounded number of times, which is scale-free and robust for
iso-elastic curves. The coupled fixed point knows more. Above the rental
rate r_b at which the ceiling meets the uncapped clearing wage, agents are
unused, so where the exogenous compute price r0 lies above r_b it is the
fixed point and no search runs; otherwise the search starts from the known
bracket [r0, r_b] (or a floor below r_b without exogenous demand), and
the compute price r0, like a capped row's, is computed once per sweep unless
a compute curve is swept. Solvers allocate no global state; independent
scenarios may be solved concurrently.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

from . import constants
from .bound import CEILING, caw_ceiling, require_rate
from .errors import CawError, DegenerateCeiling, InvalidInput, NoEquilibrium, ValidationError
from .model import (
    FIELDS,
    SECTIONS,
    SWEEPABLE_PARAMS,
    _MIN_NORMAL,
    CurveKind,
    EquilibriumResult,
    IsoElasticCurve,
    PolicyLevers,
    Regime,
    Scenario,
    Technology,
    _exp,
    field_violation,
    in_float_range,
    require_curve,
    validate_scenario,
    within,
)
from .roots import DEFAULT_BRACKET, REACHABLE, find_root


class ClearingPoint(NamedTuple):
    """A market clearing price/quantity with solver diagnostics."""

    price: float
    quantity: float
    iterations: int
    residual: float


def _clearing_price(supply: IsoElasticCurve, demand: IsoElasticCurve) -> float:
    """The closed-form price of :func:`clear_market`, curves unchecked;
    1.0 when both curves are perfectly inelastic with equal scales."""
    total_elasticity = supply.elasticity + demand.elasticity
    if total_elasticity == 0.0:
        if supply.scale == demand.scale:
            return 1.0
        raise NoEquilibrium(
            "both curves perfectly inelastic with unequal quantities "
            f"({supply.scale!r} vs {demand.scale!r})"
        )
    ratio = demand.scale / supply.scale
    if _MIN_NORMAL <= ratio < math.inf:
        try:
            price = ratio ** (1.0 / total_elasticity)
        except OverflowError:
            price = math.inf
    else:  # the ratio alone leaves the normal range; the price may not
        price = _exp((math.log(demand.scale) - math.log(supply.scale)) / total_elasticity)
    return in_float_range(price, "clearing price")


def clear_market(
    supply: IsoElasticCurve, demand: IsoElasticCurve, *, method: str = "closed_form"
) -> ClearingPoint:
    """Unique price with supply(p) == demand(p).

    ``method="closed_form"`` uses p* = (D0/S0)**(1/(es+ed)); the
    ``"root_search"`` method runs the bracketed Brent search on log price.
    The two agree to PRICE_REL_TOL and the test suite cross-checks them.

    When both curves are perfectly inelastic the quantity is pinned and any
    price clears: equal scales return the unit-price convention, unequal
    scales have no equilibrium. Curves outside :func:`caw.model.require_curve`
    raise InvalidInput.
    """
    require_curve(supply, CurveKind.SUPPLY, "supply")
    require_curve(demand, CurveKind.DEMAND, "demand")
    if method == "closed_form" or supply.elasticity + demand.elasticity == 0.0:
        price = _clearing_price(supply, demand)
        quantity = supply.quantity(price)
        residual = abs(demand.quantity(price) - quantity)
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


# The scenario parts a solve reads, in SECTIONS order: those holding a sweepable field.
_PARTS = tuple(sec.attr for sec in SECTIONS if any(f.path in SWEEPABLE_PARAMS for f in sec.fields))


def _swept_holder(s: Scenario, param: str):
    """The Scenario attribute of the part holding ``param``, and a function
    setting the field on that part by positional construction (cheaper than
    ``_replace``, which takes keywords). Unknown or absent fields raise."""
    if param not in SWEEPABLE_PARAMS:
        raise InvalidInput(f"unknown sweep parameter {param!r}; valid: {', '.join(SWEEPABLE_PARAMS)}")
    field = FIELDS[param]
    section = next(section for section in SECTIONS if field in section.fields)
    holder = getattr(s, section.attr)
    if holder is None:
        raise InvalidInput(f"scenario has no {section.key} to sweep")
    cls = type(holder)
    at = cls._fields.index(field.attr)
    before, after = holder[:at], holder[at + 1 :]
    return section.attr, lambda value: cls(*before, value, *after)


def _agent_labor(
    tech: Technology, ceiling: float, supply: IsoElasticCurve, demand: IsoElasticCurve
) -> tuple[float, float, float]:
    """Labor supplied and demanded at a binding ceiling, and the agent labor
    lam * (demand - supply) that fills the gap.

    At a zero ceiling only a perfectly inelastic curve has a quantity: labor
    demand must be one (else DegenerateCeiling), and elastic supply is 0.
    """
    if ceiling == 0.0:
        if demand.elasticity > 0.0:
            raise DegenerateCeiling("labor demand is unbounded as the wage falls to zero")
        demand_at = demand.scale
        supply_at = supply.scale if supply.elasticity == 0.0 else 0.0
    else:
        demand_at = demand.quantity(ceiling)
        supply_at = supply.quantity(ceiling)
    return supply_at, demand_at, tech.lam * max(0.0, demand_at - supply_at)


_LABOR = "labor quantity at the equilibrium wage"  # in its float-range error; it may underflow, not overflow


def _place_at_ceiling(
    tech: Technology,
    policy: PolicyLevers,
    factor: float,
    r_c_star: float,
    supply: IsoElasticCurve,
    demand: IsoElasticCurve,
    w_clear: float | CawError,
    slack: tuple[float, float] | None,
) -> EquilibriumResult:
    """One capped labor-market solve at a known rental rate.

    ``factor`` is ``caw_ceiling(tech, 1.0, policy)``: a positive rate's
    ceiling is ``factor * r_c_star``, the same product. ``w_clear`` is the
    uncapped clearing wage, or the error clearing raised, read only when the
    ceiling is positive; ``slack`` holds both curves' quantities at it, if
    known. A zero ceiling, even one that underflows at a positive rate,
    binds; the result reports ``r_c_star`` as given. A positive ceiling
    beyond the float range raises SolverError (:func:`caw.model.in_float_range`),
    after a clearing error, and so does a labor quantity the result would
    report beyond it, in either branch.
    """
    ceiling = factor * r_c_star if r_c_star > 0.0 else caw_ceiling(tech, r_c_star, policy)
    if ceiling != 0.0:
        if isinstance(w_clear, CawError):
            raise w_clear.with_traceback(None)
        if w_clear <= ceiling:  # slack, or beyond the float range
            l_h, l_d = slack or (supply.quantity(w_clear), demand.quantity(w_clear))
            if math.inf in (ceiling, l_h, l_d):  # these may underflow: only an overflow breaks the rule
                in_float_range(ceiling, CEILING, zero=True)
                in_float_range(math.inf, _LABOR)
            # classify_regime's band test; w_clear cannot lie above the ceiling here.
            binds = w_clear >= ceiling - constants.REGIME_BAND_ABS
            regime = Regime.MIXED if binds else Regime.HUMAN_ONLY
            return EquilibriumResult(regime, w_clear, r_c_star, ceiling, l_h, 0.0, 0.0, binds, l_h, l_d)

    # A binding ceiling: classify_regime(ceiling, ceiling, band) is MIXED.
    supply_at_ceiling, demand_at_ceiling, l_a = _agent_labor(tech, ceiling, supply, demand)
    k_c = tech.k * l_a  # inf where l_a is
    if math.inf in (supply_at_ceiling, demand_at_ceiling, k_c):
        in_float_range(math.inf, _LABOR)
    return EquilibriumResult(
        Regime.MIXED, ceiling, r_c_star, ceiling, min(supply_at_ceiling, demand_at_ceiling), l_a,
        k_c, True, supply_at_ceiling, demand_at_ceiling,
    )


# Rental rates whose log lies in the range a default root search can reach.
_LOWEST_RATE, _HIGHEST_RATE = math.exp(REACHABLE[0]), math.exp(REACHABLE[1])


def _coupled_rate(
    tech: Technology,
    factor: float,
    compute_supply: IsoElasticCurve,
    compute_demand: IsoElasticCurve | None,
    supply: IsoElasticCurve,
    demand: IsoElasticCurve,
    w_clear: float | CawError,
    r0: float | CawError,
) -> float:
    """The rental rate at which compute supplied equals agent use k * l_a
    plus exogenous demand.

    ``r0`` is the compute price on exogenous demand alone, or the error
    computing it raised when there is none (no exogenous demand, or no price
    clears it). Where the ceiling at ``r0`` is slack, agents are
    unused and ``r0`` is the fixed point: no search runs. Otherwise the
    ceiling binds below ``r_b = w_clear / (lam * k * (1 + tau_c) * mu)`` and
    is slack above it, so the excess is >= 0 at ``r0`` and <= 0 at ``r_b``,
    and Brent's method on log rental rate starts from [log r0, log r_b] or,
    without ``r0`` or with one beyond the reach of a default search
    (:data:`caw.roots.REACHABLE`), from [min(log BRACKET_LO, log r_b - 1),
    log r_b]. An ``r_b`` beyond that reach keeps the default bracket.

    ``factor`` is the ceiling per unit rental rate of :func:`_place_at_ceiling`.
    Agent labor at each candidate rate is that of :func:`_place_at_ceiling`,
    read without building a result; a clearing error raises first. An excess
    inf - inf raises the float-range error: compute used and supplied are
    monotone in the rate, so the quantity that clears is that large too.
    """
    if isinstance(w_clear, CawError):
        raise w_clear.with_traceback(None)
    r0 = None if isinstance(r0, CawError) else r0
    if r0 is not None:
        ceiling = factor * r0
        if ceiling != 0.0 and w_clear <= ceiling:
            return r0

    bracket = DEFAULT_BRACKET
    r_b = w_clear / factor if factor > 0.0 else 0.0
    if _LOWEST_RATE <= r_b <= _HIGHEST_RATE:
        hi = math.log(r_b)
        # Round up to where the ceiling is slack. A step of at least epsilon
        # moves exp(hi) by about one float spacing even where log r_b is near
        # 0 and its own spacing is far finer, so this ends within a step or two.
        while factor * math.exp(hi) < w_clear:
            hi += max(math.ulp(hi), sys.float_info.epsilon)
        if r0 is not None and r0 >= _LOWEST_RATE:
            bracket = (min(math.log(r0), hi), hi)  # r0 and r_b can round past each other
        else:
            bracket = (min(DEFAULT_BRACKET[0], hi - 1.0), hi)

    k, supplied = tech.k, compute_supply.quantity

    def excess(r_c: float) -> float:
        ceiling = factor * r_c
        if ceiling != 0.0 and w_clear <= ceiling:
            derived = 0.0
        else:
            derived = k * _agent_labor(tech, ceiling, supply, demand)[2]
        exogenous = compute_demand.quantity(r_c) if compute_demand is not None else 0.0
        value = derived + exogenous - supplied(r_c)
        if value != value:  # NaN: inf - inf
            in_float_range(value, "compute quantity at the fixed point")
        return value

    abs_tol = constants.EXCESS_ABS_TOL_SCALE * compute_supply.scale
    return find_root(excess, abs_tol=abs_tol, bracket=bracket).root


def _attempt(fn, *args):
    """``fn(*args)``, or the CawError it raised."""
    try:
        return fn(*args)
    except CawError as exc:
        return exc


_COMPUTE_PARTS = ("compute_supply", "compute_demand_exogenous")
_LABOR_PARTS = ("labor_supply_ts", "labor_demand_ts")


def solve_batch(
    s: Scenario,
    param: str | None = None,
    values: Sequence[float] = (),
    *,
    mode: str = "capped",
    r_c_star: float | None = None,
) -> list[EquilibriumResult | CawError]:
    """Solves of ``s`` with the field ``param`` (a :data:`SWEEPABLE_PARAMS` name)
    set to each of ``values``, in order; with no ``param``, the one solve of
    ``s`` itself.

    A ``"capped"`` row clears the compute market from exogenous demand (or
    takes ``r_c_star`` when given); a ``"coupled"`` row searches for the
    rental rate of the joint fixed point. Both then place the labor market
    against the ceiling. A row is its :class:`EquilibriumResult` or the
    CawError its solve raised; a swept value that breaks its scenario rule
    (:func:`caw.model.field_violation`) is a ValidationError row with the
    rule's message. Other exceptions propagate.

    ``s`` is validated once, on entry (ValidationError). Once per batch, not
    per row: the compute-market price unless a compute curve is swept; the
    labor clearing wage and both labor quantities at it unless a labor curve
    is swept; the ceiling per unit rate, ``caw_ceiling(technology, 1.0,
    policy)``, unless a ``technology.*`` or ``policy.*`` field is swept. What
    such a shared stage returns or raises holds for every row.
    """
    if mode not in ("capped", "coupled"):
        raise InvalidInput(f"unknown solve mode {mode!r}; use 'capped' or 'coupled'")
    coupled = mode == "coupled"
    if coupled and r_c_star is not None:
        raise InvalidInput("a coupled solve finds its own rental rate; r_c_star is for capped solves")
    violations = validate_scenario(s)
    if violations:
        raise ValidationError(violations)

    parts = [getattr(s, name) for name in _PARTS]
    if param is None:
        attr, values = None, (None,)
    else:
        attr, make = _swept_holder(s, param)
        at = _PARTS.index(attr)
        field = FIELDS[param]  # field_violation's rule, looked up once for every row

    # The compute price on exogenous demand: a capped row's rate, and a
    # coupled row's closed form where the ceiling is slack. Left None when a
    # compute curve is swept, for each row to compute its own.
    rate = r_c_star
    compute_swept = attr in _COMPUTE_PARTS
    if rate is None and not compute_swept:
        rate = _attempt(_rental_rate, s.compute_supply, s.compute_demand_exogenous)
    labor_swept = attr in _LABOR_PARTS
    w_clear = slack = None
    if not labor_swept:
        w_clear = _attempt(_clearing_price, s.labor_supply_ts, s.labor_demand_ts)
        if not isinstance(w_clear, CawError):
            slack = (s.labor_supply_ts.quantity(w_clear), s.labor_demand_ts.quantity(w_clear))
    # The ceiling per unit rental rate, for every row unless a field it reads is swept.
    ceiling_swept = attr in ("technology", "policy")
    factor = None if ceiling_swept else caw_ceiling(s.technology, 1.0, s.policy)

    rows: list[EquilibriumResult | CawError] = []
    for value in values:
        if attr is not None:
            if not within(value, field.bound, field.inclusive):
                rows.append(ValidationError([field_violation(param, value)]))
                continue
            parts[at] = make(value)
        tech, compute_supply, compute_demand, demand, supply, policy = parts
        r0 = _attempt(_rental_rate, compute_supply, compute_demand) if rate is None else rate
        if isinstance(r0, CawError) and not coupled:
            rows.append(r0)
            continue
        clear = _attempt(_clearing_price, supply, demand) if labor_swept else w_clear
        try:
            if ceiling_swept:
                factor = caw_ceiling(tech, 1.0, policy)
            r_c = r0
            if coupled:
                r_c = _coupled_rate(tech, factor, compute_supply, compute_demand, supply, demand, clear, r0)
            rows.append(_place_at_ceiling(tech, policy, factor, r_c, supply, demand, clear, slack))
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
    require_rate(r_c_star)
    return _one(solve_batch(s, r_c_star=r_c_star))


def solve_coupled(s: Scenario) -> EquilibriumResult:
    """Fixed point where compute supplied equals agent use plus exogenous demand.

    At each candidate rental rate the capped labor market determines agent
    labor and hence derived compute demand k * l_a; a bracketed Brent search
    on log rental rate drives total excess compute demand to zero. Any shift
    that moves the rental rate moves the wage ceiling in lockstep. The
    uncapped clearing wage does not depend on the rental rate, so the labor
    market is cleared once per solve.
    """
    return _one(solve_batch(s, mode="coupled"))


def solve_scenario(s: Scenario, mode: str = "capped") -> EquilibriumResult:
    """Solve a scenario end to end.

    ``"capped"`` clears the compute market from exogenous demand first and
    feeds the rental rate to the capped labor market; ``"coupled"`` solves
    the joint fixed point.
    """
    return _one(solve_batch(s, mode=mode))
