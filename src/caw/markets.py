"""Market clearing: the classic labor market, the compute capital market,
the ceiling-capped cognitive labor market, and the coupled fixed point where
compute demand derives from agent labor demand.

The compute market pins the rental rate; the capped labor market takes that
rate as given and applies the wage ceiling; the coupled solver closes the
loop by finding the rental rate at which compute supplied equals agent
compute use plus any exogenous compute demand.

Every solve runs on one kernel, :func:`solve_batch`, which is also the
public sweep: a single scenario in either mode is a batch of one, and a
one-parameter sweep computes the stages its parameter does not touch once
for the whole grid. A capped row takes the compute-market price, a coupled
row finds its fixed-point rate, and both place the labor market against
the ceiling with the same arithmetic. A sweep may vary only the fields a
solve reads, :data:`caw.model.SWEEPABLE_PARAMS`. A clearing price whose
scale ratio alone leaves the float range is taken in logs. A row whose
clearing price, ceiling, labor quantities or fixed-point compute quantity
leave the float range is a SolverError row, by the one rule
:func:`caw.model.in_float_range`.

Curves meet the scenario rules: a solve validates its scenario once, which
holds every curve to them, :func:`clear_market` checks its two curves with
:func:`caw.model.require_curve`, and a given rental rate meets
:func:`caw.bound.require_rate` once, on entry to :func:`solve_batch`.

Root searches go through :func:`caw.roots.find_root`: Brent's method on
log price x, by default over the initial bracket [log 1e-9, log 1e9]
widened a bounded number of times, which is scale-free and robust for
iso-elastic curves. The search returns x; only this module turns it into a
price: each excess it searches starts from exp(x), and so does its root.
The coupled fixed point knows more. Above the rental rate r_b at which the
ceiling meets the uncapped clearing wage, agents are unused, so where the
exogenous compute price r0 lies above r_b it is the fixed point and no
search runs; otherwise the search starts from the logs of the known
bracket [r0, r_b] (or a floor below r_b without exogenous demand), cut to
a closed-form bound on the root: where the ceiling binds, the excess is a
sum of iso-elastic terms, each a line in x once taken in logs. The
compute price r0, like a capped row's, is computed once per sweep unless
a compute curve is swept. The search's excess reads each curve's scale and
signed exponent once per row and takes each quantity by the curves' own
rule, :func:`caw.model.power_law`, so it agrees with them bit for bit. No
caw module keeps state between calls; independent scenarios may be solved
concurrently.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

from . import constants
from .bound import CEILING, _ceiling_factor, require_rate
from .errors import CawError, DegenerateCeiling, InvalidInput, NoEquilibrium, ValidationError
from .model import (
    FIELDS,
    SECTIONS,
    SWEEPABLE_PARAMS,
    _MIN_NORMAL,
    CurveKind,
    EquilibriumResult,
    IsoElasticCurve,
    Regime,
    Scenario,
    Technology,
    _exp,
    field_violation,
    in_float_range,
    power_law,
    require_curve,
    rule_error,
    validate_scenario,
    within,
)
from .roots import REACHABLE, find_root


class ClearingPoint(NamedTuple):
    """A market clearing price/quantity with solver diagnostics."""

    price: float
    quantity: float
    iterations: int
    residual: float


def _clearing_price(supply: IsoElasticCurve, demand: IsoElasticCurve) -> float:
    """The closed-form price of :func:`clear_market` by :func:`caw.model.power_law`, curves
    unchecked; 1.0 when both curves are perfectly inelastic with equal scales."""
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
        price = power_law(1.0, 1.0 / total_elasticity, ratio)
    else:  # the ratio alone leaves the normal range; the price may not
        price = _exp((math.log(demand.scale) - math.log(supply.scale)) / total_elasticity)
    return in_float_range(price, "clearing price")


def clear_market(
    supply: IsoElasticCurve, demand: IsoElasticCurve, *, method: str = "closed_form"
) -> ClearingPoint:
    """Unique price with supply(p) == demand(p).

    ``method`` is checked first, else InvalidInput: ``"closed_form"`` uses p* = (D0/S0)**(1/(es+ed)),
    ``"root_search"`` the bracketed Brent search on log price. Both report the same fields, the
    residual being |demand - supply| at the price; they agree to PRICE_REL_TOL (tests cross-check).

    When both curves are perfectly inelastic the quantity is pinned and any
    price clears: equal scales return the unit-price convention, unequal
    scales have no equilibrium. Curves outside :func:`caw.model.require_curve`
    raise InvalidInput.
    """
    if method not in ("closed_form", "root_search"):
        raise InvalidInput(f"unknown clearing method {method!r}")
    require_curve(supply, CurveKind.SUPPLY, "supply")
    require_curve(demand, CurveKind.DEMAND, "demand")
    if method == "closed_form" or supply.elasticity + demand.elasticity == 0.0:
        price, iterations = _clearing_price(supply, demand), 0
    else:
        def excess(x: float) -> float:
            p = math.exp(x)
            return demand.quantity(p) - supply.quantity(p)

        x, iterations, *_ = find_root(excess, abs_tol=constants.EXCESS_ABS_TOL_SCALE * supply.scale)
        price = math.exp(x)
    quantity = supply.quantity(price)
    return ClearingPoint(price, quantity, iterations, abs(demand.quantity(price) - quantity))


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


_LOG2 = math.log(2.0)
_LABOR = "labor quantity at the equilibrium wage"  # in its float-range error; it may underflow, not overflow


def _place_at_ceiling(
    tech: Technology,
    factor: float,
    r_c_star: float,
    supply: IsoElasticCurve,
    demand: IsoElasticCurve,
    w_clear: float | CawError,
    slack: tuple[float, float] | None,
) -> EquilibriumResult:
    """One capped labor-market solve at a known rental rate.

    ``factor`` is :func:`caw.bound._ceiling_factor`: a positive rate's
    ceiling is ``factor * r_c_star``, :func:`caw.bound.caw_ceiling`'s
    product; any other rate met :func:`caw.bound.require_rate`, so it is a
    zero, and its own ceiling, sign included, as there. ``w_clear`` is the
    uncapped clearing wage, or the error clearing raised, read only when the
    ceiling is positive; ``slack`` holds both curves' quantities at it, if
    known. A zero ceiling, even one that
    underflows at a positive rate, binds; the result reports ``r_c_star`` as
    given. A positive ceiling beyond the float range raises SolverError
    (:func:`caw.model.in_float_range`), after a clearing error, and so does a
    labor quantity the result would report beyond it, in either branch.
    """
    ceiling = factor * r_c_star if r_c_star > 0.0 else r_c_star
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
    and Brent's method on log rental rate x starts from [log r0, log r_b] or,
    without ``r0`` or with one beyond the reach of a default search
    (:data:`caw.roots.REACHABLE`), from [min(log BRACKET_LO, log r_b - 1),
    log r_b]. An ``r_b`` beyond that reach keeps the default bracket. With
    ``r0``, or without exogenous demand, the root lies below ``r_b``, and
    that bracket is cut to a closed-form bound on the root, from the lines
    the excess's four iso-elastic terms make in logs (see the comment in the
    body). The excess and the rate returned are taken at exp(x).

    ``factor`` is the ceiling per unit rental rate of :func:`_place_at_ceiling`.
    Agent labor at each candidate rate is that of :func:`_place_at_ceiling`,
    read without building a result; a clearing error raises first. An excess
    inf - inf raises the float-range error: compute used and supplied are
    monotone in the rate, so the quantity that clears is that large too.
    Where ``lam * gap`` or labor demand overflows, the excess reads +inf
    although ``k * lam * gap`` may not: a search that stops on that jump
    short of the excess tolerance, while the fixed point needs agent labor
    ``(supply - exogenous demand) / k`` beyond the float range, or that finds
    +inf at both ends of a bracket bounding the root, raises the labor
    quantity's float-range error, as :func:`_place_at_ceiling` would at the
    root.

    The excess reads each curve's scale and signed exponent once and takes
    each quantity by :func:`caw.model.power_law`, as the curves do; a
    ceiling that is 0 or not a price goes to :func:`_agent_labor`, and a
    rate that is not a price raises the curves' InvalidInput. So every
    value, and every error, is that of the curves, bit for bit.
    """
    if isinstance(w_clear, CawError):
        raise w_clear.with_traceback(None)
    r0 = None if isinstance(r0, CawError) else r0
    if r0 is not None:
        ceiling = factor * r0
        if ceiling != 0.0 and w_clear <= ceiling:
            return r0

    k, lam = tech.k, tech.lam
    (a_sup, e_sup), (a_exo, e_exo), (a_ls, e_ls), (a_ld, e_ld) = (
        _power(compute_supply), _power(compute_demand), _power(supply), _power(demand)
    )

    bracket, bounded = constants.DEFAULT_BRACKET, False
    r_b = w_clear / factor if factor > 0.0 else 0.0
    if r_b > 0.0 and REACHABLE[0] <= (hi := math.log(r_b)) <= REACHABLE[1]:
        # Round up to where the ceiling is slack. A step of at least epsilon
        # moves exp(hi) by about one float spacing even where log r_b is near
        # 0 and its own spacing is far finer, so this ends within a step or two.
        while factor * math.exp(hi) < w_clear:
            hi += max(math.ulp(hi), sys.float_info.epsilon)
        if r0 is not None and (lo := math.log(r0)) >= REACHABLE[0]:
            lo = min(lo, hi)  # r0 and r_b can round past each other
        else:
            lo = min(constants.DEFAULT_BRACKET[0], hi - 1.0)
        bracket = (lo, hi)
        # With r0, or without exogenous demand, the excess is <= 0 at r_b, so
        # the root lies below hi, where the ceiling binds.
        bounded = r0 is not None or compute_demand is None
    d11, d12 = e_ls - e_ld, e_sup - e_ld
    d21, d22 = e_ls - e_exo, e_sup - e_exo
    if bounded and d11 > 0.0 and d12 > 0.0 and (compute_demand is None or (d21 > 0.0 and d22 > 0.0)):
        # There the excess is P - N, where P = k*lam*D(factor*r) plus
        # exogenous demand falls in x and N = k*lam*S(factor*r) plus supply
        # rises. Each term's log is a line in x, P_i = p_i + e_Pi*x or
        # N_j = n_j + e_Nj*x, and the log of a sum of two lies between the
        # larger term and that plus log 2. So at the root
        # u(x) = max_i P_i - max_j N_j lies in [-dP, log 2], dP being log 2,
        # or 0 where P is one term; u falls, and u(x) = t at
        # x = max_i min_j (p_i - n_j - t) / (e_Nj - e_Pi). A slope difference
        # of 0 (an inelastic pair) keeps the bracket above. The arithmetic is
        # inline, with conditional expressions for min and max: it runs once
        # per searched row.
        log = math.log
        log_f, log_kl = log(factor), log(k) + log(lam)
        p1 = log_kl + log(a_ld) + e_ld * log_f
        n1 = log_kl + log(a_ls) + e_ls * log_f
        n2 = log(a_sup)
        q11, q12 = (p1 - n1) / d11, (p1 - n2) / d12  # u(x) = 0 for P1 against each N_j
        t11, t12 = _LOG2 / d11, _LOG2 / d12  # and t = log 2 moves each by this
        finite = q11 + q12 + t11 + t12
        b_lo = q11 - t11 if q11 - t11 < q12 - t12 else q12 - t12
        if compute_demand is None:
            b_hi = q11 if q11 < q12 else q12
        else:
            p2 = log(a_exo)
            q21, q22 = (p2 - n1) / d21, (p2 - n2) / d22
            t21, t22 = _LOG2 / d21, _LOG2 / d22
            finite += q21 + q22 + t21 + t22
            b_p2 = q21 - t21 if q21 - t21 < q22 - t22 else q22 - t22
            if b_p2 > b_lo:
                b_lo = b_p2
            b_hi = q11 + t11 if q11 + t11 < q12 + t12 else q12 + t12
            b_p2 = q21 + t21 if q21 + t21 < q22 + t22 else q22 + t22
            if b_p2 > b_hi:
                b_hi = b_p2
        # Padded against rounding and cut to the bracket above. An exponent
        # near either end of the float range can make a term inf or nan, which
        # the comparisons would drop: then the bracket above stays, and so it
        # does where rounding puts the ends past each other.
        if -math.inf < finite < math.inf:
            b_lo -= 1e-9 * (1.0 + abs(b_lo))
            b_hi += 1e-9 * (1.0 + abs(b_hi))
            lo = b_lo if b_lo > lo else lo
            hi = b_hi if b_hi < hi else hi
            if lo < hi:
                bracket = (lo, hi)

    def excess(x: float) -> float:
        r_c = math.exp(x)
        ceiling = factor * r_c
        if ceiling != 0.0 and w_clear <= ceiling:
            derived = 0.0
        elif not 0.0 < ceiling < math.inf:  # 0, or no price: the curves decide, or raise
            derived = k * _agent_labor(tech, ceiling, supply, demand)[2]
        else:
            gap = power_law(a_ld, e_ld, ceiling) - power_law(a_ls, e_ls, ceiling)
            derived = k * (lam * (gap if gap > 0.0 else 0.0))  # _agent_labor's max(0.0, gap)
        if not 0.0 < r_c < math.inf:
            raise rule_error("price", r_c, 0.0, False)
        value = derived + power_law(a_exo, e_exo, r_c) - power_law(a_sup, e_sup, r_c)
        if value != value:  # NaN: inf - inf
            in_float_range(value, "compute quantity at the fixed point")
        return value

    abs_tol = constants.EXCESS_ABS_TOL_SCALE * compute_supply.scale
    try:
        report = find_root(excess, abs_tol=abs_tol, bracket=bracket)
    except NoEquilibrium:
        # Both ends of a bounded bracket read +inf: lam * gap or labor demand
        # overflows at its top, and so at the root, which lies below.
        if not bounded or excess(bracket[1]) != math.inf:
            raise
    else:
        if report.residual <= abs_tol:
            return math.exp(report.root)
        # Short of the excess tolerance, the bracket collapsed to float
        # resolution. Where it did so on the jump at which lam * gap or labor
        # demand overflows to +inf (the excess reads +inf just below the
        # root, past the bracket's other end: a collapsed bracket is at most
        # 4e-16 or one float spacing wide), and the agent labor the fixed
        # point needs, (supply - exogenous demand) / k, or that over lam lies
        # beyond the float range, the root's labor quantity does too.
        x, r_c = report.root, math.exp(report.root)
        l_a = (power_law(a_sup, e_sup, r_c) - power_law(a_exo, e_exo, r_c)) / k
        if max(l_a, l_a / lam) < math.inf or excess(x - 1e-15 * (1.0 + abs(x))) < math.inf:
            return r_c
    in_float_range(math.inf, _LABOR)


def _power(curve: IsoElasticCurve | None) -> tuple[float, float]:
    """``(scale, signed exponent)`` of ``curve``'s quantity; none is (0, 0)."""
    if curve is None:
        return 0.0, 0.0
    kind, scale, elasticity = curve
    return scale, elasticity if kind is CurveKind.SUPPLY else -elasticity


def _attempt(fn, *args):
    """``fn(*args)``, or the CawError it raised, without its traceback."""
    try:
        return fn(*args)
    except CawError as exc:
        return exc.with_traceback(None)


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

    On entry, once: ``s`` is validated (ValidationError), ``r_c_star`` meets
    :func:`caw.bound.require_rate`, and a ``param`` needs at least one value
    (both InvalidInput). Once per batch, not per row: the compute-market
    price unless a compute curve is swept; the labor clearing wage and both
    labor quantities at it unless a labor curve is swept; the ceiling per
    unit rate, :func:`caw.bound._ceiling_factor`, unless a ``technology.*``
    or ``policy.*`` field is swept. What such a
    shared stage returns or raises holds for every row. The factor reads its
    parts unchecked: the scenario, and each swept value, met their rules first.
    """
    if mode not in ("capped", "coupled"):
        raise InvalidInput(f"unknown solve mode {mode!r}; use 'capped' or 'coupled'")
    coupled = mode == "coupled"
    if r_c_star is not None:
        if coupled:
            raise InvalidInput("a coupled solve finds its own rental rate; r_c_star is for capped solves")
        require_rate(r_c_star)
    if param is not None and len(values) == 0:
        raise InvalidInput("sweep grid must be nonempty")
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
    factor = None if ceiling_swept else _ceiling_factor(s.technology, s.policy)

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
                factor = _ceiling_factor(tech, policy)
            r_c = r0
            if coupled:
                r_c = _coupled_rate(tech, factor, compute_supply, compute_demand, supply, demand, clear, r0)
            rows.append(_place_at_ceiling(tech, factor, r_c, supply, demand, clear, slack))
        except CawError as exc:  # per-row failures are data, not aborts
            rows.append(exc.with_traceback(None))  # its frames would hold rows, a cycle
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
