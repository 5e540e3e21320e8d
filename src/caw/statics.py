"""Comparative statics: wage pass-through from the effective agent wage,
ceiling time trajectories, wage-vs-wage-bill analysis, and generic scenario
sweeps.

The pass-through identity checked here is

    dlog(w_h)/dlog(w_a_eff) = 1 - (1/sigma) * dlog(l_h/l_a)/dlog(w_a_eff)

holding the human labor supply curve and the effective-labor demand level
fixed. With a perfectly inelastic (fixed-quantity) supply curve the
quantity ratio is pinned by the two quantity constraints, its derivative is
zero, and the pass-through is exactly one. With an upward-sloping supply
curve the ratio term partially offsets the direct effect.

Labeling note: textbook treatments sometimes attach the unit pass-through
to the perfectly elastic supply polar case. Under the fixed-demand setup
used here it is the fixed-quantity (inelastic) supply curve that pins the
input ratio and yields exactly one, while an upward-sloping curve
produces the offset term. The implementation follows the formula, which
is internally consistent, and reports both sides of the identity so the
check is visible.

``direct`` takes it in closed form at the base point: the implicit function
theorem on supply l_h = S0*w_h**e, the output target and the relative wage
gives sigma*s_a / (sigma*s_a + e), s_a = 1/(1 + (w_h*l_h)/(w_a_eff*l_a)) being
the agents' cost share. ``fd``, from two more solves, is the independent check.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

from . import constants
from .bound import caw_ceiling
from .ces import _branch, _cd_exponents, _exp, relative_wage
from .errors import CawError, CeilingNotBinding, Infeasible, InvalidInput, NoEquilibrium
from .markets import SWEEPABLE_PARAMS, clear_market, solve_batch  # SWEEPABLE_PARAMS is re-exported
from .model import CesParams, CurveKind, EquilibriumResult, IsoElasticCurve
from .model import PolicyLevers, Scenario, Technology
from .roots import find_root


class StaticsSetup(NamedTuple):
    """Environment for the pass-through exercise.

    ``l_eff_demand`` is the fixed effective-labor quantity demanded;
    ``labor_supply`` with elasticity 0 encodes the fixed-quantity polar case.
    """

    ces: CesParams
    l_eff_demand: float
    labor_supply: IsoElasticCurve
    w_a_eff: float


class StaticsPoint(NamedTuple):
    w_h: float
    l_h: float
    l_a: float


class SemiElasticity(NamedTuple):
    """Pass-through computed two ways, plus the one-sided differences."""

    direct: float
    fd: float
    fd_forward: float
    fd_backward: float
    base: StaticsPoint


class WageBillState(NamedTuple):
    wage: float
    employment: float
    bill: float


class WageBillResponse(NamedTuple):
    before: WageBillState
    after: WageBillState


class SweepRow(NamedTuple):
    """One grid point of a parameter sweep; ``error`` set when solving failed."""

    value: float
    result: EquilibriumResult | None
    error: str | None = None


def _log_agent_labor(ces: CesParams, target: float) -> Callable[[float], float | None]:
    """The function of l_h > 0 giving log l_a where ces_output(l_h, l_a) == target,
    with every term that does not depend on l_h computed once.

    It returns None when humans alone already meet or exceed the target (no
    positive l_a solves the equality) and raises Infeasible when no finite
    l_a can reach it (complements with too little human labor). Not defined
    on the fixed-proportions and Cobb-Douglas branches, which callers take first.
    """
    A, alpha, beta, sigma = ces
    if _branch(sigma) == "linear":
        scaled = target / A
        return lambda l_h: math.log(l_a) if (l_a := (scaled - alpha * l_h) / beta) > 0.0 else None

    rho = ces.rho
    x_target, log_alpha, log_beta = rho * math.log(target / A), math.log(alpha), math.log(beta)

    def general(l_h: float) -> float | None:
        x_human = log_alpha + rho * math.log(l_h)
        if not x_target > x_human:
            if rho < 0.0:
                raise Infeasible("output target unreachable even as agent labor grows without bound")
            return None
        # log(exp(x_target) - exp(x_human)); unlike 1 - exp(d), -expm1(d) stays
        # positive for every d < 0, however close humans alone come to the target.
        log_gap = x_target + math.log(-math.expm1(x_human - x_target))
        return (log_gap - log_beta) / rho

    return general


def _from_log(log_value: float, what: str = "agent labor") -> float:
    """The quantity from its log; Infeasible where no positive float holds it."""
    value = _exp(log_value)
    if not 0.0 < value < math.inf:
        raise Infeasible(f"{what} exp({log_value:.6g}) lies outside the floating-point range")
    return value


def solve_statics_point(su: StaticsSetup) -> StaticsPoint:
    """Wage and quantities satisfying supply, output, and relative-wage conditions.

    The three conditions are l_h = supply(w_h), ces_output(l_h, l_a) =
    l_eff_demand, and w_h/w_a_eff = relative_wage(l_h, l_a). The Cobb-Douglas
    point and the fixed-quantity supply case are closed form, so the polar
    pass-through result is exact. Elsewhere the inner solve for l_a given l_h
    is closed form and the shared root finder searches w_h on the (monotone)
    gap between the candidate and implied wage.

    Raises InvalidInput at fixed proportions, where the relative-wage
    condition does not pin w_h, Infeasible when the wage root sits where
    humans alone meet the target, so agents are not employed, and
    NoEquilibrium when the wage gap keeps one sign across the wage bracket.
    """
    if not (su.l_eff_demand > 0.0):
        raise InvalidInput(f"l_eff_demand must be > 0, got {su.l_eff_demand!r}")
    if not (su.w_a_eff > 0.0):
        raise InvalidInput(f"w_a_eff must be > 0, got {su.w_a_eff!r}")
    if su.labor_supply.kind is not CurveKind.SUPPLY:
        raise InvalidInput("labor_supply must be a supply curve")
    if not (su.labor_supply.scale > 0.0):
        raise InvalidInput(f"labor supply scale must be > 0, got {su.labor_supply.scale!r}")
    ces = su.ces
    if _branch(ces.sigma) == "leontief":
        raise InvalidInput(
            f"sigma {ces.sigma!r} is at or below the fixed-proportions threshold "
            f"{constants.SIGMA_LEONTIEF_THRESHOLD!r}, where the relative wage does not pin w_h"
        )

    log_implied_base = math.log(su.w_a_eff) + math.log(ces.alpha) - math.log(ces.beta)
    supply, sigma, e = su.labor_supply.quantity, ces.sigma, su.labor_supply.elasticity
    if _branch(sigma) == "cobb_douglas":
        # With exponents a + b = 1, log l_a = log l_h + log w_h - log_implied_base
        # turns a*log l_h + b*log l_a = log(T/A) into a line in log w_h.
        b = _cd_exponents(ces)[1]
        if b + e == 0.0:  # b underflowed
            raise Infeasible("agents' Cobb-Douglas exponent underflows to 0; with fixed supply no wage fits")
        log_target = math.log(su.l_eff_demand) - math.log(ces.A) - math.log(su.labor_supply.scale)
        log_wh = (b * log_implied_base + log_target) / (b + e)
        w_h = _from_log(log_wh, "human wage")
        l_h = supply(w_h)
        if not 0.0 < l_h < math.inf:
            raise Infeasible(f"human labor {l_h!r} at wage {w_h!r} lies outside the floating-point range")
        return StaticsPoint(w_h=w_h, l_h=l_h, l_a=_from_log(math.log(l_h) + log_wh - log_implied_base))

    log_agent_labor = _log_agent_labor(ces, su.l_eff_demand)
    if e == 0.0:
        l_h = su.labor_supply.scale
        log_la = log_agent_labor(l_h)
        if log_la is None:
            raise Infeasible("fixed human supply exceeds the effective-labor demand target")
        l_a = _from_log(log_la)
        return StaticsPoint(w_h=su.w_a_eff * relative_wage(ces, l_h, l_a), l_h=l_h, l_a=l_a)

    def gap(w: float) -> float:
        # log(w / (w_a_eff * relative_wage)) kept in logs so nothing overflows.
        l_h = supply(w)
        if l_h == 0.0:
            return -1.0  # too few humans: implied wage unbounded above
        try:
            log_la = log_agent_labor(l_h)
        except Infeasible:
            return -1.0
        if log_la is None:
            return 1.0  # humans oversupplied: implied wage collapses to zero
        return math.log(w) - log_implied_base + (math.log(l_h) - log_la) / sigma

    tol = constants.STATICS_WAGE_REL_TOL
    try:
        report = find_root(gap, abs_tol=tol, rel_tol=tol)
    except NoEquilibrium as exc:
        raise NoEquilibrium(
            "the human wage gap has no sign change on the wage bracket: no wage in range "
            "matches labor supply to the effective-labor demand target"
        ) from exc
    w_h = report.root
    if report.residual > tol and any(
        abs(gap(w_h * math.exp(step))) == 1.0 for step in (-2.0 * tol, 2.0 * tol)
    ):
        # The search closed on the jump to a +-1 sentinel, not on a zero crossing.
        raise Infeasible(
            "human labor alone meets the effective-labor demand target at the wage root, "
            "so agents are not employed and the pass-through is undefined"
        )
    l_h = su.labor_supply.quantity(w_h)
    return StaticsPoint(w_h=w_h, l_h=l_h, l_a=_from_log(log_agent_labor(l_h)))


def semi_elasticity(
    su: StaticsSetup, rel_step: float = constants.DEFAULT_REL_STEP
) -> SemiElasticity:
    """Pass-through dlog(w_h)/dlog(w_a_eff) via the identity and via differences.

    ``direct`` is the closed form sigma*s_a / (sigma*s_a + e) at the base
    point (see the module docstring); ``fd`` differences the solved wage
    directly. Both one-sided differences are reported for diagnosing steps
    near solver tolerance.
    """
    if not (0.0 < rel_step <= 0.1):
        raise InvalidInput(f"rel_step must lie in (0, 0.1], got {rel_step!r}")
    h = rel_step
    base = solve_statics_point(su)
    minus = solve_statics_point(su._replace(w_a_eff=su.w_a_eff * math.exp(-h)))
    plus = solve_statics_point(su._replace(w_a_eff=su.w_a_eff * math.exp(h)))

    fd = (math.log(plus.w_h) - math.log(minus.w_h)) / (2.0 * h)
    fd_forward = (math.log(plus.w_h) - math.log(base.w_h)) / h
    fd_backward = (math.log(base.w_h) - math.log(minus.w_h)) / h

    sigma, e = su.ces.sigma, su.labor_supply.elasticity
    # log(1/s_a - 1), the human over the agent wage bill, as a sum of logs: w_h*l_h may underflow.
    log_bills = math.log(base.w_h) + math.log(base.l_h) - math.log(su.w_a_eff) - math.log(base.l_a)
    direct = 1.0 if e == 0.0 else sigma / (sigma + e * (1.0 + _exp(log_bills)))

    return SemiElasticity(
        direct=direct, fd=fd, fd_forward=fd_forward, fd_backward=fd_backward, base=base
    )


def caw_trajectory(
    tech: Technology, r_c: float, t_grid: Sequence[float], policy: PolicyLevers | None = None
) -> list[tuple[float, float]]:
    """Wage ceiling over time under exponential compute-intensity improvement.

    ceiling(t) = caw_ceiling(tech, r_c, policy) * exp(-g*t) per grid point,
    that is lam * k * (1 + tau_c) * mu * r_c at t = 0; strictly decreasing
    for g > 0 and constant for g = 0.
    """
    base = caw_ceiling(tech, r_c, policy)
    previous = None
    for t in t_grid:
        if t < 0.0:
            raise InvalidInput(f"trajectory times must be nonnegative, got {t!r}")
        if previous is not None and t < previous:
            raise InvalidInput("trajectory time grid must be ascending")
        previous = t
    return [(t, base * math.exp(-tech.g * t)) for t in t_grid]


def wage_bill_response(
    output_demand: IsoElasticCurve,
    labor_supply: IsoElasticCurve,
    ceiling_before: float,
    ceiling_after: float,
    *,
    check_binding: bool = True,
) -> WageBillResponse:
    """Wage and wage-bill at two ceiling levels.

    The ceiling bounds the wage, not the bill: employment is
    min(supply, demand) at each ceiling and the bill is ceiling * employment,
    so a falling ceiling can leave the bill flat or even raise it when
    demand is elastic enough. With ``check_binding`` (the default) a ceiling
    above the uncapped clearing wage raises CeilingNotBinding, since a slack
    ceiling would not be the operative wage; pass False to evaluate the
    states at the stated ceilings regardless.
    """
    if ceiling_before <= 0.0 or ceiling_after <= 0.0:
        raise InvalidInput("ceilings must be > 0")
    if output_demand.kind is not CurveKind.DEMAND:
        raise InvalidInput("output_demand must be a demand curve")
    if labor_supply.kind is not CurveKind.SUPPLY:
        raise InvalidInput("labor_supply must be a supply curve")
    if check_binding:
        w_clear = clear_market(labor_supply, output_demand).price
        for label, ceiling in (("before", ceiling_before), ("after", ceiling_after)):
            if w_clear < ceiling:
                raise CeilingNotBinding(
                    f"uncapped clearing wage {w_clear:.6g} lies below the {label} "
                    f"ceiling {ceiling:.6g}"
                )

    def state(ceiling: float) -> WageBillState:
        demand = output_demand.quantity(ceiling)
        employment = min(labor_supply.quantity(ceiling), demand)
        return WageBillState(wage=ceiling, employment=employment, bill=ceiling * employment)

    return WageBillResponse(before=state(ceiling_before), after=state(ceiling_after))


# The largest float exponent whose power of ten is finite: log10 of an endpoint
# near the float maximum may round past it.
_LOG10_MAX = math.nextafter(math.log10(sys.float_info.max), 0.0)


def grid(start: float, stop: float, steps: int, log: bool = False) -> list[float]:
    """``steps`` values from ``start`` to ``stop``, both included, evenly spaced
    or, with ``log``, evenly spaced in log10 (then both endpoints must be > 0).

    Linear grids use numpy's ``linspace`` arithmetic, ``i * step + start`` with
    ``step = (stop - start) / (steps - 1)`` (``i / (steps - 1) * delta`` when that
    step underflows to zero) and the last value pinned to ``stop``, so they equal
    ``np.linspace`` bit for bit. Geometric grids are ``10.0 ** v`` (libm ``pow``)
    over the linear grid of log10 endpoints, both endpoints pinned and every
    value kept between them, so the grid is monotone and finite.

    Raises InvalidInput for ``steps < 1``, a nonpositive endpoint of a log grid,
    and endpoints whose difference overflows.
    """
    if steps < 1:
        raise InvalidInput("--steps must be >= 1")
    if log:
        if start <= 0.0 or stop <= 0.0:
            raise InvalidInput("--log grids need positive endpoints")
        exps = grid(min(math.log10(start), _LOG10_MAX), min(math.log10(stop), _LOG10_MAX), steps)
        lo, hi = min(start, stop), max(start, stop)
        inner = [hi if (p := 10.0**v) > hi else lo if p < lo else p for v in exps[1:-1]]
        return [start, *inner, stop] if steps > 1 else [start]
    delta = stop - start
    if not math.isfinite(delta):
        raise InvalidInput(f"grid from {start!r} to {stop!r} spans more than the float range")
    div = steps - 1
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0.0:  # delta is subnormal-small: divide the index first
        values = [i / div * delta + start for i in range(steps)]
    else:
        values = [i * step + start for i in range(steps)]
    values[-1] = stop
    return values


def sweep(
    s: Scenario, param_path: str, grid: Sequence[float], solver: str = "capped"
) -> list[SweepRow]:
    """Solve the scenario once per grid value of one parameter, in either
    mode, on :func:`caw.markets.solve_batch`.

    Rows keep grid order; a failing point records its error and the sweep
    continues. A value that breaks the scenario rule for its field (see
    :func:`caw.model.field_violation`) is not solved: its row carries the
    rule's message.
    """
    if len(grid) == 0:
        raise InvalidInput("sweep grid must be nonempty")
    return [
        SweepRow(value, None, str(result)) if isinstance(result, CawError) else SweepRow(value, result, None)
        for value, result in zip(grid, solve_batch(s, param_path, grid, mode=solver))
    ]
