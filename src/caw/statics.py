"""Comparative statics: wage pass-through from the effective agent wage,
ceiling time trajectories, wage-vs-wage-bill analysis, and the grids sweeps
run over (the sweep itself is :func:`caw.markets.solve_batch`).

Each public entry holds its inputs to the scenario rules once, else InvalidInput,
and computes unchecked after that: a curve by :func:`caw.model.require_curve`,
a setup's CES parameters by :func:`caw.model.require_part`, a policy through
:func:`caw.bound.caw_ceiling`, and each bare number (a setup's demand and agent
wage, times, ceilings) by its lower bound, :func:`caw.model.require`.

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
the agents' cost share. ``fd``, from two more solves at w_a_eff*exp(+-h), is the
independent check. Those two searches start near their roots: moving log w_a_eff
by +-h moves b by +-h, so by the implicit function theorem the root moves from
the base root v0 by about -+e*h/g'(v0), g'(v) = e/sigma + s(v) with s the
agents' weight in M_p (below). A bracket only says where to look: each shifted
root still meets g = 0 to STATICS_WAGE_REL_TOL, so ``fd`` stays independent of
``direct``.

``solve_statics_point`` solves in the log input ratio v = log(l_a/l_h). There
the relative wage is exact, log w_h = b + v/sigma with b = log(w_a_eff*alpha/beta),
and supply and output leave one condition

    g(v) = log S0 + e*(b + v/sigma) + M_p(v) - log(T/A) = 0,
    M_p(v) = log((alpha + beta*exp(p*v))**(1/p)),

with p = rho, or 1 for perfect substitutes; g rises in v. At Cobb-Douglas
M is the line b_cd*v and log w_h = b + v; with fixed supply (e = 0) g is
inverted in closed form; elsewhere the shared root finder searches v itself,
so g evaluates no price and its root is v. Every branch ends in one tail:
w_h from log w_h, l_h = supply(w_h) read once, and l_a = l_h*exp(v).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

from . import constants
from .bound import caw_ceiling
from .ces import _branch, _cd_exponents, _log_power_mean
from .errors import CeilingNotBinding, Infeasible, InvalidInput, NoEquilibrium
from .markets import _clearing_price
from .model import CesParams, CurveKind, IsoElasticCurve, _exp, in_float_range
from .model import PolicyLevers, Technology, require, require_curve, require_part
from .roots import REACHABLE, find_root


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


def solve_statics_point(su: StaticsSetup) -> StaticsPoint:
    """Wage and quantities satisfying supply, output, and relative-wage conditions.

    The three conditions are l_h = supply(w_h), ces_output(l_h, l_a) =
    l_eff_demand, and w_h/w_a_eff = relative_wage(l_h, l_a). They are solved
    as one condition in v = log(l_a/l_h) (see the module docstring): in closed
    form at Cobb-Douglas and with fixed supply, by the shared root finder
    elsewhere, and every branch builds the point from (log w_h, v) the same way.

    Raises InvalidInput for a setup outside the scenario rules (see the
    module docstring) and at fixed proportions, where the relative-wage
    condition does not pin w_h; Infeasible when humans alone meet the target,
    so agents are not employed, or when fixed supply cannot reach it;
    NoEquilibrium when the search finds no root within reach; and the
    float-range SolverError of :func:`caw.model.in_float_range` when the wage
    or a labor quantity is not a normal float.
    """
    require("l_eff_demand", su.l_eff_demand)
    require("w_a_eff", su.w_a_eff)
    require_curve(su.labor_supply, CurveKind.SUPPLY, "labor_supply")
    require_part(su.ces, "CES parameter ")
    return _statics_point(su)


def _statics_point(su: StaticsSetup, near: tuple[float, float] | None = None) -> StaticsPoint:
    """:func:`solve_statics_point` on a setup whose inputs met their rules.

    ``near = (v0, shift)`` says that v0 is the root of this setup with log
    w_a_eff less by ``shift``; a search then starts from a bracket around the
    root that predicts (see :func:`semi_elasticity`), else from the default one.
    """
    ces, demand, supply, w_a_eff = su
    A, alpha, beta, sigma = ces
    branch = _branch(sigma)
    if branch == "leontief":
        raise InvalidInput(
            f"sigma {sigma!r} is at or below the fixed-proportions threshold "
            f"{constants.SIGMA_LEONTIEF_THRESHOLD!r}, where the relative wage does not pin w_h"
        )

    e = supply.elasticity
    b = math.log(w_a_eff) + math.log(alpha) - math.log(beta)
    # log(T/(A*S0)); with log l_h = log S0 + e*log w_h the output condition
    # reads g(v) = e*log w_h + M(v) - log_target = 0.
    log_target = math.log(demand) - math.log(A) - math.log(supply.scale)
    if branch == "cobb_douglas":
        # M(v) = b_cd*v with exponents a + b_cd = 1, and log w_h = b + v.
        b_cd = _cd_exponents(ces)[1]
        if b_cd + e == 0.0:  # b_cd underflowed
            raise Infeasible("agents' Cobb-Douglas exponent underflows to 0; with fixed supply no wage fits")
        v = (log_target - e * b) / (b_cd + e)
        log_wh = b + v
    else:
        # M(v) = log((alpha + beta*exp(p*v))**(1/p)), p = rho, or 1 for perfect substitutes.
        p = 1.0 if branch == "linear" else ces.rho
        if e == 0.0:
            # M(v) = log_target gives beta*exp(p*v) = exp(p*log_target) - alpha. Where
            # x = expm1(p*v) is moderate, solve it in _log_power_mean's compensated
            # form, p*v = log1p(x); where x is near -1 or large, in logs (q < 1
            # keeps expm1 finite).
            total = alpha + beta
            q = p * log_target - math.log(total)
            if q < 1.0 and -0.5 < (x := math.expm1(q) * (total / beta)) < math.inf:
                v = math.log1p(x) / p
            else:
                d = math.log(alpha) - p * log_target
                if not d < 0.0:
                    raise Infeasible(
                        "fixed human supply exceeds the effective-labor demand target" if p > 0.0
                        else "output target unreachable even as agent labor grows without bound"
                    )
                v = (p * log_target + math.log(-math.expm1(d)) - math.log(beta)) / p
        else:

            def g(v: float) -> float:
                return e * (b + v / sigma) + _log_power_mean(alpha, 0.0, beta, v, p) - log_target

            bracket = constants.DEFAULT_BRACKET
            if near is not None:
                # b moves by the shift; by the implicit function theorem v moves by
                # -e*shift/g'(v0), g'(v) = e/sigma + s(v) with s the agents' weight in M_p.
                # A bracket a quarter step either side of that.
                v0, shift = near
                slope = e / sigma + 1.0 / (1.0 + _exp(math.log(alpha) - math.log(beta) - p * v0))
                if slope > 0.0:
                    step = e * shift / slope
                    bracket = tuple(sorted((v0 - 1.25 * step, v0 - 0.75 * step)))
            tol = constants.STATICS_WAGE_REL_TOL
            try:
                report = find_root(g, abs_tol=tol, rel_tol=tol, bracket=bracket)
            except NoEquilibrium:
                report = None  # raised below, so the error holds no frames of the search
            if report is None:
                if g(REACHABLE[0]) > 0.0:
                    raise Infeasible(
                        "human labor alone meets the effective-labor demand target at every wage "
                        "in reach, so agents are not employed and the pass-through is undefined"
                    )
                raise NoEquilibrium(
                    "the human wage gap has no sign change on the wage bracket: no wage in range "
                    "matches labor supply to the effective-labor demand target"
                )
            v = report.root
        log_wh = b + v / sigma

    w_h = in_float_range(_exp(log_wh), "human wage")
    l_h = in_float_range(supply.quantity(w_h), "human labor")
    return StaticsPoint(w_h=w_h, l_h=l_h, l_a=in_float_range(_exp(math.log(l_h) + v), "agent labor"))


def semi_elasticity(
    su: StaticsSetup, rel_step: float = constants.DEFAULT_REL_STEP
) -> SemiElasticity:
    """Pass-through dlog(w_h)/dlog(w_a_eff) via the identity and via differences.

    ``direct`` is the closed form sigma*s_a / (sigma*s_a + e) at the base
    point (see the module docstring); ``fd`` differences the solved wage
    directly. Both one-sided differences are reported for diagnosing steps
    near solver tolerance.

    The base point is searched from the default bracket. Each shifted search
    starts from the root predicted from the base root v0, v0 -+ e*h/(e/sigma +
    s(v0)), plus or minus a quarter of that step, and widens as any search
    does where the root lies outside, so it reaches roots beyond the base
    search's :data:`caw.roots.REACHABLE`. Its root meets g = 0 to the search
    tolerance either way, so the start moves the one-sided differences by at
    most 2*tol/(sigma*h) and ``fd`` stays a check independent of ``direct``.
    """
    if not (0.0 < rel_step <= 0.1):
        raise InvalidInput(f"rel_step must lie in (0, 0.1], got {rel_step!r}")
    h = rel_step
    ces, demand, supply, w_a_eff = su
    base = solve_statics_point(su)
    # Only the agent wage, held by in_float_range, differs from the checked base: unchecked.
    shifted = "shifted agent wage w_a_eff*exp(+-rel_step)"
    v0 = math.log(base.l_a) - math.log(base.l_h)  # the base root in v = log(l_a/l_h)
    minus = _statics_point(
        StaticsSetup(ces, demand, supply, in_float_range(w_a_eff * math.exp(-h), shifted)), (v0, -h)
    )
    plus = _statics_point(StaticsSetup(ces, demand, supply, in_float_range(w_a_eff * math.exp(h), shifted)), (v0, h))

    fd = (math.log(plus.w_h) - math.log(minus.w_h)) / (2.0 * h)
    fd_forward = (math.log(plus.w_h) - math.log(base.w_h)) / h
    fd_backward = (math.log(base.w_h) - math.log(minus.w_h)) / h

    sigma, e = ces.sigma, supply.elasticity
    # log(1/s_a - 1), the human over the agent wage bill, as a sum of logs: w_h*l_h may underflow.
    log_bills = math.log(base.w_h) + math.log(base.l_h) - math.log(w_a_eff) - math.log(base.l_a)
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
        require("trajectory time", t, 0.0, True)
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
    states at the stated ceilings regardless. Curves outside
    :func:`caw.model.require_curve` raise InvalidInput, a bill beyond the float range SolverError.
    """
    require("ceiling_before", ceiling_before)
    require("ceiling_after", ceiling_after)
    require_curve(output_demand, CurveKind.DEMAND, "output_demand")
    require_curve(labor_supply, CurveKind.SUPPLY, "labor_supply")
    if check_binding:
        w_clear = _clearing_price(labor_supply, output_demand)
        for label, ceiling in (("before", ceiling_before), ("after", ceiling_after)):
            if w_clear < ceiling:
                raise CeilingNotBinding(
                    f"uncapped clearing wage {w_clear:.6g} lies below the {label} "
                    f"ceiling {ceiling:.6g}"
                )

    def state(ceiling: float) -> WageBillState:
        demand = output_demand.quantity(ceiling)
        # Employment is at most a curve's scale: supply at a ceiling <= 1, else demand.
        employment = min(labor_supply.quantity(ceiling), demand)
        bill = in_float_range(ceiling * employment, "wage bill ceiling*employment", zero=True)
        return WageBillState(wage=ceiling, employment=employment, bill=bill)

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

    Raises InvalidInput for ``steps < 1``, endpoints whose difference is not
    finite (as where one is not), and a nonpositive endpoint of a log grid.
    """
    if steps < 1:
        raise InvalidInput("--steps must be >= 1")
    delta = stop - start  # not finite where an endpoint is not
    if not math.isfinite(delta):
        raise InvalidInput(f"grid from {start!r} to {stop!r} spans more than the float range")
    if log:
        if start <= 0.0 or stop <= 0.0:
            raise InvalidInput("--log grids need positive endpoints")
        exps = grid(min(math.log10(start), _LOG10_MAX), min(math.log10(stop), _LOG10_MAX), steps)
        lo, hi = min(start, stop), max(start, stop)
        inner = [hi if (p := 10.0**v) > hi else lo if p < lo else p for v in exps[1:-1]]
        return [start, *inner, stop] if steps > 1 else [start]
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
