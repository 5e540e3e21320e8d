"""CES aggregation of human and agent labor, its dual unit cost, and the
conditional factor demands implied by cost minimization.

Primal aggregator (rho = 1 - 1/sigma < 1):

    L_eff = A * (alpha * l_h**rho + beta * l_a**rho) ** (1/rho)

Dual unit cost, from Shephard's lemma:

    c(w_h, w_a) = (1/A) * (alpha**sigma * w_h**(1-sigma)
                           + beta**sigma * w_a**(1-sigma)) ** (1/(1-sigma))

and the conditional demands per unit of effective labor are
``l_i = c * share_i / w_i`` with cost shares
``share_i = weight_i**sigma * w_i**(1-sigma) / bracket``, which makes the
cost identity ``w_h*l_h + w_a*l_a == c`` exact by construction.

Three parameter regimes are handled by dedicated branches (thresholds in
:mod:`caw.constants`):

* ``|sigma - 1| < 1e-9``: rho = 0 is a removable singularity; the kernel
  switches to the Cobb-Douglas form with exponents alpha/(alpha+beta),
  beta/(alpha+beta). With weights summing to one this is the exact limit;
  otherwise the divergent scale factor (alpha+beta)**(1/rho) is dropped
  symmetrically from the primal and the dual, so duality holds exactly
  within the branch.
* ``sigma >= 1e6``: perfect substitutes. Evaluation delegates to the linear
  corner logic of :func:`caw.bound.linear_costmin` with lam = alpha/beta,
  since alpha**sigma over/underflows long before that point.
* ``sigma <= 1e-4``: fixed proportions. The weights wash out of the
  sigma -> 0 limit, leaving requirements of ``target/A`` of each input.

All general-branch exponentials are computed in log space; this satisfies
the stability requirement for sigma > 50 or price ratios beyond 1e6 and
costs nothing elsewhere.

Zero inputs with rho < 0 are a zero-output limit, returned as an explicit
0.0 rather than raised, because corner scans need the value.

Every entry holds its parameters to the scenario rules for ``ces``
(:func:`caw.model.require_part`) and each price or quantity it takes to its
lower bound (:func:`caw.model.require`), else InvalidInput.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import constants
from .bound import Allocation, linear_costmin
from .model import _MIN_NORMAL, CesParams, Technology, _exp, in_float_range, require, require_part


class DemandPair(NamedTuple):
    """Cost-minimizing input bundle per unit of effective labor."""

    l_h: float
    l_a: float


def _branch(sigma: float) -> str:
    if abs(sigma - 1.0) < constants.SIGMA_ONE_BAND:
        return "cobb_douglas"
    if sigma >= constants.SIGMA_LINEAR_THRESHOLD:
        return "linear"
    if sigma <= constants.SIGMA_LEONTIEF_THRESHOLD:
        return "leontief"
    return "general"


def _cd_exponents(ces: CesParams) -> tuple[float, float]:
    alpha, beta = ces.alpha, ces.beta
    if math.isinf(alpha + beta):  # halving is exact and keeps the ratio
        alpha, beta = alpha / 2.0, beta / 2.0
    total = alpha + beta
    return alpha / total, beta / total


def ces_output(ces: CesParams, l_h: float, l_a: float) -> float:
    """Effective labor produced by the bundle (l_h, l_a)."""
    require_part(ces, "CES parameter ")
    require("l_h", l_h, 0.0, True)
    require("l_a", l_a, 0.0, True)

    branch = _branch(ces.sigma)
    if branch == "linear":
        return ces.A * (ces.alpha * l_h + ces.beta * l_a)
    if branch == "leontief":
        return ces.A * min(l_h, l_a)
    if branch == "cobb_douglas":
        if l_h == 0.0 or l_a == 0.0:
            return 0.0
        a, b = _cd_exponents(ces)
        return ces.A * math.exp(a * math.log(l_h) + b * math.log(l_a))

    rho = ces.rho
    if l_h == 0.0 and l_a == 0.0:
        return 0.0
    if rho < 0.0 and (l_h == 0.0 or l_a == 0.0):
        return 0.0  # zero-output limit of the complements case
    if l_h == 0.0:
        return ces.A * ces.beta ** (1.0 / rho) * l_a
    if l_a == 0.0:
        return ces.A * ces.alpha ** (1.0 / rho) * l_h
    return ces.A * math.exp(
        _log_power_mean(ces.alpha, math.log(l_h), ces.beta, math.log(l_a), rho)
    )


def _logaddexp(x: float, y: float) -> float:
    if x < y:
        x, y = y, x
    return x + math.log1p(math.exp(y - x))


def _log_power_mean(alpha: float, u: float, beta: float, v: float, p: float) -> float:
    """log((alpha*exp(p*u) + beta*exp(p*v))**(1/p)), evaluated stably.

    The direct form loses about 1/|p| digits to cancellation as p -> 0, so
    small exponents go through a compensated expm1/log1p path; large ones
    factor the maximum out of the sum as usual.
    """
    total = alpha + beta
    if max(abs(p * u), abs(p * v)) <= 0.5:
        g = alpha * math.expm1(p * u) + beta * math.expm1(p * v)
        return (math.log(total) + math.log1p(g / total)) / p
    t_h = math.log(alpha) + p * u
    t_a = math.log(beta) + p * v
    return _logaddexp(t_h, t_a) / p


def _log_quotient(x: float, y: float) -> float:
    """log(x / y), also where the quotient is subnormal (keeps too few digits) or overflows."""
    q = x / y
    return math.log(q) if _MIN_NORMAL <= q < math.inf else math.log(x) - math.log(y)


def _cd_log_cost(a: float, w: float) -> float:
    """a * log(w / a), a Cobb-Douglas input's part of the log unit cost: 0 at a = 0, its limit."""
    return a * (math.log(w) - math.log(a)) if a > 0.0 else 0.0


def _divided(x: float, log_x: float, y: float, what: str, zero: bool = False) -> float:
    """x / y by the float-range rule, :func:`caw.model.in_float_range`; from its
    log, log x - log y, alone where x lost digits below the normal range."""
    return in_float_range(x / y if x >= _MIN_NORMAL else 0.0, what, log_x - math.log(y), zero=zero)


def _demand(c: float, w: float, share: float, log_share: float) -> float:
    """c * share / w, the demand for an input with that cost share (0 where it underflows)."""
    part = c * share if share >= _MIN_NORMAL else 0.0  # a subnormal share lost digits
    return _divided(part, math.log(c) + log_share, w, "CES demand", zero=True)


def _linear_equivalent(ces: CesParams, w_h: float, w_a: float) -> Allocation:
    # Perfect-substitute CES A*(alpha*l_h + beta*l_a) makes a unit of exp(log_h) humans or exp(log_a)
    # agents, and rescales to the unit isoquant l_h + l_a/lam >= 1/(A*alpha) with lam = alpha/beta.
    log_h, log_a = -math.log(ces.A) - math.log(ces.alpha), -math.log(ces.A) - math.log(ces.beta)
    humans = math.log(w_h) + log_h <= math.log(w_a) + log_a
    scale, lam = ces.A * ces.alpha, ces.alpha / ces.beta
    units = 1.0 / scale if scale > 0.0 else math.inf
    if 0.0 < units < math.inf and 0.0 < lam < math.inf:
        alloc = linear_costmin(w_h, Technology(lam=lam, k=1.0, g=0.0), w_a, units)
        # Where lam * units overflows, the agent corner was priced at inf.
        if 0.0 < alloc.cost < math.inf and (lam * units < math.inf or humans):
            return alloc
    # A step above left the float range: price the cheaper corner in logs.
    log_l, log_w = (log_h, math.log(w_h)) if humans else (log_a, math.log(w_a))
    labor = in_float_range(_exp(log_l), "CES demand", zero=True)
    cost = in_float_range(_exp(log_l + log_w), "CES unit cost")
    return Allocation(labor, 0.0, cost) if humans else Allocation(0.0, labor, cost)


def unit_cost(ces: CesParams, w_h: float, w_a: float) -> float:
    """Minimal cost of one unit of effective labor at the given prices."""
    require_part(ces, "CES parameter ")
    require("w_h", w_h)
    require("w_a", w_a)

    branch = _branch(ces.sigma)
    if branch == "linear":
        return _linear_equivalent(ces, w_h, w_a).cost
    if branch == "leontief":
        log_cost = _logaddexp(math.log(w_h), math.log(w_a)) - math.log(ces.A)
        return in_float_range((w_h + w_a) / ces.A, "CES unit cost", log_cost)
    if branch == "cobb_douglas":
        a, b = _cd_exponents(ces)
        log_cost = _cd_log_cost(a, w_h) + _cd_log_cost(b, w_a)
    else:  # bracket = alpha*(w_h/alpha)**(1-sigma) + beta*(w_a/beta)**(1-sigma)
        log_cost = _log_power_mean(
            ces.alpha, _log_quotient(w_h, ces.alpha), ces.beta, _log_quotient(w_a, ces.beta), 1.0 - ces.sigma
        )
    return _divided(_exp(log_cost), log_cost, ces.A, "CES unit cost")


def conditional_demands(ces: CesParams, w_h: float, w_a: float) -> DemandPair:
    """Cost-minimizing bundle per unit of effective labor.

    Satisfies ``ces_output(bundle) == 1`` and
    ``w_h*l_h + w_a*l_a == unit_cost`` within the duality tolerance.
    """
    require_part(ces, "CES parameter ")
    require("w_h", w_h)
    require("w_a", w_a)

    branch = _branch(ces.sigma)
    if branch == "linear":
        alloc = _linear_equivalent(ces, w_h, w_a)
        return DemandPair(l_h=alloc.l_h, l_a=alloc.l_a)
    if branch == "leontief":
        per_unit = in_float_range(1.0 / ces.A, "CES demand", -math.log(ces.A))
        return DemandPair(l_h=per_unit, l_a=per_unit)
    if branch == "cobb_douglas":
        a, b = _cd_exponents(ces)
        c = unit_cost(ces, w_h, w_a)
        log_alpha, log_beta = math.log(ces.alpha), math.log(ces.beta)
        log_total = _logaddexp(log_alpha, log_beta)  # log a = log_alpha - log_total, also where a underflows
        return DemandPair(_demand(c, w_h, a, log_alpha - log_total), _demand(c, w_a, b, log_beta - log_total))

    s = 1.0 - ces.sigma
    t_h = math.log(ces.alpha) + s * _log_quotient(w_h, ces.alpha)
    t_a = math.log(ces.beta) + s * _log_quotient(w_a, ces.beta)
    log_bracket = _logaddexp(t_h, t_a)
    log_h, log_a = t_h - log_bracket, t_a - log_bracket
    c = unit_cost(ces, w_h, w_a)
    l_h = _demand(c, w_h, math.exp(log_h), log_h)
    return DemandPair(l_h=l_h, l_a=_demand(c, w_a, math.exp(log_a), log_a))


def relative_wage(ces: CesParams, l_h: float, l_a: float) -> float:
    """Marginal-rate-of-substitution wage ratio (alpha/beta)*(l_h/l_a)**(-1/sigma)."""
    require_part(ces, "CES parameter ")
    require("l_h", l_h)
    require("l_a", l_a)
    log_ratio = math.log(l_h) - math.log(l_a)
    return (ces.alpha / ces.beta) * math.exp(-log_ratio / ces.sigma)


def leontief_requirements(ces: CesParams, l_eff_target: float) -> DemandPair:
    """Fixed-proportions bundle of the sigma -> 0 limit.

    The CES weights wash out of the limit (min(l_h, l_a) binds regardless of
    alpha, beta), leaving equal requirements ``target / A`` of each input,
    independent of factor prices. Verified against conditional demands at
    small sigma by the test suite.
    """
    require_part(ces, "CES parameter ")
    require("l_eff_target", l_eff_target)
    per_input = l_eff_target / ces.A
    return DemandPair(l_h=per_input, l_a=per_input)
