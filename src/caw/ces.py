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
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import constants
from .bound import Allocation, linear_costmin
from .errors import InvalidInput, SolverError
from .model import CesParams, Technology


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


def _require_positive_params(ces: CesParams) -> None:
    for name, value in (("A", ces.A), ("alpha", ces.alpha), ("beta", ces.beta), ("sigma", ces.sigma)):
        if not (value > 0.0) or not math.isfinite(value):
            raise InvalidInput(f"CES parameter {name} must be finite and > 0, got {value!r}")


def ces_output(ces: CesParams, l_h: float, l_a: float) -> float:
    """Effective labor produced by the bundle (l_h, l_a)."""
    _require_positive_params(ces)
    if l_h < 0.0 or l_a < 0.0:
        raise InvalidInput(f"labor inputs must be nonnegative, got ({l_h!r}, {l_a!r})")

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


def _require_positive_prices(w_h: float, w_a: float) -> None:
    if not (w_h > 0.0) or not (w_a > 0.0) or not math.isfinite(w_h) or not math.isfinite(w_a):
        raise InvalidInput(f"factor prices must be finite and > 0, got ({w_h!r}, {w_a!r})")


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _in_range(value: float, log_value: float, what: str, zero: bool = False) -> float:
    """``value``, or exp(log_value) where the float arithmetic that gave it
    left the float range (0 or inf); SolverError where exp(log_value) is
    inf, or 0 unless ``zero`` allows it."""
    if not 0.0 < value < math.inf:
        value = _exp(log_value)
    if value == math.inf or (value == 0.0 and not zero):
        raise SolverError(f"CES {what} lies outside the floating-point range")
    return value


def _log_quotient(x: float, y: float) -> float:
    """log(x / y), also where the quotient underflows or overflows."""
    q = x / y
    return math.log(q) if 0.0 < q < math.inf else math.log(x) - math.log(y)


def _demand(c: float, w: float, share: float, log_share: float) -> float:
    """c * share / w, the demand for an input with that cost share (0 where it underflows)."""
    return _in_range(c * share / w, math.log(c) + log_share - math.log(w), "demand", zero=True)


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
    labor = _in_range(_exp(log_l), log_l, "demand")
    cost = _in_range(_exp(log_l + log_w), log_l + log_w, "unit cost")
    return Allocation(labor, 0.0, cost) if humans else Allocation(0.0, labor, cost)


def unit_cost(ces: CesParams, w_h: float, w_a: float) -> float:
    """Minimal cost of one unit of effective labor at the given prices."""
    _require_positive_params(ces)
    _require_positive_prices(w_h, w_a)

    branch = _branch(ces.sigma)
    if branch == "linear":
        return _linear_equivalent(ces, w_h, w_a).cost
    if branch == "leontief":
        return (w_h + w_a) / ces.A
    if branch == "cobb_douglas":
        a, b = _cd_exponents(ces)
        log_cost = a * (math.log(w_h) - math.log(a)) + b * (math.log(w_a) - math.log(b))
        return _in_range(_exp(log_cost) / ces.A, log_cost - math.log(ces.A), "unit cost")

    # bracket = alpha*(w_h/alpha)**(1-sigma) + beta*(w_a/beta)**(1-sigma)
    log_cost = _log_power_mean(
        ces.alpha, _log_quotient(w_h, ces.alpha), ces.beta, _log_quotient(w_a, ces.beta), 1.0 - ces.sigma
    )
    return _in_range(_exp(log_cost) / ces.A, log_cost - math.log(ces.A), "unit cost")


def conditional_demands(ces: CesParams, w_h: float, w_a: float) -> DemandPair:
    """Cost-minimizing bundle per unit of effective labor.

    Satisfies ``ces_output(bundle) == 1`` and
    ``w_h*l_h + w_a*l_a == unit_cost`` within the duality tolerance.
    """
    _require_positive_params(ces)
    _require_positive_prices(w_h, w_a)

    branch = _branch(ces.sigma)
    if branch == "linear":
        alloc = _linear_equivalent(ces, w_h, w_a)
        return DemandPair(l_h=alloc.l_h, l_a=alloc.l_a)
    if branch == "leontief":
        return DemandPair(l_h=1.0 / ces.A, l_a=1.0 / ces.A)
    if branch == "cobb_douglas":
        a, b = _cd_exponents(ces)
        c = unit_cost(ces, w_h, w_a)
        return DemandPair(l_h=_demand(c, w_h, a, math.log(a)), l_a=_demand(c, w_a, b, math.log(b)))

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
    _require_positive_params(ces)
    if not (l_h > 0.0) or not (l_a > 0.0):
        raise InvalidInput(f"labor quantities must be > 0, got ({l_h!r}, {l_a!r})")
    log_ratio = math.log(l_h) - math.log(l_a)
    return (ces.alpha / ces.beta) * math.exp(-log_ratio / ces.sigma)


def leontief_requirements(ces: CesParams, l_eff_target: float) -> DemandPair:
    """Fixed-proportions bundle of the sigma -> 0 limit.

    The CES weights wash out of the limit (min(l_h, l_a) binds regardless of
    alpha, beta), leaving equal requirements ``target / A`` of each input,
    independent of factor prices. Verified against conditional demands at
    small sigma by the test suite.
    """
    _require_positive_params(ces)
    if not (l_eff_target > 0.0):
        raise InvalidInput(f"target must be > 0, got {l_eff_target!r}")
    per_input = l_eff_target / ces.A
    return DemandPair(l_h=per_input, l_a=per_input)
