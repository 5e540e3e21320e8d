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
from dataclasses import dataclass

from . import constants
from .bound import linear_costmin
from .errors import InvalidInput
from .model import CesParams, Technology


@dataclass(frozen=True)
class DemandPair:
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


def _linear_equivalent(ces: CesParams, w_h: float, w_a: float):
    # Perfect-substitute CES A*(alpha*l_h + beta*l_a) rescales to the unit
    # isoquant l_h + l_a/lam >= 1/(A*alpha) with lam = alpha/beta.
    tech = Technology(lam=ces.alpha / ces.beta, k=1.0, g=0.0)
    units = 1.0 / (ces.A * ces.alpha)
    return linear_costmin(w_h, tech, w_a, units)


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
        return math.exp(
            a * (math.log(w_h) - math.log(a)) + b * (math.log(w_a) - math.log(b))
        ) / ces.A

    # bracket = alpha*(w_h/alpha)**(1-sigma) + beta*(w_a/beta)**(1-sigma)
    return math.exp(
        _log_power_mean(
            ces.alpha,
            math.log(w_h / ces.alpha),
            ces.beta,
            math.log(w_a / ces.beta),
            1.0 - ces.sigma,
        )
    ) / ces.A


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
        return DemandPair(l_h=a * c / w_h, l_a=b * c / w_a)

    s = 1.0 - ces.sigma
    t_h = math.log(ces.alpha) + s * math.log(w_h / ces.alpha)
    t_a = math.log(ces.beta) + s * math.log(w_a / ces.beta)
    log_bracket = _logaddexp(t_h, t_a)
    share_h = math.exp(t_h - log_bracket)
    share_a = math.exp(t_a - log_bracket)
    c = unit_cost(ces, w_h, w_a)
    return DemandPair(l_h=c * share_h / w_h, l_a=c * share_a / w_a)


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
