import math

import pytest

from caw import (
    CesParams,
    PolicyLevers,
    Scenario,
    Technology,
    demand_curve,
    supply_curve,
)


def make_scenario(
    *,
    lam=1.0,
    k=1.0,
    g=0.0,
    ces=None,
    compute_supply=(1.0, 1.0),
    compute_demand=(4.0, 1.0),
    labor_demand=(10.0, 1.0),
    labor_supply=(1.0, 1.0),
    tau_c=0.0,
    mu=1.0,
    output_price=1.0,
):
    """Scenario with the worked-example defaults; any piece overridable.

    The defaults clear the compute market at a rental rate of 2 and put the
    uncapped labor clearing wage at sqrt(10), so the unit ceiling binds.
    """
    return Scenario(
        technology=Technology(lam=lam, k=k, g=g),
        ces=ces or CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=2.0),
        compute_supply=supply_curve(*compute_supply),
        compute_demand_exogenous=None if compute_demand is None else demand_curve(*compute_demand),
        labor_demand_ts=demand_curve(*labor_demand),
        labor_supply_ts=supply_curve(*labor_supply),
        policy=PolicyLevers(tau_c=tau_c, mu=mu),
        output_price=output_price,
    )


# Dotted sweep names whose scenario attribute or field name differs.
_FIELD_NAMES = {"lambda": "lam", "compute_demand": "compute_demand_exogenous"}


def with_field(s, param, value):
    """Copy of ``s`` with the field at the dotted sweep name ``param`` set to
    ``value``: an oracle for one row of a sweep, built with ``_replace`` and
    its own name mapping rather than the kernel's ``SWEEP_FIELDS``."""
    section, name = (_FIELD_NAMES.get(part, part) for part in param.split("."))
    part = getattr(s, section)
    return s._replace(**{section: part._replace(**{name: value})})


@pytest.fixture
def baseline_scenario():
    return make_scenario()


def rel_err(value, expected):
    if expected == 0.0:
        return abs(value)
    return abs(value - expected) / abs(expected)


def cd_unit_cost(A, alpha, beta, w_h, w_a):
    """Cobb-Douglas dual used as an independent check at sigma = 1."""
    a = alpha / (alpha + beta)
    b = beta / (alpha + beta)
    return (w_h / a) ** a * (w_a / b) ** b / A


def bruteforce_unit_cost(A, alpha, beta, sigma, w_h, w_a, coarse=2000):
    """Two-stage grid + golden-section minimization along the unit isoquant.

    Independent of the dual closed form: parametrizes bundles by the input
    ratio u = l_h/l_a, solves the primal isoquant for the level, and
    minimizes factor outlay directly. Handles sigma = 1 via the log form.
    """
    near_one = abs(sigma - 1.0) < 1e-9

    def isoquant_point(u):
        if near_one:
            a = alpha / (alpha + beta)
            b = beta / (alpha + beta)
            # A * (u*l_a)**a * l_a**b = 1
            l_a = (A * u**a) ** -1.0
        else:
            rho = 1.0 - 1.0 / sigma
            l_a = 1.0 / (A * (alpha * u**rho + beta) ** (1.0 / rho))
        return u * l_a, l_a

    def cost(log_u):
        l_h, l_a = isoquant_point(math.exp(log_u))
        return w_h * l_h + w_a * l_a

    lo_log, hi_log = math.log(1e-8), math.log(1e8)
    step = (hi_log - lo_log) / (coarse - 1)
    logs = [lo_log + i * step for i in range(coarse)]
    costs = [cost(x) for x in logs]
    i_min = costs.index(min(costs))
    a = logs[max(i_min - 1, 0)]
    b = logs[min(i_min + 1, coarse - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = cost(c), cost(d)
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = cost(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = cost(d)
    return cost(0.5 * (a + b))
