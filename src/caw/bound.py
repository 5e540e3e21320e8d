"""Perfect-substitute wage bound: effective agent wage, policy-adjusted
ceiling, linear cost minimization and regime classification.

On tasks where one human hour and ``lam`` agent hours are interchangeable,
the unit cost of effective labor is ``min(w_h, lam*k*r_c)``; the competitive
human wage therefore cannot exceed ``lam*k*r_c`` wherever humans stay
employed, and cost minimization picks a corner whenever the two per-unit
costs differ.

Every entry holds its technology, and ``caw_ceiling`` its policy, to the
scenario rules (:func:`caw.model.require_part`), a rental rate to :func:`require_rate`
(finite and >= 0), and each other number to its lower bound (:func:`caw.model.require`).
A wage beyond the float range raises SolverError (:func:`caw.model.in_float_range`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import _MIN_NORMAL, PolicyLevers, Regime, Technology, in_float_range, require, require_part


class Allocation(NamedTuple):
    """Cost-minimizing bundle for a given amount of effective labor.

    ``tie`` is true when both corners cost the same and the default corner
    was chosen by convention.
    """

    l_h: float
    l_a: float
    cost: float
    tie: bool = False


CEILING = "wage ceiling lambda*k*(1+tau_c)*mu*r_c"  # its name in caw.model.in_float_range's error
COST = "least cost of the effective units"


def require_rate(r_c: float) -> None:
    """The one rental-rate rule: InvalidInput unless ``r_c`` is finite and >= 0."""
    require("rental rate", r_c, 0.0, True)


def agent_wage(tech: Technology, r_c: float) -> float:
    """Effective cost of one agent-labor-hour: k * r_c (currency/hour), 0 only at a zero rate."""
    require_part(tech)
    require_rate(r_c)
    return in_float_range(tech.k * r_c, "agent wage k*r_c", zero=r_c == 0.0)


def caw_ceiling(tech: Technology, r_c: float, policy: PolicyLevers | None = None) -> float:
    """Policy-adjusted wage ceiling lam * k * (1 + tau_c) * mu * r_c.

    A compute tax and a compute-market markup both scale the ceiling
    proportionally, so they compose multiplicatively and order is irrelevant.
    At a zero rental rate the ceiling is exactly zero, even where the product
    of the other factors overflows; at a positive one it may underflow to 0.
    """
    require_part(tech)
    require_rate(r_c)
    policy = PolicyLevers() if policy is None else policy
    require_part(policy)
    if r_c == 0.0:
        return r_c
    return in_float_range(_ceiling_factor(tech, policy) * r_c, CEILING, zero=True)


def _ceiling_factor(tech: Technology, policy: PolicyLevers) -> float:
    """The ceiling per unit rental rate, lam * k * (1 + tau_c) * mu, parts
    unchecked: :func:`caw_ceiling` is this times ``r_c``, the same product."""
    return tech.lam * tech.k * (1.0 + policy.tau_c) * policy.mu


def linear_costmin(
    w_h: float,
    tech: Technology,
    r_c: float,
    effective_units: float,
    *,
    prefer_agents_on_tie: bool = False,
) -> Allocation:
    """Minimize ``w_h*l_h + r_c*k*l_a`` subject to ``l_h + l_a/lam >= effective_units``.

    Both objective and constraint are linear, so the optimum is a corner:
    all-human when ``w_h`` is below the ceiling, all-agent when above. At
    exact indifference the human corner wins by default (``prefer_agents_on_tie``
    flips that) and the tie is flagged so the choice is auditable. The two
    cost products decide where both are normal floats, and their logs where
    one is not. The cost and agent labor may underflow, not overflow
    (:func:`caw.model.in_float_range`).
    """
    require_part(tech)
    require("effective_units", effective_units)
    require("w_h", w_h, 0.0, True)
    require_rate(r_c)

    human_cost = w_h * effective_units
    agent_units = tech.lam * effective_units
    agent_cost = r_c * tech.k * agent_units
    log_units = math.log(effective_units)
    log_human = _log(w_h) + log_units
    log_agent_units = math.log(tech.lam) + log_units
    log_agent = _log(r_c) + math.log(tech.k) + log_agent_units
    # The products decide where both are normal floats; else their logs, exact
    # where a product overflowed (two infs are no tie) or lost digits.
    if _MIN_NORMAL <= min(human_cost, agent_cost) and max(human_cost, agent_cost) < math.inf:
        human, agent = human_cost, agent_cost
    else:
        human, agent = log_human, log_agent

    tie = human == agent
    if human < agent or tie and not prefer_agents_on_tie:
        return Allocation(effective_units, 0.0, in_float_range(human_cost, COST, log_human, zero=True), tie)
    l_a = in_float_range(agent_units, "agent labor lam*effective_units", log_agent_units, zero=True)
    return Allocation(0.0, l_a, in_float_range(agent_cost, COST, log_agent, zero=True), tie)


def _log(x: float) -> float:
    """log x, -inf at 0."""
    return math.log(x) if x > 0.0 else -math.inf


def classify_regime(w_h_candidate: float, ceiling: float, tolerance: float) -> Regime:
    """Place a candidate wage relative to the ceiling within an absolute band.

    The band is an explicit argument, for the caller to set: no solver calls
    this, as the market solvers inline the test with ``constants.REGIME_BAND_ABS``.
    """
    require("w_h_candidate", w_h_candidate, 0.0, True)
    require("ceiling", ceiling, 0.0, True)
    require("tolerance", tolerance)
    if w_h_candidate < ceiling - tolerance:
        return Regime.HUMAN_ONLY
    if w_h_candidate > ceiling + tolerance:
        return Regime.AGENT_ONLY
    return Regime.MIXED
