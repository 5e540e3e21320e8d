"""Perfect-substitute wage bound: effective agent wage, policy-adjusted
ceiling, linear cost minimization and regime classification.

On tasks where one human hour and ``lam`` agent hours are interchangeable,
the unit cost of effective labor is ``min(w_h, lam*k*r_c)``; the competitive
human wage therefore cannot exceed ``lam*k*r_c`` wherever humans stay
employed, and cost minimization picks a corner whenever the two per-unit
costs differ.

Every entry holds its technology, and ``caw_ceiling`` its policy, to the
scenario rules (:func:`caw.model.require_part`), and a rental rate to the one
rate rule, :func:`require_rate`: finite and >= 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidInput
from .model import PolicyLevers, Regime, Technology, require_part, rule_error


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


def require_rate(r_c: float) -> None:
    """The one rental-rate rule: InvalidInput unless ``r_c`` is finite and >= 0."""
    if not 0.0 <= r_c < math.inf:
        raise rule_error("rental rate", r_c, 0.0, True)


def agent_wage(tech: Technology, r_c: float) -> float:
    """Effective cost of one agent-labor-hour: k * r_c (currency/hour)."""
    require_part(tech)
    require_rate(r_c)
    return tech.k * r_c


def caw_ceiling(tech: Technology, r_c: float, policy: PolicyLevers | None = None) -> float:
    """Policy-adjusted wage ceiling lam * k * (1 + tau_c) * mu * r_c.

    A compute tax and a compute-market markup both scale the ceiling
    proportionally, so they compose multiplicatively and order is irrelevant.
    At a zero rental rate the ceiling is exactly zero, even where the product
    of the other factors overflows.
    """
    require_part(tech)
    require_rate(r_c)
    policy = PolicyLevers() if policy is None else policy
    require_part(policy)
    if r_c == 0.0:
        return r_c
    return tech.lam * tech.k * (1.0 + policy.tau_c) * policy.mu * r_c


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
    flips that) and the tie is flagged so the choice is auditable.
    """
    require_part(tech)
    if effective_units <= 0.0:
        raise InvalidInput(f"effective_units must be > 0, got {effective_units!r}")
    if w_h < 0.0:
        raise InvalidInput(f"wage must be nonnegative, got {w_h!r}")
    require_rate(r_c)

    human_cost = w_h * effective_units
    agent_units = tech.lam * effective_units
    agent_cost = r_c * tech.k * agent_units

    if human_cost == agent_cost:
        if prefer_agents_on_tie:
            return Allocation(l_h=0.0, l_a=agent_units, cost=agent_cost, tie=True)
        return Allocation(l_h=effective_units, l_a=0.0, cost=human_cost, tie=True)
    if human_cost < agent_cost:
        return Allocation(l_h=effective_units, l_a=0.0, cost=human_cost)
    return Allocation(l_h=0.0, l_a=agent_units, cost=agent_cost)


def classify_regime(w_h_candidate: float, ceiling: float, tolerance: float) -> Regime:
    """Place a candidate wage relative to the ceiling within an absolute band.

    The band is an explicit argument rather than a hidden constant because
    upstream solvers need to control it.
    """
    if w_h_candidate < 0.0 or ceiling < 0.0:
        raise InvalidInput("wage and ceiling must be nonnegative")
    if not (tolerance > 0.0) or not math.isfinite(tolerance):
        raise InvalidInput(f"tolerance must be > 0, got {tolerance!r}")
    if w_h_candidate < ceiling - tolerance:
        return Regime.HUMAN_ONLY
    if w_h_candidate > ceiling + tolerance:
        return Regime.AGENT_ONLY
    return Regime.MIXED
