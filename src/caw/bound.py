"""Perfect-substitute wage bound: effective agent wage, policy-adjusted
ceiling, linear cost minimization and regime classification.

On tasks where one human hour and ``lam`` agent hours are interchangeable,
the unit cost of effective labor is ``min(w_h, lam*k*r_c)``; the competitive
human wage therefore cannot exceed ``lam*k*r_c`` wherever humans stay
employed, and cost minimization picks a corner whenever the two per-unit
costs differ.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidInput
from .model import PolicyLevers, Regime, Technology


class Allocation(NamedTuple):
    """Cost-minimizing bundle for a given amount of effective labor.

    ``tie`` is true when both corners cost the same and the default corner
    was chosen by convention.
    """

    l_h: float
    l_a: float
    cost: float
    tie: bool = False


def _require_valid_technology(tech: Technology) -> None:
    if not (tech.lam > 0.0) or not math.isfinite(tech.lam):
        raise InvalidInput(f"lambda must be finite and > 0, got {tech.lam!r}")
    if not (tech.k > 0.0) or not math.isfinite(tech.k):
        raise InvalidInput(f"k must be finite and > 0, got {tech.k!r}")
    if tech.g < 0.0 or not math.isfinite(tech.g):
        raise InvalidInput(f"g must be finite and >= 0, got {tech.g!r}")


def agent_wage(tech: Technology, r_c: float) -> float:
    """Effective cost of one agent-labor-hour: k * r_c (currency/hour)."""
    _require_valid_technology(tech)
    if r_c < 0.0:
        raise InvalidInput(f"rental rate must be nonnegative, got {r_c!r}")
    return tech.k * r_c


def caw_ceiling(tech: Technology, r_c: float, policy: PolicyLevers | None = None) -> float:
    """Policy-adjusted wage ceiling lam * k * (1 + tau_c) * mu * r_c.

    A compute tax and a compute-market markup both scale the ceiling
    proportionally, so they compose multiplicatively and order is irrelevant.
    At a zero rental rate the ceiling is exactly zero, even where the product
    of the other factors overflows.
    """
    _require_valid_technology(tech)
    if r_c < 0.0:
        raise InvalidInput(f"rental rate must be nonnegative, got {r_c!r}")
    if r_c == 0.0:
        return r_c
    if policy is None:
        policy = PolicyLevers()
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
    _require_valid_technology(tech)
    if effective_units <= 0.0:
        raise InvalidInput(f"effective_units must be > 0, got {effective_units!r}")
    if w_h < 0.0:
        raise InvalidInput(f"wage must be nonnegative, got {w_h!r}")
    if r_c < 0.0:
        raise InvalidInput(f"rental rate must be nonnegative, got {r_c!r}")

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
