"""Core domain types for the compute-anchored wage model.

Every other module operates on the types defined here and defines no
duplicates. All types are immutable after construction and safe to share
across threads or processes.

Units convention (documented once, used everywhere):

* ``lam``     -- dimensionless: agent-labor units per human-labor unit of
                 effective output (one human hour does the work of ``lam``
                 agent hours).
* ``k``       -- compute-units per agent-labor-hour.
* ``g``       -- algorithmic improvement rate per unit time (>= 0).
* ``r_c``     -- currency per compute-unit-hour (compute rental rate).
* ``w_h``     -- currency per human-labor-hour.
* ``w_a_eff`` -- currency per agent-labor-hour; always ``k * r_c``.
* curve ``scale`` -- quantity at unit price; ``elasticity`` -- nonnegative
                 magnitude, with the sign carried by the curve kind.
* ``output_price`` -- normalization constant; all results are homogeneous in
                 it, so it defaults to 1 and calibration is in wage units.

Construction is deliberately permissive: invalid parameter combinations are
reported by :func:`validate_scenario` as a list of violations rather than
raised at construction time, so a whole document's problems surface at once.
Operations, by contrast, raise :class:`~caw.errors.InvalidInput` when handed
arguments that violate their preconditions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import InvalidInput


class CurveKind(enum.Enum):
    SUPPLY = "supply"
    DEMAND = "demand"


class Regime(enum.Enum):
    """Which side(s) of the substitution margin are employed in equilibrium."""

    HUMAN_ONLY = "human_only"
    AGENT_ONLY = "agent_only"
    MIXED = "mixed"


@dataclass(frozen=True)
class Technology:
    """Agent production technology: conversion of compute into cognitive labor.

    ``lam`` > 0, ``k`` > 0, ``g`` >= 0. ``g`` defaults to 0 (static technology).
    """

    lam: float
    k: float
    g: float = 0.0


@dataclass(frozen=True)
class CesParams:
    """Parameters of the two-input CES aggregator of cognitive labor.

    ``A`` is a pure scale on effective labor, ``alpha``/``beta`` are the
    weights on human and agent labor, ``sigma`` in (0, inf) is the elasticity
    of substitution. All four must be strictly positive.
    """

    A: float
    alpha: float
    beta: float
    sigma: float

    @property
    def rho(self) -> float:
        """Substitution exponent 1 - 1/sigma (< 1); derived, never stored."""
        return 1.0 - 1.0 / self.sigma


@dataclass(frozen=True)
class IsoElasticCurve:
    """Constant-elasticity schedule q(p) = scale * p**(+/- elasticity).

    The exponent sign is carried by ``kind`` (+ for supply, - for demand) so
    ``elasticity`` is always a nonnegative magnitude; 0 encodes a perfectly
    inelastic curve with fixed quantity ``scale``.
    """

    kind: CurveKind
    scale: float
    elasticity: float

    def quantity(self, price: float) -> float:
        """Quantity at ``price`` (> 0); ``inf`` where the power overflows."""
        if price <= 0.0 or not math.isfinite(price):
            raise InvalidInput(f"curve evaluated at non-positive price {price!r}")
        if self.elasticity == 0.0:
            return self.scale
        exponent = self.elasticity if self.kind is CurveKind.SUPPLY else -self.elasticity
        try:
            return self.scale * price**exponent
        except OverflowError:
            return math.inf


def supply_curve(scale: float, elasticity: float) -> IsoElasticCurve:
    return IsoElasticCurve(CurveKind.SUPPLY, scale, elasticity)


def demand_curve(scale: float, elasticity: float) -> IsoElasticCurve:
    return IsoElasticCurve(CurveKind.DEMAND, scale, elasticity)


@dataclass(frozen=True)
class FactorPrices:
    """One consistent snapshot of the three factor prices.

    Whenever all three are populated from one technology the identity
    ``w_a_eff == k * r_c`` must hold; :meth:`from_technology` guarantees it.
    """

    w_h: float
    w_a_eff: float
    r_c: float

    @classmethod
    def from_technology(cls, tech: Technology, w_h: float, r_c: float) -> "FactorPrices":
        if w_h < 0.0 or r_c < 0.0:
            raise InvalidInput("factor prices must be nonnegative")
        return cls(w_h=w_h, w_a_eff=tech.k * r_c, r_c=r_c)


@dataclass(frozen=True)
class PolicyLevers:
    """Multiplicative levers on the compute rental rate.

    ``tau_c`` is an ad-valorem tax rate (>= 0) and ``mu`` a markup factor for
    non-competitive compute markets (>= 1). They compose as
    ``(1 + tau_c) * mu``, so application order does not matter.
    """

    tau_c: float = 0.0
    mu: float = 1.0


@dataclass(frozen=True)
class TaskProfile:
    """An occupation's hour split between automatable and complementary tasks.

    ``s_sub`` in [0, 1] is the share of hours on the substitutable set; the
    complementary share is ``1 - s_sub`` and is never stored.
    ``w_counterfactual`` is the wage the substitutable hours would command
    absent agents; it defaults to ``w_comp``.
    """

    s_sub: float
    w_comp: float
    w_counterfactual: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.s_sub <= 1.0:
            raise InvalidInput(f"s_sub must lie in [0, 1], got {self.s_sub!r}")
        if self.w_counterfactual is None:
            object.__setattr__(self, "w_counterfactual", self.w_comp)
        if self.w_comp < 0.0 or self.w_counterfactual < 0.0:
            raise InvalidInput("task wages must be nonnegative")


@dataclass(frozen=True)
class Scenario:
    """A complete serializable model instance.

    ``compute_demand_exogenous`` is the non-agent demand for compute; it may
    be ``None`` for scenarios where all compute demand derives from agent
    labor (coupled mode only).
    """

    technology: Technology
    ces: CesParams
    compute_supply: IsoElasticCurve
    compute_demand_exogenous: IsoElasticCurve | None
    labor_demand_ts: IsoElasticCurve
    labor_supply_ts: IsoElasticCurve
    policy: PolicyLevers = field(default_factory=PolicyLevers)
    output_price: float = 1.0


@dataclass(frozen=True)
class EquilibriumResult:
    """Prices, quantities and regime for one solved scenario.

    ``ceiling`` is the policy-adjusted wage bound ``lam*k*(1+tau_c)*mu*r_c_star``
    and ``ceiling_binds`` is true exactly when ``w_h_star`` sits on it (within
    the solver band). ``k_c_star == k * l_a_star`` holds exactly.
    ``labor_supply_at_wage``/``labor_demand_at_wage`` expose both curve
    readings at the equilibrium wage, so either employment convention (the
    min rule used here, or demand-at-ceiling) is recoverable.
    """

    regime: Regime
    w_h_star: float
    r_c_star: float
    ceiling: float
    l_h_star: float
    l_a_star: float
    k_c_star: float
    ceiling_binds: bool
    labor_supply_at_wage: float
    labor_demand_at_wage: float


@dataclass(frozen=True)
class FactorShares:
    """Payments to labor and compute as fractions of output value."""

    s_labor: float
    s_compute: float


@dataclass(frozen=True)
class Violation:
    """One invariant violation with a stable machine-readable code."""

    code: str
    message: str

    def __str__(self) -> str:
        return self.message


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _check_curve(curve, name: str, expected: CurveKind, out: list[Violation]) -> None:
    if not _finite(curve.scale) or not _finite(curve.elasticity):
        out.append(Violation(f"{name}.nonfinite", f"{name} has non-finite parameters"))
        return
    if curve.kind is not expected:
        out.append(
            Violation(
                f"{name}.kind_mismatch",
                f"{name} must be a {expected.value} curve, got {curve.kind.value}",
            )
        )
    if curve.scale <= 0.0:
        out.append(Violation(f"{name}.scale.nonpositive", f"{name}.scale must be > 0"))
    if curve.elasticity < 0.0:
        out.append(Violation(f"{name}.elasticity.negative", f"{name}.elasticity must be >= 0"))


def validate_policy(pol: PolicyLevers) -> list[Violation]:
    """The policy-lever rules of :func:`validate_scenario`, on their own."""
    out: list[Violation] = []
    if not _finite(pol.tau_c):
        out.append(Violation("policy.tau_c.nonfinite", "tau_c must be finite"))
    elif pol.tau_c < 0.0:
        out.append(Violation("policy.tau_c.negative", "tau_c must be >= 0"))
    if not _finite(pol.mu):
        out.append(Violation("policy.mu.nonfinite", "mu must be finite"))
    elif pol.mu < 1.0:
        out.append(Violation("policy.mu.below_one", "mu must be >= 1"))
    return out


def validate_scenario(s: Scenario) -> list[Violation]:
    """Collect every invariant violation in ``s``; empty list means valid.

    Never raises: validation is a report, not a gate.
    """
    out: list[Violation] = []

    tech = s.technology
    for fname, value in (("lambda", tech.lam), ("k", tech.k), ("g", tech.g)):
        if not _finite(value):
            out.append(Violation(f"technology.{fname}.nonfinite", f"{fname} must be finite"))
    if _finite(tech.lam) and tech.lam <= 0.0:
        out.append(Violation("technology.lambda.nonpositive", "lambda must be > 0"))
    if _finite(tech.k) and tech.k <= 0.0:
        out.append(Violation("technology.k.nonpositive", "k must be > 0"))
    if _finite(tech.g) and tech.g < 0.0:
        out.append(Violation("technology.g.negative", "g must be >= 0"))

    ces = s.ces
    for fname, value in (("A", ces.A), ("alpha", ces.alpha), ("beta", ces.beta), ("sigma", ces.sigma)):
        if not _finite(value):
            out.append(Violation(f"ces.{fname}.nonfinite", f"{fname} must be finite"))
        elif value <= 0.0:
            out.append(Violation(f"ces.{fname}.nonpositive", f"{fname} must be > 0"))

    _check_curve(s.compute_supply, "compute_supply", CurveKind.SUPPLY, out)
    if s.compute_demand_exogenous is not None:
        _check_curve(s.compute_demand_exogenous, "compute_demand", CurveKind.DEMAND, out)
    _check_curve(s.labor_demand_ts, "labor_demand_ts", CurveKind.DEMAND, out)
    _check_curve(s.labor_supply_ts, "labor_supply_ts", CurveKind.SUPPLY, out)
    out.extend(validate_policy(s.policy))

    if not _finite(s.output_price):
        out.append(Violation("output_price.nonfinite", "output_price must be finite"))
    elif s.output_price <= 0.0:
        out.append(Violation("output_price.nonpositive", "output_price must be > 0"))

    return out
