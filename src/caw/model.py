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


_CURVES = ("compute_supply", "compute_demand", "labor_demand_ts", "labor_supply_ts")

# The lower bound validate_scenario puts on each numeric field, by dotted
# name: (bound, whether the bound itself is allowed, violation code suffix).
_LOWER_BOUNDS = {
    "technology.lambda": (0.0, False, "nonpositive"),
    "technology.k": (0.0, False, "nonpositive"),
    "technology.g": (0.0, True, "negative"),
    **{f"ces.{name}": (0.0, False, "nonpositive") for name in ("A", "alpha", "beta", "sigma")},
    **{f"{curve}.scale": (0.0, False, "nonpositive") for curve in _CURVES},
    **{f"{curve}.elasticity": (0.0, True, "negative") for curve in _CURVES},
    "policy.tau_c": (0.0, True, "negative"),
    "policy.mu": (1.0, True, "below_one"),
    "output_price": (0.0, False, "nonpositive"),
}


def field_violation(path: str, value) -> Violation | None:
    """The rule :func:`validate_scenario` applies to the numeric field at
    ``path`` (``technology.lambda``, ``compute_demand.scale``, ``policy.mu``,
    ``output_price``, ...), checked on ``value`` alone; None when it holds.

    A sweep checks each grid value with it, so a swept value meets the same
    rule, and the same message, as one written in a scenario document.
    """
    section, _, name = path.rpartition(".")
    curve = section in _CURVES
    if not _finite(value):
        if curve:
            return Violation(f"{section}.nonfinite", f"{section} has non-finite parameters")
        return Violation(f"{path}.nonfinite", f"{name} must be finite")
    bound, inclusive, suffix = _LOWER_BOUNDS[path]
    if value > bound or (inclusive and value == bound):
        return None
    label = path if curve else name
    return Violation(f"{path}.{suffix}", f"{label} must be {'>=' if inclusive else '>'} {bound:g}")


def _check_fields(section: str, values, out: list[Violation]) -> None:
    out.extend(v for name, value in values if (v := field_violation(f"{section}.{name}", value)))


def _check_curve(curve, name: str, expected: CurveKind, out: list[Violation]) -> None:
    found: list[Violation] = []
    _check_fields(name, (("scale", curve.scale), ("elasticity", curve.elasticity)), found)
    nonfinite = [v for v in found if v.code == f"{name}.nonfinite"]
    if nonfinite:  # one report for the curve, as both fields give the same one
        out.append(nonfinite[0])
        return
    if curve.kind is not expected:
        out.append(
            Violation(
                f"{name}.kind_mismatch",
                f"{name} must be a {expected.value} curve, got {curve.kind.value}",
            )
        )
    out.extend(found)


def validate_policy(pol: PolicyLevers) -> list[Violation]:
    """The policy-lever rules of :func:`validate_scenario`, on their own."""
    out: list[Violation] = []
    _check_fields("policy", (("tau_c", pol.tau_c), ("mu", pol.mu)), out)
    return out


def validate_scenario(s: Scenario) -> list[Violation]:
    """Collect every invariant violation in ``s``; empty list means valid.

    Never raises: validation is a report, not a gate.
    """
    out: list[Violation] = []
    tech, ces = s.technology, s.ces
    _check_fields("technology", (("lambda", tech.lam), ("k", tech.k), ("g", tech.g)), out)
    _check_fields(
        "ces", (("A", ces.A), ("alpha", ces.alpha), ("beta", ces.beta), ("sigma", ces.sigma)), out
    )
    _check_curve(s.compute_supply, "compute_supply", CurveKind.SUPPLY, out)
    if s.compute_demand_exogenous is not None:
        _check_curve(s.compute_demand_exogenous, "compute_demand", CurveKind.DEMAND, out)
    _check_curve(s.labor_demand_ts, "labor_demand_ts", CurveKind.DEMAND, out)
    _check_curve(s.labor_supply_ts, "labor_supply_ts", CurveKind.SUPPLY, out)
    out.extend(validate_policy(s.policy))
    if (v := field_violation("output_price", s.output_price)) is not None:
        out.append(v)
    return out
