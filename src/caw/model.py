"""Core domain types for the compute-anchored wage model.

Every other module operates on the types defined here and defines no
duplicates. Every record, here and in the other modules, is a
``typing.NamedTuple``: immutable after construction, safe to share across
threads or processes, hashable where its fields are, iterable in field
order, and equal to a plain tuple of the same values. ``_replace`` copies
one with fields changed, and ``_fields`` names the fields in constructor
order.

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
arguments that violate their preconditions; every lower bound, on a record's field
(:func:`require_part`) or a bare number (:func:`require`), is the one rule :func:`within`.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import NamedTuple

from .errors import InvalidInput, SolverError


_MIN_NORMAL = sys.float_info.min


def _exp(x: float) -> float:
    """exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def in_float_range(value: float, what: str, log_value: float | None = None, *, zero: bool = False) -> float:
    """The one float-range rule for a positive result ``what``: ``value`` where
    it is a normal float, else exp(``log_value``) where the log is known and
    that is one, else SolverError "<what> lies outside the floating-point
    range". A site whose quantity may underflow passes ``zero`` and gets its
    0 or subnormal (from the log if known) back instead; overflow and NaN raise."""
    if _MIN_NORMAL <= value < math.inf:
        return value
    if log_value is not None:
        value = _exp(log_value)
        if _MIN_NORMAL <= value < math.inf:
            return value
    if zero and 0.0 <= value < _MIN_NORMAL:
        return value
    raise SolverError(f"{what} lies outside the floating-point range")


class CurveKind(enum.Enum):
    SUPPLY = "supply"
    DEMAND = "demand"


class Regime(enum.Enum):
    """Which side(s) of the substitution margin are employed in equilibrium."""

    HUMAN_ONLY = "human_only"
    AGENT_ONLY = "agent_only"
    MIXED = "mixed"


class Technology(NamedTuple):
    """Agent production technology: conversion of compute into cognitive labor.

    ``lam`` > 0, ``k`` > 0, ``g`` >= 0. ``g`` defaults to 0 (static technology).
    """

    lam: float
    k: float
    g: float = 0.0


class CesParams(NamedTuple):
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


class IsoElasticCurve(NamedTuple):
    """Constant-elasticity schedule q(p) = scale * p**(+/- elasticity).

    The exponent sign is carried by ``kind`` (+ for supply, - for demand) so
    ``elasticity`` is always a nonnegative magnitude; 0 encodes a perfectly
    inelastic curve with fixed quantity ``scale``.
    """

    kind: CurveKind
    scale: float
    elasticity: float

    def quantity(self, price: float) -> float:
        """Quantity at ``price`` (> 0); ``inf`` where it overflows. Where the
        power alone is not a normal float, the product is taken in logs."""
        if not 0.0 < price < math.inf:
            raise rule_error("price", price, 0.0, False)
        kind, scale, elasticity = self
        if elasticity == 0.0:
            return scale
        exponent = elasticity if kind is CurveKind.SUPPLY else -elasticity
        try:
            power = price**exponent
            if power >= _MIN_NORMAL:  # or inf at an infinite exponent, as before
                return scale * power
        except OverflowError:
            power = math.inf
        if not scale > 0.0:  # a scale outside the curve rule has no log
            return scale * power
        return _exp(math.log(scale) + exponent * math.log(price))


def supply_curve(scale: float, elasticity: float) -> IsoElasticCurve:
    return IsoElasticCurve(CurveKind.SUPPLY, scale, elasticity)


def demand_curve(scale: float, elasticity: float) -> IsoElasticCurve:
    return IsoElasticCurve(CurveKind.DEMAND, scale, elasticity)


class FactorPrices(NamedTuple):
    """One consistent snapshot of the three factor prices.

    Whenever all three are populated from one technology the identity
    ``w_a_eff == k * r_c`` must hold; :meth:`from_technology` guarantees it.
    """

    w_h: float
    w_a_eff: float
    r_c: float

    @classmethod
    def from_technology(cls, tech: Technology, w_h: float, r_c: float) -> "FactorPrices":
        require("w_h", w_h, 0.0, True)
        require("r_c", r_c, 0.0, True)
        return cls(w_h=w_h, w_a_eff=tech.k * r_c, r_c=r_c)


class PolicyLevers(NamedTuple):
    """Multiplicative levers on the compute rental rate.

    ``tau_c`` is an ad-valorem tax rate (>= 0) and ``mu`` a markup factor for
    non-competitive compute markets (>= 1). They compose as
    ``(1 + tau_c) * mu``, so application order does not matter.
    """

    tau_c: float = 0.0
    mu: float = 1.0


class _TaskProfile(NamedTuple):
    s_sub: float
    w_comp: float
    w_counterfactual: float


class TaskProfile(_TaskProfile):
    """An occupation's hour split between automatable and complementary tasks.

    ``s_sub`` in [0, 1] is the share of hours on the substitutable set; the
    complementary share is ``1 - s_sub`` and is never stored.
    ``w_counterfactual`` is the wage the substitutable hours would command
    absent agents; it defaults to ``w_comp``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks its copy too

    def __new__(cls, s_sub: float, w_comp: float, w_counterfactual: float | None = None):
        if not 0.0 <= s_sub <= 1.0:
            raise InvalidInput(f"s_sub must lie in [0, 1], got {s_sub!r}")
        if w_counterfactual is None:
            w_counterfactual = w_comp
        require("w_comp", w_comp, 0.0, True)
        require("w_counterfactual", w_counterfactual, 0.0, True)
        return super().__new__(cls, s_sub, w_comp, w_counterfactual)


class Scenario(NamedTuple):
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
    policy: PolicyLevers = PolicyLevers()
    output_price: float = 1.0


class EquilibriumResult(NamedTuple):
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


class FactorShares(NamedTuple):
    """Payments to labor and compute as fractions of output value."""

    s_labor: float
    s_compute: float


class Violation(NamedTuple):
    """One invariant violation with a stable machine-readable code."""

    code: str
    message: str

    def __str__(self) -> str:
        return self.message


class Field(NamedTuple):
    """One numeric scenario field, the lower bound :func:`validate_scenario`
    puts on it, and the violation each way of breaking that bound reports."""

    path: str  # dotted document name: "technology.lambda", "output_price"
    key: str  # key within its section's object
    attr: str  # attribute of the part that holds it ("lam" for "lambda")
    default: float | None  # REQUIRED (None): every document must give it
    bound: float
    inclusive: bool  # whether the bound itself is allowed
    nonfinite: Violation
    below: Violation


class Section(NamedTuple):
    """One part of a :class:`Scenario`, as a scenario document writes it."""

    key: str  # document key
    attr: str  # Scenario attribute
    kind: type | CurveKind  # the part's class (float for a bare number), or a curve's kind
    fields: tuple[Field, ...]  # in document order
    nullable: bool = False  # a document may write null: the scenario has no such part

    def values(self, part) -> list:
        """The field values of ``part``, in field order."""
        if self.kind is float:
            return [part]
        return [getattr(part, f.attr) for f in self.fields]

    def build(self, values):
        """The part holding ``values``, given in field order."""
        if isinstance(self.kind, CurveKind):
            return IsoElasticCurve(self.kind, *values)
        return self.kind(*values)


REQUIRED = None

# Lower-bound rules: (bound, whether the bound itself is allowed, violation code suffix).
_POSITIVE = (0.0, False, "nonpositive")
_NONNEGATIVE = (0.0, True, "negative")
_AT_LEAST_ONE = (1.0, True, "below_one")


def _section(key: str, attr: str, kind, *specs, nullable: bool = False) -> Section:
    """A Section from one ``(document key, attribute, default, rule)`` spec per
    field. Violations name a curve field by its path and any other field by
    its key, and a curve reports non-finite values once for both fields."""
    curve = isinstance(kind, CurveKind)
    curve_nonfinite = Violation(f"{key}.nonfinite", f"{key} has non-finite parameters")
    fields = []
    for name, field_attr, default, (bound, inclusive, code) in specs:
        path = key if kind is float else f"{key}.{name}"
        nonfinite = curve_nonfinite if curve else Violation(f"{path}.nonfinite", f"{name} must be finite")
        label = path if curve else name
        below = Violation(f"{path}.{code}", f"{label} must be {'>=' if inclusive else '>'} {bound:g}")
        fields.append(Field(path, name, field_attr, default, bound, inclusive, nonfinite, below))
    return Section(key, attr, kind, tuple(fields), nullable)


def _curve_fields(scale: float, elasticity: float) -> tuple:
    return (("scale", "scale", scale, _POSITIVE), ("elasticity", "elasticity", elasticity, _NONNEGATIVE))


# The scenario document schema, in document order (also the order of
# Scenario's fields): each field's key, attribute, default and lower-bound
# rule. Parsing, emission, validation, sweeps and CLI flag checks all read it.
SECTIONS: tuple[Section, ...] = (
    _section("technology", "technology", Technology,
             ("lambda", "lam", REQUIRED, _POSITIVE),
             ("k", "k", REQUIRED, _POSITIVE),
             ("g", "g", 0.0, _NONNEGATIVE)),
    _section("ces", "ces", CesParams,
             ("A", "A", 1.0, _POSITIVE),
             ("alpha", "alpha", 0.5, _POSITIVE),
             ("beta", "beta", 0.5, _POSITIVE),
             ("sigma", "sigma", 2.0, _POSITIVE)),
    _section("compute_supply", "compute_supply", CurveKind.SUPPLY, *_curve_fields(1.0, 1.0)),
    _section("compute_demand", "compute_demand_exogenous", CurveKind.DEMAND, *_curve_fields(4.0, 1.0),
             nullable=True),
    _section("labor_demand_ts", "labor_demand_ts", CurveKind.DEMAND, *_curve_fields(10.0, 1.0)),
    _section("labor_supply_ts", "labor_supply_ts", CurveKind.SUPPLY, *_curve_fields(1.0, 1.0)),
    _section("policy", "policy", PolicyLevers,
             ("tau_c", "tau_c", 0.0, _NONNEGATIVE),
             ("mu", "mu", 1.0, _AT_LEAST_ONE)),
    _section("output_price", "output_price", float, ("output_price", "output_price", 1.0, _POSITIVE)),
)

# Every field of SECTIONS, by its dotted document name.
FIELDS: dict[str, Field] = {f.path: f for section in SECTIONS for f in section.fields}

# The fields a solve reads, by dotted document name: the only ones a sweep
# may vary. No solve reads the CES parameters or the output price, nor
# technology.g, which only moves the ceiling over time (caw.statics.caw_trajectory).
SWEEPABLE_PARAMS: tuple[str, ...] = tuple(
    f.path for section in SECTIONS if section.key not in ("ces", "output_price") for f in section.fields
    if f.path != "technology.g"
)


def field_violation(path: str, value) -> Violation | None:
    """The rule :func:`validate_scenario` applies to the field at ``path``
    (a :data:`FIELDS` name such as ``technology.lambda`` or ``policy.mu``),
    checked on ``value`` alone; None when it holds.

    Sweeps check each grid value with it, and the CLI each model flag, so
    those meet the same rule, and message, as a scenario document.
    """
    f = FIELDS[path]
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return f.nonfinite
    return None if within(value, f.bound, f.inclusive) else f.below


def within(value, bound: float = 0.0, inclusive: bool = False) -> bool:
    """The one lower-bound rule: whether the number ``value`` is finite and > ``bound`` (>= if ``inclusive``)."""
    return bound < value < math.inf or inclusive and value == bound


def rule_error(name: str, value, bound: float, inclusive: bool) -> InvalidInput:
    """InvalidInput for ``value`` of ``name`` outside the finite values > ``bound`` (>= where ``inclusive``)."""
    return InvalidInput(f"{name} must be finite and {'>=' if inclusive else '>'} {bound:g}, got {value!r}")


def require(name: str, value, bound: float = 0.0, inclusive: bool = False) -> None:
    """Raise :func:`rule_error`'s InvalidInput unless ``value``, the number
    ``name``, meets :func:`within`. Every library entry checks its bare-number
    arguments with it, as :func:`require_part` checks its records' fields."""
    if not within(value, bound, inclusive):
        raise rule_error(name, value, bound, inclusive)


# Each model record's fields in SECTIONS; every curve section states the same rule.
_PART_FIELDS = {IsoElasticCurve if isinstance(sec.kind, CurveKind) else sec.kind: sec.fields for sec in SECTIONS}
# The last part of each class that passed (statics checks a setup at three points); records are immutable.
_PASSED: dict = {}


def require_part(part, prefix: str = "") -> None:
    """Raise InvalidInput unless each field of ``part`` (a Technology, CesParams,
    PolicyLevers or curve) meets its scenario rule, :func:`within`; the
    message names the field's document key after ``prefix``."""
    cls = type(part)
    if _PASSED.get(cls) is not part:
        fields = _PART_FIELDS[cls]
        for f, value in zip(fields, part[-len(fields):]):  # a curve's kind comes first
            if not within(value, f.bound, f.inclusive):
                raise rule_error(prefix + f.key, value, f.bound, f.inclusive)
        _PASSED[cls] = part


def require_curve(curve: IsoElasticCurve, kind: CurveKind, name: str) -> None:
    """Raise InvalidInput unless ``curve`` is a ``kind`` curve meeting :func:`require_part`, named ``name``."""
    if curve.kind is not kind:
        raise InvalidInput(f"{name} must be a {kind.value} curve")
    require_part(curve, name + " ")


def validate_scenario(s: Scenario) -> list[Violation]:
    """Collect every invariant violation in ``s``; empty list means valid.

    Never raises: validation is a report, not a gate.
    """
    out: list[Violation] = []
    for section in SECTIONS:
        part = getattr(s, section.attr)
        if part is None and section.nullable:
            continue
        values = zip(section.fields, section.values(part))
        found = [v for f, value in values if (v := field_violation(f.path, value)) is not None]
        if isinstance(section.kind, CurveKind):
            nonfinite = section.fields[0].nonfinite
            if nonfinite in found:  # one report for the curve, as both fields give the same one
                out.append(nonfinite)
                continue
            if part.kind is not section.kind:
                message = f"{section.key} must be a {section.kind.value} curve, got {part.kind.value}"
                out.append(Violation(f"{section.key}.kind_mismatch", message))
        out.extend(found)
    return out
