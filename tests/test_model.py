import decimal
import enum
import math
import random
import sys
import types
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

import caw
from caw import (
    CesParams,
    CurveKind,
    FactorPrices,
    InvalidInput,
    IsoElasticCurve,
    TaskProfile,
    Technology,
    demand_curve,
    supply_curve,
    validate_scenario,
)
from caw.model import SECTIONS, Scenario, Violation, in_float_range, power_law
from conftest import make_scenario, raises_range_error


def test_schema_table_places_every_scenario_field():
    assert [section.attr for section in SECTIONS] == list(Scenario._fields)
    for section in SECTIONS:
        if section.kind is float:
            continue
        cls = IsoElasticCurve if isinstance(section.kind, CurveKind) else section.kind
        # Section.build passes the field values positionally, in document order.
        assert [name for name in cls._fields if name != "kind"] == [f.attr for f in section.fields]


def test_valid_scenario_has_no_violations():
    assert validate_scenario(make_scenario(lam=1.0, k=1.0)) == []


def test_sigma_zero_is_one_violation():
    s = make_scenario(ces=CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=0.0))
    violations = validate_scenario(s)
    assert len(violations) == 1
    assert violations[0].message == "sigma must be > 0"
    assert violations[0].code == "ces.sigma.nonpositive"


def test_a_violation_prints_as_its_message():
    assert str(Violation("ces.sigma.nonpositive", "sigma must be > 0")) == "sigma must be > 0"


def test_markup_below_one_is_one_violation():
    s = make_scenario(mu=0.5)
    violations = validate_scenario(s)
    assert len(violations) == 1
    assert violations[0].message == "mu must be >= 1"


def test_multiple_violations_all_reported():
    s = make_scenario(lam=-1.0, tau_c=-0.2, mu=0.5)
    codes = {v.code for v in validate_scenario(s)}
    assert codes == {
        "technology.lambda.nonpositive",
        "policy.tau_c.negative",
        "policy.mu.below_one",
    }


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_values_rejected(bad):
    s = make_scenario(k=bad)
    assert any(v.code == "technology.k.nonfinite" for v in validate_scenario(s))


def test_curve_kind_mismatch_detected():
    s = make_scenario()
    swapped = IsoElasticCurve(kind=CurveKind.DEMAND, scale=1.0, elasticity=1.0)
    s = type(s)(
        technology=s.technology,
        ces=s.ces,
        compute_supply=swapped,
        compute_demand_exogenous=s.compute_demand_exogenous,
        labor_demand_ts=s.labor_demand_ts,
        labor_supply_ts=s.labor_supply_ts,
        policy=s.policy,
        output_price=s.output_price,
    )
    assert any(v.code == "compute_supply.kind_mismatch" for v in validate_scenario(s))


def test_missing_exogenous_compute_demand_is_valid():
    assert validate_scenario(make_scenario(compute_demand=None)) == []


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_rho_accessor_inverts_to_sigma(sigma):
    rho = CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=sigma).rho
    assert rho < 1.0
    # Reconstructing sigma from rho is ill-conditioned for large sigma
    # (1 - rho loses ~sigma*eps relative precision), so the bound scales.
    rel_tol = max(1e-15, 4.0 * 2.220446049250313e-16 * sigma)
    assert abs(1.0 / (1.0 - rho) - sigma) <= rel_tol * sigma


def test_rho_at_sigma_one_is_exactly_zero():
    assert CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=1.0).rho == 0.0


@given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.0, max_value=3.0))
def test_supply_curve_is_nondecreasing_in_price(scale, elasticity):
    curve = supply_curve(scale, elasticity)
    assert curve.quantity(2.0) >= curve.quantity(1.0)


@given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.0, max_value=3.0))
def test_demand_curve_is_nonincreasing_in_price(scale, elasticity):
    curve = demand_curve(scale, elasticity)
    assert curve.quantity(2.0) <= curve.quantity(1.0)


def test_inelastic_curve_has_fixed_quantity():
    curve = supply_curve(3.0, 0.0)
    assert curve.quantity(0.01) == curve.quantity(100.0) == 3.0


def test_curve_rejects_nonpositive_price():
    with pytest.raises(InvalidInput):
        supply_curve(1.0, 1.0).quantity(0.0)


def test_factor_prices_satisfy_agent_wage_identity():
    tech = Technology(lam=1.0, k=0.05)
    fp = FactorPrices.from_technology(tech, w_h=3.0, r_c=2.0)
    assert fp.w_a_eff == tech.k * fp.r_c


def test_factor_prices_take_the_agent_wage_by_its_rules():
    # k * r_c overflows; a negative lam breaks the technology rule.
    with raises_range_error("agent wage k*r_c"):
        FactorPrices.from_technology(Technology(lam=1.0, k=1e300), 1.0, 1e300)
    with pytest.raises(InvalidInput, match="lam"):
        FactorPrices.from_technology(Technology(lam=-1.0, k=2.0), 1.0, 2.0)


def test_task_profile_counterfactual_defaults_to_comp_wage():
    profile = TaskProfile(s_sub=0.8, w_comp=25.0)
    assert profile.w_counterfactual == 25.0


def test_task_profile_rejects_share_outside_unit_interval():
    with pytest.raises(InvalidInput):
        TaskProfile(s_sub=1.5, w_comp=25.0)
    with pytest.raises(InvalidInput):
        TaskProfile(s_sub=0.5, w_comp=25.0)._replace(s_sub=1.5)


def _one_of_each_record():
    """One instance of every public record class, by class name."""
    from caw.model import FIELDS
    from caw.roots import find_root

    tech = Technology(lam=1.0, k=1.0)
    ces = CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=2.0)
    setup = caw.StaticsSetup(ces=ces, l_eff_demand=1.0, labor_supply=supply_curve(1.0, 1.0), w_a_eff=1.0)
    bill = caw.wage_bill_response(demand_curve(10.0, 1.0), supply_curve(1.0, 1.0), 2.0, 1.0)
    records = [
        tech,
        ces,
        supply_curve(1.0, 1.0),
        FactorPrices.from_technology(tech, w_h=1.0, r_c=1.0),
        caw.PolicyLevers(),
        TaskProfile(s_sub=0.5, w_comp=1.0),
        make_scenario(),
        caw.solve_scenario(make_scenario()),
        caw.factor_shares(1.0, 1.0, 1.0, 1.0, 2.0),
        validate_scenario(make_scenario(mu=0.5))[0],
        caw.conditional_demands(ces, 1.0, 1.0),
        caw.linear_costmin(1.0, tech, 1.0, 1.0),
        caw.clear_market(supply_curve(1.0, 1.0), demand_curve(4.0, 1.0)),
        setup,
        caw.solve_statics_point(setup),
        caw.semi_elasticity(setup),
        bill,
        bill.before,
        caw.table1()[0][0],
        caw.OutputTable(headers=("x",), rows=((1.0,),), metadata={"command": "x"}),
        find_root(lambda x: 1.0 - x, abs_tol=1e-12),
        FIELDS["policy.mu"],
        SECTIONS[0],
    ]
    return {type(r).__name__: r for r in records}


# The package's public names; a name the package imports is exported only if listed here.
_PUBLIC_NAMES = {
    "Allocation", "CalibrationCell", "CawError", "CeilingNotBinding", "CesParams", "ClearingPoint",
    "CurveKind", "DegenerateCeiling", "DemandPair", "EquilibriumResult", "FactorPrices", "FactorShares",
    "Infeasible", "InvalidInput", "IsoElasticCurve", "NoConvergence", "NoEquilibrium", "OutputTable",
    "ParseError", "PolicyLevers", "Regime", "SWEEPABLE_PARAMS", "Scenario", "SemiElasticity",
    "SolverError", "StaticsPoint", "StaticsSetup", "TaskProfile", "Technology",
    "ValidationError", "Violation", "WageBillResponse", "WageBillState", "__version__", "agent_wage",
    "caw_ceiling", "caw_trajectory", "ces_output", "classify_regime", "clear_market",
    "conditional_demands", "demand_curve", "emit_scenario", "emit_table", "factor_shares", "grid",
    "leontief_requirements", "linear_costmin", "occupation_wage", "parse_scenario", "relative_wage",
    "semi_elasticity", "solve_batch", "solve_capped_labor_market", "solve_compute_market", "solve_coupled",
    "solve_scenario", "solve_statics_point", "supply_curve", "table1", "unit_cost",
    "validate_scenario", "wage_bill_response",
}


def test_public_surface_is_exactly_all():
    assert len(_PUBLIC_NAMES) == 63
    assert set(caw.__all__) == _PUBLIC_NAMES
    assert len(set(caw.__all__)) == len(caw.__all__)
    namespace = {}
    exec("from caw import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == _PUBLIC_NAMES
    public = {
        name for name, value in vars(caw).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= _PUBLIC_NAMES


def test_domain_types_are_immutable():
    records = _one_of_each_record()
    classes = [getattr(caw, name) for name in caw.__all__ if isinstance(getattr(caw, name), type)]
    assert {c.__name__ for c in classes if not issubclass(c, (Exception, enum.Enum))} <= set(records)
    for name, record in records.items():
        for attr in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, attr, getattr(record, attr))
        with pytest.raises(AttributeError):
            record.undeclared = 1.0
        if name != "OutputTable":  # its metadata is a dict
            assert hash(record) == hash(type(record)(*record))


# --- one rule per field at every library entry --------------------------------------

_TECH = Technology(2.0, 1.5, 0.1)
_CES = CesParams(1.0, 0.5, 0.5, 2.0)
_POLICY = caw.PolicyLevers(0.1, 1.2)
_SUPPLY, _DEMAND = supply_curve(1.0, 1.0), demand_curve(4.0, 1.0)


def _statics(ces=_CES, supply=_SUPPLY):
    return caw.solve_statics_point(caw.StaticsSetup(ces, 1.0, supply, 1.0))


# (entry, the record it is handed, the call, the prefix its messages name a field after)
_ENTRIES = [
    ("caw_ceiling", _TECH, lambda t: caw.caw_ceiling(t, 1.0), ""),
    ("agent_wage", _TECH, lambda t: caw.agent_wage(t, 1.0), ""),
    ("linear_costmin", _TECH, lambda t: caw.linear_costmin(1.0, t, 1.0, 1.0), ""),
    ("caw_ceiling policy", _POLICY, lambda p: caw.caw_ceiling(_TECH, 1.0, p), ""),
    ("caw_ceiling policy at a zero rate", _POLICY, lambda p: caw.caw_ceiling(_TECH, 0.0, p), ""),
    ("unit_cost", _CES, lambda c: caw.unit_cost(c, 1.0, 1.0), "CES parameter "),
    ("conditional_demands", _CES, lambda c: caw.conditional_demands(c, 1.0, 1.0), "CES parameter "),
    ("ces_output", _CES, lambda c: caw.ces_output(c, 1.0, 1.0), "CES parameter "),
    ("relative_wage", _CES, lambda c: caw.relative_wage(c, 1.0, 1.0), "CES parameter "),
    ("leontief_requirements", _CES, lambda c: caw.leontief_requirements(c, 1.0), "CES parameter "),
    ("solve_statics_point ces", _CES, lambda c: _statics(ces=c), "CES parameter "),
    ("clear_market supply", _SUPPLY, lambda s: caw.clear_market(s, _DEMAND), "supply "),
    ("clear_market demand", _DEMAND, lambda d: caw.clear_market(_SUPPLY, d), "demand "),
    ("solve_statics_point supply", _SUPPLY, lambda s: _statics(supply=s), "labor_supply "),
]


def _broken_fields():
    """(entry id, call, broken record, field key, prefix) for each field of each
    entry's record and each of 0, -1, NaN, +inf and -inf its rule forbids."""
    for name, record, call, prefix in _ENTRIES:
        kind = getattr(record, "kind", type(record))
        fields = next(section.fields for section in SECTIONS if section.kind is kind)
        for f in fields:
            for value in (0.0, -1.0, math.nan, math.inf, -math.inf):
                if not (f.inclusive and value == f.bound):
                    broken = record._replace(**{f.attr: value})
                    yield pytest.param(call, broken, f.key, prefix, id=f"{name}-{f.key}={value}")


@pytest.mark.parametrize("call, record, key, prefix", _broken_fields())
def test_every_library_entry_rejects_a_field_outside_its_scenario_rule(call, record, key, prefix):
    with pytest.raises(InvalidInput, match=f"^{prefix}{key} must be finite and >?=? "):
        call(record)


def test_fields_at_their_inclusive_bounds_pass_every_entry():
    assert caw.caw_ceiling(Technology(1.0, 2.0, 0.0), 3.0, caw.PolicyLevers(tau_c=0.0, mu=1.0)) == 6.0
    assert caw.agent_wage(Technology(1.0, 2.0, 0.0), 3.0) == 6.0
    fixed = supply_curve(4.0, 0.0)
    assert caw.clear_market(fixed, demand_curve(4.0, 0.0)).price == 1.0
    assert caw.clear_market(fixed, _DEMAND).quantity == 4.0
    assert _statics(supply=supply_curve(0.25, 0.0)).l_h == 0.25


# (entry, a bare-number argument's name in its messages, its bound, whether the
# bound itself is allowed, the call given that number)
_NUMBERS = [
    ("caw_ceiling", "rental rate", 0.0, True, lambda x: caw.caw_ceiling(_TECH, x)),
    ("agent_wage", "rental rate", 0.0, True, lambda x: caw.agent_wage(_TECH, x)),
    ("linear_costmin", "w_h", 0.0, True, lambda x: caw.linear_costmin(x, _TECH, 1.0, 1.0)),
    ("linear_costmin", "rental rate", 0.0, True, lambda x: caw.linear_costmin(1.0, _TECH, x, 1.0)),
    ("linear_costmin", "effective_units", 0.0, False, lambda x: caw.linear_costmin(1.0, _TECH, 1.0, x)),
    ("classify_regime", "w_h_candidate", 0.0, True, lambda x: caw.classify_regime(x, 1.0, 1e-9)),
    ("classify_regime", "ceiling", 0.0, True, lambda x: caw.classify_regime(1.0, x, 1e-9)),
    ("classify_regime", "tolerance", 0.0, False, lambda x: caw.classify_regime(1.0, 1.0, x)),
    ("occupation_wage", "ceiling", 0.0, True, lambda x: caw.occupation_wage(TaskProfile(0.5, 1.0), x)),
    ("factor_shares", "w_h", 0.0, True, lambda x: caw.factor_shares(x, 1.0, 1.0, 1.0, 2.0)),
    ("factor_shares", "l_h", 0.0, True, lambda x: caw.factor_shares(1.0, x, 1.0, 1.0, 2.0)),
    ("factor_shares", "r_c", 0.0, True, lambda x: caw.factor_shares(1.0, 1.0, x, 1.0, 2.0)),
    ("factor_shares", "k_c", 0.0, True, lambda x: caw.factor_shares(1.0, 1.0, 1.0, x, 2.0)),
    ("factor_shares", "y", 0.0, False, lambda x: caw.factor_shares(1.0, 1.0, 1.0, 1.0, x)),
    ("ces_output", "l_h", 0.0, True, lambda x: caw.ces_output(_CES, x, 1.0)),
    ("ces_output", "l_a", 0.0, True, lambda x: caw.ces_output(_CES, 1.0, x)),
    ("unit_cost", "w_h", 0.0, False, lambda x: caw.unit_cost(_CES, x, 1.0)),
    ("unit_cost", "w_a", 0.0, False, lambda x: caw.unit_cost(_CES, 1.0, x)),
    ("conditional_demands", "w_h", 0.0, False, lambda x: caw.conditional_demands(_CES, x, 1.0)),
    ("conditional_demands", "w_a", 0.0, False, lambda x: caw.conditional_demands(_CES, 1.0, x)),
    ("relative_wage", "l_h", 0.0, False, lambda x: caw.relative_wage(_CES, x, 1.0)),
    ("relative_wage", "l_a", 0.0, False, lambda x: caw.relative_wage(_CES, 1.0, x)),
    ("leontief_requirements", "l_eff_target", 0.0, False, lambda x: caw.leontief_requirements(_CES, x)),
    ("FactorPrices.from_technology", "w_h", 0.0, True, lambda x: FactorPrices.from_technology(_TECH, x, 1.0)),
    ("FactorPrices.from_technology", "r_c", 0.0, True, lambda x: FactorPrices.from_technology(_TECH, 1.0, x)),
    ("TaskProfile", "w_comp", 0.0, True, lambda x: TaskProfile(0.5, x, 1.0)),
    ("TaskProfile", "w_counterfactual", 0.0, True, lambda x: TaskProfile(0.5, 1.0, x)),
    ("solve_statics_point", "l_eff_demand", 0.0, False,
     lambda x: caw.solve_statics_point(caw.StaticsSetup(_CES, x, _SUPPLY, 1.0))),
    ("solve_statics_point", "w_a_eff", 0.0, False,
     lambda x: caw.solve_statics_point(caw.StaticsSetup(_CES, 1.0, _SUPPLY, x))),
    ("solve_capped_labor_market", "rental rate", 0.0, True,
     lambda x: caw.solve_capped_labor_market(make_scenario(), x)),
    ("caw_trajectory", "trajectory time", 0.0, True, lambda x: caw.caw_trajectory(_TECH, 1.0, [0.0, x])),
    ("wage_bill_response", "ceiling_before", 0.0, False,
     lambda x: caw.wage_bill_response(_DEMAND, _SUPPLY, x, 1.0, check_binding=False)),
    ("wage_bill_response", "ceiling_after", 0.0, False,
     lambda x: caw.wage_bill_response(_DEMAND, _SUPPLY, 1.0, x, check_binding=False)),
]


def _broken_numbers():
    """(call, value, expected message prefix) for each argument of _NUMBERS and
    each of 0, -1, NaN, +inf and -inf its rule forbids."""
    for entry, name, bound, inclusive, call in _NUMBERS:
        for value in (0.0, -1.0, math.nan, math.inf, -math.inf):
            if not (math.isfinite(value) and (value > bound or inclusive and value == bound)):
                prefix = f"{name} must be finite and {'>=' if inclusive else '>'} {bound:g}, got "
                yield pytest.param(call, value, prefix, id=f"{entry}-{name}={value}")


@pytest.mark.parametrize("call, value, prefix", _broken_numbers())
def test_every_library_entry_rejects_a_number_outside_its_rule(call, value, prefix):
    with pytest.raises(InvalidInput) as info:
        call(value)
    assert str(info.value) == prefix + repr(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: caw.caw_ceiling(Technology(-1.0, 1.0), 1.0), "lambda must be finite and > 0, got -1.0"),
        (lambda: caw.agent_wage(Technology(1.0, 1.0, -0.5), 1.0), "g must be finite and >= 0, got -0.5"),
        (lambda: caw.unit_cost(CesParams(1.0, 1.0, 1.0, 0.0), 1.0, 1.0),
         "CES parameter sigma must be finite and > 0, got 0.0"),
        (lambda: caw.clear_market(supply_curve(-1.0, 1.0), _DEMAND), "supply scale must be finite and > 0, got -1.0"),
        (lambda: _statics(supply=supply_curve(1.0, -1.0)), "labor_supply elasticity must be finite and >= 0, got -1.0"),
        # These reached no check before: a ceiling of -1.0, one at mu = 0.5, and nan ones.
        (lambda: caw.caw_ceiling(Technology(1.0, 1.0), 1.0, caw.PolicyLevers(tau_c=-2.0)),
         "tau_c must be finite and >= 0, got -2.0"),
        (lambda: caw.caw_ceiling(Technology(1.0, 1.0), 1.0, caw.PolicyLevers(mu=0.5)),
         "mu must be finite and >= 1, got 0.5"),
        (lambda: caw.caw_ceiling(_TECH, math.nan), "rental rate must be finite and >= 0, got nan"),
        (lambda: caw.agent_wage(_TECH, math.nan), "rental rate must be finite and >= 0, got nan"),
        (lambda: caw.linear_costmin(1.0, _TECH, math.inf, 1.0), "rental rate must be finite and >= 0, got inf"),
        (lambda: caw.solve_capped_labor_market(make_scenario(), math.nan),
         "rental rate must be finite and >= 0, got nan"),
        (lambda: caw.solve_statics_point(caw.StaticsSetup(_CES, 0.0, _SUPPLY, 1.0)),
         "l_eff_demand must be finite and > 0, got 0.0"),
        (lambda: caw.solve_statics_point(caw.StaticsSetup(_CES, 1.0, _SUPPLY, math.inf)),
         "w_a_eff must be finite and > 0, got inf"),
        # A message per bare number, as _NUMBERS checks for every one. These said "factor prices must be
        # finite and > 0, got (-1.0, 1.0)", "output value must be > 0, got 0.0", "curve evaluated at
        # non-positive price nan", and nothing: classify_regime returned MIXED.
        (lambda: caw.unit_cost(_CES, -1.0, 1.0), "w_h must be finite and > 0, got -1.0"),
        (lambda: caw.factor_shares(1.0, 1.0, 1.0, 1.0, 0.0), "y must be finite and > 0, got 0.0"),
        (lambda: _SUPPLY.quantity(math.nan), "price must be finite and > 0, got nan"),
        (lambda: caw.classify_regime(math.nan, 1.0, 1e-9), "w_h_candidate must be finite and >= 0, got nan"),
    ],
)
def test_library_rule_messages(call, message):
    with pytest.raises(InvalidInput) as info:
        call()
    assert str(info.value) == message


def test_a_part_that_passed_once_is_checked_again_after_a_failure():
    # The check keeps no state: a part that passed once does not excuse a broken one later.
    caw.caw_ceiling(_TECH, 1.0)
    bad = _TECH._replace(k=math.nan)
    for _ in range(2):
        with pytest.raises(InvalidInput, match="^k must be finite"):
            caw.caw_ceiling(bad, 1.0)
    assert caw.caw_ceiling(_TECH, 1.0) == _TECH.lam * _TECH.k


@pytest.mark.parametrize(
    "curve, price, expected",
    [
        (demand_curve(1e-200, 2.0), 1e-171, 1e142),  # the power 1e342 overflows
        (demand_curve(1e300, 2.0), 1e200, 1e-100),  # the power 1e-400 underflows
        (supply_curve(1e-300, 3.0), 1e110, 1e30),
        (supply_curve(1e300, 3.0), 1e-110, 1e-30),
    ],
)
def test_curve_quantity_in_range_where_the_power_alone_is_not(curve, price, expected):
    assert curve.quantity(price) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "curve, price, expected",
    [
        (supply_curve(-1.0, 1.0), 1e-310, -1e-310),  # the power is subnormal
        (demand_curve(-2.0, 2.0), 1e-200, -math.inf),  # the power overflows
    ],
)
def test_curve_quantity_with_a_scale_outside_the_rule_is_the_plain_product(curve, price, expected):
    # A scale outside the curve rule has no log, so the product is not retaken in logs.
    assert curve.quantity(price) == expected


def test_curve_quantity_beyond_the_float_range_is_inf_or_zero():
    assert supply_curve(1e300, 3.0).quantity(1e110) == math.inf
    assert demand_curve(1e-300, 3.0).quantity(1e110) == 0.0


@given(
    st.floats(min_value=-300.0, max_value=300.0), st.floats(min_value=-300.0, max_value=300.0),
    st.floats(min_value=0.0, max_value=50.0), st.sampled_from([supply_curve, demand_curve]),
)
def test_curve_quantity_with_a_normal_power_is_the_plain_product(log_scale, log_price, elasticity, make):
    curve, price = make(10.0**log_scale, elasticity), 10.0**log_price
    try:
        power = price ** (elasticity if curve.kind is CurveKind.SUPPLY else -elasticity)
    except OverflowError:
        return
    if sys.float_info.min <= power and elasticity > 0.0:
        assert curve.quantity(price) == curve.scale * power


def _power_law_reference(scale, exponent, price):
    """scale * price**exponent in 50-digit decimal arithmetic: by repeated
    products at an integral exponent, else as exp(exponent * ln(price))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        if exponent == int(exponent):
            return Decimal(scale) * Decimal(price) ** int(exponent)
        return Decimal(scale) * (Decimal(exponent) * Decimal(price).ln()).exp()


def test_power_law_matches_a_50_digit_reference_over_the_float_range():
    # Scales and prices log-uniform in 1e-300..1e300 and exponents of 0,
    # +/-1..3 or uniform in [-3, 3]: a normal result lies within 1e-12 of the
    # reference, and the result is inf exactly where the reference overflows
    # and below the normal range exactly where it underflows. Draws within
    # 1e-12 of either edge are skipped: either answer is right there.
    rng = random.Random(20260)
    exponents = (0.0, 1.0, 2.0, 3.0, -1.0, -2.0, -3.0)
    high, low = Decimal(sys.float_info.max), Decimal(sys.float_info.min)
    checked = {"normal": 0, "inf": 0, "below": 0}
    for _ in range(2000):
        scale, price = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
        exponent = rng.choice(exponents) if rng.random() < 0.5 else rng.uniform(-3.0, 3.0)
        got, ref = power_law(scale, exponent, price), _power_law_reference(scale, exponent, price)
        if abs(ref / high - 1) < Decimal("1e-12") or abs(ref / low - 1) < Decimal("1e-12"):
            continue
        if ref > high:
            assert got == math.inf, (scale, exponent, price)
            checked["inf"] += 1
        elif ref < low:
            assert 0.0 <= got < sys.float_info.min, (scale, exponent, price)
            checked["below"] += 1
        else:
            assert abs(Decimal(got) / ref - 1) <= Decimal("1e-12"), (scale, exponent, price)
            checked["normal"] += 1
    assert min(checked.values()) > 0, checked


# --- the float-range rule ----------------------------------------------------------

_TINY = 1e-310  # subnormal: it keeps about 14 of a double's 16 digits


@pytest.mark.parametrize("value", [sys.float_info.min, 1.0, 2.5e-300, sys.float_info.max])
@pytest.mark.parametrize("zero", [False, True])
def test_a_normal_value_comes_back_as_the_same_object(value, zero):
    value = float(value)  # a fresh object per call
    assert in_float_range(value, "x", math.log(value) + 1.0, zero=zero) is value


@pytest.mark.parametrize("zero", [False, True])
def test_a_value_beyond_the_normal_range_is_recomputed_from_its_log(zero):
    assert in_float_range(_TINY, "x", math.log(3e-300), zero=zero) == math.exp(math.log(3e-300))
    assert in_float_range(math.inf, "x", math.log(1e300), zero=zero) == math.exp(math.log(1e300))


@pytest.mark.parametrize(
    "value, log_value",
    [
        (0.0, None), (0.0, -800.0), (0.0, -math.inf), (_TINY, None), (_TINY, math.log(_TINY)),
        (math.inf, None), (math.inf, 800.0), (math.nan, None), (math.nan, math.nan), (-1.0, None),
    ],
)
def test_values_outside_the_normal_range_raise_one_error(value, log_value):
    with raises_range_error("x"):
        in_float_range(value, "x", log_value)


@pytest.mark.parametrize(
    "value, log_value, expected",
    [(0.0, None, 0.0), (0.0, -800.0, 0.0), (_TINY, None, _TINY), (0.0, math.log(_TINY), math.exp(math.log(_TINY)))],
)
def test_a_site_that_may_underflow_gets_its_underflow_back(value, log_value, expected):
    assert in_float_range(value, "x", log_value, zero=True) == expected


@pytest.mark.parametrize("value, log_value", [(math.inf, None), (math.inf, 800.0), (math.nan, None), (-0.5, None)])
def test_a_site_that_may_underflow_still_raises_on_overflow_and_nan(value, log_value):
    with raises_range_error("x"):
        in_float_range(value, "x", log_value, zero=True)
