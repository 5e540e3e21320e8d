import enum
import math

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
from caw.model import SECTIONS, Scenario
from conftest import make_scenario


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
        caw.sweep(make_scenario(), "technology.k", [1.0])[0],
        caw.table1()[0][0],
        caw.OutputTable(headers=("x",), rows=((1.0,),), metadata={"command": "x"}),
        find_root(lambda p: 1.0 - p, abs_tol=1e-12),
        FIELDS["policy.mu"],
        SECTIONS[0],
    ]
    return {type(r).__name__: r for r in records}


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
