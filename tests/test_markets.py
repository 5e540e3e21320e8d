import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caw import (
    SWEEPABLE_PARAMS,
    CawError,
    DegenerateCeiling,
    InvalidInput,
    NoEquilibrium,
    Regime,
    clear_market,
    demand_curve,
    solve_capped_labor_market,
    solve_compute_market,
    solve_coupled,
    scenario_with,
    solve_scenario,
    supply_curve,
)
from caw import markets
from conftest import make_scenario, rel_err


# --- clear_market ------------------------------------------------------------


def test_clear_market_closed_form_example():
    point = clear_market(supply_curve(1.0, 1.0), demand_curve(4.0, 1.0))
    assert point.price == pytest.approx(2.0, rel=1e-14)
    assert point.quantity == pytest.approx(2.0, rel=1e-14)


def test_clear_market_equal_scales_unit_price():
    point = clear_market(supply_curve(3.0, 0.7), demand_curve(3.0, 1.4))
    assert point.price == pytest.approx(1.0, rel=1e-14)
    assert point.quantity == pytest.approx(3.0, rel=1e-14)


def test_clear_market_fixed_supply():
    point = clear_market(supply_curve(2.0, 0.0), demand_curve(8.0, 1.0))
    assert point.price == pytest.approx(4.0, rel=1e-14)
    assert point.quantity == pytest.approx(2.0, rel=1e-14)


def test_clear_market_both_inelastic_equal_scales():
    point = clear_market(supply_curve(3.0, 0.0), demand_curve(3.0, 0.0))
    assert (point.price, point.quantity) == (1.0, 3.0)


def test_clear_market_both_inelastic_unequal_raises():
    with pytest.raises(NoEquilibrium):
        clear_market(supply_curve(2.0, 0.0), demand_curve(3.0, 0.0))


@pytest.mark.parametrize("d0", [10.0, 0.1])
def test_clear_market_price_beyond_float_range_raises(d0):
    # (D0/S0)**(1/0.001) over- or underflows a float.
    with pytest.raises(NoEquilibrium):
        clear_market(supply_curve(1.0, 0.0), demand_curve(d0, 0.001))


def test_clear_market_kind_mismatch_rejected():
    with pytest.raises(InvalidInput):
        clear_market(demand_curve(1.0, 1.0), demand_curve(4.0, 1.0))


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=3.0),
)
def test_clearing_point_balances_supply_and_demand(s0, d0, es, ed):
    supply = supply_curve(s0, es)
    demand = demand_curve(d0, ed)
    point = clear_market(supply, demand)
    assert point.price > 0.0
    assert rel_err(supply.quantity(point.price), demand.quantity(point.price)) < 1e-12
    assert point.quantity == supply.quantity(point.price)


def test_closed_form_and_root_search_agree_on_random_draws():
    rng = random.Random(99)
    for _ in range(1000):
        s0 = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        d0 = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        es = rng.uniform(0.0, 3.0)
        ed = rng.uniform(0.1, 3.0)
        supply = supply_curve(s0, es)
        demand = demand_curve(d0, ed)
        closed = clear_market(supply, demand, method="closed_form")
        searched = clear_market(supply, demand, method="root_search")
        assert rel_err(searched.price, closed.price) < 1e-10


# --- compute market ------------------------------------------------------------


def test_compute_market_symmetric_scales(baseline_scenario):
    s = make_scenario(compute_supply=(2.0, 1.0), compute_demand=(2.0, 1.5))
    assert solve_compute_market(s).price == pytest.approx(1.0, rel=1e-14)


def test_compute_market_reproduces_rental_anchor(baseline_scenario):
    # Supply (1, 1) vs demand (4, 1) clears at the 2/hour rental anchor.
    assert solve_compute_market(baseline_scenario).price == pytest.approx(2.0, rel=1e-14)


def test_compute_market_inelastic_supply():
    s = make_scenario(compute_supply=(3.0, 0.0), compute_demand=(3.0, 2.0))
    point = solve_compute_market(s)
    assert point.price == pytest.approx(1.0, rel=1e-14)
    assert point.quantity == pytest.approx(3.0, rel=1e-14)


def test_compute_market_requires_exogenous_demand():
    s = make_scenario(compute_demand=None)
    with pytest.raises(InvalidInput):
        solve_compute_market(s)


# --- capped labor market --------------------------------------------------------


def test_capped_market_binding_worked_example(baseline_scenario):
    res = solve_capped_labor_market(baseline_scenario, 2.0)
    assert res.regime is Regime.MIXED
    assert res.ceiling_binds
    assert res.w_h_star == pytest.approx(2.0, rel=1e-12)
    assert res.labor_demand_at_wage == pytest.approx(5.0, rel=1e-12)
    assert res.l_h_star == pytest.approx(2.0, rel=1e-12)
    assert res.l_a_star == pytest.approx(3.0, rel=1e-12)
    assert res.k_c_star == pytest.approx(3.0, rel=1e-12)


def test_capped_market_slack_ceiling(baseline_scenario):
    s = make_scenario(lam=5.0)  # ceiling 10 > sqrt(10)
    res = solve_capped_labor_market(s, 2.0)
    assert res.regime is Regime.HUMAN_ONLY
    assert not res.ceiling_binds
    assert res.w_h_star == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert res.l_h_star == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert res.l_a_star == 0.0
    assert res.k_c_star == 0.0


def test_capped_market_zero_ceiling_unbounded_demand_raises(baseline_scenario):
    with pytest.raises(DegenerateCeiling):
        solve_capped_labor_market(baseline_scenario, 0.0)


def test_capped_market_rejects_negative_rental_rate(baseline_scenario):
    with pytest.raises(InvalidInput):
        solve_capped_labor_market(baseline_scenario, -1.0)


def test_capped_market_zero_ceiling_bounded_demand():
    s = make_scenario(labor_demand=(4.0, 0.0))
    res = solve_capped_labor_market(s, 0.0)
    assert res.w_h_star == 0.0
    assert res.l_a_star == pytest.approx(4.0, rel=1e-12)


def test_capped_market_exact_boundary_counts_as_binding():
    # Clearing wage sqrt(10) with ceiling exactly sqrt(10).
    s = make_scenario(lam=math.sqrt(10.0) / 2.0)
    res = solve_capped_labor_market(s, 2.0)
    assert res.ceiling_binds
    assert res.regime is Regime.MIXED
    assert res.l_a_star == 0.0


def test_k_c_equals_k_times_agent_labor():
    s = make_scenario(k=0.05)
    res = solve_capped_labor_market(s, 2.0)
    assert res.k_c_star == res.l_a_star * 0.05


def test_policy_raises_ceiling(baseline_scenario):
    taxed = make_scenario(tau_c=0.5)
    res_base = solve_capped_labor_market(baseline_scenario, 2.0)
    res_taxed = solve_capped_labor_market(taxed, 2.0)
    assert res_taxed.ceiling == pytest.approx(1.5 * res_base.ceiling, rel=1e-14)


def test_market_accounting_identity(baseline_scenario):
    # Effective labor supplied equals demand at the equilibrium wage.
    for s, r_c in ((baseline_scenario, 2.0), (make_scenario(lam=5.0), 2.0)):
        res = solve_capped_labor_market(s, r_c)
        effective = res.l_h_star + res.l_a_star / s.technology.lam
        assert rel_err(effective, s.labor_demand_ts.quantity(res.w_h_star)) < 1e-10


# --- price-setter migration (binding vs slack) ------------------------------------


def test_binding_wage_ignores_labor_supply_scale(baseline_scenario):
    res = solve_capped_labor_market(baseline_scenario, 2.0)
    assert res.ceiling_binds
    for factor in (0.9, 1.1):
        perturbed = make_scenario(labor_supply=(factor, 1.0))
        res_p = solve_capped_labor_market(perturbed, 2.0)
        assert rel_err(res_p.w_h_star, res.w_h_star) < 1e-10
        assert res_p.l_h_star != res.l_h_star


def test_slack_wage_tracks_labor_supply_scale():
    s = make_scenario(lam=5.0)
    res = solve_capped_labor_market(s, 2.0)
    assert not res.ceiling_binds
    for factor in (0.9, 1.1):
        perturbed = make_scenario(lam=5.0, labor_supply=(factor, 1.0))
        res_p = solve_capped_labor_market(perturbed, 2.0)
        assert rel_err(res_p.w_h_star, res.w_h_star) > 1e-3


def test_lockstep_shift_of_compute_supply(baseline_scenario):
    # Scaling compute supply re-prices the rental rate by the closed-form
    # factor and moves the binding wage by exactly the ceiling multiplier.
    base_rc = solve_compute_market(baseline_scenario).price
    base = solve_capped_labor_market(baseline_scenario, base_rc)
    assert base.ceiling_binds
    for c in (0.5, 0.8):
        shifted = make_scenario(compute_supply=(c, 1.0))
        rc = solve_compute_market(shifted).price
        res = solve_capped_labor_market(shifted, rc)
        expected_rc = (4.0 / c) ** 0.5
        assert rel_err(rc, expected_rc) < 1e-12
        assert res.ceiling_binds
        assert rel_err(res.w_h_star / base.w_h_star, rc / base_rc) < 1e-12


# --- coupled fixed point -----------------------------------------------------------


def test_coupled_reduces_to_exogenous_market_when_agents_unused():
    # Tiny labor demand: the ceiling never binds, so agent compute demand
    # is zero and the exogenous clearing must be reproduced.
    s = make_scenario(labor_demand=(0.01, 1.0))
    res = solve_coupled(s)
    assert res.l_a_star == 0.0
    assert rel_err(res.r_c_star, solve_compute_market(s).price) < 1e-9


def test_coupled_decoupled_when_ceiling_never_binds():
    s = make_scenario(lam=100.0)
    res = solve_coupled(s)
    assert res.l_a_star == 0.0
    assert rel_err(res.r_c_star, 2.0) < 1e-9


def test_coupled_fixed_point_matches_cubic_oracle():
    # Compute supply elasticity 2, no exogenous demand: clearing requires
    # r**2 = 10/r - r, i.e. r**3 + r**2 = 10. Bisection oracle on the cubic.
    s = make_scenario(compute_supply=(1.0, 2.0), compute_demand=None)
    res = solve_coupled(s)
    lo, hi = 0.1, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid**3 + mid**2 - 10.0 > 0.0:
            hi = mid
        else:
            lo = mid
    oracle_root = 0.5 * (lo + hi)
    assert abs(res.r_c_star - oracle_root) < 1e-8
    assert res.ceiling_binds


def test_coupled_fixed_point_both_unit_elasticities():
    # With both compute elasticities 1 the clearing condition is
    # r = 10/r - r, so r* = sqrt(5).
    s = make_scenario(compute_supply=(1.0, 1.0), compute_demand=None)
    res = solve_coupled(s)
    assert rel_err(res.r_c_star, math.sqrt(5.0)) < 1e-9


def test_coupled_residual_within_tolerance():
    s = make_scenario(compute_supply=(1.0, 2.0), compute_demand=None)
    res = solve_coupled(s)
    derived = res.k_c_star
    excess = derived - s.compute_supply.quantity(res.r_c_star)
    assert abs(excess) <= 1e-9 * s.compute_supply.scale


def test_coupled_with_exogenous_and_derived_demand():
    s = make_scenario()
    res = solve_coupled(s)
    total_demand = res.k_c_star + s.compute_demand_exogenous.quantity(res.r_c_star)
    supplied = s.compute_supply.quantity(res.r_c_star)
    assert rel_err(total_demand, supplied) < 1e-8
    # Exogenous demand raises the rental rate above the derived-only level.
    derived_only = solve_coupled(make_scenario(compute_demand=None))
    assert res.r_c_star > derived_only.r_c_star


def test_solve_scenario_modes(baseline_scenario):
    capped = solve_scenario(baseline_scenario, "capped")
    assert capped.r_c_star == pytest.approx(2.0, rel=1e-12)
    coupled = solve_scenario(baseline_scenario, "coupled")
    assert coupled.r_c_star > capped.r_c_star  # agent demand adds to compute demand
    with pytest.raises(InvalidInput):
        solve_scenario(baseline_scenario, "newton")


# --- coupled solve work and the hoisted excess --------------------------------------


def _capture_find_root(monkeypatch):
    """Record every (excess, report) pair passed through markets.find_root."""
    calls = []
    real = markets.find_root

    def spy(excess, **kwargs):
        report = real(excess, **kwargs)
        calls.append((excess, report))
        return report

    monkeypatch.setattr(markets, "find_root", spy)
    return calls


def test_baseline_coupled_solve_evaluation_budget(monkeypatch, baseline_scenario):
    calls = _capture_find_root(monkeypatch)
    res = solve_coupled(baseline_scenario)
    [(_excess, report)] = calls
    assert report.evaluations <= 24
    assert report.root == res.r_c_star


@pytest.mark.parametrize(
    "scenario",
    [
        make_scenario(),
        make_scenario(k=0.3, lam=2.5, tau_c=0.2, mu=1.3, compute_demand=None),
        make_scenario(labor_demand=(7.0, 0.4), labor_supply=(2.0, 1.7)),
    ],
)
def test_hoisted_excess_matches_full_capped_solve_bit_for_bit(monkeypatch, scenario):
    calls = _capture_find_root(monkeypatch)
    solve_coupled(scenario)
    [(excess, _report)] = calls
    w_clear = clear_market(scenario.labor_supply_ts, scenario.labor_demand_ts).price
    # Rental rates whose ceiling crosses the clearing wage, including the
    # floats right next to the crossing.
    tech, policy = scenario.technology, scenario.policy
    r_cross = w_clear / (tech.lam * tech.k * (1.0 + policy.tau_c) * policy.mu)
    grid = [r_cross * math.exp(0.01 * i) for i in range(-40, 41)]
    near = r_cross
    for _ in range(4):
        near = math.nextafter(near, 0.0)
        grid.append(near)
    near = r_cross
    for _ in range(4):
        near = math.nextafter(near, math.inf)
        grid.append(near)
    sides = set()
    for r_c in grid:
        full = solve_capped_labor_market(scenario, r_c)
        sides.add(full.l_a_star > 0.0)
        exogenous = (
            scenario.compute_demand_exogenous.quantity(r_c)
            if scenario.compute_demand_exogenous is not None
            else 0.0
        )
        expected = full.k_c_star + exogenous - scenario.compute_supply.quantity(r_c)
        assert excess(r_c) == expected
    assert sides == {True, False}


# --- the capped batch kernel ---------------------------------------------------------


_positive = st.floats(min_value=1e-3, max_value=1e3)
_elasticity = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    lam=_positive,
    k=_positive,
    compute=st.one_of(st.none(), st.tuples(_positive, _elasticity)),
    curves=st.tuples(_positive, _elasticity, _positive, _elasticity, _positive, _elasticity),
    tau_c=st.floats(min_value=0.0, max_value=2.0),
    mu=st.floats(min_value=1.0, max_value=3.0),
)
def test_capped_batch_equals_one_solve_per_point(data, lam, k, compute, curves, tau_c, mu):
    # Shared stages (compute price, labor clearing) give each row exactly what
    # solving that point on its own gives, errors included.
    cs, cs_e, ld, ld_e, ls, ls_e = curves
    s = make_scenario(lam=lam, k=k, compute_supply=(cs, cs_e), compute_demand=compute,
                      labor_demand=(ld, ld_e), labor_supply=(ls, ls_e), tau_c=tau_c, mu=mu)
    params = [p for p in SWEEPABLE_PARAMS if compute is not None or not p.startswith("compute_demand")]
    param = data.draw(st.sampled_from(params))
    values = data.draw(st.lists(_positive, min_size=1, max_size=6))
    for value, row in zip(values, markets.solve_capped_batch(s, param, values), strict=True):
        try:
            direct = solve_scenario(scenario_with(s, param, value), "capped")
        except CawError as exc:
            assert isinstance(row, CawError) and str(row) == str(exc)
        else:
            assert repr(row) == repr(direct)


def test_capped_batch_shares_a_stage_error_with_every_row():
    s = make_scenario(compute_demand=None)
    rows = markets.solve_capped_batch(s, "technology.lambda", [1.0, 2.0])
    assert [str(r) for r in rows] == ["scenario has no exogenous compute demand to clear against"] * 2
    with pytest.raises(InvalidInput, match="no exogenous compute demand"):
        solve_scenario(s, "capped")


def test_capped_batch_rejects_unknown_or_absent_fields(baseline_scenario):
    with pytest.raises(InvalidInput, match="unknown sweep parameter"):
        markets.solve_capped_batch(baseline_scenario, "ces.sigma", [1.0])
    with pytest.raises(InvalidInput, match="no compute_demand to sweep"):
        markets.solve_capped_batch(make_scenario(compute_demand=None), "compute_demand.scale", [1.0])
