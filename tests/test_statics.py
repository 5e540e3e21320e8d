import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caw import (
    CawError,
    CeilingNotBinding,
    CesParams,
    Infeasible,
    InvalidInput,
    NoEquilibrium,
    Regime,
    SWEEPABLE_PARAMS,
    StaticsSetup,
    Technology,
    caw_trajectory,
    ces_output,
    demand_curve,
    relative_wage,
    semi_elasticity,
    solve_coupled,
    solve_scenario,
    solve_statics_point,
    supply_curve,
    sweep,
    validate_scenario,
    wage_bill_response,
)
from caw import constants, markets
from caw.model import IsoElasticCurve
from conftest import make_scenario, rel_err, with_field

SYM = CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=2.0)


# --- solve_statics_point -----------------------------------------------------


def test_statics_point_symmetric_fixed_supply():
    su = StaticsSetup(ces=SYM, l_eff_demand=1.0, labor_supply=supply_curve(1.0, 0.0), w_a_eff=1.0)
    point = solve_statics_point(su)
    assert (point.w_h, point.l_h, point.l_a) == (1.0, 1.0, 1.0)


def test_statics_point_wage_scales_with_agent_wage():
    su = StaticsSetup(ces=SYM, l_eff_demand=1.0, labor_supply=supply_curve(1.0, 0.0), w_a_eff=2.0)
    point = solve_statics_point(su)
    assert (point.w_h, point.l_h, point.l_a) == (2.0, 1.0, 1.0)


def test_statics_point_elastic_supply_satisfies_all_conditions():
    su = StaticsSetup(ces=SYM, l_eff_demand=1.0, labor_supply=supply_curve(1.0, 1.0), w_a_eff=1.0)
    point = solve_statics_point(su)
    assert rel_err(point.l_h, su.labor_supply.quantity(point.w_h)) < 1e-10
    assert rel_err(ces_output(su.ces, point.l_h, point.l_a), su.l_eff_demand) < 1e-10
    assert rel_err(point.w_h / su.w_a_eff, relative_wage(su.ces, point.l_h, point.l_a)) < 1e-10


def test_statics_point_infeasible_under_complements():
    # sigma < 1 with too little fixed human labor: no amount of agent labor
    # reaches the output target.
    ces = CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=0.5)
    su = StaticsSetup(ces=ces, l_eff_demand=1.0, labor_supply=supply_curve(0.1, 0.0), w_a_eff=1.0)
    with pytest.raises(Infeasible):
        solve_statics_point(su)


def test_statics_point_rejects_bad_setup():
    with pytest.raises(InvalidInput):
        solve_statics_point(
            StaticsSetup(ces=SYM, l_eff_demand=0.0, labor_supply=supply_curve(1.0, 0.0), w_a_eff=1.0)
        )
    with pytest.raises(InvalidInput):
        solve_statics_point(
            StaticsSetup(ces=SYM, l_eff_demand=1.0, labor_supply=supply_curve(0.0, 1.0), w_a_eff=1.0)
        )


def test_statics_point_rejects_fixed_proportions():
    # At fixed proportions the relative-wage condition does not pin w_h.
    for elasticity in (0.0, 1.0):
        ces = CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=1e-5)
        su = StaticsSetup(
            ces=ces, l_eff_demand=1.0, labor_supply=supply_curve(1.0, elasticity), w_a_eff=1.0
        )
        with pytest.raises(InvalidInput, match=repr(constants.SIGMA_LEONTIEF_THRESHOLD)):
            solve_statics_point(su)


def test_statics_point_linear_corner_is_infeasible():
    # Perfect substitutes: humans alone meet the target at w_h = 2, below the
    # agent wage 3, so the wage gap only changes sign where agents leave.
    ces = CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=1e7)
    su = StaticsSetup(ces=ces, l_eff_demand=1.0, labor_supply=supply_curve(1.0, 1.0), w_a_eff=3.0)
    with pytest.raises(Infeasible, match="agents are not employed"):
        solve_statics_point(su)
    point = solve_statics_point(su._replace(w_a_eff=1.0))
    assert rel_err(point.w_h, 1.0) < 1e-6 and point.l_a > 0.0


@pytest.mark.parametrize("scale", [1e-40, 1e40])
def test_statics_point_agent_labor_beyond_float_range_is_infeasible(scale):
    # Cobb-Douglas with exponents 0.95/0.05: l_a = l_h**-19, beyond any float.
    ces = CesParams(A=1.0, alpha=0.95, beta=0.05, sigma=1.0)
    su = StaticsSetup(ces=ces, l_eff_demand=1.0, labor_supply=supply_curve(scale, 0.0), w_a_eff=1.0)
    with pytest.raises(Infeasible, match="floating-point range"):
        solve_statics_point(su)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("supply_elasticity", [0.25, 0.5, 1.0, 2.0])
def test_statics_point_supply_evaluation_budget(monkeypatch, sigma, supply_elasticity):
    calls = 0
    quantity = IsoElasticCurve.quantity

    def counted(curve, price):
        nonlocal calls
        calls += 1
        return quantity(curve, price)

    monkeypatch.setattr(IsoElasticCurve, "quantity", counted)
    ces = CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=sigma)
    su = StaticsSetup(
        ces=ces, l_eff_demand=1.0, labor_supply=supply_curve(0.8, supply_elasticity), w_a_eff=1.0
    )
    solve_statics_point(su)
    assert calls <= 20


# --- semi_elasticity -----------------------------------------------------------

_BRANCH_SIGMA = {
    "general": st.floats(min_value=0.2, max_value=20.0),
    "cobb_douglas": st.just(1.0),
    "linear": st.floats(min_value=1e6, max_value=1e8),
    "leontief": st.floats(min_value=1e-6, max_value=1e-4),
}
_positive = st.floats(min_value=0.1, max_value=10.0)


@given(
    sigma=st.sampled_from(sorted(_BRANCH_SIGMA)).flatmap(_BRANCH_SIGMA.get),
    A=_positive,
    alpha=st.floats(min_value=0.05, max_value=0.95),
    beta=st.floats(min_value=0.05, max_value=0.95),
    demand=_positive,
    scale=_positive,
    elasticity=st.floats(min_value=0.0, max_value=3.0),
    w_a_eff=_positive,
)
def test_semi_elasticity_fails_only_with_caw_errors(
    sigma, A, alpha, beta, demand, scale, elasticity, w_a_eff
):
    su = StaticsSetup(
        ces=CesParams(A=A, alpha=alpha, beta=beta, sigma=sigma),
        l_eff_demand=demand,
        labor_supply=supply_curve(scale, elasticity),
        w_a_eff=w_a_eff,
    )
    try:
        se = semi_elasticity(su)
    except CawError:
        return
    fields = (se.direct, se.fd, se.fd_forward, se.fd_backward, se.base.w_h, se.base.l_h, se.base.l_a)
    assert all(math.isfinite(v) for v in fields)


def test_inelastic_supply_gives_unit_passthrough_exactly():
    for sigma in (0.5, 2.0, 5.0):
        ces = CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=sigma)
        su = StaticsSetup(
            ces=ces, l_eff_demand=1.0, labor_supply=supply_curve(0.8, 0.0), w_a_eff=1.0
        )
        se = semi_elasticity(su, rel_step=1e-4)
        assert abs(se.direct - 1.0) <= 1e-10
        assert abs(se.fd - 1.0) <= 1e-10


@pytest.mark.parametrize("sigma", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("supply_elasticity", [0.0, 0.5, 1.0, 2.0])
def test_direct_formula_matches_finite_difference(sigma, supply_elasticity):
    ces = CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=sigma)
    su = StaticsSetup(
        ces=ces,
        l_eff_demand=1.0,
        labor_supply=supply_curve(0.8, supply_elasticity),
        w_a_eff=1.0,
    )
    se = semi_elasticity(su, rel_step=1e-4)
    assert abs(se.direct - se.fd) <= max(1e-4, 1e-3 * abs(se.fd))


def test_passthrough_below_one_with_elastic_supply():
    # An upward-sloping supply curve absorbs part of the agent-wage change.
    su = StaticsSetup(ces=SYM, l_eff_demand=1.0, labor_supply=supply_curve(0.8, 1.0), w_a_eff=1.0)
    se = semi_elasticity(su, rel_step=1e-4)
    assert 0.0 < se.fd < 1.0


def test_perfect_substitute_limit_full_passthrough():
    ces = CesParams(A=1.0, alpha=0.6, beta=0.4, sigma=1e6)
    su = StaticsSetup(ces=ces, l_eff_demand=2.0, labor_supply=supply_curve(1.0, 1.0), w_a_eff=1.0)
    se = semi_elasticity(su, rel_step=1e-4)
    assert abs(se.fd - 1.0) < 1e-3


def test_one_sided_differences_bracket_the_centered_one():
    su = StaticsSetup(ces=SYM, l_eff_demand=1.0, labor_supply=supply_curve(0.8, 1.0), w_a_eff=1.0)
    se = semi_elasticity(su, rel_step=1e-3)
    assert min(se.fd_forward, se.fd_backward) <= se.fd <= max(se.fd_forward, se.fd_backward)


def test_rel_step_bounds_enforced():
    su = StaticsSetup(ces=SYM, l_eff_demand=1.0, labor_supply=supply_curve(1.0, 0.0), w_a_eff=1.0)
    with pytest.raises(InvalidInput):
        semi_elasticity(su, rel_step=0.5)


# --- caw_trajectory -------------------------------------------------------------


def test_trajectory_halves_per_unit_time_at_log2_rate():
    points = caw_trajectory(Technology(lam=1.0, k=1.0, g=math.log(2.0)), 2.0, [0.0, 1.0])
    assert points[0] == (0.0, 2.0)
    assert points[1][1] == pytest.approx(1.0, rel=1e-14)


def test_trajectory_constant_without_improvement():
    points = caw_trajectory(Technology(lam=1.0, k=1.0, g=0.0), 2.0, [0.0, 100.0])
    assert [c for _, c in points] == [2.0, 2.0]


def test_trajectory_reference_row():
    points = caw_trajectory(Technology(lam=2.0, k=1.0, g=math.log(2.0)), 5.0, [0.0, 1.0, 2.0])
    ceilings = [c for _, c in points]
    assert ceilings[0] == 10.0
    assert ceilings[1] == pytest.approx(5.0, rel=1e-14)
    assert ceilings[2] == pytest.approx(2.5, rel=1e-14)


def test_trajectory_decay_ratio_identity():
    tech = Technology(lam=1.3, k=0.7, g=0.35)
    grid = [0.1 * i for i in range(100)]
    points = caw_trajectory(tech, 2.0, grid)
    base = points[0][1] / math.exp(-tech.g * points[0][0])
    for t, ceiling in points:
        assert rel_err(ceiling / base, math.exp(-tech.g * t)) < 1e-12


def test_trajectory_strictly_decreasing_when_improving():
    points = caw_trajectory(Technology(lam=1.0, k=1.0, g=0.2), 2.0, [0.0, 0.5, 1.5, 4.0])
    ceilings = [c for _, c in points]
    assert all(a > b for a, b in zip(ceilings, ceilings[1:]))


def test_trajectory_rejects_descending_grid():
    with pytest.raises(InvalidInput):
        caw_trajectory(Technology(lam=1.0, k=1.0), 2.0, [1.0, 0.5])


# --- wage_bill_response -----------------------------------------------------------


def test_wage_and_bill_both_fall():
    res = wage_bill_response(demand_curve(4.0, 1.0), supply_curve(1.0, 1.0), 2.0, 1.0)
    assert res.before.bill == pytest.approx(4.0, rel=1e-14)
    assert res.after.bill == pytest.approx(1.0, rel=1e-14)
    assert res.before.employment == pytest.approx(2.0, rel=1e-14)
    assert res.after.employment == pytest.approx(1.0, rel=1e-14)


def test_wage_falls_bill_flat_with_elastic_demand():
    res = wage_bill_response(
        demand_curve(4.0, 3.0), supply_curve(1.0, 1.0), 2.0, 1.0, check_binding=False
    )
    assert res.before.employment == pytest.approx(0.5, rel=1e-14)
    assert res.after.employment == pytest.approx(1.0, rel=1e-14)
    assert res.before.bill == pytest.approx(1.0, rel=1e-14)
    assert res.after.bill == pytest.approx(1.0, rel=1e-14)


def test_unchanged_ceiling_is_a_noop():
    res = wage_bill_response(demand_curve(4.0, 1.0), supply_curve(1.0, 1.0), 2.0, 2.0)
    assert res.before == res.after


def test_bill_equals_wage_times_employment_and_caps_both_curves():
    res = wage_bill_response(demand_curve(4.0, 1.0), supply_curve(1.0, 1.0), 2.0, 1.0)
    for state, demand in ((res.before, demand_curve(4.0, 1.0)), (res.after, demand_curve(4.0, 1.0))):
        assert state.bill == state.wage * state.employment
        assert state.employment <= demand.quantity(state.wage)
        assert state.employment <= supply_curve(1.0, 1.0).quantity(state.wage)


def test_slack_ceiling_raises_by_default():
    with pytest.raises(CeilingNotBinding):
        wage_bill_response(demand_curve(4.0, 3.0), supply_curve(1.0, 1.0), 2.0, 1.0)


# --- sweep ----------------------------------------------------------------------


def test_sweep_over_compute_supply_scale_orders_wages():
    s = make_scenario()
    rows = sweep(s, "compute_supply.scale", [1.0, 2.0, 4.0])
    wages = [row.result.w_h_star for row in rows]
    # More compute supply lowers the rental rate and the binding wage.
    assert wages[0] > wages[1] > wages[2]
    for row, scale in zip(rows, (1.0, 2.0, 4.0)):
        expected_rc = (4.0 / scale) ** 0.5
        assert rel_err(row.result.r_c_star, expected_rc) < 1e-12
        assert rel_err(row.result.w_h_star, expected_rc) < 1e-12


def test_sweep_lambda_reproduces_ceiling_column():
    s = make_scenario()
    rows = sweep(s, "technology.lambda", [0.5, 1.0, 2.0])
    assert [row.result.ceiling for row in rows] == [1.0, 2.0, 4.0]


def test_sweep_linearity_of_binding_wage_in_lambda():
    s = make_scenario()
    grid = [0.5, 0.75, 1.0, 1.25, 1.5]
    rows = sweep(s, "technology.lambda", grid)
    assert all(row.result.ceiling_binds for row in rows)
    slope = rows[0].result.w_h_star / grid[0]
    for value, row in zip(grid, rows):
        assert abs(row.result.w_h_star - slope * value) < 1e-10


def test_sweep_single_point_equals_direct_solve(baseline_scenario):
    from caw import solve_scenario

    rows = sweep(baseline_scenario, "technology.k", [1.0])
    assert rows[0].result == solve_scenario(baseline_scenario, "capped")


def test_sweep_records_row_errors_and_continues():
    s = make_scenario()
    rows = sweep(s, "technology.lambda", [1.0, -1.0, 2.0])
    assert rows[0].error is None
    assert rows[1].result is None and rows[1].error
    assert rows[2].error is None


def test_sweep_row_error_is_the_solver_message():
    # Inelastic compute supply below an inelastic exogenous demand has no
    # coupled equilibrium; above it, it has one.
    s = make_scenario(compute_supply=(1.0, 0.0), compute_demand=(3.0, 0.0))
    rows = sweep(s, "compute_supply.scale", [1.0, 5.0], solver="coupled")
    with pytest.raises(NoEquilibrium) as info:
        solve_coupled(with_field(s, "compute_supply.scale", 1.0))
    assert rows[0].result is None and rows[0].error == str(info.value)
    assert rows[1].error is None


def test_sweep_over_extreme_compute_elasticity_has_finite_rows():
    s = make_scenario()
    rows = sweep(s, "compute_supply.elasticity", [1.0, 40.0, 400.0], solver="coupled")
    for row in rows:
        assert row.error is None
        assert all(math.isfinite(v) for v in (row.result.r_c_star, row.result.k_c_star))


def test_sweep_does_not_swallow_program_errors(monkeypatch, baseline_scenario):
    # The capped batch kernel places every row against caw_ceiling.
    def broken(tech, r_c, policy=None):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(markets, "caw_ceiling", broken)
    with pytest.raises(ZeroDivisionError):
        sweep(baseline_scenario, "technology.k", [1.0])


@settings(max_examples=300, deadline=None)
@given(
    param=st.sampled_from(SWEEPABLE_PARAMS),
    value=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([0.0, -0.0, 1.0, -1.0])),
)
def test_sweep_checks_values_with_the_scenario_rules(param, value):
    # A swept value meets exactly the rule a scenario document meets.
    s = make_scenario()
    point = with_field(s, param, value)
    expected = [v.message for v in validate_scenario(point)]
    (row,) = sweep(s, param, [value])
    if expected:
        assert [row.error] == expected and row.result is None
        return
    try:
        direct, error = solve_scenario(point, "capped"), None
    except CawError as exc:
        direct, error = None, str(exc)
    assert (repr(row.result), row.error) == (repr(direct), error)


def test_sweep_row_for_a_nonfinite_value_names_the_rule(baseline_scenario):
    rows = sweep(baseline_scenario, "technology.lambda", [math.nan, 1.0], solver="coupled")
    assert rows[0].error == "lambda must be finite" and rows[0].result is None
    assert rows[1].error is None


def test_sweep_rejects_unknown_parameter(baseline_scenario):
    with pytest.raises(InvalidInput):
        sweep(baseline_scenario, "technology.quux", [1.0])


def test_sweep_coupled_solver(baseline_scenario):
    rows = sweep(baseline_scenario, "technology.lambda", [1.0], solver="coupled")
    assert rows[0].result.regime in (Regime.MIXED, Regime.HUMAN_ONLY)
    assert rows[0].result.r_c_star > 2.0
