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
    StaticsSetup,
    Technology,
    caw_trajectory,
    ces_output,
    demand_curve,
    relative_wage,
    semi_elasticity,
    solve_statics_point,
    supply_curve,
    wage_bill_response,
)
from caw import constants, model, statics
from caw.ces import _log_power_mean
from caw.model import CurveKind, IsoElasticCurve
from caw.roots import REACHABLE, find_root
from conftest import raises_range_error, rel_err

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


@pytest.mark.parametrize(
    "ces, demand, supply, w_a_eff",
    [
        (CesParams(1.0, -0.5, 0.5, 2.0), 1.0, supply_curve(1.0, 1.0), 1.0),  # a math domain error
        (CesParams(1.0, 0.5, 0.5, math.nan), 1.0, supply_curve(1.0, 1.0), 1.0),  # NoConvergence
        (CesParams(math.inf, 0.5, 0.5, 2.0), 1.0, supply_curve(1.0, 1.0), 1.0),
        (SYM, math.inf, supply_curve(1.0, 1.0), 1.0),  # NoEquilibrium
        (SYM, 1.0, supply_curve(1.0, 1.0), math.inf),
        (SYM, 1.0, supply_curve(1.0, -3.0), 1.0),  # direct = -0.5
        (SYM, 1.0, demand_curve(1.0, 1.0), 1.0),
    ],
)
def test_semi_elasticity_rejects_setups_outside_the_scenario_rules(ces, demand, supply, w_a_eff):
    su = StaticsSetup(ces=ces, l_eff_demand=demand, labor_supply=supply, w_a_eff=w_a_eff)
    with pytest.raises(InvalidInput):
        semi_elasticity(su)


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
    # agent wage 3, so no input ratio in reach employs agents.
    ces = CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=1e7)
    su = StaticsSetup(ces=ces, l_eff_demand=1.0, labor_supply=supply_curve(1.0, 1.0), w_a_eff=3.0)
    with pytest.raises(Infeasible, match="agents are not employed"):
        solve_statics_point(su)
    point = solve_statics_point(su._replace(w_a_eff=1.0))
    assert rel_err(point.w_h, 1.0) < 1e-6 and point.l_a > 0.0


@pytest.mark.parametrize("scale", [1e-40, 1e40])
def test_statics_point_wage_beyond_float_range_is_a_range_error(scale):
    # Cobb-Douglas with exponents 0.95/0.05: l_a = l_h**-19, and w_h with it, beyond any float.
    ces = CesParams(A=1.0, alpha=0.95, beta=0.05, sigma=1.0)
    su = StaticsSetup(ces=ces, l_eff_demand=1.0, labor_supply=supply_curve(scale, 0.0), w_a_eff=1.0)
    with raises_range_error("human wage"):
        solve_statics_point(su)


def test_cobb_douglas_human_labor_beyond_float_range_is_a_range_error():
    # The agents' exponent underflows to 0, so l_h = T/A = 1e-400 at a wage near 1e-100.
    ces = CesParams(A=1e200, alpha=1e300, beta=1e-300, sigma=1.0)
    su = StaticsSetup(ces=ces, l_eff_demand=1e-200, labor_supply=supply_curve(1e-300, 1.0), w_a_eff=1.0)
    with raises_range_error("human labor"):
        solve_statics_point(su)


def test_semi_elasticity_shifted_wage_beyond_float_range_is_a_range_error():
    # The base point solves, but w_a_eff * exp(rel_step) overflows; it was an InvalidInput.
    su = StaticsSetup(ces=SYM, l_eff_demand=1.0, labor_supply=supply_curve(1.0, 0.0), w_a_eff=1.7976e308)
    assert solve_statics_point(su).w_h > 0.0
    with raises_range_error("shifted agent wage w_a_eff*exp(+-rel_step)"):
        semi_elasticity(su)


# The ranges of perfbench's statics_grid pool.
_grid_positive = st.floats(min_value=0.4, max_value=2.5)
_grid_weight = st.floats(min_value=0.2, max_value=0.8)


def _grid_setups(test):
    """Run ``test`` on setups over those ranges, on every CES branch the pool searches or not."""
    test = pytest.mark.parametrize("supply_elasticity", [0.25, 0.5, 1.0, 2.0])(test)
    test = pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 5.0, 1e7])(test)
    test = given(
        A=st.floats(min_value=0.5, max_value=2.0),
        alpha=_grid_weight,
        beta=_grid_weight,
        demand=_grid_positive,
        scale=_grid_positive,
        w_a_eff=_grid_positive,
    )(test)
    return settings(max_examples=25, deadline=None)(test)


@_grid_setups
def test_statics_point_supply_evaluation_budget(
    sigma, supply_elasticity, A, alpha, beta, demand, scale, w_a_eff
):
    reports, supply_reads = [], 0
    quantity = IsoElasticCurve.quantity

    def spy(*args, **kwargs):
        reports.append(find_root(*args, **kwargs))
        return reports[-1]

    def counted(curve, price):
        nonlocal supply_reads
        supply_reads += 1
        return quantity(curve, price)

    su = StaticsSetup(
        ces=CesParams(A=A, alpha=alpha, beta=beta, sigma=sigma),
        l_eff_demand=demand,
        labor_supply=supply_curve(scale, supply_elasticity),
        w_a_eff=w_a_eff,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statics, "find_root", spy)
        mp.setattr(IsoElasticCurve, "quantity", counted)
        try:
            solve_statics_point(su)
        except CawError:
            return
    # One supply reading on every branch; Cobb-Douglas is closed form and makes no search.
    assert supply_reads == 1
    if sigma == 1.0:
        assert reports == []
    else:
        assert len(reports) == 1 and reports[0].evaluations <= 20


def _shifted_searches(su, rel_step=constants.DEFAULT_REL_STEP):
    """semi_elasticity's search reports, and each shifted setup with the point it got."""
    reports, points = [], []
    point = statics._statics_point

    def spy_root(*args, **kwargs):
        reports.append(find_root(*args, **kwargs))
        return reports[-1]

    def spy_point(setup, near=None):
        points.append((setup, near, point(setup, near)))
        return points[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statics, "find_root", spy_root)
        mp.setattr(statics, "_statics_point", spy_point)
        semi_elasticity(su, rel_step)
    return reports, [(setup, got) for setup, near, got in points if near is not None]


def _assert_independent_solves_agree(shifted, sigma):
    # Each root lies within the search tolerance of g's root in v, and log w_h = b + v/sigma.
    bound = 2.0 * constants.STATICS_WAGE_REL_TOL / sigma + 1e-15
    assert len(shifted) == 2
    for setup, got in shifted:
        assert abs(math.log(got.w_h) - math.log(solve_statics_point(setup).w_h)) <= bound


@_grid_setups
def test_semi_elasticity_shifted_searches_start_at_their_predicted_roots(
    sigma, supply_elasticity, A, alpha, beta, demand, scale, w_a_eff
):
    su = StaticsSetup(
        ces=CesParams(A=A, alpha=alpha, beta=beta, sigma=sigma),
        l_eff_demand=demand,
        labor_supply=supply_curve(scale, supply_elasticity),
        w_a_eff=w_a_eff,
    )
    try:
        reports, shifted = _shifted_searches(su)
    except CawError:
        return
    if sigma == 1.0:
        assert reports == []
    else:
        assert len(reports) == 3
        assert all(r.evaluations <= 8 and r.expansions == 0 for r in reports[1:])
    _assert_independent_solves_agree(shifted, sigma)


def test_semi_elasticity_shifted_search_widens_where_its_predicted_bracket_misses():
    # Near perfect substitutes the agents' weight turns fast in v, so at rel_step 0.1
    # the forward root lies outside a quarter step around the linear prediction.
    ces = CesParams(A=2.0, alpha=0.7, beta=0.8, sigma=1e7)
    su = StaticsSetup(ces=ces, l_eff_demand=0.5, labor_supply=supply_curve(0.8, 1.0), w_a_eff=0.4)
    reports, shifted = _shifted_searches(su, rel_step=0.1)
    assert [r.expansions for r in reports] == [0, 0, 1]
    _assert_independent_solves_agree(shifted, ces.sigma)


def test_semi_elasticity_shifted_search_reaches_past_a_default_search():
    # The base root lies just inside the reach of a default search; at rel_step 0.1
    # the backward root lies beyond it. Its search starts from the predicted bracket
    # and finds it, so the difference matches the closed form sigma/(sigma + e) = 2/3.
    v0 = REACHABLE[1] - 0.03
    # g(v0) = e*v0/sigma + M_p(v0) - log T = 0 with e = 1, b = 0 and log(A*S0) = 0.
    demand = math.exp(v0 / SYM.sigma + _log_power_mean(SYM.alpha, 0.0, SYM.beta, v0, SYM.rho))
    su = StaticsSetup(ces=SYM, l_eff_demand=demand, labor_supply=supply_curve(1.0, 1.0), w_a_eff=1.0)
    reports, _shifted = _shifted_searches(su, rel_step=0.1)
    assert abs(reports[0].root - v0) <= 1e-12 and reports[1].root > REACHABLE[1]
    se = semi_elasticity(su, rel_step=0.1)
    assert se.direct == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert abs(se.fd - se.direct) <= 1e-9


def _near_one(sigma_and_alpha):
    # Within 1e-7 of sigma = 1 the weights must sum to one, or (alpha + beta)**(1/rho)
    # puts the output target out of reach.
    sigma, alpha = sigma_and_alpha
    return sigma, alpha, 1.0 - alpha


@settings(max_examples=200, deadline=None)
@given(
    ces=st.one_of(
        st.tuples(st.floats(min_value=0.2, max_value=20.0), _grid_weight, _grid_weight),
        st.tuples(st.floats(min_value=1e6, max_value=1e8), _grid_weight, _grid_weight),
        st.tuples(st.just(1.0), _grid_weight, _grid_weight),
        st.tuples(
            st.floats(min_value=2e-9, max_value=1e-7).flatmap(lambda d: st.sampled_from([1.0 - d, 1.0 + d])),
            _grid_weight,
        ).map(_near_one),
    ),
    A=st.floats(min_value=0.5, max_value=2.0),
    demand=_grid_positive,
    scale=_grid_positive,
    elasticity=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
    w_a_eff=_grid_positive,
)
def test_solved_statics_points_meet_all_three_conditions(ces, A, demand, scale, elasticity, w_a_eff):
    sigma, alpha, beta = ces
    su = StaticsSetup(
        ces=CesParams(A=A, alpha=alpha, beta=beta, sigma=sigma),
        l_eff_demand=demand,
        labor_supply=supply_curve(scale, elasticity),
        w_a_eff=w_a_eff,
    )
    try:
        point = solve_statics_point(su)
    except CawError:
        return
    assert rel_err(point.l_h, su.labor_supply.quantity(point.w_h)) < 1e-10
    assert rel_err(ces_output(su.ces, point.l_h, point.l_a), su.l_eff_demand) < 1e-10
    assert rel_err(point.w_h / su.w_a_eff, relative_wage(su.ces, point.l_h, point.l_a)) < 1e-10


def test_statics_point_with_tiny_agent_labor_is_solved():
    # At sigma 17.6 the agents fill the last 1e-20 of the target; a search in the
    # wage closed on humans alone and called the point infeasible.
    su = StaticsSetup(
        ces=CesParams(1.5971896067000755, 0.6442947000930006, 0.48798188354020033, 17.553964246307117),
        l_eff_demand=0.5769412664884132,
        labor_supply=supply_curve(1.2634195564484787, 0.5),
        w_a_eff=2.0904200583252273,
    )
    point = solve_statics_point(su)
    assert 1.0e-20 < point.l_a < 1.2e-20
    assert rel_err(point.l_h, su.labor_supply.quantity(point.w_h)) < 1e-10
    assert rel_err(ces_output(su.ces, point.l_h, point.l_a), su.l_eff_demand) < 1e-10
    assert rel_err(point.w_h / su.w_a_eff, relative_wage(su.ces, point.l_h, point.l_a)) < 1e-10


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
    assert abs(se.direct - se.fd) <= max(1e-4, 1e-3 * abs(se.fd))


# Values outside the scenario rules: every field but the elasticity needs
# (0, inf), the elasticity [0, inf).
_OUT_OF_RULE = st.sampled_from([0.0, -1.0, -math.inf, math.inf, math.nan])
_SETUP_FIELDS = ("sigma", "A", "alpha", "beta", "demand", "scale", "elasticity", "w_a_eff")


@given(
    sigma=st.sampled_from(sorted(_BRANCH_SIGMA)).flatmap(_BRANCH_SIGMA.get),
    others=st.lists(_positive, min_size=7, max_size=7),
    broken=st.fixed_dictionaries(
        {},
        optional={
            **{name: _OUT_OF_RULE for name in _SETUP_FIELDS},
            "elasticity": _OUT_OF_RULE.filter(lambda x: x != 0.0),
        },
    ).filter(bool),
)
def test_semi_elasticity_rejects_setups_outside_the_scenario_rules_anywhere(sigma, others, broken):
    # An in-range setup on any branch with one or more fields replaced.
    v = {**dict(zip(_SETUP_FIELDS, (sigma, *others))), **broken}
    su = StaticsSetup(
        ces=CesParams(A=v["A"], alpha=v["alpha"], beta=v["beta"], sigma=v["sigma"]),
        l_eff_demand=v["demand"],
        labor_supply=supply_curve(v["scale"], v["elasticity"]),
        w_a_eff=v["w_a_eff"],
    )
    with pytest.raises(InvalidInput):
        semi_elasticity(su)


_anywhere = st.floats(min_value=-300.0, max_value=300.0).map(lambda x: 10.0**x)


@settings(max_examples=200, deadline=None)
@given(
    A=_anywhere,
    alpha=_anywhere,
    beta=_anywhere,
    sigma=_anywhere,
    demand=_anywhere,
    scale=_anywhere,
    elasticity=st.one_of(st.just(0.0), _anywhere),
    w_a_eff=_anywhere,
)
def test_semi_elasticity_over_the_float_range_fails_only_with_caw_errors(
    A, alpha, beta, sigma, demand, scale, elasticity, w_a_eff
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


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 5.0, 50.0])
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


def _record_calls(monkeypatch, module, names) -> dict[str, list]:
    """Wrap each function ``names`` of ``module`` to record its calls' arguments, by name."""
    calls = {name: [] for name in names}
    for name in names:

        def recorded(*args, _check=getattr(module, name), _calls=calls[name]):
            _calls.append(args)
            return _check(*args)

        monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("sigma, elasticity", [(1.0, 1.0), (2.0, 0.0), (2.0, 1.0), (1e7, 1.0)])
def test_semi_elasticity_checks_its_setup_once(monkeypatch, sigma, elasticity):
    # Three points are solved; the two shifted ones differ from the base only in an agent wage.
    calls = _record_calls(monkeypatch, statics, ("require_part", "require_curve", "require"))
    su = StaticsSetup(CesParams(1.0, 0.5, 0.5, sigma), 2.0, supply_curve(1.0, elasticity), 1.5)
    semi_elasticity(su)
    assert calls == {
        "require_part": [(su.ces, "CES parameter ")],
        "require_curve": [(su.labor_supply, CurveKind.SUPPLY, "labor_supply")],
        "require": [("l_eff_demand", 2.0), ("w_a_eff", 1.5)],
    }


def test_wage_bill_response_checks_each_curve_once(monkeypatch):
    # Every curve check, from any module, ends in caw.model.require_part.
    calls = _record_calls(monkeypatch, model, ("require_part",))
    demand, supply = demand_curve(4.0, 1.0), supply_curve(1.0, 1.0)
    wage_bill_response(demand, supply, 2.0, 1.0)
    assert calls == {"require_part": [(demand, "output_demand "), (supply, "labor_supply ")]}


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


def test_trajectory_whose_ceiling_overflows_is_a_range_error():
    with raises_range_error("wage ceiling lambda*k*(1+tau_c)*mu*r_c"):
        caw_trajectory(Technology(lam=1e200, k=1e200), 1.0, [0.0, 1.0])


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


def test_wage_bill_beyond_the_float_range_is_a_range_error():
    # Employment is 1e150 at a ceiling of 1e300 and 1e200 at 1e200: both bills overflow.
    for before, after in ((1e300, 1e200), (1e200, 1e300)):
        with raises_range_error("wage bill ceiling*employment"):
            wage_bill_response(demand_curve(1e300, 0.5), supply_curve(1e300, 0.0), before, after, check_binding=False)


@pytest.mark.parametrize(
    "output_demand, labor_supply",
    [
        (demand_curve(4.0, 1.0), supply_curve(-1.0, 1.0)),  # a complex power's TypeError
        (demand_curve(4.0, -1.0), supply_curve(1.0, 1.0)),
        (demand_curve(4.0, 1.0), supply_curve(1.0, math.nan)),
        (supply_curve(4.0, 1.0), supply_curve(1.0, 1.0)),
    ],
)
def test_wage_bill_response_rejects_curves_outside_the_curve_rule(output_demand, labor_supply):
    with pytest.raises(InvalidInput):
        wage_bill_response(output_demand, labor_supply, 2.0, 1.0, check_binding=False)


def test_slack_ceiling_raises_by_default():
    with pytest.raises(CeilingNotBinding):
        wage_bill_response(demand_curve(4.0, 3.0), supply_curve(1.0, 1.0), 2.0, 1.0)
