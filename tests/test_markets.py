import contextlib
import decimal
import math
import random
import sys
from decimal import Decimal

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import caw.model
from caw import (
    SWEEPABLE_PARAMS,
    CawError,
    CurveKind,
    DegenerateCeiling,
    EquilibriumResult,
    InvalidInput,
    NoEquilibrium,
    Regime,
    SolverError,
    ValidationError,
    caw_ceiling,
    classify_regime,
    clear_market,
    demand_curve,
    grid,
    solve_batch,
    solve_capped_labor_market,
    solve_compute_market,
    solve_coupled,
    solve_scenario,
    supply_curve,
    validate_scenario,
)
from caw import markets
from caw.constants import PRICE_REL_TOL, REGIME_BAND_ABS
from caw.roots import REACHABLE
from conftest import make_scenario, raises_range_error, rel_err, with_field


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
    with raises_range_error("clearing price"):
        clear_market(supply_curve(1.0, 0.0), demand_curve(d0, 0.001))


@pytest.mark.parametrize(
    "supply, demand",
    [
        (supply_curve(1.0, 1.0), demand_curve(4.0, 1.0)),
        # Perfectly inelastic pairs clear without a method; it is checked first all the same.
        (supply_curve(3.0, 0.0), demand_curve(3.0, 0.0)),
        (supply_curve(2.0, 0.0), demand_curve(3.0, 0.0)),
    ],
)
def test_clear_market_rejects_an_unknown_method(supply, demand):
    with pytest.raises(InvalidInput, match="^unknown clearing method 'bisect'$"):
        clear_market(supply, demand, method="bisect")


def test_clear_market_kind_mismatch_rejected():
    with pytest.raises(InvalidInput):
        clear_market(demand_curve(1.0, 1.0), demand_curve(4.0, 1.0))


@pytest.mark.parametrize(
    "supply, demand",
    [
        (supply_curve(-1.0, 1.0), demand_curve(4.0, 1.0)),  # a complex power's TypeError
        (supply_curve(1.0, -1.0), demand_curve(4.0, -1.0)),  # priced at 0.5
        (supply_curve(1.0, math.nan), demand_curve(4.0, 1.0)),  # NoEquilibrium
        (supply_curve(1.0, 1.0), demand_curve(math.inf, 1.0)),
        (supply_curve(1.0, 1.0), demand_curve(4.0, math.inf)),
    ],
)
@pytest.mark.parametrize("method", ["closed_form", "root_search"])
def test_clear_market_rejects_curves_outside_the_curve_rule(supply, demand, method):
    with pytest.raises(InvalidInput, match=r"^(supply|demand) (scale|elasticity) must be finite and >=? 0, got "):
        clear_market(supply, demand, method=method)


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
    with pytest.raises(InvalidInput, match="unknown solve mode 'newton'"):
        solve_scenario(baseline_scenario, "newton")
    with pytest.raises(InvalidInput, match="unknown solve mode 'newton'"):
        solve_batch(baseline_scenario, "technology.k", [1.0], mode="newton")


# --- coupled solve work and the hoisted excess --------------------------------------


@contextlib.contextmanager
def _find_root_calls():
    """Record every (excess, report) pair passed through markets.find_root;
    the report is None where the search raised."""
    calls = []
    real = markets.find_root

    def spy(excess, **kwargs):
        report = None
        try:
            report = real(excess, **kwargs)
            return report
        finally:
            calls.append((excess, report))

    markets.find_root = spy
    try:
        yield calls
    finally:
        markets.find_root = real


def test_baseline_coupled_solve_evaluation_budget(baseline_scenario):
    with _find_root_calls() as calls:
        res = solve_coupled(baseline_scenario)
    [(_excess, report)] = calls
    assert report.evaluations == 6  # the count README states
    assert math.exp(report.root) == res.r_c_star


@pytest.mark.parametrize(
    "scenario",
    [
        make_scenario(),
        make_scenario(k=0.3, lam=2.5, tau_c=0.2, mu=1.3, compute_demand=None),
        make_scenario(labor_demand=(7.0, 0.4), labor_supply=(2.0, 1.7)),
    ],
)
def test_hoisted_excess_matches_full_capped_solve_bit_for_bit(scenario):
    with _find_root_calls() as calls:
        res = solve_coupled(scenario)
    w_clear = clear_market(scenario.labor_supply_ts, scenario.labor_demand_ts).price
    tech, policy = scenario.technology, scenario.policy
    if scenario.compute_demand_exogenous is not None:
        r0 = solve_compute_market(scenario).price
        if caw_ceiling(tech, r0, policy) >= w_clear:
            # Slack ceiling at the exogenous compute price (scenario2): agents
            # are unused, the row is the capped solve there, and nothing searched.
            assert calls == [] and res.l_a_star == 0.0
            assert repr(res) == repr(solve_capped_labor_market(scenario, r0))
            return
    [(excess, _report)] = calls
    # Rental rates whose ceiling crosses the clearing wage, including the
    # floats right next to the crossing.
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
    for x in map(_log_rate, grid):
        r_c = math.exp(x)  # the excess searches log rate x and prices at exp(x)
        full = solve_capped_labor_market(scenario, r_c)
        sides.add(full.l_a_star > 0.0)
        exogenous = (
            scenario.compute_demand_exogenous.quantity(r_c)
            if scenario.compute_demand_exogenous is not None
            else 0.0
        )
        expected = full.k_c_star + exogenous - scenario.compute_supply.quantity(r_c)
        assert excess(x) == expected
    assert sides == {True, False}


_WIDE_SCALE = st.floats(min_value=-300 * math.log(10), max_value=300 * math.log(10)).map(math.exp)
_WIDE_CURVE = st.tuples(
    _WIDE_SCALE, st.one_of(st.just(0.0), st.integers(1, 3).map(float), st.floats(min_value=0.0, max_value=3.0))
)
_RATE = st.floats(min_value=math.ulp(0.0), max_value=sys.float_info.max)


def _log_rate(r_c):
    """The search coordinate log r_c of a rental rate; 0, inf and nan enter as -inf, inf and nan."""
    return math.log(r_c) if 0.0 < r_c < math.inf else -math.inf if r_c == 0.0 else r_c


def _outcome(fn, *args):
    """``repr`` of ``fn(*args)``, or the type and text of the CawError it raised."""
    try:
        return repr(fn(*args))
    except CawError as exc:
        return type(exc), str(exc)


def _rates_beyond_normal_powers(curves):
    """Rental rates on both sides of where each curve's power leaves the
    normal range; ``curves`` pairs each curve with its price per unit rate."""
    rates = []
    for curve, per_rate in curves:
        if curve is None or curve.elasticity == 0.0 or not 0.0 < per_rate < math.inf:
            continue
        exponent = curve.elasticity if curve.kind is CurveKind.SUPPLY else -curve.elasticity
        for edge in (sys.float_info.min, sys.float_info.max):
            for step in (-math.log(2.0), math.log(2.0)):
                try:
                    rates.append(math.exp(math.log(edge) / exponent + step - math.log(per_rate)))
                except OverflowError:
                    pass
    return [r for r in rates if 0.0 < r < math.inf]


def test_hoisted_excess_reads_curve_powers_bit_for_bit_over_the_float_range(monkeypatch):
    # The excess reads each curve's scale and signed exponent once and takes
    # each quantity by power_law, which works in logs where a power is not a
    # normal float; a ceiling that is 0 or not a price goes to the curves. At
    # rates across the search's reach, next to where each power underflows or
    # overflows, and where the ceiling is 0, it equals the curve-by-curve
    # composition exactly, errors included. Both the curves' branch and
    # power_law's log branch run somewhere.
    fallbacks, logs = [], []
    quantity = markets.IsoElasticCurve.quantity
    curve_calls, exp_calls = [], []

    def counted(curve, price):
        curve_calls.append(price)
        return quantity(curve, price)

    def counted_exp(x, exp=caw.model._exp):
        exp_calls.append(x)
        return exp(x)

    monkeypatch.setattr(markets.IsoElasticCurve, "quantity", counted)
    monkeypatch.setattr(caw.model, "_exp", counted_exp)

    @settings(max_examples=200, deadline=None)
    @given(
        tech=st.tuples(_WIDE_SCALE, _WIDE_SCALE),
        compute=st.tuples(_WIDE_CURVE, st.one_of(st.none(), _WIDE_CURVE)),
        labor=st.tuples(_WIDE_CURVE, _WIDE_CURVE),
        tau_c=st.floats(min_value=0.0, max_value=2.0),
        mu=st.floats(min_value=1.0, max_value=3.0),
        drawn=st.lists(_RATE, max_size=4),
    )
    # Where a curve's power is subnormal but its quantity still shows in the
    # excess: labor supply, then labor demand, at a binding ceiling, then
    # exogenous compute demand; and an excess of inf - inf.
    @example(tech=(1.0, 1.0), compute=((1e-11, 1.0), None), labor=((1e-10, 0.0), (1e298, 3.0)),
             tau_c=0.0, mu=1.0, drawn=[])
    @example(tech=(1.0, 1.0), compute=((1e-15, 0.0), None), labor=((1e300, 3.0), (1e-20, 0.0)),
             tau_c=0.0, mu=1.0, drawn=[1e105])
    @example(tech=(1e-150, 1e-150), compute=((1e-10, 0.0), (6.4e297, 3.0)), labor=((10.0, 1.0), (1.0, 1.0)),
             tau_c=0.0, mu=1.0, drawn=[])
    @example(tech=(1e50, 1e50), compute=((1e10, 30.0), None), labor=((1e250, 0.0), (1.0, 1.0)),
             tau_c=0.0, mu=1.0, drawn=[1e10])
    def check(tech, compute, labor, tau_c, mu, drawn):
        (lam, k), (cs, cd), (ld, ls) = tech, compute, labor
        s = make_scenario(lam=lam, k=k, compute_supply=cs, compute_demand=cd, labor_demand=ld,
                          labor_supply=ls, tau_c=tau_c, mu=mu)
        with _find_root_calls() as calls:
            try:
                solve_coupled(s)
            except CawError:
                pass
        if not calls:  # no search: a clearing error, or the exogenous price is the fixed point
            return
        [(excess, _report)] = calls
        technology, supply, demand = s.technology, s.labor_supply_ts, s.labor_demand_ts
        compute_demand = s.compute_demand_exogenous
        w_clear = clear_market(supply, demand).price
        factor = markets._ceiling_factor(technology, s.policy)  # caw_ceiling at a unit rate, unbounded

        def composed(r_c):
            ceiling = factor * r_c  # caw_ceiling's product wherever r_c is a rate
            if ceiling != 0.0 and w_clear <= ceiling:
                derived = 0.0
            else:
                derived = technology.k * markets._agent_labor(technology, ceiling, supply, demand)[2]
            exogenous = compute_demand.quantity(r_c) if compute_demand is not None else 0.0
            value = derived + exogenous - s.compute_supply.quantity(r_c)
            if value != value:
                raise SolverError("compute quantity at the fixed point lies outside the floating-point range")
            return value

        rates = [math.exp(REACHABLE[0] + i * (REACHABLE[1] - REACHABLE[0]) / 40) for i in range(41)]
        rates += [math.ulp(0.0), sys.float_info.min, sys.float_info.max, *drawn]
        rates += [0.0, math.inf, math.nan]  # no price: the curves raise
        rates += _rates_beyond_normal_powers(
            [(s.compute_supply, 1.0), (compute_demand, 1.0), (supply, factor), (demand, factor)]
        )
        if 0.0 < factor < math.inf and 0.0 < w_clear / factor < math.inf:
            rates.append(w_clear / factor)  # r_b, where the ceiling meets the clearing wage
        for x in map(_log_rate, rates):
            del curve_calls[:], exp_calls[:]
            got = _outcome(excess, x)
            if curve_calls:
                fallbacks.append(x)
            if exp_calls:
                logs.append(x)
            assert got == _outcome(composed, math.exp(x))

    check()
    assert fallbacks
    assert logs


# --- the batch kernel ------------------------------------------------------------------


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
    mode=st.sampled_from(["capped", "coupled"]),
)
def test_capped_batch_equals_one_solve_per_point(data, lam, k, compute, curves, tau_c, mu, mode):
    # Shared stages (compute price, labor clearing) give each row exactly what
    # solving that point on its own gives, errors included, in both modes.
    cs, cs_e, ld, ld_e, ls, ls_e = curves
    s = make_scenario(lam=lam, k=k, compute_supply=(cs, cs_e), compute_demand=compute,
                      labor_demand=(ld, ld_e), labor_supply=(ls, ls_e), tau_c=tau_c, mu=mu)
    params = [p for p in SWEEPABLE_PARAMS if compute is not None or not p.startswith("compute_demand")]
    param = data.draw(st.sampled_from(params))
    values = data.draw(st.lists(_positive, min_size=1, max_size=6))
    for value, row in zip(values, solve_batch(s, param, values, mode=mode), strict=True):
        try:
            direct = solve_scenario(with_field(s, param, value), mode)
        except CawError as exc:
            assert isinstance(row, CawError) and str(row) == str(exc)
        else:
            assert repr(row) == repr(direct)


@pytest.mark.parametrize(
    "param, per_row",
    [("compute_supply.scale", False), ("compute_demand.elasticity", False), ("labor_supply_ts.scale", False),
     ("technology.lambda", True), ("policy.mu", True)],
)
def test_capped_batch_reads_the_ceiling_once_unless_its_fields_are_swept(monkeypatch, baseline_scenario,
                                                                         param, per_row):
    # The ceiling per unit rental rate is one factor call per batch; a
    # swept technology or policy field moves it, so each row makes its own.
    calls = []
    factor = markets._ceiling_factor

    def counted(tech, policy):
        calls.append((tech, policy))
        return factor(tech, policy)

    monkeypatch.setattr(markets, "_ceiling_factor", counted)
    values = [1.5, 2.0, 2.5]
    rows = solve_batch(baseline_scenario, param, values)
    assert not any(isinstance(row, CawError) for row in rows)
    assert len(calls) == (len(values) if per_row else 1)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    lam=_positive,
    k=_positive,
    curves=st.tuples(_positive, _elasticity, _positive, _elasticity, _positive, _elasticity),
    tau_c=st.floats(min_value=0.0, max_value=2.0),
    mu=st.floats(min_value=1.0, max_value=3.0),
    r_c_star=st.one_of(st.none(), st.sampled_from([0.0, -0.0]), _positive),
)
def test_batch_rows_agree_with_the_bound_functions(data, lam, k, curves, tau_c, mu, r_c_star):
    # The kernel multiplies a per-batch factor by each rate and classifies
    # inline: every row's ceiling is caw_ceiling's, bit for bit, and its
    # regime is classify_regime's.
    cs, cs_e, ld, ld_e, ls, ls_e = curves
    s = make_scenario(lam=lam, k=k, compute_supply=(cs, cs_e), labor_demand=(ld, ld_e),
                      labor_supply=(ls, ls_e), tau_c=tau_c, mu=mu)
    param = data.draw(st.sampled_from(SWEEPABLE_PARAMS))
    values = data.draw(st.lists(_positive, min_size=1, max_size=6))
    for value, row in zip(values, solve_batch(s, param, values, r_c_star=r_c_star)):
        if isinstance(row, CawError):
            continue
        point = with_field(s, param, value)
        assert repr(row.ceiling) == repr(caw_ceiling(point.technology, row.r_c_star, point.policy))
        assert row.regime is classify_regime(row.w_h_star, row.ceiling, REGIME_BAND_ABS)
        assert row.ceiling_binds is (row.regime is Regime.MIXED)


def test_capped_batch_shares_a_stage_error_with_every_row():
    s = make_scenario(compute_demand=None)
    rows = solve_batch(s, "technology.lambda", [1.0, 2.0])
    assert [str(r) for r in rows] == ["scenario has no exogenous compute demand to clear against"] * 2
    with pytest.raises(InvalidInput, match="no exogenous compute demand"):
        solve_scenario(s, "capped")


@pytest.mark.parametrize("mode", ["capped", "coupled"])
def test_batch_row_with_a_ceiling_beyond_float_range_is_a_solver_error(mode):
    # lambda*k*r_c overflows at the third value only; its row used to hold an
    # inf ceiling. At a zero rate the ceiling stays exactly 0, with agent
    # labor 1e200 * 1e-300 and compute 1e200 * 1e-100 in range.
    s = make_scenario(k=1e200)
    rows = solve_batch(s, "technology.lambda", [1.0, 1e100, 1e200], mode=mode)
    assert all(math.isfinite(row.ceiling) for row in rows[:2])
    assert isinstance(rows[2], SolverError)
    assert str(rows[2]) == "wage ceiling lambda*k*(1+tau_c)*mu*r_c lies outside the floating-point range"
    (row,) = solve_batch(make_scenario(lam=1e200, k=1e200, labor_demand=(1e-300, 0.0)), r_c_star=0.0)
    assert row.ceiling == 0.0 and row.k_c_star == 1e200 * (1e200 * 1e-300)
    # With labor demand 10, compute k * l_a = 1e200 * 1e201 overflows: a solver error.
    (row,) = solve_batch(make_scenario(lam=1e200, k=1e200, labor_demand=(10.0, 0.0)), r_c_star=0.0)
    assert isinstance(row, SolverError) and "labor quantity" in str(row)


def test_capped_batch_rejects_unknown_or_absent_fields(baseline_scenario):
    with pytest.raises(InvalidInput, match="unknown sweep parameter"):
        solve_batch(baseline_scenario, "ces.sigma", [1.0])
    with pytest.raises(InvalidInput, match="no compute_demand to sweep"):
        solve_batch(make_scenario(compute_demand=None), "compute_demand.scale", [1.0])


def test_batch_rejects_a_rental_rate_in_coupled_mode(baseline_scenario):
    with pytest.raises(InvalidInput, match="r_c_star"):
        solve_batch(baseline_scenario, mode="coupled", r_c_star=2.0)


@pytest.mark.parametrize("r_c_star", [-1.0, -math.inf, math.inf, math.nan])
def test_batch_rejects_a_rental_rate_outside_the_rule_on_entry(baseline_scenario, r_c_star):
    # One InvalidInput for the batch, as for a broken scenario, not one per row.
    with pytest.raises(InvalidInput, match="rental rate"):
        solve_batch(baseline_scenario, "technology.lambda", [1.0, 2.0], r_c_star=r_c_star)
    with pytest.raises(InvalidInput, match="rental rate"):
        solve_capped_labor_market(baseline_scenario, r_c_star)


def test_batch_checks_a_given_rental_rate_once(monkeypatch, baseline_scenario):
    calls = []
    monkeypatch.setattr(markets, "require_rate", calls.append)
    rows = solve_batch(baseline_scenario, "technology.lambda", [1.0, 2.0, 3.0], r_c_star=2.0)
    assert calls == [2.0] and not any(isinstance(row, CawError) for row in rows)


@pytest.mark.parametrize("r_c_star", [0.0, -0.0])
def test_zero_rental_rate_is_its_own_ceiling_sign_included(r_c_star):
    # caw_ceiling returns a zero rate as given; so does a batch row, whose
    # binding ceiling leaves labor demand 4 to agents.
    s = make_scenario(labor_demand=(4.0, 0.0), tau_c=0.5, mu=2.0)
    expected = EquilibriumResult(Regime.MIXED, r_c_star, r_c_star, r_c_star, 0.0, 4.0, 4.0, True, 0.0, 4.0)
    rows = solve_batch(s, "policy.mu", [1.0, 1e300], r_c_star=r_c_star)
    for row in (solve_capped_labor_market(s, r_c_star), *rows):
        assert repr(row) == repr(expected)  # repr keeps the sign of a zero
    assert repr(caw_ceiling(s.technology, r_c_star, s.policy)) == repr(r_c_star)


@pytest.mark.parametrize("mode", ["capped", "coupled"])
def test_sweep_grid_must_be_nonempty(baseline_scenario, mode):
    with pytest.raises(InvalidInput, match="sweep grid must be nonempty"):
        solve_batch(baseline_scenario, "technology.k", [], mode=mode)
    # With no parameter the batch is the one solve of the scenario itself.
    (row,) = solve_batch(baseline_scenario, mode=mode)
    assert repr(row) == repr(solve_scenario(baseline_scenario, mode))


def test_coupled_batch_shares_a_labor_clearing_error_with_every_row():
    # Inelastic labor curves with unequal quantities: no wage clears, and the
    # stored error is each coupled row's, as for the one-point solve.
    s = make_scenario(labor_demand=(10.0, 0.0), labor_supply=(1.0, 0.0))
    rows = solve_batch(s, "technology.lambda", [1.0, 2.0], mode="coupled")
    with pytest.raises(NoEquilibrium) as info:
        solve_coupled(s)
    assert [str(r) for r in rows] == [str(info.value)] * 2


@pytest.mark.parametrize(
    "scenario, message",
    [
        (make_scenario(compute_supply=(-1.0, 1.0)), "compute_supply.scale must be > 0"),
        (make_scenario(labor_demand=(-10.0, 1.0)), "labor_demand_ts.scale must be > 0"),
    ],
)
def test_library_solves_validate_their_scenario(scenario, message):
    # A scenario built in code without validation gets the rule's message,
    # not a TypeError from a complex clearing price (or, coupled, a
    # misleading NoEquilibrium).
    for mode in ("capped", "coupled"):
        with pytest.raises(ValidationError, match=message):
            solve_scenario(scenario, mode)
    with pytest.raises(ValidationError, match=message):
        solve_capped_labor_market(scenario, 2.0)


# --- sweeps ----------------------------------------------------------------------


def test_sweep_over_compute_supply_scale_orders_wages():
    rows = solve_batch(make_scenario(), "compute_supply.scale", [1.0, 2.0, 4.0])
    wages = [row.w_h_star for row in rows]
    # More compute supply lowers the rental rate and the binding wage.
    assert wages[0] > wages[1] > wages[2]
    for row, scale in zip(rows, (1.0, 2.0, 4.0)):
        expected_rc = (4.0 / scale) ** 0.5
        assert rel_err(row.r_c_star, expected_rc) < 1e-12
        assert rel_err(row.w_h_star, expected_rc) < 1e-12


def test_sweep_lambda_reproduces_ceiling_column():
    rows = solve_batch(make_scenario(), "technology.lambda", [0.5, 1.0, 2.0])
    assert [row.ceiling for row in rows] == [1.0, 2.0, 4.0]


def test_sweep_linearity_of_binding_wage_in_lambda():
    values = [0.5, 0.75, 1.0, 1.25, 1.5]
    rows = solve_batch(make_scenario(), "technology.lambda", values)
    assert all(row.ceiling_binds for row in rows)
    slope = rows[0].w_h_star / values[0]
    for value, row in zip(values, rows):
        assert abs(row.w_h_star - slope * value) < 1e-10


def test_sweep_records_row_errors_and_continues():
    rows = solve_batch(make_scenario(), "technology.lambda", [1.0, -1.0, 2.0])
    assert [isinstance(row, CawError) for row in rows] == [False, True, False]
    assert isinstance(rows[1], ValidationError) and str(rows[1]) == "lambda must be > 0"


def test_sweep_over_extreme_compute_elasticity_has_finite_rows():
    rows = solve_batch(make_scenario(), "compute_supply.elasticity", [1.0, 40.0, 400.0], mode="coupled")
    for row in rows:
        assert not isinstance(row, CawError)
        assert all(math.isfinite(v) for v in (row.r_c_star, row.k_c_star))


def test_sweep_does_not_swallow_program_errors(monkeypatch, baseline_scenario):
    # The batch kernel places every row against the ceiling per unit rate.
    def broken(tech, policy):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(markets, "_ceiling_factor", broken)
    with pytest.raises(ZeroDivisionError):
        solve_batch(baseline_scenario, "technology.k", [1.0])


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
    (row,) = solve_batch(s, param, [value])
    if expected:
        assert isinstance(row, ValidationError) and [str(row)] == expected
        return
    try:
        direct = solve_scenario(point, "capped")
    except CawError as exc:
        assert type(row) is type(exc) and str(row) == str(exc)
    else:
        assert repr(row) == repr(direct)


def test_sweep_row_for_a_nonfinite_value_names_the_rule(baseline_scenario):
    rows = solve_batch(baseline_scenario, "technology.lambda", [math.nan, 1.0], mode="coupled")
    assert isinstance(rows[0], ValidationError) and str(rows[0]) == "lambda must be finite"
    assert not isinstance(rows[1], CawError)


def test_sweep_coupled_solver(baseline_scenario):
    (row,) = solve_batch(baseline_scenario, "technology.lambda", [1.0], mode="coupled")
    assert row.regime in (Regime.MIXED, Regime.HUMAN_ONLY)
    assert row.r_c_star > 2.0


# --- the coupled fixed point's closed form and known bracket ----------------------


def test_coupled_rate_on_an_inelastic_compute_market_is_the_lowest_that_clears():
    # Exogenous demand alone exactly meets inelastic supply, so every rate
    # whose ceiling is slack clears; the solve reports the lowest of them,
    # r_b, where the ceiling meets the clearing wage (it used to report where
    # the search bracket happened to end, about 1e9).
    s = make_scenario(compute_supply=(3.0, 0.0), compute_demand=(3.0, 0.0))
    w_clear = clear_market(s.labor_supply_ts, s.labor_demand_ts).price
    lams = grid(0.1, 3.0, 60)
    for lam, row in zip(lams, solve_batch(s, "technology.lambda", lams, mode="coupled")):
        r_b = w_clear / lam
        assert row.regime is Regime.MIXED and row.l_a_star == 0.0
        assert row.ceiling >= w_clear and rel_err(row.r_c_star, r_b) < 1e-15
    assert solve_coupled(s).r_c_star == w_clear


def test_coupled_solve_with_r_b_beyond_the_reach_of_a_search():
    # r_b = w_clear / (lam * k) is about 1e300 and the excess is negative
    # below it: a bracket ending at r_b would widen past the float range
    # (OverflowError), the default one finds no sign change.
    s = make_scenario(lam=1e-150, k=1e-150, compute_demand=None, labor_demand=(10.0, 0.0))
    with pytest.raises(NoEquilibrium, match="no sign change"):
        solve_coupled(s)


@settings(max_examples=150, deadline=None)
@given(
    lam=_positive,
    k=_positive,
    compute=st.tuples(_positive, _elasticity),
    exogenous=st.one_of(st.none(), st.tuples(_positive, _elasticity)),
    labor=st.tuples(_positive, _elasticity, _positive, _elasticity),
    tau_c=st.floats(min_value=0.0, max_value=2.0),
    mu=st.floats(min_value=1.0, max_value=3.0),
)
def test_coupled_solve_takes_the_closed_form_exactly_where_the_ceiling_is_slack(
    lam, k, compute, exogenous, labor, tau_c, mu
):
    ld, ld_e, ls, ls_e = labor
    s = make_scenario(lam=lam, k=k, compute_supply=compute, compute_demand=exogenous,
                      labor_demand=(ld, ld_e), labor_supply=(ls, ls_e), tau_c=tau_c, mu=mu)
    with _find_root_calls() as calls:
        try:
            res = solve_coupled(s)
        except CawError:  # anything else fails the test
            return
    w_clear = clear_market(s.labor_supply_ts, s.labor_demand_ts).price
    try:
        r0 = solve_compute_market(s).price
    except CawError:  # no exogenous demand, or no price clears it
        r0 = None
    if r0 is not None and caw_ceiling(s.technology, r0, s.policy) >= w_clear:
        # Agents are unused at the exogenous price: the row is the capped
        # solve there, bit for bit, and nothing searched.
        assert calls == []
        assert repr(res) == repr(solve_capped_labor_market(s, r0))
    else:
        # Most searches take 5 to 10 evaluations; no per-row budget is
        # asserted because Brent's method keeps bisecting to float resolution
        # wherever the excess tolerance (1e-9 of the supply scale) lies below
        # the rounding of the quantities at the root, which can cost 40 or more.
        [(_excess, report)] = calls
        assert math.exp(report.root) == res.r_c_star


def test_coupled_sweeps_of_the_baseline_take_few_evaluations(baseline_scenario):
    # 6 sweeps of 200 points: without the closed form and the known bracket
    # these took about 19 evaluations a row.
    ranges = {"technology.lambda": (0.1, 10.0), "technology.k": (0.02, 10.0),
              "compute_supply.scale": (0.2, 5.0), "compute_demand.scale": (0.5, 20.0),
              "labor_demand_ts.scale": (1.0, 50.0), "policy.tau_c": (0.01, 1.0)}
    with _find_root_calls() as calls:
        for param, (start, stop) in ranges.items():
            rows = solve_batch(baseline_scenario, param, grid(start, stop, 200, log=True),
                                       mode="coupled")
            assert not any(isinstance(row, CawError) for row in rows)
    evaluations = [report.evaluations for _excess, report in calls]
    assert sum(evaluations) / (200 * len(ranges)) <= 6.0
    assert max(evaluations) <= 10


# The benchmark's coupled sweeps, drawn afresh: every curve elastic, scenario
# values log-uniform over its ranges, and each of the four swept fields over
# its sweep range, which is wider than the scenario's. A third of the
# scenarios have no exogenous compute demand.
def _log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


_BENCH_ELASTICITY = st.floats(min_value=0.3, max_value=2.0)
_BENCH_SWEEPS = {"technology.lambda": (0.1, 10.0), "technology.k": (0.02, 10.0),
                 "compute_supply.scale": (0.2, 5.0), "labor_demand_ts.scale": (1.0, 50.0)}


@st.composite
def _bench_coupled_scenarios(draw):
    return make_scenario(
        lam=draw(_log_uniform(0.25, 4.0)),
        k=draw(_log_uniform(0.05, 5.0)),
        compute_supply=(draw(_log_uniform(0.5, 2.0)), draw(_BENCH_ELASTICITY)),
        compute_demand=draw(st.one_of(st.none(), st.tuples(_log_uniform(1.0, 8.0), _BENCH_ELASTICITY))),
        labor_demand=(draw(_log_uniform(2.0, 20.0)), draw(_BENCH_ELASTICITY)),
        labor_supply=(draw(_log_uniform(0.5, 2.0)), draw(_BENCH_ELASTICITY)),
        tau_c=draw(st.floats(min_value=0.0, max_value=0.5)),
        mu=draw(st.floats(min_value=1.0, max_value=1.5)),
    )


@st.composite
def _bench_coupled_sweeps(draw):
    param = draw(st.sampled_from(sorted(_BENCH_SWEEPS)))
    start, stop = (draw(_log_uniform(*_BENCH_SWEEPS[param])) for _ in range(2))
    return draw(_bench_coupled_scenarios()), param, grid(start, stop, 40, log=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(sweep=_bench_coupled_sweeps())
def test_closed_form_coupled_bracket_holds_the_root(sweep):
    # The search starts from the closed-form bound on the root cut to
    # [r0, r_b]: it never widens, and takes at most 10 evaluations (at most 8
    # over the benchmark's own pools, 20 from [r0, r_b] alone).
    s, param, values = sweep
    with _find_root_calls() as calls:
        rows = solve_batch(s, param, values, mode="coupled")
    assert not any(isinstance(row, CawError) for row in rows)
    for _excess, report in calls:
        assert report.expansions == 0
        assert report.evaluations <= 10


@settings(max_examples=100, deadline=None)
@given(s=_bench_coupled_scenarios(), scales=st.lists(_log_uniform(0.2, 5.0), min_size=2, max_size=12))
def test_coupled_solve_keeps_the_model_invariants(s, scales):
    # The paper's lockstep and the ceiling's cap on every row, and more
    # compute supply never raising the rental rate or the wage (to the root
    # tolerance).
    scales.sort()
    rows = solve_batch(s, "compute_supply.scale", scales, mode="coupled")
    tech, policy = s.technology, s.policy
    lockstep = tech.lam * tech.k * (1.0 + policy.tau_c) * policy.mu
    for row in rows:
        assert row.w_h_star <= row.ceiling
        assert row.ceiling_binds == (row.regime is Regime.MIXED)
        assert rel_err(row.ceiling / row.r_c_star, lockstep) <= 4 * sys.float_info.epsilon
    slack = 1.0 + 2 * PRICE_REL_TOL
    for lower, higher in zip(rows, rows[1:]):
        assert higher.r_c_star <= lower.r_c_star * slack
        assert higher.w_h_star <= lower.w_h_star * slack


def test_coupled_search_stopping_on_an_overflow_jump_is_a_range_error():
    # lam * gap overflows although k * lam * gap would not, so the excess
    # reads +inf below a rate and a finite value above it. Brent's method
    # converges onto that jump and stops short of the excess tolerance. The
    # fixed point needs agent labor supply / k, about 7e316: a float-range
    # error, not a row with l_a_star at the float maximum whose compute use
    # k * l_a misses supply by a factor of 4e8.
    s = make_scenario(lam=4.080587783190874e93, k=8.08419670499219e-152,
                      compute_supply=(5.531537429671904e165, 0.0), compute_demand=None,
                      labor_demand=(1.203480942262821e52, 1.9698932030236027),
                      labor_supply=(3.521568452057157e-118, 0.0), tau_c=0.6575436733126727, mu=1.7159934400323116)
    with _find_root_calls() as calls:
        with raises_range_error("labor quantity at the equilibrium wage"):
            solve_coupled(s)
    [(_excess, report)] = calls
    assert report.residual > 1e-9 * s.compute_supply.scale
    # A batch row is that error too, beside a k at which the row clears.
    rows = solve_batch(s, "technology.k", [s.technology.k, 1e-140], mode="coupled")
    assert isinstance(rows[0], SolverError) and "labor quantity" in str(rows[0])
    assert rel_err(rows[1].k_c_star, s.compute_supply.scale) < 1e-9


def test_coupled_bracket_whose_ends_both_overflow_is_a_range_error():
    # lam * gap overflows across the whole closed-form bracket, and beyond it
    # as far as the search widens, so its ends read +inf: the labor at the
    # root, which lies below the bracket's top, is beyond the float range.
    s = make_scenario(lam=1.8157094296563553e252, k=4.463133954622524e-171,
                      compute_supply=(3.1628802363321737e271, 0.9667280137976333),
                      compute_demand=(3.6524949779374763e220, 0.9530355265182799),
                      labor_demand=(1.2987284896378219e57, 0.0),
                      labor_supply=(1.1320430260618087e-217, 1.9842036406272476),
                      tau_c=0.537994758910879, mu=1.3214025353622776)
    with _find_root_calls() as calls:
        with raises_range_error("labor quantity at the equilibrium wage"):
            solve_coupled(s)
    [(_excess, report)] = calls
    assert report is None  # the search itself found no sign change


def test_coupled_bracket_not_bounding_the_root_keeps_no_equilibrium():
    # Exogenous demand's price lies beyond the float range (no r0), and it
    # overflows at r_b too: both ends read +inf, but the fixed point lies
    # above r_b, where the ceiling is slack and agents are unused, so the
    # search's NoEquilibrium stands.
    s = make_scenario(lam=2.9216932109789225e31, k=2.65275073997742e231,
                      compute_supply=(1.7288354313648494e-299, 0.0),
                      compute_demand=(1.9477522282737936e276, 1.3207678943710641),
                      labor_demand=(4.105632595277686e-85, 0.5060786121828065),
                      labor_supply=(1.0061305399163525e-188, 0.0), tau_c=0.8818428139415544, mu=1.5223393860273504)
    with pytest.raises(NoEquilibrium, match="no sign change"):
        solve_coupled(s)


def test_coupled_search_stopping_on_a_jump_its_root_can_fill_keeps_its_row():
    # Elasticities of 1e300 put the clearing wage at 1 and make labor demand
    # overflow at any ceiling below it: the search stops on the jump at
    # r_b = 1, short of the tolerance. The fixed point needs agent labor
    # (supply - exogenous demand) / k = (1 - 0.25) / 1 there, which is in
    # range, so the row stands as the search left it.
    s = make_scenario(labor_demand=(2.0, 1e300), labor_supply=(1.0, 1e300), compute_demand=(0.25, 1.0))
    res = solve_coupled(s)
    assert res.r_c_star == 1.0 and res.regime is Regime.MIXED and res.l_a_star == 0.0


def test_coupled_search_stopping_at_float_resolution_without_a_jump_keeps_its_row():
    # Supply and exogenous demand, about 3.7e192 each, cancel at the root:
    # their difference over k (3e-237) reads beyond the float range, yet the
    # excess has no jump, and the row clears compute to rounding.
    s = make_scenario(lam=18874992.54175334, k=3.0018487982214136e-237,
                      compute_supply=(1.4847356745751079e172, 1.8327005785542003),
                      compute_demand=(7.056936286354404e210, 1.6427053225877675),
                      labor_demand=(30.555716249228134, 1.1891206620904688),
                      labor_supply=(5.05659204757236e179, 0.0), tau_c=0.05423757181648747, mu=1.5454707117012436)
    with _find_root_calls() as calls:
        res = solve_coupled(s)
    [(_excess, report)] = calls
    assert report.residual > 1e-9 * s.compute_supply.scale
    supplied = s.compute_supply.quantity(res.r_c_star)
    assert rel_err(res.k_c_star + s.compute_demand_exogenous.quantity(res.r_c_star), supplied) < 1e-14


def test_closed_form_coupled_bracket_keeps_the_known_bracket_where_a_line_is_not_finite():
    # Labor demand's exponent times log factor overflows, so the bound's
    # terms are inf and nan: the search keeps [r0, r_b] and does not widen,
    # where a bound read through the dropped nan would miss the root.
    s = make_scenario(lam=4e7, k=20.0, compute_supply=(3e8, 0.0), compute_demand=(3e-4, 0.75),
                      labor_demand=(2e5, 1e307), labor_supply=(5e-6, 2.75))
    with _find_root_calls() as calls:
        res = solve_coupled(s)
    [(_excess, report)] = calls
    assert report.expansions == 0
    assert math.exp(report.root) == res.r_c_star


@settings(max_examples=100, deadline=None)
@given(
    lam=_positive,
    k=_positive,
    labor=st.tuples(_positive, st.floats(min_value=0.05, max_value=5.0), _positive, _elasticity),
    supply=st.tuples(_positive, _elasticity),
    demand_elasticity=st.floats(min_value=0.05, max_value=3.0),
    ulps=st.integers(min_value=-4, max_value=4),
)
def test_coupled_solve_with_the_exogenous_price_next_to_r_b(lam, k, labor, supply, demand_elasticity, ulps):
    # Exogenous demand that alone clears compute within a few ulps of r_b,
    # where rounding can put both ends of the known bracket on one side:
    # the solve still finds the fixed point, which lies between the two.
    ld, ld_e, ls, ls_e = labor
    s = make_scenario(lam=lam, k=k, labor_demand=(ld, ld_e), labor_supply=(ls, ls_e))
    r_b = clear_market(s.labor_supply_ts, s.labor_demand_ts).price / (lam * k)
    target = r_b
    for _ in range(abs(ulps)):
        target = math.nextafter(target, math.inf if ulps > 0 else 0.0)
    try:
        scale = supply[0] * target ** (supply[1] + demand_elasticity)
    except OverflowError:
        scale = math.inf
    assume(0.0 < scale < math.inf)
    s = make_scenario(lam=lam, k=k, labor_demand=(ld, ld_e), labor_supply=(ls, ls_e),
                      compute_supply=supply, compute_demand=(scale, demand_elasticity))
    r0 = solve_compute_market(s).price
    assume(abs(r0 - r_b) <= 8 * math.ulp(r_b))
    try:
        res = solve_coupled(s)
    except NoEquilibrium:
        # A binding rate beyond the reach of every search (about 1e63 here)
        # stays unsolved, as it was with the default bracket alone.
        assert not REACHABLE[0] <= math.log(r_b) <= REACHABLE[1]
        return
    assert rel_err(res.r_c_star, r_b) <= 1e-9


@pytest.mark.parametrize(
    "supply, demand, price",
    [
        (supply_curve(1e-300, 5.0), demand_curve(1e300, 5.0), 1e60),  # D0/S0 overflows
        (supply_curve(1e300, 5.0), demand_curve(1e-300, 5.0), 1e-60),  # D0/S0 underflows
        (supply_curve(1e-300, 1.0), demand_curve(1e100, 1.0), 1e200),
    ],
)
def test_clearing_price_in_range_where_the_scale_ratio_is_not(supply, demand, price):
    point = clear_market(supply, demand)
    assert point.price == pytest.approx(price, rel=1e-12)
    assert point.quantity == pytest.approx(demand.quantity(point.price), rel=1e-12)


def test_clearing_price_beyond_the_float_range_is_a_range_error():
    with raises_range_error("clearing price"):
        clear_market(supply_curve(1e-300, 1.0), demand_curve(1e300, 0.0))


def _clearing_price_reference(s0, es, d0, ed):
    """(d0/s0)**(1/(es+ed)) in 50-digit decimal arithmetic, as exp((ln d0 - ln s0)/(es+ed))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return ((Decimal(d0).ln() - Decimal(s0).ln()) / (Decimal(es) + Decimal(ed))).exp()


def test_clearing_price_matches_a_50_digit_reference_over_the_float_range():
    # Scales log-uniform over e^-690..e^709, supply elasticity 0 or in
    # [0.05, 5], demand elasticity in [0.05, 5]: a normal price lies within
    # 1e-12 * max(1, 1/(es+ed)) of the reference (the exponent magnifies the
    # rounding of the scale ratio), and the range error comes exactly where
    # the reference lies beyond the normal range. Draws within 1e-12 of either
    # edge are skipped: either answer is right there.
    rng = random.Random(20261)
    high, low = Decimal(sys.float_info.max), Decimal(sys.float_info.min)
    checked = {"normal": 0, "above": 0, "below": 0}
    for _ in range(1500):
        s0, d0 = (math.exp(rng.uniform(-690.0, 709.0)) for _ in range(2))
        es = 0.0 if rng.random() < 0.25 else rng.uniform(0.05, 5.0)
        ed = rng.uniform(0.05, 5.0)
        ref = _clearing_price_reference(s0, es, d0, ed)
        if abs(ref / high - 1) < Decimal("1e-12") or abs(ref / low - 1) < Decimal("1e-12"):
            continue
        draw = (s0, es, d0, ed)
        try:
            got = markets._clearing_price(supply_curve(s0, es), demand_curve(d0, ed))
        except SolverError as exc:
            assert str(exc) == "clearing price lies outside the floating-point range", draw
            assert not low <= ref <= high, draw
            checked["above" if ref > high else "below"] += 1
            continue
        assert low <= ref <= high, draw
        tolerance = Decimal(1e-12 * max(1.0, 1.0 / (es + ed)))
        assert abs(Decimal(got) / ref - 1) <= tolerance, draw
        checked["normal"] += 1
    assert min(checked.values()) > 0, checked


def test_batch_row_whose_labor_quantities_leave_the_float_range_is_a_solver_error():
    # A binding ceiling of 1e-200 * k * 2: labor demand 10 * ceiling**-2 overflows
    # at k = 0.5, and is 2.5 at k = 1e200.
    s = make_scenario(lam=1e-200, k=0.5, labor_demand=(10.0, 2.0))
    rows = solve_batch(s, "technology.k", [0.5, 1e200])
    assert isinstance(rows[0], SolverError)
    assert str(rows[0]) == "labor quantity at the equilibrium wage lies outside the floating-point range"
    assert rows[1].ceiling == 2.0 and math.isfinite(rows[1].l_a_star)
    with pytest.raises(SolverError, match="labor quantity"):
        solve_scenario(make_scenario(lam=1e100, k=1e100, labor_demand=(1e300, 0.0)))
    # A slack ceiling: supply 1e-100 * w**2 at the clearing wage sqrt(max / 1e-100),
    # taken in logs, rounds past the float maximum.
    s = make_scenario(lam=1e205, labor_supply=(1e-100, 2.0), labor_demand=(sys.float_info.max, 0.0))
    (row,) = solve_batch(s)
    assert isinstance(row, SolverError)
    assert str(row) == "labor quantity at the equilibrium wage lies outside the floating-point range"
    w_clear = markets._clearing_price(s.labor_supply_ts, s.labor_demand_ts)
    assert w_clear < 1e205 * 2.0 and s.labor_supply_ts.quantity(w_clear) == math.inf


@pytest.mark.parametrize(
    "mode, scenario, param, values",
    [
        # A row's own solve fails (labor overflows at k = 0.5), a value breaks its rule,
        # and every row shares a failed stage (no exogenous demand prices compute).
        ("capped", dict(lam=1e-200, labor_demand=(10.0, 2.0)), "technology.k", [0.5, -1.0, 1e200]),
        ("capped", dict(compute_demand=None), "technology.lambda", [1.0, 2.0]),
        # Inelastic compute supply below an inelastic exogenous demand of 3: no rate clears.
        ("coupled", dict(compute_supply=(1.0, 0.0), compute_demand=(3.0, 0.0)), "compute_supply.scale",
         [0.0, 1.0, 2.0, 3.0]),
        ("coupled", dict(labor_supply=(1.0, 0.0), labor_demand=(2.0, 0.0)), "technology.k", [1.0, 2.0]),
    ],
)
def test_error_rows_are_stored_without_their_tracebacks(mode, scenario, param, values):
    # A traceback's frames would hold the batch's own rows: a cycle only the cyclic collector frees.
    rows = solve_batch(make_scenario(**scenario), param, values, mode=mode)
    errors = [row for row in rows if isinstance(row, CawError)]
    assert errors and all(row.__traceback__ is None for row in errors)
