import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from caw import (
    InvalidInput,
    PolicyLevers,
    Regime,
    Technology,
    agent_wage,
    caw_ceiling,
    classify_regime,
    linear_costmin,
)
from caw.bound import CEILING, COST
from conftest import raises_range_error, rel_err


def test_agent_wage_frontier_anchor():
    assert agent_wage(Technology(lam=1.0, k=1.0), 2.0) == 2.0


def test_agent_wage_distilled_anchor():
    assert agent_wage(Technology(lam=1.0, k=0.05), 2.0) == pytest.approx(0.10, abs=0.0)


def test_agent_wage_zero_rental():
    assert agent_wage(Technology(lam=1.0, k=1.0), 0.0) == 0.0


def test_agent_wage_beyond_the_float_range_is_a_range_error():
    # k * r_c overflows, or underflows at a positive rate; a zero rate's wage is itself.
    with raises_range_error("agent wage k*r_c"):
        agent_wage(Technology(lam=1.0, k=1e200), 1e200)
    with raises_range_error("agent wage k*r_c"):
        agent_wage(Technology(lam=1.0, k=1e-200), 1e-200)
    assert math.copysign(1.0, agent_wage(Technology(lam=1.0, k=1e200), -0.0)) == -1.0


def test_ceiling_that_underflows_at_a_positive_rate_is_zero():
    assert caw_ceiling(Technology(lam=1e-200, k=1e-200), 1.0) == 0.0


def test_agent_wage_rejects_negative_rental():
    with pytest.raises(InvalidInput):
        agent_wage(Technology(lam=1.0, k=1.0), -0.5)


def test_ceiling_calibration_anchors():
    assert caw_ceiling(Technology(lam=2.0, k=1.0), 5.0) == 10.0
    assert caw_ceiling(Technology(lam=0.5, k=0.05), 2.0) == 0.05


def test_ceiling_tax_scales_proportionally():
    policy = PolicyLevers(tau_c=0.5)
    assert caw_ceiling(Technology(lam=1.0, k=1.0), 2.0, policy) == 3.0


def test_ceiling_markup_scales_proportionally():
    policy = PolicyLevers(mu=1.25)
    assert caw_ceiling(Technology(lam=1.0, k=1.0), 2.0, policy) == 2.5


def test_policy_levers_commute():
    a = caw_ceiling(Technology(lam=1.0, k=1.0), 2.0, PolicyLevers(tau_c=0.3, mu=1.5))
    assert a == pytest.approx(2.0 * 1.3 * 1.5, rel=1e-15)


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_ceiling_linear_in_each_argument(lam, k, r_c):
    base = caw_ceiling(Technology(lam=lam, k=k), r_c)
    assert rel_err(caw_ceiling(Technology(lam=2.0 * lam, k=k), r_c), 2.0 * base) < 1e-12
    assert rel_err(caw_ceiling(Technology(lam=lam, k=2.0 * k), r_c), 2.0 * base) < 1e-12
    assert rel_err(caw_ceiling(Technology(lam=lam, k=k), 2.0 * r_c), 2.0 * base) < 1e-12
    assert base >= 0.0


def test_costmin_human_corner():
    alloc = linear_costmin(1.0, Technology(lam=1.0, k=1.0), 2.0, 1.0)
    assert (alloc.l_h, alloc.l_a, alloc.cost, alloc.tie) == (1.0, 0.0, 1.0, False)


def test_costmin_agent_corner():
    alloc = linear_costmin(3.0, Technology(lam=1.0, k=1.0), 2.0, 1.0)
    assert (alloc.l_h, alloc.l_a, alloc.cost, alloc.tie) == (0.0, 1.0, 2.0, False)


def test_costmin_tie_defaults_to_human_corner():
    alloc = linear_costmin(2.0, Technology(lam=1.0, k=1.0), 2.0, 1.0)
    assert alloc.tie
    assert (alloc.l_h, alloc.l_a, alloc.cost) == (1.0, 0.0, 2.0)


def test_costmin_tie_flag_flips_default():
    alloc = linear_costmin(
        2.0, Technology(lam=1.0, k=1.0), 2.0, 1.0, prefer_agents_on_tie=True
    )
    assert alloc.tie
    assert (alloc.l_h, alloc.l_a, alloc.cost) == (0.0, 1.0, 2.0)


def test_costmin_allocation_meets_requirement_exactly():
    tech = Technology(lam=1.7, k=0.3)
    for w_h in (0.1, 0.51, 2.0):
        alloc = linear_costmin(w_h, tech, 1.0, 3.0)
        assert rel_err(alloc.l_h + alloc.l_a / tech.lam, 3.0) < 1e-12


def test_costmin_rejects_nonpositive_units():
    with pytest.raises(InvalidInput):
        linear_costmin(1.0, Technology(lam=1.0, k=1.0), 2.0, 0.0)


@pytest.mark.parametrize("k", [1.0, 10.0])
def test_costmin_beyond_the_float_range_is_a_range_error(k):
    # The corners cost 1e310 and 1e310*k: not a tie of two infs, nor an inf cost.
    with raises_range_error(COST):
        linear_costmin(1e300, Technology(lam=1e300, k=k), 1.0, 1e10)


def test_costmin_compares_the_corners_in_logs_where_a_product_overflows():
    # r_c*k overflows, but the agent corner costs 1e300*1e300*1e-300 = 1e300, below 1e305.
    alloc = linear_costmin(1e305, Technology(lam=1e-300, k=1e300), 1e300, 1.0)
    assert (alloc.l_h, alloc.l_a, alloc.tie) == (0.0, 1e-300, False)
    assert rel_err(alloc.cost, 1e300) < 1e-12


def test_costmin_at_zero_prices():
    assert linear_costmin(0.0, Technology(lam=1.0, k=1.0), 0.0, 2.0) == (2.0, 0.0, 0.0, True)
    assert linear_costmin(0.0, Technology(lam=1.0, k=1.0), 1.0, 2.0) == (2.0, 0.0, 0.0, False)
    assert linear_costmin(1.0, Technology(lam=3.0, k=1.0), 0.0, 2.0) == (0.0, 6.0, 0.0, False)


def test_corner_beats_random_interior_allocations():
    rng = random.Random(1234)
    for _ in range(1000):
        w_h = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        lam = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        k = math.exp(rng.uniform(math.log(0.05), math.log(2.0)))
        r_c = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        units = math.exp(rng.uniform(math.log(0.5), math.log(4.0)))
        tech = Technology(lam=lam, k=k)
        best = linear_costmin(w_h, tech, r_c, units)
        for _ in range(100):
            theta = rng.random()
            slack = 1.0 + rng.random()  # interior points may over-provision
            l_h = theta * units * slack
            l_a = lam * (1.0 - theta) * units * slack
            interior_cost = w_h * l_h + r_c * k * l_a
            assert best.cost <= interior_cost + 1e-12 * max(1.0, interior_cost)


def test_classify_regime_three_cases():
    assert classify_regime(1.0, 2.0, 1e-9) is Regime.HUMAN_ONLY
    assert classify_regime(3.0, 2.0, 1e-9) is Regime.AGENT_ONLY
    assert classify_regime(2.0, 2.0, 1e-9) is Regime.MIXED


def test_classify_regime_band_is_inclusive():
    assert classify_regime(2.0 - 5e-10, 2.0, 1e-9) is Regime.MIXED
    assert classify_regime(2.0 + 5e-10, 2.0, 1e-9) is Regime.MIXED


def test_classify_regime_requires_positive_tolerance():
    with pytest.raises(InvalidInput):
        classify_regime(1.0, 2.0, 0.0)


def test_ceiling_at_a_zero_rate_is_zero_even_where_the_factor_overflows():
    # lam * k overflows to inf, and inf * 0 would be nan.
    tech = Technology(lam=1e200, k=1e200)
    assert caw_ceiling(tech, 0.0) == 0.0
    assert math.copysign(1.0, caw_ceiling(tech, -0.0)) == -1.0
    with raises_range_error(CEILING):  # a positive rate's ceiling overflows
        caw_ceiling(tech, 1.0)
