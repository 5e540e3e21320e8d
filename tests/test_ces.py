import decimal
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caw import (
    CesParams,
    InvalidInput,
    Technology,
    caw_ceiling,
    ces_output,
    conditional_demands,
    leontief_requirements,
    linear_costmin,
    relative_wage,
    unit_cost,
)
from caw.constants import (
    DUALITY_REL_TOL,
    HOMOGENEITY_REL_TOL,
    LIMIT_REL_TOL,
    ORACLE_REL_TOL,
    SHEPHARD_REL_STEP,
    SHEPHARD_REL_TOL,
)
from conftest import bruteforce_unit_cost, cd_unit_cost, raises_range_error, rel_err

SYM = CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=2.0)

# sigma grid includes the Cobb-Douglas limit branch; weight pairs are
# normalized so the sigma = 1 branch is the exact limit.
SIGMA_GRID = (0.5, 1.0, 2.0, 5.0)
WEIGHT_GRID = ((1.0 / 3.0, 2.0 / 3.0), (0.5, 0.5), (2.0 / 3.0, 1.0 / 3.0))
PRICE_GRID = (0.5, 1.0, 2.0)


def grid_cases():
    for sigma in SIGMA_GRID:
        for alpha, beta in WEIGHT_GRID:
            for w_h in PRICE_GRID:
                for w_a in PRICE_GRID:
                    yield CesParams(A=1.0, alpha=alpha, beta=beta, sigma=sigma), w_h, w_a


# --- ces_output -----------------------------------------------------------


def test_output_symmetric_point():
    assert ces_output(SYM, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_output_zero_agent_corner():
    # rho = 0.5: (0.5 * 4**0.5) ** 2 = 1
    assert ces_output(SYM, 4.0, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_output_matches_rational_arithmetic():
    # sigma = 0.5 gives rho = -1, the harmonic form, exactly 30/13.
    ces = CesParams(A=1.0, alpha=0.6, beta=0.4, sigma=0.5)
    exact = Fraction(1) / (Fraction(6, 10) / 2 + Fraction(4, 10) / 3)
    assert ces_output(ces, 2.0, 3.0) == pytest.approx(float(exact), rel=1e-12)


def test_output_zero_input_with_complements_is_zero_not_error():
    ces = CesParams(A=1.0, alpha=0.6, beta=0.4, sigma=0.5)
    assert ces_output(ces, 0.0, 3.0) == 0.0
    assert ces_output(ces, 2.0, 0.0) == 0.0


@pytest.mark.parametrize(
    "sigma, l_h, l_a, expected",
    [
        (1e-5, 2.0, 3.0, 2.0),  # fixed proportions: the scarcer input
        (1.0, 0.0, 3.0, 0.0),  # Cobb-Douglas without one input
        (1.0, 2.0, 0.0, 0.0),
        (2.0, 0.0, 0.0, 0.0),  # no input at all
        (2.0, 0.0, 4.0, 1.0),  # substitutes, agents alone: 0.5**2 * 4
    ],
)
def test_output_at_fixed_proportions_and_zero_inputs(sigma, l_h, l_a, expected):
    assert ces_output(CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=sigma), l_h, l_a) == pytest.approx(
        expected, rel=1e-14, abs=0.0
    )


def test_output_rejects_negative_inputs():
    with pytest.raises(InvalidInput):
        ces_output(SYM, -1.0, 1.0)


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.3, max_value=5.0),
)
def test_output_scales_linearly_in_both_inputs(l_h, l_a, sigma):
    ces = CesParams(A=1.0, alpha=0.4, beta=0.6, sigma=sigma)
    assert ces_output(ces, 2.0 * l_h, 2.0 * l_a) == pytest.approx(
        2.0 * ces_output(ces, l_h, l_a), rel=1e-12
    )


# --- unit_cost -------------------------------------------------------------


def test_unit_cost_worked_values():
    assert unit_cost(SYM, 1.0, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert unit_cost(SYM, 2.0, 1.0) == pytest.approx(8.0 / 3.0, rel=1e-14)
    doubled = CesParams(A=2.0, alpha=0.5, beta=0.5, sigma=2.0)
    assert unit_cost(doubled, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_unit_cost_with_a_subnormal_price_to_weight_quotient():
    # w_a/beta is about 2.9e-323, a subnormal that keeps 2 digits; the value
    # below was computed with 60-digit arithmetic.
    ces = CesParams(A=1.634904105023118e229, alpha=1e-300, beta=2.0333592188702906e296, sigma=0.5)
    cost = unit_cost(ces, 36857906243.11075, 5.8833770828793686e-27)
    assert rel_err(cost, 7.3172603780292065e40) <= 1e-12


def test_unit_cost_rejects_nonpositive_prices():
    with pytest.raises(InvalidInput):
        unit_cost(SYM, 0.0, 1.0)
    with pytest.raises(InvalidInput):
        unit_cost(SYM, 1.0, -2.0)


def test_unit_cost_cobb_douglas_branch_matches_closed_form():
    ces = CesParams(A=1.5, alpha=1.0 / 3.0, beta=2.0 / 3.0, sigma=1.0)
    assert unit_cost(ces, 2.0, 0.7) == pytest.approx(
        cd_unit_cost(1.5, 1.0 / 3.0, 2.0 / 3.0, 2.0, 0.7), rel=1e-12
    )


@pytest.mark.parametrize("alpha, beta", [(1e-300, 1e300), (1e300, 1e-300)])
def test_cobb_douglas_exponent_that_underflows_to_zero_takes_its_limit(alpha, beta):
    # alpha/(alpha+beta) rounds to exactly 0 or 1; a*log(a) -> 0, so the other
    # input alone prices the unit and takes all the demand.
    ces = CesParams(A=2.0, alpha=alpha, beta=beta, sigma=1.0)
    agents_only = alpha < beta
    assert unit_cost(ces, 3.0, 5.0) == pytest.approx((5.0 if agents_only else 3.0) / 2.0, rel=1e-15)
    l_h, l_a = conditional_demands(ces, 3.0, 5.0)
    assert (l_h == 0.0) is agents_only and (l_a == 0.0) is not agents_only
    assert l_h + l_a == pytest.approx(0.5, rel=1e-15)


def test_unit_cost_brute_force_oracle_equivalence():
    # >= 20 random draws against the grid + golden-section oracle.
    rng = random.Random(20240817)
    for _ in range(25):
        sigma = math.exp(rng.uniform(math.log(0.3), math.log(5.0)))
        if abs(sigma - 1.0) < 1e-6:
            sigma = 1.2
        alpha = math.exp(rng.uniform(math.log(0.25), math.log(1.0)))
        beta = alpha * math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        A = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        w_h = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        w_a = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        ces = CesParams(A=A, alpha=alpha, beta=beta, sigma=sigma)
        oracle = bruteforce_unit_cost(A, alpha, beta, sigma, w_h, w_a)
        assert rel_err(unit_cost(ces, w_h, w_a), oracle) < ORACLE_REL_TOL


def test_homogeneity_of_degree_one_in_prices():
    for ces, w_h, w_a in grid_cases():
        base = unit_cost(ces, w_h, w_a)
        for t in (0.1, 3.0, 10.0):
            assert rel_err(unit_cost(ces, t * w_h, t * w_a), t * base) < HOMOGENEITY_REL_TOL


def test_unit_cost_strictly_increasing_in_each_price():
    for ces, w_h, w_a in grid_cases():
        assert unit_cost(ces, w_h * 1.3, w_a) > unit_cost(ces, w_h, w_a)
        assert unit_cost(ces, w_h, w_a * 1.3) > unit_cost(ces, w_h, w_a)


def test_shephard_lemma_by_central_differences():
    h = SHEPHARD_REL_STEP
    for ces, w_h, w_a in grid_cases():
        pair = conditional_demands(ces, w_h, w_a)
        fd_h = (unit_cost(ces, w_h * (1 + h), w_a) - unit_cost(ces, w_h * (1 - h), w_a)) / (
            2 * h * w_h
        )
        fd_a = (unit_cost(ces, w_h, w_a * (1 + h)) - unit_cost(ces, w_h, w_a * (1 - h))) / (
            2 * h * w_a
        )
        assert rel_err(fd_h, pair.l_h) < SHEPHARD_REL_TOL
        assert rel_err(fd_a, pair.l_a) < SHEPHARD_REL_TOL


# --- conditional_demands -----------------------------------------------------


def test_demands_symmetric_point():
    pair = conditional_demands(SYM, 1.0, 1.0)
    assert pair.l_h == pytest.approx(1.0, rel=1e-14)
    assert pair.l_a == pytest.approx(1.0, rel=1e-14)


def test_demands_worked_values():
    pair = conditional_demands(SYM, 2.0, 1.0)
    assert pair.l_h == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert pair.l_a == pytest.approx(16.0 / 9.0, rel=1e-12)
    cost = 2.0 * pair.l_h + 1.0 * pair.l_a
    assert cost == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_duality_consistency_on_grid():
    for ces, w_h, w_a in grid_cases():
        pair = conditional_demands(ces, w_h, w_a)
        cost = unit_cost(ces, w_h, w_a)
        assert rel_err(w_h * pair.l_h + w_a * pair.l_a, cost) < DUALITY_REL_TOL
        assert rel_err(ces_output(ces, pair.l_h, pair.l_a), 1.0) < DUALITY_REL_TOL


def test_own_price_demand_strictly_decreasing():
    for ces, w_h, w_a in grid_cases():
        base = conditional_demands(ces, w_h, w_a)
        dearer_h = conditional_demands(ces, w_h * 1.3, w_a)
        dearer_a = conditional_demands(ces, w_h, w_a * 1.3)
        assert dearer_h.l_h < base.l_h
        assert dearer_a.l_a < base.l_a


def test_demands_linear_branch_matches_corner_costmin():
    ces = CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=1e6)
    pair = conditional_demands(ces, 2.0, 1.0)
    alloc = linear_costmin(2.0, Technology(lam=1.0, k=1.0), 1.0, 2.0)
    assert rel_err(pair.l_h, alloc.l_h) < LIMIT_REL_TOL or pair.l_h == alloc.l_h == 0.0
    assert rel_err(pair.l_a, alloc.l_a) < LIMIT_REL_TOL
    assert ces_output(ces, pair.l_h, pair.l_a) == pytest.approx(1.0, rel=1e-12)


# 1/(A*alpha) is 1e-294 humans a unit and alpha/beta * 1e-294 = 1e-321 agents, a subnormal.
_SUBNORMAL_AGENTS = CesParams(A=1e300, alpha=1e-6, beta=1e21, sigma=1e7)


def test_linear_branch_prices_a_subnormal_corner_in_logs():
    # w_a*(alpha/beta)*(1/(A*alpha)) takes the digits the subnormal factor lost: 0.2 % off.
    assert rel_err(unit_cost(_SUBNORMAL_AGENTS, 1e200, 1e200), 1e-121) < 1e-12
    assert conditional_demands(_SUBNORMAL_AGENTS, 1e200, 1e200) == (0.0, 1e-321)


def test_linear_branch_unit_cost_below_the_normal_range_is_a_range_error():
    # The human corner is the cheaper one, at 1e-16 * 1e-294 = 1e-310: as in the other branches.
    for f in (unit_cost, conditional_demands):
        with raises_range_error("CES unit cost"):
            f(_SUBNORMAL_AGENTS, 1e-16, 1e200)


@pytest.mark.parametrize(
    "ces, l_h, l_a",
    [
        (CesParams(A=1e300, alpha=1.0, beta=1.0, sigma=2.0), 1e10, 1e10),  # general
        (CesParams(A=1.0, alpha=1.0, beta=1e10, sigma=1.01), 0.0, 1.0),  # beta**(1/rho) overflows
        (CesParams(A=1.0, alpha=1e10, beta=1e10, sigma=2.0), 1e308, 1e308),  # so does its exp
        (CesParams(A=1e300, alpha=1.0, beta=1.0, sigma=1.0), 1e300, 1e300),  # Cobb-Douglas
        (CesParams(A=1e300, alpha=1.0, beta=1.0, sigma=1e7), 1e10, 1e10),  # linear
        (CesParams(A=1e300, alpha=1.0, beta=1.0, sigma=1e-5), 1e10, 1e10),  # Leontief
    ],
)
def test_ces_output_beyond_the_float_range_is_a_range_error(ces, l_h, l_a):
    with raises_range_error("CES output"):
        ces_output(ces, l_h, l_a)


def _ces_output_reference(ces, l_h, l_a, rho):
    """A * (alpha * l_h**rho + beta * l_a**rho)**(1/rho) in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        rho = Decimal(rho)
        mean = Decimal(ces.alpha) * Decimal(l_h) ** rho + Decimal(ces.beta) * Decimal(l_a) ** rho
        return Decimal(ces.A) * mean ** (1 / rho)


@pytest.mark.parametrize(
    "ces, l_h, l_a",
    [
        (CesParams(A=1e-300, alpha=1e10, beta=1e10, sigma=2.0), 1e308, 1e308),  # the power mean overflows
        (CesParams(A=1e-300, alpha=1e10, beta=1e10, sigma=1e7), 1e300, 1e300),  # linear: alpha * l_h overflows
        (CesParams(A=1e-300, alpha=1.0, beta=1e40, sigma=16 / 15), 0.0, 1e-100),  # A * beta**(1/rho) overflows
        (CesParams(A=1e-300, alpha=1e40, beta=1.0, sigma=16 / 15), 1e-100, 0.0),
    ],
)
def test_ces_output_in_range_where_a_factor_overflows(ces, l_h, l_a):
    # About 4e28, 2e10 and 1e240: a small A (or input) brings the result back into range.
    rho = 1.0 if ces.sigma >= 1e6 else ces.rho  # the linear branch is the perfect-substitute form
    expected = _ces_output_reference(ces, l_h, l_a, rho)
    assert abs(Decimal(ces_output(ces, l_h, l_a)) / expected - 1) <= Decimal("1e-12")


def test_ces_output_may_underflow():
    subnormal = ces_output(CesParams(A=1e-300, alpha=1.0, beta=1.0, sigma=1e7), 1e-10, 1e-10)
    assert subnormal == 1e-300 * 2e-10 < sys.float_info.min


# --- relative_wage ------------------------------------------------------------


def test_relative_wage_beyond_the_float_range_is_a_range_error():
    with raises_range_error("relative wage"):
        relative_wage(CesParams(A=1.0, alpha=1.0, beta=1.0, sigma=0.5), 1e-300, 1e300)  # exp overflows
    with raises_range_error("relative wage"):
        relative_wage(CesParams(A=1.0, alpha=1e300, beta=1e-300, sigma=2.0), 1.0, 1.0)
    assert relative_wage(CesParams(A=1.0, alpha=1e-300, beta=1e300, sigma=2.0), 1.0, 1.0) == 0.0


def test_relative_wage_whose_weight_ratio_alone_overflows_is_taken_in_logs():
    # alpha/beta is inf and (l_h/l_a)**(-1/sigma) is 1e-300; their product is 1e300.
    ces = CesParams(A=1.0, alpha=1e300, beta=1e-300, sigma=2.0)
    assert relative_wage(ces, 1e300, 1e-300) == pytest.approx(1e300, rel=1e-12)


def test_relative_wage_symmetric():
    assert relative_wage(SYM, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_relative_wage_consistent_with_demands():
    # At prices (2, 1) the demand ratio must reprice to exactly 2.
    assert relative_wage(SYM, 4.0 / 9.0, 16.0 / 9.0) == pytest.approx(2.0, rel=1e-12)


def test_relative_wage_perfect_substitute_limit():
    ces = CesParams(A=1.0, alpha=0.6, beta=0.4, sigma=1e9)
    for ratio in (0.1, 0.5, 1.0, 4.0, 10.0):
        assert relative_wage(ces, ratio, 1.0) == pytest.approx(1.5, rel=1e-6)


def test_relative_wage_rejects_nonpositive_quantities():
    with pytest.raises(InvalidInput):
        relative_wage(SYM, 0.0, 1.0)


# --- leontief_requirements ------------------------------------------------------


def test_leontief_symmetric_and_scale():
    sym = leontief_requirements(CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=0.5), 1.0)
    assert (sym.l_h, sym.l_a) == (1.0, 1.0)
    scaled = leontief_requirements(CesParams(A=2.0, alpha=0.5, beta=0.5, sigma=0.5), 1.0)
    assert (scaled.l_h, scaled.l_a) == (0.5, 0.5)


def test_leontief_weights_wash_out_confirmed_by_small_sigma_demands():
    # The fixed proportions of the sigma -> 0 limit do not depend on the
    # weights; conditional demands just above the routing threshold confirm.
    ces_small = CesParams(A=1.0, alpha=0.6, beta=0.4, sigma=3e-4)
    pair = conditional_demands(ces_small, 1.0, 1.0)
    target = leontief_requirements(CesParams(A=1.0, alpha=0.6, beta=0.4, sigma=0.5), 1.0)
    assert rel_err(pair.l_h, target.l_h) < LIMIT_REL_TOL
    assert rel_err(pair.l_a, target.l_a) < LIMIT_REL_TOL


def test_leontief_routing_at_threshold():
    ces = CesParams(A=1.0, alpha=0.6, beta=0.4, sigma=1e-4)
    pair = conditional_demands(ces, 3.0, 0.2)
    req = leontief_requirements(ces, 1.0)
    assert (pair.l_h, pair.l_a) == (req.l_h, req.l_a)


def test_leontief_requirements_beyond_the_float_range_are_a_range_error():
    with raises_range_error("CES demand"):
        leontief_requirements(CesParams(A=1e-300, alpha=1.0, beta=1.0, sigma=1e-5), 1e300)
    tiny = leontief_requirements(CesParams(A=1e300, alpha=1.0, beta=1.0, sigma=1e-5), 1e-20)
    assert 0.0 < tiny.l_h == tiny.l_a < sys.float_info.min  # an underflow comes back


def test_leontief_rejects_nonpositive_target():
    with pytest.raises(InvalidInput):
        leontief_requirements(SYM, 0.0)


# --- limit recovery ---------------------------------------------------------------


def test_perfect_substitute_limit_recovers_wage_bound():
    # With alpha/beta = lam and A*alpha = 1 the CES unit cost at huge sigma
    # collapses to min(w_h, lam*k*r_c).
    rng = random.Random(7)
    for _ in range(50):
        lam = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        k = math.exp(rng.uniform(math.log(0.05), math.log(2.0)))
        r_c = math.exp(rng.uniform(math.log(0.5), math.log(5.0)))
        w_h = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        ces = CesParams(A=1.0, alpha=1.0, beta=1.0 / lam, sigma=1e6)
        tech = Technology(lam=lam, k=k)
        bound_value = min(w_h, caw_ceiling(tech, r_c))
        assert rel_err(unit_cost(ces, w_h, k * r_c), bound_value) < LIMIT_REL_TOL


def test_general_branch_approaches_linear_branch_from_below_threshold():
    # sigma = 1e5 stays on the general branch; it must already sit close to
    # the corner value used at the 1e6 threshold.
    ces_general = CesParams(A=1.0, alpha=0.6, beta=0.4, sigma=1e5)
    ces_linear = CesParams(A=1.0, alpha=0.6, beta=0.4, sigma=1e6)
    for w_h, w_a in ((1.0, 1.0), (2.0, 1.0), (0.5, 1.5)):
        assert rel_err(
            unit_cost(ces_general, w_h, w_a), unit_cost(ces_linear, w_h, w_a)
        ) < LIMIT_REL_TOL


@settings(max_examples=60)
@given(
    st.floats(min_value=0.3, max_value=5.0),
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=0.25, max_value=4.0),
)
def test_duality_holds_on_random_draws(sigma, w_h, w_a):
    ces = CesParams(A=1.0, alpha=0.45, beta=0.55, sigma=sigma)
    pair = conditional_demands(ces, w_h, w_a)
    assert rel_err(w_h * pair.l_h + w_a * pair.l_a, unit_cost(ces, w_h, w_a)) < DUALITY_REL_TOL
    assert rel_err(ces_output(ces, pair.l_h, pair.l_a), 1.0) < DUALITY_REL_TOL
