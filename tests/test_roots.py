import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from caw import NoConvergence, NoEquilibrium, constants, demand_curve, supply_curve
from caw.roots import find_root
from conftest import rel_err


def bisection_root(excess, abs_tol, rel_tol=constants.PRICE_REL_TOL):
    """Plain bisection on log price for a decreasing excess: the reference."""
    lo, hi = math.log(constants.BRACKET_LO), math.log(constants.BRACKET_HI)
    width = hi - lo
    for _ in range(constants.BRACKET_EXPANSIONS):
        if excess(math.exp(lo)) * excess(math.exp(hi)) <= 0.0:
            break
        lo, hi = lo - width, hi + width
    while True:
        mid = 0.5 * (lo + hi)
        f_mid = excess(math.exp(mid))
        width = hi - lo
        if f_mid == 0.0 or (width <= rel_tol and (abs(f_mid) <= abs_tol or width <= 4e-16)):
            return math.exp(mid)
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=3.0),
)
def test_agrees_with_bisection_on_iso_elastic_pairs(s0, d0, es, ed):
    supply, demand = supply_curve(s0, es), demand_curve(d0, ed)

    def excess(p):
        return demand.quantity(p) - supply.quantity(p)

    abs_tol = constants.EXCESS_ABS_TOL_SCALE * s0
    report = find_root(excess, abs_tol=abs_tol)
    assert rel_err(report.root, bisection_root(excess, abs_tol)) <= constants.PRICE_REL_TOL
    assert report.residual == abs(excess(report.root)) <= abs_tol


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_increasing_and_decreasing_functions(sign):
    report = find_root(lambda p: sign * (3.0 - p), abs_tol=1e-12)
    assert rel_err(report.root, 3.0) <= constants.PRICE_REL_TOL
    assert report.expansions == 0


def test_step_discontinuity_collapses_the_bracket():
    # |f| never drops below abs_tol, so the search must narrow the bracket
    # to float resolution around the jump. Away from p = 1 the log-price
    # spacing exceeds 4e-16, so collapse is one float spacing there.
    for jump in (2.0, 8.0, 100.0, 1e-3, 1e8):
        report = find_root(lambda p: 1.0 if p < jump else -1.0, abs_tol=1e-12)
        assert rel_err(report.root, jump) <= max(1e-15, 2.0 * math.ulp(math.log(jump)))
        assert report.residual == 1.0


def test_root_exactly_at_bracket_end():
    report = find_root(lambda p: min(0.0, 1.0 - p), abs_tol=1e-12)
    assert report.root == math.exp(math.log(constants.BRACKET_LO))
    assert (report.iterations, report.evaluations, report.residual) == (0, 2, 0.0)


def test_no_sign_change_raises_after_all_expansions():
    calls = []

    def constant(p):
        calls.append(p)
        return 1.0

    with pytest.raises(NoEquilibrium):
        find_root(constant, abs_tol=1e-12)
    assert len(calls) == 2 * (constants.BRACKET_EXPANSIONS + 1)


def test_iteration_cap_raises_no_convergence():
    with pytest.raises(NoConvergence) as info:
        find_root(lambda p: 3.0 - p, abs_tol=1e-12, max_iter=3)
    assert info.value.iterations == 3


def test_bracket_expands_geometrically():
    # Root far above the initial bracket: one widening by the bracket's
    # own width on each side reaches it.
    prices = []

    def excess(p):
        prices.append(p)
        return 1e13 - p

    report = find_root(excess, abs_tol=1e4)
    lo, hi = math.log(prices[2]), math.log(prices[3])
    initial = math.log(constants.BRACKET_HI) - math.log(constants.BRACKET_LO)
    assert hi - lo == pytest.approx(3.0 * initial)
    assert excess(prices[2]) > 0.0 > excess(prices[3])
    assert report.expansions == 1
    assert rel_err(report.root, 1e13) <= constants.PRICE_REL_TOL


def test_known_bracket_missing_the_root_widens_by_the_default_width():
    # Both ends of the given bracket lie a rounding error above the root;
    # one widening by the default bracket's width, not the given one's,
    # brackets it.
    logs = []

    def excess(p):
        logs.append(math.log(p))
        return 3.0 - p

    x = math.log(3.0) + 1e-15
    report = find_root(excess, abs_tol=1e-12, bracket=(x, x))
    initial = math.log(constants.BRACKET_HI) - math.log(constants.BRACKET_LO)
    assert logs[2] == pytest.approx(x - initial) and logs[3] == pytest.approx(x + initial)
    assert report.expansions == 1
    assert rel_err(report.root, 3.0) <= constants.PRICE_REL_TOL


@pytest.mark.parametrize(
    "excess",
    [
        lambda p: -math.inf if p > 10.0 else 5.0 - p,
        lambda p: math.inf if p < 1.0 else 5.0 - p,
        lambda p: math.inf if p < 1.0 else (-math.inf if p > 10.0 else 5.0 - p),
    ],
    ids=["neg_inf_high", "pos_inf_low", "inf_both_ends"],
)
def test_infinite_values_force_bisection(excess):
    report = find_root(excess, abs_tol=1e-12)
    assert rel_err(report.root, 5.0) <= constants.PRICE_REL_TOL
    assert math.isfinite(report.residual)


def test_nan_value_raises_no_convergence():
    with pytest.raises(NoConvergence):
        find_root(lambda p: math.nan if 2.0 < p < 4.0 else 3.0 - p, abs_tol=1e-12)


@pytest.mark.parametrize(
    "excess",
    [
        lambda p: 3.0 - p,
        lambda p: 1e13 / p - 1.0,
        lambda p: 1.0 if p < 2.0 else -1.0,
        lambda p: -math.inf if p > 10.0 else 5.0 - p,
        lambda p: min(0.0, 1.0 - p),
    ],
)
def test_evaluations_count_every_call(excess):
    calls = 0

    def counted(p):
        nonlocal calls
        calls += 1
        return excess(p)

    report = find_root(counted, abs_tol=1e-12)
    assert report.evaluations == calls
    assert report.evaluations == 2 * (report.expansions + 1) + report.iterations
