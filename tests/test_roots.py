import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from caw import NoConvergence, NoEquilibrium, constants, demand_curve, supply_curve
from caw.roots import find_root
from conftest import rel_err


def bisection_root(excess, abs_tol, rel_tol=constants.PRICE_REL_TOL):
    """Plain bisection on log price x for an excess decreasing in x: the reference."""
    lo, hi = math.log(constants.BRACKET_LO), math.log(constants.BRACKET_HI)
    width = hi - lo
    for _ in range(constants.BRACKET_EXPANSIONS):
        if excess(lo) * excess(hi) <= 0.0:
            break
        lo, hi = lo - width, hi + width
    while True:
        mid = 0.5 * (lo + hi)
        f_mid = excess(mid)
        width = hi - lo
        if f_mid == 0.0 or (width <= rel_tol and (abs(f_mid) <= abs_tol or width <= 4e-16)):
            return mid
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

    def excess(x):
        p = math.exp(x)
        return demand.quantity(p) - supply.quantity(p)

    abs_tol = constants.EXCESS_ABS_TOL_SCALE * s0
    report = find_root(excess, abs_tol=abs_tol)
    price, reference = math.exp(report.root), math.exp(bisection_root(excess, abs_tol))
    assert rel_err(price, reference) <= constants.PRICE_REL_TOL
    assert report.residual == abs(excess(report.root)) <= abs_tol


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_increasing_and_decreasing_functions(sign):
    report = find_root(lambda x: sign * (3.0 - math.exp(x)), abs_tol=1e-12)
    assert rel_err(math.exp(report.root), 3.0) <= constants.PRICE_REL_TOL
    assert report.expansions == 0


def test_step_discontinuity_collapses_the_bracket():
    # |f| never drops below abs_tol, so the search must narrow the bracket
    # to float resolution around the jump. Away from x = 0 the float
    # spacing exceeds 4e-16, so collapse is one float spacing there.
    for jump in (2.0, 8.0, 100.0, 1e-3, 1e8):
        x_jump = math.log(jump)
        report = find_root(lambda x: 1.0 if x < x_jump else -1.0, abs_tol=1e-12)
        assert abs(report.root - x_jump) <= max(1e-15, 2.0 * math.ulp(x_jump))
        assert report.residual == 1.0


def test_root_exactly_at_bracket_end():
    lo = math.log(constants.BRACKET_LO)
    report = find_root(lambda x: min(0.0, lo - x), abs_tol=1e-12)
    assert report.root == lo
    assert (report.iterations, report.evaluations, report.residual) == (0, 2, 0.0)


def test_zero_at_both_bracket_ends_returns_the_upper_end():
    # Any point of the bracket is a root; the search returns its upper end
    # without a step. No solver builds such a function.
    report = find_root(lambda x: 0.0, abs_tol=1e-12, bracket=(-1.0, 2.0))
    assert report == (2.0, 0, 2, 0, 0.0)


def test_known_bracket_ends_are_the_first_two_points_evaluated():
    # The given bracket is evaluated as given, with no round trip through a
    # price: log(exp(x)) differs from x at both of these ends.
    xs = []

    def excess(x):
        xs.append(x)
        return 0.1 - x

    lo, hi = -0.30000000000000004, 0.3
    report = find_root(excess, abs_tol=1e-12, bracket=(lo, hi))
    assert xs[:2] == [lo, hi]
    assert report.expansions == 0 and abs(report.root - 0.1) <= 1e-10


def test_no_sign_change_raises_after_all_expansions():
    calls = []

    def constant(x):
        calls.append(x)
        return 1.0

    with pytest.raises(NoEquilibrium):
        find_root(constant, abs_tol=1e-12)
    assert len(calls) == 2 * (constants.BRACKET_EXPANSIONS + 1)


def test_iteration_cap_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(constants, "MAX_ITER", 3)
    with pytest.raises(NoConvergence) as info:
        find_root(lambda x: 3.0 - math.exp(x), abs_tol=1e-12)
    assert info.value.iterations == 3


def test_bracket_expands_geometrically():
    # Root far above the initial bracket: one widening by the bracket's
    # own width on each side reaches it.
    xs = []

    def excess(x):
        xs.append(x)
        return 1e13 - math.exp(x)

    report = find_root(excess, abs_tol=1e4)
    lo, hi = xs[2], xs[3]
    initial = math.log(constants.BRACKET_HI) - math.log(constants.BRACKET_LO)
    assert hi - lo == pytest.approx(3.0 * initial)
    assert excess(lo) > 0.0 > excess(hi)
    assert report.expansions == 1
    assert rel_err(math.exp(report.root), 1e13) <= constants.PRICE_REL_TOL


def test_known_bracket_missing_the_root_widens_by_the_default_width():
    # Both ends of the given bracket lie a rounding error above the root;
    # one widening by the default bracket's width, not the given one's,
    # brackets it.
    xs = []

    def excess(x):
        xs.append(x)
        return 3.0 - math.exp(x)

    x = math.log(3.0) + 1e-15
    report = find_root(excess, abs_tol=1e-12, bracket=(x, x))
    initial = math.log(constants.BRACKET_HI) - math.log(constants.BRACKET_LO)
    assert xs[2] == pytest.approx(x - initial) and xs[3] == pytest.approx(x + initial)
    assert report.expansions == 1
    assert rel_err(math.exp(report.root), 3.0) <= constants.PRICE_REL_TOL


@pytest.mark.parametrize(
    "excess",
    [
        lambda x: -math.inf if x > 10.0 else 5.0 - x,
        lambda x: math.inf if x < 1.0 else 5.0 - x,
        lambda x: math.inf if x < 1.0 else (-math.inf if x > 10.0 else 5.0 - x),
    ],
    ids=["neg_inf_high", "pos_inf_low", "inf_both_ends"],
)
def test_infinite_values_force_bisection(excess):
    report = find_root(excess, abs_tol=1e-12)
    assert rel_err(report.root, 5.0) <= constants.PRICE_REL_TOL
    assert math.isfinite(report.residual)


def test_nan_value_raises_no_convergence():
    with pytest.raises(NoConvergence):
        find_root(lambda x: math.nan if 2.0 < x < 4.0 else 3.0 - x, abs_tol=1e-12)


@pytest.mark.parametrize(
    "excess",
    [
        lambda x: 3.0 - x,
        lambda x: 1e13 / math.exp(x) - 1.0,
        lambda x: 1.0 if x < 2.0 else -1.0,
        lambda x: -math.inf if x > 10.0 else 5.0 - x,
        lambda x: min(0.0, 1.0 - x),
    ],
)
def test_evaluations_count_every_call(excess):
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return excess(x)

    report = find_root(counted, abs_tol=1e-12)
    assert report.evaluations == calls
    assert report.evaluations == 2 * (report.expansions + 1) + report.iterations


def test_tiny_values_of_one_sign_at_both_ends_widen_the_bracket():
    # Both ends are negative, and their product underflows to 0: the signs
    # still agree, so the search widens to the root at x = -30.
    report = find_root(lambda x: -1e-170 * math.expm1((30.0 + x) / 10.0), abs_tol=1e-200)
    assert report.expansions == 1
    assert abs(report.root + 30.0) <= 1e-12
