import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from caw import InvalidInput, grid

_FINITE = st.floats(min_value=-1e300, max_value=1e300)
_POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
# The corpus the numpy comparison runs on: magnitudes 1e-6 .. 1e6, either sign.
_MAGNITUDE = st.floats(min_value=1e-6, max_value=1e6)
_SIGNED = st.tuples(_MAGNITUDE, st.sampled_from((1.0, -1.0))).map(lambda p: p[0] * p[1])


def _monotone(values):
    pairs = list(zip(values, values[1:]))
    return all(a <= b for a, b in pairs) or all(a >= b for a, b in pairs)


def _check_shape(values, start, stop, steps):
    assert len(values) == steps
    assert values[0] == start
    if steps > 1:
        assert values[-1] == stop
    assert _monotone(values)
    assert all(math.isfinite(v) for v in values)


@given(start=_FINITE, stop=_FINITE, steps=st.integers(1, 500))
def test_linear_grid_shape(start, stop, steps):
    _check_shape(grid(start, stop, steps), start, stop, steps)


@given(start=_POSITIVE, stop=_POSITIVE, steps=st.integers(1, 500))
def test_log_grid_shape(start, stop, steps):
    values = grid(start, stop, steps, log=True)
    _check_shape(values, start, stop, steps)
    assert all(min(start, stop) <= v <= max(start, stop) for v in values)


def test_linear_grid_reference_points():
    assert grid(0.5, 2.0, 4) == [0.5, 1.0, 1.5, 2.0]
    assert grid(3.0, 1.0, 3) == [3.0, 2.0, 1.0]
    assert grid(2.0, 7.0, 1) == [2.0]
    assert grid(1.0, 1.0, 3) == [1.0, 1.0, 1.0]


def test_log_grid_reference_points():
    assert grid(1.0, 100.0, 3, log=True) == [1.0, 10.0, 100.0]
    assert grid(0.25, 4.0, 1, log=True) == [0.25]


def test_subnormal_step_divides_the_index_first():
    # (stop - start) / 4 underflows to zero; the index is divided first.
    assert grid(0.0, 5e-324, 5) == [0.0, 0.0, 0.0, 5e-324, 5e-324]


def test_log_grid_near_the_float_maximum_stays_finite():
    top = 1.7976931348623157e308
    assert grid(top, top, 4, log=True) == [top] * 4


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.0, 2.0, 0), "--steps must be >= 1"),
        ((1.0, 2.0, -3), "--steps must be >= 1"),
        ((0.0, 2.0, 3, True), "--log grids need positive endpoints"),
        ((1.0, -2.0, 3, True), "--log grids need positive endpoints"),
        ((-1e308, 1e308, 3), "spans more than the float range"),
        # A non-finite endpoint, named as given: these gave a grid ending in inf, and a message about log10(1.0).
        ((1.0, math.inf, 3, True), "^grid from 1.0 to inf spans more than the float range$"),
        ((math.nan, 1.0, 3, True), "^grid from nan to 1.0 spans more than the float range$"),
    ],
)
def test_grid_rejections(args, message):
    with pytest.raises(InvalidInput, match=message):
        grid(*args)


# --- agreement with numpy -------------------------------------------------------------


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


@given(start=_SIGNED, stop=_SIGNED, steps=st.integers(1, 3000))
def test_linear_grid_is_bit_equal_to_linspace(np, start, stop, steps):
    assert grid(start, stop, steps) == np.linspace(start, stop, steps).tolist()


@given(start=_MAGNITUDE, stop=_MAGNITUDE, steps=st.integers(1, 3000))
def test_log_grid_within_four_ulp_of_geomspace(np, start, stop, steps):
    # Four ulp for the two powers, plus what four ulp of the exponents make of
    # the value: libm's log10 and numpy's differ by one ulp on about 2% of
    # endpoints, the linear grid of exponents can round each interior point
    # either way on top of that, and 10**v turns an error e in v into a
    # relative error of ln(10) * e.
    exponent_ulp = math.ulp(abs(math.log10(start)) + abs(math.log10(stop)))
    expected = np.geomspace(start, stop, steps).tolist()
    for value, reference in zip(grid(start, stop, steps, log=True), expected, strict=True):
        bound = 4 * math.ulp(reference) + reference * math.log(10) * 4 * exponent_ulp
        assert abs(value - reference) <= bound
