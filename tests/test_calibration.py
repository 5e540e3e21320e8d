import pytest

from caw import FactorShares, InvalidInput, TaskProfile, factor_shares, occupation_wage, table1
from caw import solve_capped_labor_market
from conftest import make_scenario, raises_range_error

# Reference ceilings in lam-major order (rows lam = 0.5, 1, 2; columns
# (k, r_c) = (0.05, 2), (1, 2), (1, 5)).
EXPECTED_GRID = [
    [0.05, 1.00, 2.50],
    [0.10, 2.00, 5.00],
    [0.20, 4.00, 10.00],
]


def test_factor_share_beyond_the_float_range_is_a_range_error():
    with raises_range_error("labor share w_h*l_h/y"):
        factor_shares(1e200, 1e200, 1.0, 1.0, 2.0)
    with raises_range_error("compute share r_c*k_c/y"):
        factor_shares(1.0, 1.0, 1e200, 1e200, 2.0)
    assert factor_shares(1e-200, 1e-200, 1.0, 1.0, 2.0) == FactorShares(0.0, 0.5)


def test_reference_grid_is_exact():
    grid = table1()
    assert len(grid) == 3 and all(len(row) == 3 for row in grid)
    for row, expected_row in zip(grid, EXPECTED_GRID):
        for cell, expected in zip(row, expected_row):
            assert cell.ceiling == expected  # exact decimal products, tolerance 0


def test_reference_grid_cells_satisfy_product_invariant():
    for row in table1():
        for cell in row:
            assert cell.ceiling == (cell.lam * cell.k) * cell.r_c


def test_reference_grid_axes():
    grid = table1()
    assert [row[0].lam for row in grid] == [0.5, 1.0, 2.0]
    assert [(c.k, c.r_c) for c in grid[0]] == [(0.05, 2.0), (1.0, 2.0), (1.0, 5.0)]


def test_occupation_wage_high_exposure_profile():
    paralegal = TaskProfile(s_sub=0.8, w_comp=25.0, w_counterfactual=25.0)
    assert occupation_wage(paralegal, 2.0) == pytest.approx(6.6, rel=1e-14)


def test_occupation_wage_low_exposure_profile():
    associate = TaskProfile(s_sub=0.3, w_comp=25.0, w_counterfactual=25.0)
    assert occupation_wage(associate, 2.0) == pytest.approx(18.1, rel=1e-14)


def test_occupation_wage_slack_ceiling_collapses_blend():
    profile = TaskProfile(s_sub=0.8, w_comp=25.0, w_counterfactual=25.0)
    assert occupation_wage(profile, 30.0) == pytest.approx(25.0, rel=1e-14)


def test_occupation_wage_monotone_in_ceiling_and_wages():
    profile = TaskProfile(s_sub=0.6, w_comp=20.0, w_counterfactual=25.0)
    assert occupation_wage(profile, 1.0) <= occupation_wage(profile, 2.0)
    richer_comp = TaskProfile(s_sub=0.6, w_comp=30.0, w_counterfactual=25.0)
    assert occupation_wage(richer_comp, 2.0) >= occupation_wage(profile, 2.0)
    richer_cf = TaskProfile(s_sub=0.6, w_comp=20.0, w_counterfactual=40.0)
    assert occupation_wage(richer_cf, 2.0) >= occupation_wage(profile, 2.0)


def test_occupation_wage_decreasing_in_exposure_when_ceiling_bites():
    low = TaskProfile(s_sub=0.3, w_comp=25.0)
    high = TaskProfile(s_sub=0.8, w_comp=25.0)
    assert occupation_wage(high, 2.0) < occupation_wage(low, 2.0)


def test_falling_ceiling_widens_the_exposure_gap():
    low = TaskProfile(s_sub=0.3, w_comp=25.0)
    high = TaskProfile(s_sub=0.8, w_comp=25.0)
    gaps = []
    for ceiling in (20.0, 10.0, 2.0, 0.5):
        gaps.append(occupation_wage(low, ceiling) - occupation_wage(high, ceiling))
    assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_factor_shares_arithmetic():
    shares = factor_shares(10.0, 5.0, 2.0, 10.0, 100.0)
    assert shares == FactorShares(s_labor=0.5, s_compute=0.2)


def test_factor_shares_zero_wage():
    assert factor_shares(0.0, 5.0, 2.0, 10.0, 100.0).s_labor == 0.0


def test_factor_shares_sum_to_one_under_two_factor_accounting():
    s = make_scenario()
    res = solve_capped_labor_market(s, 2.0)
    assert res.ceiling_binds
    y = res.w_h_star * res.l_h_star + res.r_c_star * res.k_c_star
    shares = factor_shares(res.w_h_star, res.l_h_star, res.r_c_star, res.k_c_star, y)
    assert shares.s_labor + shares.s_compute == pytest.approx(1.0, rel=1e-14)


def test_factor_shares_reject_nonpositive_output():
    with pytest.raises(InvalidInput):
        factor_shares(10.0, 5.0, 2.0, 10.0, 0.0)
