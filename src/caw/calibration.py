"""Reference calibration of the wage ceiling at current compute prices,
occupational wage blending across task mixes, and factor shares.

The reference grid spans three productivity ratios (agents better, parity,
humans better) against three compute configurations: a small distilled
model at spot GPU pricing, a frontier model at spot pricing, and a frontier
model at premium pricing. Each cell is the exact product lam * k * r_c in
currency per hour.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import FactorShares, TaskProfile, in_float_range, require

# Reference grid axes: productivity ratios x (compute intensity, rental rate).
CALIBRATION_LAMBDAS: tuple[float, ...] = (0.5, 1.0, 2.0)
CALIBRATION_COLUMNS: tuple[tuple[float, float], ...] = ((0.05, 2.0), (1.0, 2.0), (1.0, 5.0))


class CalibrationCell(NamedTuple):
    """One ceiling in the reference grid; ceiling == lam * k * r_c exactly."""

    lam: float
    k: float
    r_c: float
    ceiling: float


def table1() -> list[list[CalibrationCell]]:
    """The 3x3 reference ceiling grid, rows by lam, columns by (k, r_c).

    Products are computed as (lam * k) * r_c so each cell reproduces its
    decimal value exactly in floating point.
    """
    return [
        [
            CalibrationCell(lam=lam, k=k, r_c=r_c, ceiling=(lam * k) * r_c)
            for (k, r_c) in CALIBRATION_COLUMNS
        ]
        for lam in CALIBRATION_LAMBDAS
    ]


def occupation_wage(profile: TaskProfile, ceiling: float) -> float:
    """Blended hourly wage of an occupation under a wage ceiling.

    The ceiling applies only to the substitutable share of hours:

        s_sub * min(w_counterfactual, ceiling) + (1 - s_sub) * w_comp

    so two occupations with equal credentials but different task mixes
    diverge as the ceiling falls.
    """
    require("ceiling", ceiling, 0.0, True)
    capped = min(profile.w_counterfactual, ceiling)
    return profile.s_sub * capped + (1.0 - profile.s_sub) * profile.w_comp


def factor_shares(w_h: float, l_h: float, r_c: float, k_c: float, y: float) -> FactorShares:
    """Labor and compute payments as fractions of output value y.

    When y is constructed as total two-factor payments the shares sum to one;
    a share that overflows raises SolverError (:func:`caw.model.in_float_range`).
    """
    require("y", y)
    for name, value in (("w_h", w_h), ("l_h", l_h), ("r_c", r_c), ("k_c", k_c)):
        require(name, value, 0.0, True)
    s_labor = in_float_range(w_h * l_h / y, "labor share w_h*l_h/y", zero=True)
    return FactorShares(s_labor, in_float_range(r_c * k_c / y, "compute share r_c*k_c/y", zero=True))
