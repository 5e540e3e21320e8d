"""The bracketed root finder on log price shared by every solver: market
clearing, the coupled fixed point and the comparative statics search over
the log input ratio log(l_a/l_h), which it treats as a log price.

A search starts from a log-price bracket and, while the function has the
same sign at both ends, widens it by the default bracket's width on each
side, up to BRACKET_EXPANSIONS times. The default bracket is
[log BRACKET_LO, log BRACKET_HI]; a caller that knows a tighter one passes
it as ``bracket=``. However narrow a known bracket is, each widening is the
full default width: one that misses the root by a rounding error finds it
in one widening, and one near :data:`REACHABLE`, the log prices a default
search can reach, keeps every evaluated price within e**-300 to e**300,
far inside the floating-point range. :func:`find_root` then runs Brent's
method (inverse-quadratic and secant steps, falling back to bisection
whenever an interpolated step would not shrink the bracket fast enough),
which keeps bisection's guarantee while converging superlinearly on the
smooth excess functions of iso-elastic markets. An infinite function value
forces a bisection step; NaN aborts.

Working in log price makes the search scale-free: the bracket width is a
relative price width, so PRICE_REL_TOL applies to it directly.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from . import constants
from .errors import NoConvergence, NoEquilibrium

# Below this log width, or one float spacing at either end of the bracket
# (wider than this once |log price| > 2), the bracket has collapsed to float
# resolution and the excess tolerance is no longer required for convergence.
_COLLAPSED_WIDTH = 4e-16
_EPS = sys.float_info.epsilon

# The default log-price bracket, its width, and the log prices a default
# search can reach after every widening.
DEFAULT_BRACKET = (math.log(constants.BRACKET_LO), math.log(constants.BRACKET_HI))
_DEFAULT_WIDTH = DEFAULT_BRACKET[1] - DEFAULT_BRACKET[0]
REACHABLE = (
    DEFAULT_BRACKET[0] - constants.BRACKET_EXPANSIONS * _DEFAULT_WIDTH,
    DEFAULT_BRACKET[1] + constants.BRACKET_EXPANSIONS * _DEFAULT_WIDTH,
)


class RootReport(NamedTuple):
    """A root on the price axis with the work spent finding it.

    ``iterations`` counts steps after bracketing, ``evaluations`` every
    function call including the bracket ends, ``residual`` is ``|f(root)|``.
    """

    root: float
    iterations: int
    evaluations: int
    expansions: int
    residual: float


def _expand_bracket(
    f: Callable[[float], float], bracket: tuple[float, float]
) -> tuple[float, float, float, float, int]:
    """Widen the log-price ``bracket`` until ``f`` changes sign at its ends,
    by the default bracket's width on each side.

    Returns ``(lo, hi, f(lo), f(hi), expansions)``. Gives up after
    BRACKET_EXPANSIONS widenings and returns the last bracket either way;
    callers decide what a missing sign change means.
    """
    lo, hi = bracket
    f_lo, f_hi = f(lo), f(hi)
    expansions = 0
    while f_lo * f_hi > 0.0 and expansions < constants.BRACKET_EXPANSIONS:
        lo -= _DEFAULT_WIDTH
        hi += _DEFAULT_WIDTH
        f_lo, f_hi = f(lo), f(hi)
        expansions += 1
    return lo, hi, f_lo, f_hi, expansions


def find_root(
    excess: Callable[[float], float],
    *,
    abs_tol: float,
    rel_tol: float = constants.PRICE_REL_TOL,
    max_iter: int = constants.MAX_ITER,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
) -> RootReport:
    """Price where the monotone function ``excess`` crosses zero.

    The search starts from the log-price ``bracket`` ``(lo, hi)``,
    ``lo <= hi``, and widens it while ``excess`` has the same sign at both
    ends. Converged when the log-price bracket is at most ``rel_tol`` wide
    and ``|excess| <= abs_tol`` at the best point, or when the bracket has
    collapsed to float resolution. Raises NoEquilibrium when no sign change
    is found on the widest bracket, NoConvergence on a NaN value or after
    ``max_iter`` steps.
    """
    evaluations = 0

    def f(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        value = excess(math.exp(x))
        if math.isnan(value):
            raise NoConvergence(
                f"excess is NaN at price {math.exp(x)!r}", math.nan, evaluations
            )
        return value

    lo, hi, f_lo, f_hi, expansions = _expand_bracket(f, bracket)
    if f_lo == 0.0:
        return RootReport(math.exp(lo), 0, evaluations, expansions, 0.0)
    if f_hi == 0.0:
        return RootReport(math.exp(hi), 0, evaluations, expansions, 0.0)
    if f_lo * f_hi > 0.0:
        raise NoEquilibrium("excess demand has no sign change on the price bracket")

    # Brent's method as in scipy's brentq: ``cur`` is the best point,
    # ``blk`` the other end of the bracket, ``pre`` the previous iterate.
    pre, f_pre = lo, f_lo
    cur, f_cur = hi, f_hi
    blk, f_blk = pre, f_pre
    s_pre = s_cur = cur - pre
    iterations = 0
    while True:
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            blk, f_blk = pre, f_pre
            s_pre = s_cur = cur - pre
        if abs(f_blk) < abs(f_cur):
            pre, f_pre = cur, f_cur
            cur, f_cur = blk, f_blk
            blk, f_blk = pre, f_pre

        width = abs(blk - cur)
        if f_cur == 0.0 or (width <= rel_tol and (
            abs(f_cur) <= abs_tol or width <= max(_COLLAPSED_WIDTH, math.ulp(cur), math.ulp(blk))
        )):
            return RootReport(math.exp(cur), iterations, evaluations, expansions, abs(f_cur))
        if iterations >= max_iter:
            raise NoConvergence("price search hit the iteration cap", abs(f_cur), iterations)

        s_bis = 0.5 * (blk - cur)
        # Smallest step worth taking: half the price tolerance, and never
        # below float resolution at ``cur``. A bracket no wider than two such
        # steps can only be shrunk further by bisection.
        delta = 0.5 * rel_tol + 4.0 * _EPS * abs(cur)
        trial = math.nan
        if (
            abs(s_bis) > delta
            and abs(s_pre) > delta
            and abs(f_cur) < abs(f_pre)
            and math.isfinite(f_pre)
            and math.isfinite(f_blk)
        ):
            if pre == blk:
                trial = -f_cur * (cur - pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (pre - cur)
                d_blk = (f_blk - f_cur) / (blk - cur)
                denominator = d_blk * d_pre * (f_blk - f_pre)
                if denominator != 0.0:
                    trial = -f_cur * (f_blk * d_blk - f_pre * d_pre) / denominator
        if 2.0 * abs(trial) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, trial
        else:
            s_pre = s_cur = s_bis

        pre, f_pre = cur, f_cur
        if abs(s_cur) > delta or abs(s_bis) <= delta:
            cur += s_cur
        else:
            cur += delta if s_bis > 0.0 else -delta
        f_cur = f(cur)
        iterations += 1
