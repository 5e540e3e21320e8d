"""The bracketed root finder shared by every solver. It searches a monotone
function of a log coordinate x and returns x: log price for market clearing
and the coupled fixed point, the log input ratio log(l_a/l_h) for the
comparative statics. It never leaves that axis; a caller that needs a price
takes exp(x) itself.

A search starts from a bracket in x and, while the function has the same
sign at both ends, widens it by the default bracket's width on each side,
up to BRACKET_EXPANSIONS times. The default bracket is
[log BRACKET_LO, log BRACKET_HI]; a caller that knows a tighter one passes
it as ``bracket=``. However narrow a known bracket is, each widening is the
full default width: one that misses the root by a rounding error finds it
in one widening, and one near :data:`REACHABLE`, the points a default
search can reach, keeps every evaluated x within -300 to 300, so a price
exp(x) stays far inside the floating-point range. :func:`find_root` then
runs Brent's method (inverse-quadratic and secant steps, falling back to
bisection whenever an interpolated step would not shrink the bracket fast
enough), which keeps bisection's guarantee while converging superlinearly
on the smooth excess functions of iso-elastic markets. An infinite function
value forces a bisection step; NaN aborts.

On a log axis the search is scale-free: the bracket width is a relative
price width, so PRICE_REL_TOL applies to it directly.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from . import constants
from .errors import NoConvergence, NoEquilibrium

# Below this width in x, or one float spacing at either end of the bracket
# (wider than this once |x| > 2), the bracket has collapsed to float
# resolution and the excess tolerance is no longer required for convergence.
_COLLAPSED_WIDTH = 4e-16
_EPS = sys.float_info.epsilon

# The default bracket's width, and the points a default search can reach
# after every widening.
_LO, _HI = constants.DEFAULT_BRACKET
_DEFAULT_WIDTH = _HI - _LO
REACHABLE = (_LO - constants.BRACKET_EXPANSIONS * _DEFAULT_WIDTH, _HI + constants.BRACKET_EXPANSIONS * _DEFAULT_WIDTH)


class RootReport(NamedTuple):
    """A root on the search's log axis with the work spent finding it.

    ``iterations`` counts steps after bracketing, ``evaluations`` every
    function call including the bracket ends, ``residual`` is ``|f(root)|``.
    """

    root: float
    iterations: int
    evaluations: int
    expansions: int
    residual: float


def find_root(
    f: Callable[[float], float],
    *,
    abs_tol: float,
    rel_tol: float = constants.PRICE_REL_TOL,
    bracket: tuple[float, float] = constants.DEFAULT_BRACKET,
) -> RootReport:
    """The x where the monotone function ``f`` of x crosses zero.

    The search starts from the ``bracket`` ``(lo, hi)``, ``lo <= hi``, and
    widens it while ``f`` has the same sign at both ends. Converged when
    the bracket is at most ``rel_tol`` wide and ``|f| <= abs_tol`` at the
    best point, or when the bracket has collapsed to float resolution; a
    zero at either end is a root, and where both ends are zero the root is
    ``hi``. Raises NoEquilibrium when no sign change is found on the widest
    bracket, NoConvergence on a NaN value or after MAX_ITER steps.
    """
    evaluations = 0

    def evaluate(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        value = f(x)
        if math.isnan(value):
            raise NoConvergence(f"excess is NaN at x = {x!r}", math.nan, evaluations)
        return value

    lo, hi = bracket
    f_lo, f_hi = evaluate(lo), evaluate(hi)
    expansions = 0
    # The signs, not f_lo * f_hi: the product of two tiny values underflows to 0.
    while (f_lo > 0.0 and f_hi > 0.0) or (f_lo < 0.0 and f_hi < 0.0):
        if expansions == constants.BRACKET_EXPANSIONS:
            raise NoEquilibrium("excess demand has no sign change on the price bracket")
        lo -= _DEFAULT_WIDTH
        hi += _DEFAULT_WIDTH
        f_lo, f_hi = evaluate(lo), evaluate(hi)
        expansions += 1

    # Brent's method as in scipy's brentq: ``cur`` is the best point,
    # ``blk`` the other end of the bracket, ``pre`` the previous iterate.
    # A zero at an end returns before the first step.
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
            return RootReport(cur, iterations, evaluations, expansions, abs(f_cur))
        if iterations >= constants.MAX_ITER:
            raise NoConvergence("price search hit the iteration cap", abs(f_cur), iterations)

        s_bis = 0.5 * (blk - cur)
        # Smallest step worth taking: half the tolerance, and never below
        # float resolution at ``cur``. A bracket no wider than two such
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
        f_cur = evaluate(cur)
        iterations += 1
