"""Shared numerical constants.

These tolerances are part of the public contract: the test suite and every
downstream solver read them from here, so a change in one place changes both
the solvers and the checks that gate them.
"""

from __future__ import annotations

import math

# --- CES kernel regime thresholds -------------------------------------------
# |sigma - 1| below this band uses the Cobb-Douglas limit branch.
SIGMA_ONE_BAND = 1e-9
# sigma at or above this routes to the linear perfect-substitute branch.
SIGMA_LINEAR_THRESHOLD = 1e6
# sigma at or below this routes to the fixed-proportions (Leontief) branch.
SIGMA_LEONTIEF_THRESHOLD = 1e-4

# --- CES kernel contract tolerances ------------------------------------------
DUALITY_REL_TOL = 1e-10       # cost identity and output-of-demands checks
SHEPHARD_REL_TOL = 1e-5       # finite-difference vs conditional demand
SHEPHARD_REL_STEP = 1e-6      # relative step for the Shephard check
HOMOGENEITY_REL_TOL = 1e-12   # unit_cost degree-1 homogeneity
ORACLE_REL_TOL = 1e-6         # grid + golden-section oracle agreement
LIMIT_REL_TOL = 1e-3          # sigma -> inf / sigma -> 0 limit recovery

# --- Market solver defaults ---------------------------------------------------
PRICE_REL_TOL = 1e-10             # relative price tolerance for root searches
EXCESS_ABS_TOL_SCALE = 1e-9       # absolute excess-demand tolerance per unit of supply scale
MAX_ITER = 200                    # iteration cap for all bracketing searches
BRACKET_LO = 1e-9                 # initial price bracket, expanded geometrically
BRACKET_HI = 1e9
DEFAULT_BRACKET = (math.log(BRACKET_LO), math.log(BRACKET_HI))  # the same on a search's log axis
BRACKET_EXPANSIONS = 3            # maximum number of bracket expansions

# --- Comparative statics -------------------------------------------------------
DEFAULT_REL_STEP = 1e-4           # log-scale step for semi-elasticity differences
STATICS_WAGE_REL_TOL = 1e-12      # inner wage root-search tolerance

# Band (absolute, in wage units) within which a candidate wage counts as
# sitting on the ceiling when classifying regimes in market solvers.
REGIME_BAND_ABS = 1e-9


def tolerance_table() -> dict[str, float]:
    """The constants above as a flat mapping, for report metadata."""
    return {
        "sigma_one_band": SIGMA_ONE_BAND,
        "sigma_linear_threshold": SIGMA_LINEAR_THRESHOLD,
        "sigma_leontief_threshold": SIGMA_LEONTIEF_THRESHOLD,
        "duality_rel_tol": DUALITY_REL_TOL,
        "shephard_rel_tol": SHEPHARD_REL_TOL,
        "homogeneity_rel_tol": HOMOGENEITY_REL_TOL,
        "oracle_rel_tol": ORACLE_REL_TOL,
        "limit_rel_tol": LIMIT_REL_TOL,
        "price_rel_tol": PRICE_REL_TOL,
        "excess_abs_tol_scale": EXCESS_ABS_TOL_SCALE,
        "max_iter": MAX_ITER,
        "default_rel_step": DEFAULT_REL_STEP,
        "regime_band_abs": REGIME_BAND_ABS,
    }
