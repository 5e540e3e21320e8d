#!/usr/bin/env python3
"""Sensitivity of the wage ceiling and binding wage to compute-market shifts.

Prints the reference calibration grid, then sweeps the compute supply scale
in a binding scenario: the rental rate, ceiling, and equilibrium wage move
in lockstep while human employment adjusts along the supply curve. The
labor supply scale sweep at the end shows the flip side: under a binding
ceiling the wage does not move at all.

Usage: python3 scripts/ceiling_sensitivity.py [--points N]
"""

import argparse

from caw import (
    CesParams,
    PolicyLevers,
    Scenario,
    Technology,
    demand_curve,
    grid,
    solve_batch,
    supply_curve,
    table1,
)


def binding_scenario() -> Scenario:
    return Scenario(
        technology=Technology(lam=1.0, k=1.0),
        ces=CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=2.0),
        compute_supply=supply_curve(1.0, 1.0),
        compute_demand_exogenous=demand_curve(4.0, 1.0),
        labor_demand_ts=demand_curve(10.0, 1.0),
        labor_supply_ts=supply_curve(1.0, 1.0),
        policy=PolicyLevers(),
    )


def print_rows(title, header, rows):
    print(f"\n== {title}")
    print(",".join(header))
    for row in rows:
        print(",".join(f"{x:.6g}" if isinstance(x, float) else str(x) for x in row))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=7, help="sweep grid size")
    args = parser.parse_args()

    print_rows(
        "Reference ceiling grid (rows lam = 0.5, 1, 2)",
        ("lam", "k", "r_c", "ceiling"),
        [(c.lam, c.k, c.r_c, c.ceiling) for band in table1() for c in band],
    )

    s = binding_scenario()
    values = grid(0.25, 4.0, args.points, log=True)

    rows = [
        (value, r.r_c_star, r.ceiling, r.w_h_star, r.l_h_star, r.l_a_star)
        for value, r in zip(values, solve_batch(s, "compute_supply.scale", values))
    ]
    print_rows(
        "Compute supply scale sweep (binding: wage tracks the rental rate)",
        ("supply_scale", "r_c_star", "ceiling", "w_h_star", "l_h_star", "l_a_star"),
        rows,
    )

    rows = [
        (value, r.w_h_star, r.l_h_star, r.l_a_star)
        for value, r in zip(values, solve_batch(s, "labor_supply_ts.scale", values))
    ]
    print_rows(
        "Labor supply scale sweep (binding: wage immobile, employment shifts)",
        ("labor_supply_scale", "w_h_star", "l_h_star", "l_a_star"),
        rows,
    )


if __name__ == "__main__":
    main()
