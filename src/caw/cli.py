"""Command surface binding the model operations to scenario files and tables.

Subcommands:

* ``table1``     -- the reference calibration grid of wage ceilings
* ``bound``      -- one ceiling from --lambda/--k/--rc (and policy levers)
* ``ces``        -- unit cost and conditional demands at given factor prices
* ``solve``      -- solve a scenario file (capped or coupled mode)
* ``sweep``      -- re-solve across a one-parameter grid
* ``trajectory`` -- ceiling path over time under improvement rate g
* ``statics``    -- pass-through identity: direct formula vs finite difference
* ``shares``     -- factor shares at the solved equilibrium

All commands emit one table as CSV on stdout by default; ``--format json``
switches to JSON and ``--out FILE`` writes to a file.
Exit codes: 0 success, 2 validation/input errors, 3 solver non-convergence.
Diagnostics go to stderr; setting ``CAW_NO_COLOR`` disables styling.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from .bound import CEILING, caw_ceiling, require_rate
from .calibration import factor_shares, table1
from .ces import DemandPair, conditional_demands, unit_cost
from .errors import InvalidInput, ParseError, SolverError, ValidationError
from .markets import solve_compute_market, solve_scenario
from .model import SWEEPABLE_PARAMS, CesParams, EquilibriumResult, FactorShares, PolicyLevers, Scenario
from .model import Technology, field_violation, in_float_range, require
from .scenario_io import (
    OutputTable,
    emit_table,
    inputs_sha256,
    parse_scenario,
    scenario_sha256,
    standard_metadata,
)
from .statics import SemiElasticity, StaticsPoint, StaticsSetup, caw_trajectory, grid, semi_elasticity, sweep

def finite_float(text: str) -> float:
    """Argparse type for every float flag: a finite number, else exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises InvalidInput on a rejected command line,
    so run_command reports it on the caller's stderr like any input error
    (argparse itself prints usage to sys.stderr and exits), and prints help
    on the caller's ``stdout``. Subcommand parsers share the class and the
    stream."""

    def __init__(self, *args, stdout=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.stdout = stdout

    def print_help(self, file=None):
        super().print_help(file if file is not None else self.stdout)

    def error(self, message: str):
        raise InvalidInput(f"{self.prog}: {message}")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, metavar="FILE")


def _add_scenario_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, metavar="FILE")


def _build_parser(stdout=None) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="caw",
        description="Compute-anchored wage model: ceilings, markets, statics.",
        stdout=stdout,
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=functools.partial(_Parser, stdout=stdout)
    )

    p = sub.add_parser("table1", help="reference ceiling calibration grid")
    _add_output_flags(p)

    p = sub.add_parser("bound", help="wage ceiling for one technology/price point")
    p.add_argument("--lambda", dest="lam", type=finite_float, required=True)
    p.add_argument("--k", type=finite_float, required=True)
    p.add_argument("--rc", type=finite_float, required=True)
    p.add_argument("--tau", type=finite_float, default=0.0)
    p.add_argument("--mu", type=finite_float, default=1.0)
    _add_output_flags(p)

    p = sub.add_parser("ces", help="unit cost and conditional demands")
    p.add_argument("--A", type=finite_float, default=1.0)
    p.add_argument("--alpha", type=finite_float, required=True)
    p.add_argument("--beta", type=finite_float, required=True)
    p.add_argument("--sigma", type=finite_float, required=True)
    p.add_argument("--wh", type=finite_float, required=True)
    p.add_argument("--wa", type=finite_float, required=True)
    _add_output_flags(p)

    p = sub.add_parser("solve", help="solve one scenario file")
    _add_scenario_flag(p)
    p.add_argument("--mode", choices=("capped", "coupled"), default="capped")
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="solve across a one-parameter grid")
    _add_scenario_flag(p)
    p.add_argument("--param", required=True, choices=SWEEPABLE_PARAMS, metavar="PATH")
    p.add_argument("--from", dest="start", type=finite_float, required=True)
    p.add_argument("--to", dest="stop", type=finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--log", action="store_true", help="geometric instead of linear grid")
    p.add_argument("--mode", choices=("capped", "coupled"), default="capped")
    _add_output_flags(p)

    p = sub.add_parser("trajectory", help="ceiling over time at improvement rate g")
    _add_scenario_flag(p)
    p.add_argument("--t-max", dest="t_max", type=finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--rc", type=finite_float, default=None, help="override the compute-market rental rate")
    _add_output_flags(p)

    p = sub.add_parser("statics", help="wage pass-through: direct formula vs finite difference")
    _add_scenario_flag(p)
    p.add_argument("--demand", type=finite_float, default=1.0, help="fixed effective-labor demand level")
    p.add_argument("--rel-step", dest="rel_step", type=finite_float, default=1e-4)
    p.add_argument("--rc", type=finite_float, default=None, help="override the compute-market rental rate")
    _add_output_flags(p)

    p = sub.add_parser("shares", help="factor shares at the solved equilibrium")
    _add_scenario_flag(p)
    p.add_argument("--mode", choices=("capped", "coupled"), default="capped")
    _add_output_flags(p)

    return parser


def _load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidInput(f"cannot read scenario file {path!r}: {exc}") from exc
    return parse_scenario(text)


def _rental_rate(s: Scenario, override: float | None) -> float:
    if override is not None:
        require_rate(override)
        return override
    return solve_compute_market(s).price


def _cmd_table1(args) -> OutputTable:
    rows = [
        (cell.lam, cell.k, cell.r_c, cell.ceiling) for band in table1() for cell in band
    ]
    meta = standard_metadata(inputs_sha256({"command": "table1"}), command="table1")
    return OutputTable(headers=("lambda", "k", "r_c", "ceiling"), rows=tuple(rows), metadata=meta)


def _check_flags(values: dict[str, float]) -> None:
    """Raise one ValidationError for every model flag, keyed by its scenario
    field path, that breaks the rule a scenario document meets."""
    violations = [v for path, value in values.items() if (v := field_violation(path, value)) is not None]
    if violations:
        raise ValidationError(violations)


def _cmd_bound(args) -> OutputTable:
    _check_flags(
        {"technology.lambda": args.lam, "technology.k": args.k, "policy.tau_c": args.tau, "policy.mu": args.mu}
    )
    tech = Technology(lam=args.lam, k=args.k)
    policy = PolicyLevers(tau_c=args.tau, mu=args.mu)
    ceiling = in_float_range(caw_ceiling(tech, args.rc, policy), CEILING, zero=True)
    inputs = {"command": "bound", "lambda": args.lam, "k": args.k, "rc": args.rc, "tau": args.tau, "mu": args.mu}
    meta = standard_metadata(inputs_sha256(inputs), command="bound")
    return OutputTable(
        headers=("lambda", "k", "r_c", "tau_c", "mu", "ceiling"),
        rows=((args.lam, args.k, args.rc, args.tau, args.mu, ceiling),),
        metadata=meta,
    )


def _cmd_ces(args) -> OutputTable:
    _check_flags({"ces.A": args.A, "ces.alpha": args.alpha, "ces.beta": args.beta, "ces.sigma": args.sigma})
    ces = CesParams(A=args.A, alpha=args.alpha, beta=args.beta, sigma=args.sigma)
    cost = unit_cost(ces, args.wh, args.wa)
    pair = conditional_demands(ces, args.wh, args.wa)
    inputs = {"command": "ces", **ces._asdict(), "wh": args.wh, "wa": args.wa}
    meta = standard_metadata(inputs_sha256(inputs), command="ces")
    return OutputTable(headers=("unit_cost", *DemandPair._fields), rows=((cost, *pair),), metadata=meta)


def _cmd_solve(args) -> OutputTable:
    s = _load_scenario(args.scenario)
    res = solve_scenario(s, args.mode)
    meta = standard_metadata(scenario_sha256(s), command="solve", mode=args.mode)
    return OutputTable(headers=EquilibriumResult._fields, rows=((res.regime.value, *res[1:]),), metadata=meta)


def _cmd_sweep(args) -> OutputTable:
    s = _load_scenario(args.scenario)
    values = grid(args.start, args.stop, args.steps, log=args.log)
    blank = (None,) * len(EquilibriumResult._fields)
    rows = [
        (value, res.regime._value_, *res[1:], None) if res is not None else (value, *blank, error)
        for value, res, error in sweep(s, args.param, values, solver=args.mode)
    ]
    meta = standard_metadata(scenario_sha256(s), command="sweep", mode=args.mode, param=args.param)
    return OutputTable(
        headers=("value", *EquilibriumResult._fields, "error"), rows=tuple(rows), metadata=meta
    )


def _cmd_trajectory(args) -> OutputTable:
    s = _load_scenario(args.scenario)
    times = grid(0.0, args.t_max, args.steps)
    require("--t-max", args.t_max, 0.0, True)
    r_c = _rental_rate(s, args.rc)
    points = caw_trajectory(s.technology, r_c, times, s.policy)
    in_float_range(points[0][1], CEILING, zero=True)  # the grid starts at t = 0, where the ceiling is largest
    meta = standard_metadata(scenario_sha256(s), command="trajectory", r_c=r_c)
    return OutputTable(headers=("t", "ceiling"), rows=tuple(points), metadata=meta)


def _cmd_statics(args) -> OutputTable:
    s = _load_scenario(args.scenario)
    r_c = _rental_rate(s, args.rc)
    w_a_eff = in_float_range(s.technology.k * r_c, "agent wage k*r_c") if r_c > 0.0 else r_c  # 0: an input error
    setup = StaticsSetup(ces=s.ces, l_eff_demand=args.demand, labor_supply=s.labor_supply_ts, w_a_eff=w_a_eff)
    se = semi_elasticity(setup, rel_step=args.rel_step)
    meta = standard_metadata(scenario_sha256(s), command="statics", r_c=r_c)
    # SemiElasticity's fields end with its base point, written first, field by field.
    headers = (*StaticsPoint._fields, *SemiElasticity._fields[:-1])
    return OutputTable(headers=headers, rows=((*se.base, *se[:-1]),), metadata=meta)


def _cmd_shares(args) -> OutputTable:
    s = _load_scenario(args.scenario)
    res = solve_scenario(s, args.mode)
    y = in_float_range(res.w_h_star * res.l_h_star + res.r_c_star * res.k_c_star, "output value w_h*l_h + r_c*k_c")
    shares = factor_shares(res.w_h_star, res.l_h_star, res.r_c_star, res.k_c_star, y)
    meta = standard_metadata(scenario_sha256(s), command="shares", mode=args.mode)
    return OutputTable(headers=(*FactorShares._fields, "y"), rows=((*shares, y),), metadata=meta)


_HANDLERS = {
    "table1": _cmd_table1,
    "bound": _cmd_bound,
    "ces": _cmd_ces,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "trajectory": _cmd_trajectory,
    "statics": _cmd_statics,
    "shares": _cmd_shares,
}


def _diagnostic(stream, message: str) -> None:
    styled = (
        hasattr(stream, "isatty")
        and stream.isatty()
        and not os.environ.get("CAW_NO_COLOR")
    )
    prefix = "\x1b[31merror:\x1b[0m" if styled else "error:"
    print(f"{prefix} {message}", file=stream)


def run_command(argv, stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser(stdout).parse_args(argv)
        table = _HANDLERS[args.command](args)
        text = emit_table(table, args.format)
    except (ParseError, ValidationError, InvalidInput) as exc:
        _diagnostic(stderr, str(exc))
        return 2
    except SolverError as exc:
        _diagnostic(stderr, str(exc))
        return 3
    except SystemExit as exc:  # --help printed its text
        return exc.code or 0
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
