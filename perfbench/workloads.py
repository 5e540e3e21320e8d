"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of the seed: the same seed gives the
same pool of op specs, and op ``i`` of a run always uses spec
``i % POOL_SIZE``.  The structural mix (which subcommand, which grid type,
which output format, which CES branch) is fixed by the op index; the seed
draws only the numbers, so two seeds put the same kind of work in every
run.  ``statics_grid`` is the exception: its setups are the same for every
seed, and the seed sets their order (see ``statics_pool``).
"""

from __future__ import annotations

import math
import random

POOL_SIZE = 64
STATICS_POOL_SIZE = 2304  # 64 blocks of 36 setups, 8 batches of STATICS_BATCH

WORKLOADS = ("cli_cold", "sweep_capped", "sweep_coupled", "statics_grid")

# The scenario documented as ``scenarios/baseline.json``: every default
# written out.  Its coupled solve is the fixed probe for evaluation counts.
BASELINE_DOC = {
    "caw_schema": 1,
    "technology": {"lambda": 1.0, "k": 1.0, "g": 0.0},
    "ces": {"A": 1.0, "alpha": 0.5, "beta": 0.5, "sigma": 2.0},
    "compute_supply": {"scale": 1.0, "elasticity": 1.0},
    "compute_demand": {"scale": 4.0, "elasticity": 1.0},
    "labor_demand_ts": {"scale": 10.0, "elasticity": 1.0},
    "labor_supply_ts": {"scale": 1.0, "elasticity": 1.0},
    "policy": {"tau_c": 0.0, "mu": 1.0},
    "output_price": 1.0,
}

# Sweep ranges for the fields the capped solver reads.  All are positive so
# that a --log grid over them is valid.
CAPPED_PARAMS = {
    "technology.lambda": (0.1, 10.0),
    "technology.k": (0.02, 10.0),
    "compute_supply.scale": (0.2, 5.0),
    "compute_supply.elasticity": (0.2, 3.0),
    "compute_demand.scale": (0.5, 20.0),
    "compute_demand.elasticity": (0.2, 3.0),
    "labor_demand_ts.scale": (1.0, 50.0),
    "labor_demand_ts.elasticity": (0.2, 3.0),
    "labor_supply_ts.scale": (0.2, 5.0),
    "labor_supply_ts.elasticity": (0.2, 3.0),
    "policy.tau_c": (0.01, 1.0),
    "policy.mu": (1.0, 3.0),
}
COUPLED_PARAMS = ("technology.lambda", "technology.k", "compute_supply.scale", "labor_demand_ts.scale")

CAPPED_STEPS = 10_000
COUPLED_STEPS = 1_000

# Ops per period of each workload's structural mix: any run of this many
# consecutive ops holds every kind of op once.  A statics_grid op is itself
# eight periods: 36 consecutive calls hold one per (branch, supply
# elasticity), and STATICS_BATCH calls take tens of milliseconds.
STATICS_BATCH = 8 * 36
MIX_PERIOD = {"cli_cold": 8, "sweep_capped": 4, "sweep_coupled": 4, "statics_grid": 1}

RESULT_HEADERS = (
    "regime", "w_h_star", "r_c_star", "ceiling", "l_h_star", "l_a_star",
    "k_c_star", "ceiling_binds", "labor_supply_at_wage", "labor_demand_at_wage",
)
CLI_HEADERS = {
    "table1": ("lambda", "k", "r_c", "ceiling"),
    "bound": ("lambda", "k", "r_c", "tau_c", "mu", "ceiling"),
    "ces": ("unit_cost", "l_h", "l_a"),
    "solve": RESULT_HEADERS,
    "sweep": ("value", *RESULT_HEADERS, "error"),
    "trajectory": ("t", "ceiling"),
    "statics": ("w_h", "l_h", "l_a", "direct", "fd", "fd_forward", "fd_backward"),
    "shares": ("s_labor", "s_compute", "y"),
}
CLI_COMMANDS = tuple(CLI_HEADERS)
SCENARIO_COMMANDS = ("solve", "sweep", "trajectory", "statics", "shares")
# Rejected documents go to one-row commands, so every round of 8 ops emits
# nearly the same number of rows.
INVALID_COMMANDS = ("solve", "statics", "shares")
INVALID_KINDS = ("unknown_key", "out_of_range", "unreadable")
CLI_SWEEP_STEPS = 50
CLI_TRAJECTORY_STEPS = 25

CES_BRANCHES = ("general", "cobb_douglas", "linear", "leontief")
SUPPLY_ELASTICITIES = tuple(0.25 * i for i in range(9))  # 0 .. 2


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _curve(rng: random.Random, lo: float, hi: float) -> dict:
    return {"scale": _log_uniform(rng, lo, hi), "elasticity": rng.uniform(0.3, 2.0)}


def scenario_doc(rng: random.Random, *, compute_demand: bool = True) -> dict:
    """A valid schema-1 scenario with every curve elastic and every lever set."""
    return {
        "caw_schema": 1,
        "technology": {
            "lambda": _log_uniform(rng, 0.25, 4.0),
            "k": _log_uniform(rng, 0.05, 5.0),
            "g": rng.uniform(0.0, 0.5),
        },
        "ces": {
            "A": _log_uniform(rng, 0.5, 2.0),
            "alpha": rng.uniform(0.2, 0.8),
            "beta": rng.uniform(0.2, 0.8),
            "sigma": _log_uniform(rng, 1.2, 5.0),
        },
        "compute_supply": _curve(rng, 0.5, 2.0),
        "compute_demand": _curve(rng, 1.0, 8.0) if compute_demand else None,
        "labor_demand_ts": _curve(rng, 2.0, 20.0),
        "labor_supply_ts": _curve(rng, 0.5, 2.0),
        "policy": {"tau_c": rng.uniform(0.0, 0.5), "mu": rng.uniform(1.0, 1.5)},
    }


def _endpoints(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    return _log_uniform(rng, lo, hi), _log_uniform(rng, lo, hi)


def sweep_pool(seed: int, coupled: bool) -> list[dict]:
    """One spec per op: a scenario document plus the sweep flags.

    The swept parameter cycles through the list, the grid alternates linear
    and --log, and the format alternates CSV and JSON, all by op index.
    A third of the coupled scenarios have no exogenous compute demand.
    """
    rng = random.Random(f"{'sweep_coupled' if coupled else 'sweep_capped'}:{seed}")
    params = COUPLED_PARAMS if coupled else tuple(CAPPED_PARAMS)
    pool = []
    for i in range(POOL_SIZE):
        param = params[i % len(params)]
        lo, hi = CAPPED_PARAMS[param]
        start, stop = _endpoints(rng, lo, hi)
        pool.append({
            "doc": scenario_doc(rng, compute_demand=not (coupled and i % 3 == 2)),
            "param": param,
            "start": start,
            "stop": stop,
            "steps": COUPLED_STEPS if coupled else CAPPED_STEPS,
            "log": i % 2 == 1,
            "format": "json" if (i // 2) % 2 else "csv",
            "mode": "coupled" if coupled else "capped",
        })
    return pool


def sweep_argv(spec: dict, scenario_path: str) -> list[str]:
    argv = [
        "sweep", "--scenario", scenario_path, "--param", spec["param"],
        "--from", repr(spec["start"]), "--to", repr(spec["stop"]),
        "--steps", str(spec["steps"]), "--mode", spec["mode"], "--format", spec["format"],
    ]
    if spec["log"]:
        argv.append("--log")
    return argv


def _invalid_doc(rng: random.Random, kind: str) -> dict | None:
    doc = scenario_doc(rng)
    if kind == "unknown_key":
        doc[rng.choice(("technology", "ces", "policy"))]["bogus"] = 1.0
    elif kind == "out_of_range":
        section, key, value = rng.choice((
            ("technology", "k", -1.0),
            ("ces", "sigma", 0.0),
            ("policy", "mu", 0.5),
            ("labor_supply_ts", "scale", -2.0),
        ))
        doc[section][key] = value
    else:
        return None  # unreadable: the file is never written
    return doc


def cli_pool(seed: int) -> list[dict]:
    """Cold-process op specs: all 8 subcommands in rounds of 8.

    In three rounds of every four, one of solve/statics/shares (rotating)
    gets a document that must be rejected with exit 2, so about 1 op in 10
    is an input error.  Formats alternate CSV/JSON per round, every other
    pair of rounds writes through --out, and solve, sweep and shares
    alternate capped and coupled mode.
    """
    rng = random.Random(f"cli_cold:{seed}")
    pool = []
    for i in range(POOL_SIZE):
        cmd = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        rnd = i // len(CLI_COMMANDS)
        fmt = "json" if rnd % 2 else "csv"
        spec = {"cmd": cmd, "format": fmt, "out": (rnd // 2) % 2 == 1, "doc": None,
                "args": [], "expect_exit": 0, "invalid": None}
        if cmd == "table1":
            pass
        elif cmd == "bound":
            spec["args"] = ["--lambda", repr(_log_uniform(rng, 0.1, 10.0)), "--k", repr(_log_uniform(rng, 0.01, 10.0)),
                            "--rc", repr(_log_uniform(rng, 0.1, 10.0)), "--tau", repr(rng.uniform(0.0, 0.5)),
                            "--mu", repr(rng.uniform(1.0, 2.0))]
        elif cmd == "ces":
            sigma = 1.0 if rnd % 4 == 0 else _log_uniform(rng, 0.3, 5.0)
            spec["args"] = ["--A", repr(_log_uniform(rng, 0.5, 2.0)), "--alpha", repr(rng.uniform(0.2, 0.8)),
                            "--beta", repr(rng.uniform(0.2, 0.8)), "--sigma", repr(sigma),
                            "--wh", repr(_log_uniform(rng, 0.2, 5.0)), "--wa", repr(_log_uniform(rng, 0.2, 5.0))]
        else:
            spec["doc"] = scenario_doc(rng)
            mode = "coupled" if rnd % 2 else "capped"
            if cmd in ("solve", "shares"):
                spec["args"] = ["--mode", mode]
            elif cmd == "sweep":
                params = COUPLED_PARAMS if mode == "coupled" else tuple(CAPPED_PARAMS)
                param = params[rnd % len(params)]
                start, stop = _endpoints(rng, *CAPPED_PARAMS[param])
                spec["args"] = ["--param", param, "--from", repr(start), "--to", repr(stop),
                                "--steps", str(CLI_SWEEP_STEPS), "--mode", mode]
                if rnd % 4 >= 2:
                    spec["args"].append("--log")
            elif cmd == "trajectory":
                spec["args"] = ["--t-max", repr(rng.uniform(0.5, 20.0)), "--steps", str(CLI_TRAJECTORY_STEPS)]
                if rnd % 2:
                    spec["args"] += ["--rc", repr(_log_uniform(rng, 0.1, 10.0))]
            elif cmd == "statics":
                spec["args"] = ["--demand", repr(_log_uniform(rng, 0.5, 2.0))]
                if rnd % 2:
                    spec["args"] += ["--rc", repr(_log_uniform(rng, 0.5, 5.0))]
            if rnd % 4 and cmd == INVALID_COMMANDS[rnd % len(INVALID_COMMANDS)]:
                kind = INVALID_KINDS[rnd % len(INVALID_KINDS)]
                spec["invalid"] = kind
                spec["doc"] = _invalid_doc(rng, kind)
                spec["expect_exit"] = 2
        pool.append(spec)
    return pool


def cli_argv(spec: dict, scenario_path: str | None, out_path: str | None) -> list[str]:
    argv = [spec["cmd"]]
    if spec["cmd"] in SCENARIO_COMMANDS:
        argv += ["--scenario", scenario_path]
    argv += spec["args"] + ["--format", spec["format"]]
    if out_path is not None:
        argv += ["--out", out_path]
    return argv


def statics_pool(seed: int) -> list[dict]:
    """Pass-through setups over all four CES branches and supply elasticities 0..2.

    The pool is made of blocks of 36 setups, each holding every (branch,
    supply elasticity) pair once.  The numbers are drawn from a stream that
    does not depend on the seed, so every seed calls the same setups and
    fails on the same ones; the seed shuffles the blocks and the setups
    within each block, so it sets the order of the calls.  Nothing is
    filtered: setups on which the library is known to fail stay in.
    """
    rng = random.Random("statics_grid")
    pairs = [(b, e) for b in CES_BRANCHES for e in SUPPLY_ELASTICITIES]
    blocks = []
    for _ in range(STATICS_POOL_SIZE // len(pairs)):
        block = []
        for branch, elasticity in pairs:
            sigma = {
                "general": _log_uniform(rng, 0.2, 20.0),
                "cobb_douglas": 1.0,
                "linear": _log_uniform(rng, 1e6, 1e8),
                "leontief": _log_uniform(rng, 1e-6, 1e-4),
            }[branch]
            block.append({
                "branch": branch,
                "A": _log_uniform(rng, 0.5, 2.0),
                "alpha": rng.uniform(0.2, 0.8),
                "beta": rng.uniform(0.2, 0.8),
                "sigma": sigma,
                "l_eff_demand": _log_uniform(rng, 0.4, 2.5),
                "supply_scale": _log_uniform(rng, 0.4, 2.5),
                "supply_elasticity": elasticity,
                "w_a_eff": _log_uniform(rng, 0.4, 2.5),
            })
        blocks.append(block)
    order = random.Random(f"statics_grid:{seed}")
    order.shuffle(blocks)
    for block in blocks:
        order.shuffle(block)
    return [setup for block in blocks for setup in block]
