import decimal
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caw.cli import main, run_command
from caw.constants import SIGMA_LEONTIEF_THRESHOLD
from caw.model import SECTIONS, field_violation
from conftest import make_scenario
from caw import SWEEPABLE_PARAMS, CawError, CesParams, EquilibriumResult, emit_scenario, grid, parse_scenario
from caw import solve_batch


BASELINE = str(Path(__file__).resolve().parents[1] / "scenarios" / "baseline.json")
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_scenario(tmp_path, scenario=None, name="scenario.json"):
    path = tmp_path / name
    path.write_text(emit_scenario(scenario or make_scenario()), encoding="utf-8")
    return str(path)


def data_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# --- table1 -------------------------------------------------------------------


def test_table1_emits_nine_reference_cells():
    code, out, err = run(["table1"])
    assert code == 0
    headers, rows = data_rows(out)
    assert headers == ["lambda", "k", "r_c", "ceiling"]
    assert len(rows) == 9
    ceilings = [float(r[3]) for r in rows]
    assert ceilings == [0.05, 1.00, 2.50, 0.10, 2.00, 5.00, 0.20, 4.00, 10.00]
    # lam-major ordering
    assert [float(r[0]) for r in rows] == [0.5] * 3 + [1.0] * 3 + [2.0] * 3


def test_bound_reference_point():
    code, out, _ = run(["bound", "--lambda", "2", "--k", "1", "--rc", "5"])
    assert code == 0
    _, rows = data_rows(out)
    assert float(rows[0][-1]) == 10.0


def test_bound_with_policy_levers():
    code, out, _ = run(["bound", "--lambda", "1", "--k", "1", "--rc", "2", "--tau", "0.5"])
    assert code == 0
    _, rows = data_rows(out)
    assert float(rows[0][-1]) == 3.0


def _ces_reference(A, alpha, beta, sigma, wh, wa):
    """unit_cost, l_h and l_a from the CES dual in 50-digit decimal arithmetic:
    c = (alpha**sigma * wh**(1-sigma) + beta**sigma * wa**(1-sigma))**(1/(1-sigma)) / A,
    at sigma = 1 c = (wh/a)**a * (wa/b)**b / A with a, b = alpha, beta over their
    sum, and each demand c * share / w. Each result is rounded to a float once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        A, alpha, beta, sigma, wh, wa = (Decimal(x) for x in (A, alpha, beta, sigma, wh, wa))

        def power(x, y):
            return (y * x.ln()).exp()

        if sigma == 1:
            a, b = alpha / (alpha + beta), beta / (alpha + beta)
            cost = power(wh / a, a) * power(wa / b, b) / A
        else:
            terms = (power(alpha, sigma) * power(wh, 1 - sigma), power(beta, sigma) * power(wa, 1 - sigma))
            a, b = (term / sum(terms) for term in terms)
            cost = power(sum(terms), 1 / (1 - sigma)) / A
        return float(cost), float(cost * a / wh), float(cost * b / wa)


@pytest.mark.parametrize(
    "A, alpha, beta, sigma, wh, wa",
    [
        (1.0, 0.5, 0.5, 2.0, 2.0, 1.0),  # unit cost 8/3, demands 4/9 and 16/9
        # exp(log cost) is a subnormal 7.2e-318 before the division by A; it
        # printed unit_cost and l_a 2.0e-7 off.
        (8.379154147568734e-144, 4.5953397187035976e+222, 2.4571625363005927e+229, 6.126884494331765,
         48884.00932031987, 9.83929526647349e-44),
        # The same at Cobb-Douglas: (wh/a)**a * (wa/b)**b is a subnormal 1.8e-315.
        (1e-30, 1.0, 3.0, 1.0, 1e-300, 1e-320),
        # The agents' exponent beta/(alpha+beta), 1e-346, underflows to 0, but their demand is
        # about 1e-117; it printed 0.0.
        (1e-30, 1e130, 1e-216, 1.0, 1e3, 1e-196),
    ],
    ids=["symmetric", "general-subnormal-cost", "cobb-douglas-subnormal-cost", "cobb-douglas-zero-exponent"],
)
def test_ces_command_unit_cost_and_demands(A, alpha, beta, sigma, wh, wa):
    values = (A, alpha, beta, sigma, wh, wa)
    names = ("--A", "--alpha", "--beta", "--sigma", "--wh", "--wa")
    code, out, err = run(["ces", *(x for name, value in zip(names, values) for x in (name, repr(value)))])
    assert code == 0, err
    _, rows = data_rows(out)
    for cell, expected in zip(map(float, rows[0]), _ces_reference(*values)):
        if expected < sys.float_info.min:  # a demand below the normal range may read as its underflow
            assert cell < sys.float_info.min
        else:
            assert cell == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_ces_perfect_substitutes_corner_demand_below_the_normal_range_prints():
    # sigma >= 1e6 takes the linear branch, here priced in logs as A*alpha overflows. The human
    # corner's demand 1/(A*alpha) is subnormal; it exited 3, while sigma = 1e5 printed.
    code, out, err = run(
        ["ces", "--A", "1e300", "--alpha", "1e10", "--beta", "1", "--sigma", "1e7", "--wh", "1e100", "--wa", "1e120"]
    )
    assert code == 0, err
    headers, rows = data_rows(out)
    row = dict(zip(headers, map(float, rows[0])))
    assert row["l_h"] == pytest.approx(1e-310, rel=1e-12, abs=0.0)
    assert row["l_a"] == 0.0


# --- scenario commands ------------------------------------------------------------


def test_solve_capped(tmp_path):
    code, out, _ = run(["solve", "--scenario", write_scenario(tmp_path)])
    assert code == 0
    headers, rows = data_rows(out)
    row = dict(zip(headers, rows[0]))
    assert row["regime"] == "mixed"
    assert float(row["w_h_star"]) == pytest.approx(2.0, rel=1e-12)
    assert float(row["l_a_star"]) == pytest.approx(3.0, rel=1e-12)
    assert row["ceiling_binds"] == "true"


def test_solve_coupled(tmp_path):
    code, out, _ = run(["solve", "--scenario", write_scenario(tmp_path), "--mode", "coupled"])
    assert code == 0
    headers, rows = data_rows(out)
    row = dict(zip(headers, rows[0]))
    assert float(row["r_c_star"]) > 2.0


@pytest.mark.parametrize("demand", [1.4000000000000004, math.nextafter(1.4, 0.0)])
def test_solve_coupled_with_r_b_next_to_one_ends(tmp_path, demand):
    # Inelastic labor demand puts the clearing wage at `demand`, so
    # r_b = demand / 1.4 is 1 + 2**-52 or just below 1. At 1 + 2**-52,
    # 1.4 * exp(log r_b) rounds below the wage and the top of the known
    # bracket is rounded up from a log rate near 0, whose own float spacing
    # is about 1e-32: stepping by that spacing took some 2**51 steps. A fresh
    # interpreter with a time limit turns such a hang into a failure.
    s = make_scenario(lam=1.4, compute_demand=None, labor_demand=(demand, 0.0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "caw", "solve", "--scenario", write_scenario(tmp_path, s),
         "--mode", "coupled"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    headers, rows = data_rows(proc.stdout)
    row = dict(zip(headers, rows[0]))
    assert row["regime"] == "mixed"
    assert 0.0 < float(row["r_c_star"]) < demand / 1.4


def test_trajectory_halving(tmp_path):
    s = make_scenario(g=math.log(2.0))
    code, out, _ = run(
        ["trajectory", "--scenario", write_scenario(tmp_path, s), "--t-max", "2", "--steps", "3", "--rc", "2"]
    )
    assert code == 0
    _, rows = data_rows(out)
    assert [(float(t), float(c)) for t, c in rows] == [(0.0, 2.0), (1.0, 1.0), (2.0, 0.5)]


def test_trajectory_defaults_to_market_rental_rate(tmp_path):
    s = make_scenario(g=math.log(2.0))
    code, out, _ = run(
        ["trajectory", "--scenario", write_scenario(tmp_path, s), "--t-max", "1", "--steps", "2"]
    )
    assert code == 0
    _, rows = data_rows(out)
    assert float(rows[0][1]) == pytest.approx(2.0, rel=1e-12)  # rc* = 2 from compute market


def test_trajectory_starts_at_the_policy_adjusted_ceiling(tmp_path):
    s = make_scenario(tau_c=0.5, mu=1.2)
    path = write_scenario(tmp_path, s)
    code, out, err = run(["solve", "--scenario", path])
    assert code == 0, err
    headers, rows = data_rows(out)
    ceiling = dict(zip(headers, rows[0]))["ceiling"]
    assert ceiling == "3.5999999999999996"  # 1 * 1 * (1 + 0.5) * 1.2 * r_c = 2
    code, out, err = run(["trajectory", "--scenario", path, "--t-max", "1", "--steps", "2"])
    assert code == 0, err
    _, rows = data_rows(out)
    assert rows[0] == ["0.0", ceiling]


def test_trajectory_ceiling_beyond_float_range_exits_three(tmp_path):
    s = make_scenario(lam=1e200, k=1e200)
    code, out, err = run(["trajectory", "--scenario", write_scenario(tmp_path, s), "--t-max", "1", "--steps", "2"])
    assert code == 3 and out == ""
    assert err == "error: wage ceiling lambda*k*(1+tau_c)*mu*r_c lies outside the floating-point range\n"


def test_sweep_lambda_grid(tmp_path):
    code, out, _ = run(
        [
            "sweep",
            "--scenario",
            write_scenario(tmp_path),
            "--param",
            "technology.lambda",
            "--from",
            "0.5",
            "--to",
            "2.0",
            "--steps",
            "4",
        ]
    )
    assert code == 0
    headers, rows = data_rows(out)
    assert len(rows) == 4
    idx = headers.index("ceiling")
    assert [float(r[idx]) for r in rows] == [1.0, 2.0, 3.0, 4.0]


_SWEEP_K = ["sweep", "--scenario", BASELINE, "--param", "technology.k"]


def test_sweep_log_grid_pins_both_endpoints():
    code, out, err = run(_SWEEP_K + ["--from", "0.3", "--to", "7.1", "--steps", "9", "--log"])
    assert code == 0, err
    headers, rows = data_rows(out)
    assert len(rows) == 9
    values = [float(row[headers.index("value")]) for row in rows]
    assert values[0] == 0.3 and values[-1] == 7.1
    assert values == sorted(values)


@pytest.mark.parametrize(
    "argv, message",
    [
        (_SWEEP_K + ["--from", "0", "--to", "2", "--steps", "3", "--log"], "--log grids need positive endpoints"),
        (_SWEEP_K + ["--from", "-1", "--to", "2", "--steps", "3", "--log"], "--log grids need positive endpoints"),
        (_SWEEP_K + ["--from", "1", "--to", "-2", "--steps", "3", "--log"], "--log grids need positive endpoints"),
        (_SWEEP_K + ["--from", "1", "--to", "2", "--steps", "0"], "--steps must be >= 1"),
        (["trajectory", "--scenario", BASELINE, "--t-max", "1", "--steps", "0"], "--steps must be >= 1"),
    ],
    ids=["log-zero", "log-negative-from", "log-negative-to", "sweep-steps", "trajectory-steps"],
)
def test_grid_commands_reject_bad_grids(argv, message):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


_RATE_RULE = "rental rate must be finite and >= 0, got -1.0"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "--lambda", "1", "--k", "1", "--rc", "-1"], _RATE_RULE),
        # These two said "--rc must be nonnegative, got -1.0".
        (["trajectory", "--scenario", BASELINE, "--t-max", "1", "--steps", "2", "--rc", "-1"], _RATE_RULE),
        (["statics", "--scenario", BASELINE, "--rc", "-1"], _RATE_RULE),
        (["trajectory", "--scenario", BASELINE, "--t-max", "-1", "--steps", "2"],
         "--t-max must be finite and >= 0, got -1.0"),
    ],
    ids=["bound-rc", "trajectory-rc", "statics-rc", "trajectory-t-max"],
)
def test_number_flags_below_their_bound_name_the_one_rule(argv, message):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_statics_command(tmp_path):
    code, out, _ = run(["statics", "--scenario", write_scenario(tmp_path)])
    assert code == 0
    headers, rows = data_rows(out)
    row = dict(zip(headers, rows[0]))
    assert abs(float(row["direct"]) - float(row["fd"])) < 1e-4


def test_statics_fixed_proportions_exits_two(tmp_path):
    s = make_scenario(ces=CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=1e-5))
    code, out, err = run(["statics", "--scenario", write_scenario(tmp_path, s)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "fixed-proportions threshold" in err


def test_statics_linear_corner_exits_three(tmp_path):
    # Perfect substitutes with the agent wage (3) above the wage at which
    # humans alone meet the target (2): agents are not employed.
    s = make_scenario(ces=CesParams(A=1.0, alpha=0.5, beta=0.5, sigma=1e7))
    code, out, err = run(["statics", "--scenario", write_scenario(tmp_path, s), "--rc", "3"])
    assert code == 3 and out == ""
    assert err.startswith("error:") and "not employed" in err


@pytest.mark.parametrize("elasticity", [40.0, 400.0])
def test_statics_steep_labor_supply_exits_cleanly(tmp_path, elasticity):
    # w_h**e over- and underflows across the search range; the search works
    # in logs, so it still closes on a finite point.
    s = make_scenario(labor_supply=(1.0, elasticity))
    code, out, err = run(["statics", "--scenario", write_scenario(tmp_path, s)])
    assert code == 0, err
    headers, rows = data_rows(out)
    assert all(math.isfinite(float(v)) for v in rows[0])


_MAX = "1.7976931348623157e308"


@pytest.mark.parametrize("command", ["ces", "statics"])
def test_cobb_douglas_weights_whose_sum_overflows_exit_cleanly(tmp_path, command):
    # alpha + beta is infinite; the exponents still come out as 1/2 each.
    if command == "ces":
        argv = ["ces", "--alpha", _MAX, "--beta", _MAX, "--sigma", "1", "--wh", "1", "--wa", "1"]
    else:
        ces = CesParams(A=1.0, alpha=float(_MAX), beta=float(_MAX), sigma=1.0)
        argv = ["statics", "--scenario", write_scenario(tmp_path, make_scenario(ces=ces))]
    code, out, err = run(argv)
    assert code in (0, 2, 3) and "Traceback" not in err
    if code == 0:
        _, rows = data_rows(out)
        assert all(math.isfinite(float(v)) for v in rows[0])
    else:
        assert err.startswith("error:") and out == ""


def test_statics_without_a_wage_root_names_the_wage_gap(tmp_path):
    # So little labor at any wage that the wage gap keeps one sign on the bracket.
    s = make_scenario(ces=CesParams(A=1.0, alpha=0.95, beta=0.05, sigma=2.0), labor_supply=(1e-300, 1.0))
    code, out, err = run(["statics", "--scenario", write_scenario(tmp_path, s)])
    assert code == 3 and out == ""
    assert "wage gap has no sign change" in err and "excess demand" not in err


def test_statics_cobb_douglas_wage_beyond_the_search_bracket(tmp_path):
    # The same scenario at sigma = 1 has its wage root near 6.2e285, which the
    # closed form reaches without a search.
    s = make_scenario(ces=CesParams(A=1.0, alpha=0.95, beta=0.05, sigma=1.0), labor_supply=(1e-300, 1.0))
    code, out, err = run(["statics", "--scenario", write_scenario(tmp_path, s)])
    assert code == 0, err
    headers, rows = data_rows(out)
    row = dict(zip(headers, map(float, rows[0])))
    assert all(math.isfinite(v) for v in row.values())
    assert 6e285 < row["w_h"] < 6.4e285


@pytest.mark.parametrize("elasticity", [1.0, 0.0])
@pytest.mark.parametrize("alpha, beta", [(1e300, 1e-300), (1e-300, 1e300)])
def test_statics_cobb_douglas_weights_beyond_float_ratio_exit_cleanly(tmp_path, alpha, beta, elasticity):
    # beta/alpha (or its inverse) leaves the float range: one exponent underflows to 0.
    s = make_scenario(ces=CesParams(A=1.0, alpha=alpha, beta=beta, sigma=1.0), labor_supply=(1.0, elasticity))
    code, out, err = run(["statics", "--scenario", write_scenario(tmp_path, s)])
    assert code in (0, 3) and "Traceback" not in err
    if code == 0:
        _, rows = data_rows(out)
        assert all(math.isfinite(float(v)) for v in rows[0])
    else:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "ces, scale, demand, rc",
    [
        (
            CesParams(1.5396081359660912e-40, 8.189438856809172e-259, 2.6779841750612433e-246, 0.40061604902021253),
            1.29203656123128e196, "5.1465178749135175e-46", "1.91063042759433e-226",
        ),
        (
            CesParams(6.428037833051523e210, 2.0155414938591437e141, 5.1706326291420185e-273, 0.000672384816353679),
            2.791065736544285e-37, "2.3127897002476593e164", "7.675767479891358e-40",
        ),
    ],
    ids=["complements", "near-fixed-proportions"],
)
def test_statics_fixed_supply_beyond_float_range_exits_three(tmp_path, ces, scale, demand, rc):
    # Fixed human supply; k = 1, so --rc is the agent wage. These once raised a
    # ValueError traceback (exit 1) and printed a nan row (exit 0).
    s = make_scenario(ces=ces, labor_supply=(scale, 0.0))
    argv = ["statics", "--scenario", write_scenario(tmp_path, s), "--demand", demand, "--rc", rc]
    code, out, err = run(argv)
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "floating-point range" in err


def test_shares_command(tmp_path):
    code, out, _ = run(["shares", "--scenario", write_scenario(tmp_path)])
    assert code == 0
    headers, rows = data_rows(out)
    row = dict(zip(headers, rows[0]))
    assert float(row["s_labor"]) + float(row["s_compute"]) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "scenario, what",
    [
        # A slack ceiling of 2e200 over a clearing wage of 1e200 at 1e200 hours:
        # every quantity is in range, but w*l + r*k is beyond the float range.
        (make_scenario(lam=1e100, k=1e100, labor_demand=(1e200, 0.0)), "output value w_h*l_h + r_c*k_c"),
        # Labor demand 1e300 at a binding ceiling of 2e200: agent labor 1e100 * 1e300 overflows first.
        (make_scenario(lam=1e100, k=1e100, labor_demand=(1e300, 0.0)), "labor quantity at the equilibrium wage"),
        # A slack ceiling over a clearing wage of 1e-160 at 1e-160 hours: w*l = 1e-320
        # is subnormal, and printed 1.1e-5 off with exit 0. At labor demand 1e-255 it
        # underflowed to 0 and exited 2 as an input error.
        (make_scenario(labor_demand=(1e-240, 0.5)), "output value w_h*l_h + r_c*k_c"),
        (make_scenario(labor_demand=(1e-255, 0.5)), "output value w_h*l_h + r_c*k_c"),
    ],
    ids=["overflow", "labor-overflow", "subnormal", "underflow"],
)
def test_shares_whose_output_value_leaves_the_float_range_exit_three(tmp_path, scenario, what):
    code, out, err = run(["shares", "--scenario", write_scenario(tmp_path, scenario)])
    assert (code, out, err) == (3, "", f"error: {what} lies outside the floating-point range\n")


# --- formats, files, determinism ----------------------------------------------------


def test_json_format(tmp_path):
    code, out, _ = run(["solve", "--scenario", write_scenario(tmp_path), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["headers"][0] == "regime"
    assert doc["rows"][0][0] == "mixed"
    assert "metadata" in doc


def test_out_file_writes_identical_bytes(tmp_path):
    scenario = write_scenario(tmp_path)
    target = tmp_path / "result.csv"
    code, out, _ = run(["solve", "--scenario", scenario, "--out", str(target)])
    assert code == 0
    assert out == ""
    code2, out2, _ = run(["solve", "--scenario", scenario])
    assert target.read_text(encoding="utf-8") == out2


def test_byte_identical_output_across_runs(tmp_path):
    scenario = write_scenario(tmp_path)
    for argv in (
        ["table1"],
        ["solve", "--scenario", scenario],
        ["solve", "--scenario", scenario, "--format", "json"],
        ["sweep", "--scenario", scenario, "--param", "technology.k", "--from", "0.5", "--to", "2", "--steps", "5"],
    ):
        _, first, _ = run(argv)
        _, second, _ = run(argv)
        assert first.encode() == second.encode()


# --- exit codes ------------------------------------------------------------------


def test_exit_zero_on_success():
    assert run(["table1"])[0] == 0


def test_exit_two_on_validation_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"caw_schema": 1, "technology": {"lambda": 1, "k": 1}, '
        '"ces": {"A": 1, "alpha": 0.5, "beta": 0.5, "sigma": 0}}',
        encoding="utf-8",
    )
    code, _, err = run(["solve", "--scenario", str(path)])
    assert code == 2
    assert "sigma" in err


def test_exit_two_on_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(["solve", "--scenario", str(path)])
    assert code == 2


def test_exit_two_on_missing_file():
    code, _, err = run(["solve", "--scenario", "/nonexistent/scenario.json"])
    assert code == 2


@pytest.mark.parametrize(
    "content, message",
    [(bytes(range(128, 228)), "cannot read scenario file"), (b"[" * 200_000, "nest deeper")],
    ids=["not_utf8", "nested_too_deep"],
)
def test_exit_two_on_a_scenario_file_that_cannot_be_decoded(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(["solve", "--scenario", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing/result.csv", "."], ids=["missing_directory", "directory"])
def test_exit_two_on_an_output_file_that_cannot_be_written(tmp_path, target):
    code, out, err = run(["table1", "--out", str(tmp_path / target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output file ") and err.count("\n") == 1


def test_exit_two_on_bad_flags():
    code, _, _ = run(["bound", "--lambda", "2"])  # missing --k/--rc
    assert code == 2


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["bound", "--lambda", "1", "--k", "1", "--rc", "nan"], "argument --rc: must be a finite number"),
        (["bound", "--lambda", "2"], "the following arguments are required: --k, --rc"),
        (_SWEEP_K + ["--from", "1", "--to", "2", "--steps", "two"], "argument --steps: invalid int value"),
        (["nope"], "invalid choice: 'nope'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["nonfinite", "missing", "bad-int", "unknown-command", "no-command"],
)
def test_argument_errors_reach_the_callers_stderr(capsys, argv, fragment):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: caw") and fragment in err and err.count("\n") == 1
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["bound", "--lambda", "2", "--k", "3", "--rc", "0.5"], 0,
         "lambda,k,r_c,tau_c,mu,ceiling\n2.0,3.0,0.5,0.0,1.0,3.0\n"),
        (["bound", "--lambda", "2"], 2, ""),
    ],
)
def test_main_exits_with_the_command_code(monkeypatch, capsys, argv, code, out):
    monkeypatch.setattr(sys, "argv", ["caw", *argv])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == code
    assert capsys.readouterr().out.startswith(out)


def test_help_exits_zero(capsys):
    code, out, err = run(["sweep", "--help"])
    assert code == 0 and err == ""
    assert "--log" in out
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"], ["solve", "-h"]])
def test_help_goes_to_the_given_stdout(capsys, argv):
    code, out, err = run(argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: caw")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--lambda", "1", "--k", "1", "--rc", "{}"],
        ["bound", "--lambda", "1", "--k", "1", "--rc", "1", "--tau", "{}"],
        ["bound", "--lambda", "1", "--k", "1", "--rc", "1", "--mu", "{}"],
        ["ces", "--alpha", "0.5", "--beta", "0.5", "--sigma", "{}", "--wh", "1", "--wa", "1"],
        ["trajectory", "--scenario", "SCENARIO", "--t-max", "{}", "--steps", "3"],
        ["statics", "--scenario", "SCENARIO", "--rc", "{}"],
        ["sweep", "--scenario", "SCENARIO", "--param", "technology.k", "--from", "1", "--to", "{}",
         "--steps", "2"],
    ],
    ids=["bound-rc", "bound-tau", "bound-mu", "ces-sigma", "trajectory-t-max", "statics-rc", "sweep-to"],
)
def test_nonfinite_flags_exit_two(tmp_path, argv, value):
    scenario = write_scenario(tmp_path)
    argv = [scenario if a == "SCENARIO" else a.format(value) for a in argv]
    code, out, _ = run(argv)
    assert code == 2 and out == ""


def test_bound_policy_flags_follow_scenario_rules():
    code, out, err = run(["bound", "--lambda", "1", "--k", "1", "--rc", "1", "--tau", "-1", "--mu", "0.5"])
    assert code == 2 and out == ""
    assert err == "error: tau_c must be >= 0; mu must be >= 1\n"


def test_bound_flags_report_every_broken_scenario_rule_at_once():
    code, out, err = run(["bound", "--lambda", "-1", "--k", "0", "--rc", "1", "--tau", "-1"])
    assert code == 2 and out == ""
    assert err == "error: lambda must be > 0; k must be > 0; tau_c must be >= 0\n"


def test_ces_flags_use_the_scenario_file_wording():
    code, out, err = run(["ces", "--alpha", "0.5", "--beta", "0.5", "--sigma", "0", "--wh", "1", "--wa", "1"])
    assert code == 2 and out == ""
    assert err == "error: sigma must be > 0\n"


# Extreme weights and prices: exp in the Cobb-Douglas unit cost overflowed,
# w_h / alpha underflowed to 0 under a log, and A * alpha underflowed to 0 as
# a divisor in the linear branch. Each raised out of run_command.
@pytest.mark.parametrize(
    "flags",
    [
        ["--A", "1e-12", "--alpha", "1e-12", "--beta", "2.335074623810526e-18", "--sigma", "1.0",
         "--wh", "1.7976931348623157e+308", "--wa", "1.7976931348623157e+308"],
        ["--A", "1e12", "--alpha", "1.7976931348623157e+308", "--beta", "1e-300", "--sigma", "2.0",
         "--wh", "2.498810710718948e-29", "--wa", "1e-300"],
        ["--A", "2.3122065022659705e-23", "--alpha", "1e-320", "--beta", "6.339409660106957e-09",
         "--sigma", "1e300", "--wh", "0.0032396109799806543", "--wa", "5e-324"],
        # Weight ratios below 1e-324: a Cobb-Douglas exponent underflows to exactly 0.
        ["--A", "1", "--alpha", "1e-300", "--beta", "1e300", "--sigma", "1.0", "--wh", "1", "--wa", "1"],
        ["--A", "1.1096586814324925e+22", "--alpha", "2.0187526238062955e+279",
         "--beta", "9.937423635937672e-236", "--sigma", "1.0", "--wh", "1.8050942420099155e-24",
         "--wa", "1e-320"],
    ],
    ids=["cobb-douglas-overflow", "general-quotient-underflow", "linear-scale-underflow",
         "cobb-douglas-zero-exponent-human", "cobb-douglas-zero-exponent-agent"],
)
def test_ces_at_float_range_extremes_exits_cleanly(flags):
    code, out, err = run(["ces", *flags])
    assert code in (0, 3), err
    assert "Traceback" not in err
    if code == 3:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return
    _, rows = data_rows(out)
    assert all(math.isfinite(float(cell)) for cell in rows[0])


# An overflowing lambda*k makes the ceiling inf at a positive rate, which
# used to print with exit 0; at a zero rate the ceiling is exactly 0.
@pytest.mark.parametrize("rc", ["1", "0"])
def test_bound_ceiling_beyond_float_range_exits_three(rc):
    code, out, err = run(["bound", "--lambda", "1e200", "--k", "1e200", "--rc", rc])
    if rc == "0":
        assert code == 0 and err == ""
        headers, rows = data_rows(out)
        assert [dict(zip(headers, row))["ceiling"] for row in rows] == ["0.0"]
        return
    assert code == 3 and out == ""
    assert err == "error: wage ceiling lambda*k*(1+tau_c)*mu*r_c lies outside the floating-point range\n"


_CEILING_OVERFLOW = "wage ceiling lambda*k*(1+tau_c)*mu*r_c lies outside the floating-point range"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mode", ["capped", "coupled"])
@pytest.mark.parametrize("command", ["solve", "shares"])
def test_solve_ceiling_beyond_float_range_exits_three(tmp_path, command, mode, fmt):
    # solve used to print an inf ceiling, and shares its shares, with exit 0.
    path = write_scenario(tmp_path, make_scenario(lam=1e200, k=1e200))
    code, out, err = run([command, "--scenario", path, "--mode", mode, "--format", fmt])
    assert code == 3 and out == ""
    assert err == f"error: {_CEILING_OVERFLOW}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mode", ["capped", "coupled"])
def test_sweep_ceiling_beyond_float_range_is_an_error_row(mode, fmt):
    code, out, err = run(["sweep", "--scenario", BASELINE, "--param", "technology.lambda", "--from", "1",
                          "--to", "1e308", "--steps", "3", "--log", "--mode", mode, "--format", fmt])
    assert code == 0, err
    if fmt == "json":
        table = json.loads(out)
        headers, rows = table["headers"], table["rows"]
    else:
        headers, rows = data_rows(out)
    *solved, last = [dict(zip(headers, row)) for row in rows]
    assert all(row["error"] in (None, "") and math.isfinite(float(row["ceiling"])) for row in solved)
    assert last["error"] == _CEILING_OVERFLOW
    assert all(last[h] in (None, "") for h in headers if h not in ("value", "error"))


@pytest.mark.parametrize(
    "scenario, param, start, stop, steps, log, mode",
    [
        # Values breaking the lambda rule, then a solved row.
        (make_scenario(), "technology.lambda", -1.0, 1.0, 3, False, "capped"),
        # A ceiling beyond the float range at the last value.
        (make_scenario(), "technology.lambda", 1.0, 1e308, 3, True, "capped"),
        # A scale breaking its rule; inelastic compute supply below an
        # inelastic exogenous demand has no coupled equilibrium, above it one.
        (make_scenario(compute_supply=(1.0, 0.0), compute_demand=(3.0, 0.0)), "compute_supply.scale",
         -1.0, 5.0, 4, False, "coupled"),
    ],
    ids=["capped-rule", "capped-range", "coupled"],
)
def test_sweep_cells_are_the_solve_batch_rows(tmp_path, scenario, param, start, stop, steps, log, mode):
    # The command formats solve_batch's rows: an error row's cell is str() of
    # its CawError, and every other cell is its row's field.
    path = write_scenario(tmp_path, scenario)
    code, out, err = run(["sweep", "--scenario", path, "--param", param, "--from", repr(start), "--to", repr(stop),
                          "--steps", str(steps), "--mode", mode, "--format", "json", *["--log"] * log])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["headers"] == ["value", *EquilibriumResult._fields, "error"]
    values = grid(start, stop, steps, log=log)
    rows = solve_batch(parse_scenario(Path(path).read_text(encoding="utf-8")), param, values, mode=mode)
    assert 0 < sum(isinstance(row, CawError) for row in rows) < len(rows)
    for (value_cell, *cells, error_cell), value, row in zip(doc["rows"], values, rows, strict=True):
        assert value_cell == value
        if isinstance(row, CawError):
            assert error_cell == str(row) and cells == [None] * len(EquilibriumResult._fields)
        else:
            assert error_cell is None and cells == [row.regime.value, *row[1:]]


@pytest.mark.parametrize("k, rc", [(1e200, "1e200"), (1e-200, "1e-200")])
def test_statics_agent_wage_beyond_float_range_exits_three(tmp_path, k, rc):
    # k*r_c overflows, where the solve used to report agents unemployed, or
    # underflows to 0, which exited 2 as an input error.
    path = write_scenario(tmp_path, make_scenario(k=k))
    code, out, err = run(["statics", "--scenario", path, "--rc", rc, "--demand", "1"])
    assert code == 3 and out == ""
    assert err == "error: agent wage k*r_c lies outside the floating-point range\n"


@pytest.mark.parametrize("digits", [400, 5000])
def test_integer_literal_beyond_float_range_exits_two(tmp_path, digits):
    # 10**400 overflows float(); a 5000-digit literal is longer than int() reads.
    text = emit_scenario(make_scenario()).replace('"k": 1.0', '"k": 1' + "0" * digits, 1)
    assert "0" * digits in text
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(["solve", "--scenario", str(path)])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "param", ["technology.g", "ces.A", "ces.alpha", "ces.beta", "ces.sigma", "output_price"]
)
def test_sweep_rejects_parameters_no_solver_reads(param):
    code, out, _ = run(["sweep", "--scenario", BASELINE, "--param", param,
                        "--from", "1.5", "--to", "3", "--steps", "2"])
    assert code == 2 and out == ""


@pytest.mark.parametrize("mode", ["capped", "coupled"])
@pytest.mark.parametrize("param", SWEEPABLE_PARAMS)
def test_every_sweep_parameter_moves_the_solution(param, mode):
    code, out, err = run(["sweep", "--scenario", BASELINE, "--param", param,
                          "--from", "1.5", "--to", "3", "--steps", "2", "--mode", mode])
    assert code == 0, err
    headers, rows = data_rows(out)
    first, second = (row[1:] for row in rows)
    assert first != second


@pytest.mark.parametrize("mode", ["capped", "coupled"])
@pytest.mark.parametrize(
    "param, start, stop, broken, message",
    [
        # Negative scales used to reach a complex clearing price and a TypeError.
        ("compute_supply.scale", "-1", "1", 2, "compute_supply.scale must be > 0"),
        ("compute_demand.scale", "-1", "1", 2, "compute_demand.scale must be > 0"),
        ("labor_demand_ts.scale", "-1", "1", 2, "labor_demand_ts.scale must be > 0"),
        # These used to solve silently, or fail for the wrong reason.
        ("policy.mu", "0.5", "0.9", 3, "mu must be >= 1"),
        ("labor_demand_ts.elasticity", "-1", "0", 2, "labor_demand_ts.elasticity must be >= 0"),
        ("policy.tau_c", "-1", "0", 2, "tau_c must be >= 0"),
        ("technology.lambda", "-1", "1", 2, "lambda must be > 0"),
        ("technology.k", "-1", "1", 2, "k must be > 0"),
    ],
)
def test_sweep_values_breaking_a_scenario_rule_are_error_rows(param, start, stop, broken, message, mode):
    code, out, err = run(["sweep", "--scenario", BASELINE, "--param", param, "--from", start,
                          "--to", stop, "--steps", "3", "--mode", mode])
    assert code == 0 and err == ""
    headers, rows = data_rows(out)
    records = [dict(zip(headers, row)) for row in rows]
    assert [r["error"] for r in records[:broken]] == [message] * broken
    for record in records[broken:]:
        assert record["error"] == "" and record["regime"]


def test_zero_ceiling_reports_the_rate_the_compute_market_set(tmp_path):
    # lambda = 5e-324 underflows the ceiling to 0 at the clearing rate 0.5
    # (compute demand 0.25 against supply 1, both unit-elastic); inelastic
    # labor demand keeps the corner solvable.
    doc = json.loads((GOLDEN / "zero_ceiling.json").read_text(encoding="utf-8"))
    doc["labor_demand_ts"]["elasticity"] = 0.0
    path = tmp_path / "zero_ceiling.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(["sweep", "--scenario", str(path), "--param", "technology.lambda",
                          "--from", "5e-324", "--to", "5e-324", "--steps", "1"])
    assert code == 0, err
    headers, rows = data_rows(out)
    record = dict(zip(headers, rows[0]))
    assert (record["ceiling"], record["r_c_star"], record["error"]) == ("0.0", "0.5", "")
    # All output goes to compute. At labor demand 10 its value, 0.5 * 10 * 5e-324,
    # is subnormal, which the float-range rule rejects; at 1e300 it is normal.
    for scale, expected in ((10.0, 3), (1e300, 0)):
        doc["labor_demand_ts"]["scale"] = scale
        path.write_text(json.dumps(doc), encoding="utf-8")
        for mode in ("capped", "coupled"):
            code, out, err = run(["shares", "--scenario", str(path), "--mode", mode])
            assert code == expected, err
            if code == 3:
                assert err == "error: output value w_h*l_h + r_c*k_c lies outside the floating-point range\n"
                continue
            headers, rows = data_rows(out)
            assert float(dict(zip(headers, rows[0]))["s_compute"]) == 1.0


def test_exit_three_on_no_equilibrium(tmp_path):
    # Both compute curves perfectly inelastic with unequal quantities.
    s = make_scenario(compute_supply=(2.0, 0.0), compute_demand=(3.0, 0.0))
    code, _, err = run(["solve", "--scenario", write_scenario(tmp_path, s)])
    assert code == 3
    assert "inelastic" in err


def test_exit_three_when_coupled_excess_never_clears(tmp_path):
    # Inelastic compute supply below an inelastic exogenous demand: excess
    # compute demand is positive at every rental rate.
    s = make_scenario(compute_supply=(1.0, 0.0), compute_demand=(3.0, 0.0))
    code, _, err = run(["solve", "--scenario", write_scenario(tmp_path, s), "--mode", "coupled"])
    assert code == 3


@pytest.mark.parametrize(
    "curve", ["compute_supply", "compute_demand", "labor_demand_ts", "labor_supply_ts"]
)
@pytest.mark.parametrize("mode", ["capped", "coupled"])
def test_extreme_elasticity_exits_cleanly(tmp_path, curve, mode):
    # Powers like 1e9**40 overflow a float; the contract still holds.
    doc = json.loads(emit_scenario(make_scenario()))
    doc[curve]["elasticity"] = 40.0
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (
        ["solve", "--scenario", str(path), "--mode", mode],
        ["sweep", "--scenario", str(path), "--mode", mode, "--param", "technology.lambda",
         "--from", "0.5", "--to", "2", "--steps", "4"],
    ):
        code, out, err = run(argv)
        assert code in (0, 3), err
        if code == 0:
            headers, rows = data_rows(out)
            for row in rows:
                record = dict(zip(headers, row))
                assert not record.get("error")
                assert all(math.isfinite(float(record[h])) for h in ("w_h_star", "r_c_star", "k_c_star"))


def test_clearing_price_beyond_float_range_exits_three(tmp_path):
    s = make_scenario(labor_demand=(10.0, 0.001), labor_supply=(1.0, 0.0))
    path = write_scenario(tmp_path, s)
    code, _, err = run(["solve", "--scenario", path])
    assert code == 3 and "floating-point range" in err
    code, out, _ = run(["sweep", "--scenario", path, "--param", "technology.k",
                        "--from", "1", "--to", "2", "--steps", "2"])
    assert code == 0
    headers, rows = data_rows(out)
    assert all("floating-point range" in dict(zip(headers, row))["error"] for row in rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_labor_quantities_beyond_float_range_exit_three_or_make_an_error_row(tmp_path, fmt):
    # A binding ceiling of 1e-200 * k * 2: labor demand 10 * ceiling**-2 overflows at k = 0.5.
    path = write_scenario(tmp_path, make_scenario(lam=1e-200, k=0.5, labor_demand=(10.0, 2.0)))
    message = "labor quantity at the equilibrium wage lies outside the floating-point range"
    for command in ("solve", "shares"):
        assert run([command, "--scenario", path, "--format", fmt]) == (3, "", f"error: {message}\n")
    code, out, _ = run(["sweep", "--scenario", path, "--param", "technology.k", "--from", "0.5",
                        "--to", "1e200", "--steps", "2", "--format", fmt])
    assert code == 0
    if fmt == "json":
        doc = json.loads(out)
        rows = [dict(zip(doc["headers"], row)) for row in doc["rows"]]
    else:
        headers, cells = data_rows(out)
        rows = [dict(zip(headers, row)) for row in cells]
    assert rows[0]["error"] == message and not rows[1]["error"]


@pytest.mark.parametrize("command", ["solve", "shares"])
def test_coupled_compute_quantity_beyond_float_range_exits_three(tmp_path, command):
    # At the bracket end r = 1e9 agent compute use, from labor demand 10 * (1e-200 * r)**-2
    # at the ceiling, and the supply r**400 both overflow: the search stopped on
    # "excess is NaN". Both are monotone in r, so the quantity that clears is that large too.
    s = make_scenario(lam=1e-200, labor_demand=(10.0, 2.0), compute_supply=(1.0, 400.0))
    code, out, err = run([command, "--scenario", write_scenario(tmp_path, s), "--mode", "coupled"])
    message = "compute quantity at the fixed point lies outside the floating-point range"
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_fixed_proportions_unit_cost_beyond_float_range_exits_three():
    code, out, err = run(["ces", "--A", "1e-308", "--alpha", "1", "--beta", "1", "--sigma", "1e-4",
                          "--wh", "1", "--wa", "1"])
    assert (code, out) == (3, "")
    assert err == "error: CES unit cost lies outside the floating-point range\n"


def test_diagnostics_are_plain_without_tty(tmp_path):
    code, _, err = run(["solve", "--scenario", "/nonexistent/scenario.json"])
    assert err.startswith("error:")
    assert "\x1b[" not in err


class _TtyStringIO(io.StringIO):
    def isatty(self):
        return True


def test_no_color_env_disables_tty_styling(monkeypatch):
    monkeypatch.delenv("CAW_NO_COLOR", raising=False)
    err = _TtyStringIO()
    run_command(["solve", "--scenario", "/nonexistent/scenario.json"], stdout=io.StringIO(), stderr=err)
    assert "\x1b[" in err.getvalue()

    monkeypatch.setenv("CAW_NO_COLOR", "1")
    err_plain = _TtyStringIO()
    run_command(
        ["solve", "--scenario", "/nonexistent/scenario.json"], stdout=io.StringIO(), stderr=err_plain
    )
    assert "\x1b[" not in err_plain.getvalue()
    assert err_plain.getvalue().startswith("error:")


# --- the exit-code contract on any input -------------------------------------------

# 10**x over the whole positive float range, 5e-324 to the float maximum, and 0 (it underflows below x = -323.6).
_ANY = st.floats(-330.0, 308.25).map(lambda x: 10.0**x)


@st.composite
def _document(draw):
    """A scenario document whose every field is its lower bound plus a value of
    _ANY, so that most documents are valid, and that at times has no exogenous
    compute demand."""
    doc = {"caw_schema": 1}
    for section in SECTIONS:
        values = {f.key: f.bound + draw(_ANY) for f in section.fields}
        if section.nullable and draw(st.booleans()):
            doc[section.key] = None
        else:
            doc[section.key] = values[section.key] if section.kind is float else values
    return doc


@st.composite
def _flags(draw, command):
    """The flags of one subcommand but table1, by name, each float flag drawn
    from _ANY; a switch such as --log maps to True."""
    def floats(*names):
        return {name: draw(_ANY) for name in names}

    if command == "bound":
        return floats("--lambda", "--k", "--rc", "--tau", "--mu")
    if command == "ces":
        return floats("--A", "--alpha", "--beta", "--sigma", "--wh", "--wa")
    if command in ("trajectory", "statics"):
        rc = floats("--rc") if draw(st.booleans()) else {}
        if command == "statics":
            return {**floats("--demand"), **rc}
        return {**floats("--t-max"), "--steps": draw(st.integers(1, 3)), **rc}
    mode = {"--mode": draw(st.sampled_from(["capped", "coupled"]))}
    if command == "sweep":
        grid = {**floats("--from", "--to"), "--steps": draw(st.integers(1, 4))}
        log = {"--log": True} if draw(st.booleans()) else {}
        return {"--param": draw(st.sampled_from(SWEEPABLE_PARAMS)), **grid, **log, **mode}
    return mode


@st.composite
def _invocation(draw):
    """A subcommand but table1, its flags, and its scenario document (None for bound and ces)."""
    command = draw(st.sampled_from(["bound", "ces", "solve", "sweep", "trajectory", "statics", "shares"]))
    return command, draw(_flags(command)), None if command in ("bound", "ces") else draw(_document())


# The model flags that share a scenario field's rule, and those that must be > 0.
_FLAG_FIELDS = {
    "--lambda": "technology.lambda", "--k": "technology.k", "--tau": "policy.tau_c", "--mu": "policy.mu",
    "--A": "ces.A", "--alpha": "ces.alpha", "--beta": "ces.beta", "--sigma": "ces.sigma",
}
_POSITIVE_FLAGS = ("--wh", "--wa", "--demand")


def _breaks_a_rule(command, flags, doc):
    """Whether the inputs break a rule stated for them: a document field's or a
    model flag's (caw.model.field_violation), or a rule the README states for a
    flag or a command."""
    fields = {path: flags[name] for name, path in _FLAG_FIELDS.items() if name in flags}
    positive = [flags[name] for name in _POSITIVE_FLAGS if name in flags]
    if command == "statics" and "--rc" in flags:
        positive.append(flags["--rc"])  # the agent wage k * rc must be > 0
    if flags.get("--log"):
        positive += [flags["--from"], flags["--to"]]
    if doc is not None:
        for section in SECTIONS:
            part = doc[section.key]
            if part is not None:
                fields.update((f.path, part if section.kind is float else part[f.key]) for f in section.fields)
        if doc["compute_demand"] is None and (
            command in ("solve", "shares") and flags["--mode"] == "capped"
            or command in ("trajectory", "statics") and "--rc" not in flags
            or flags.get("--param", "").startswith("compute_demand.")
        ):
            return True  # the rental rate comes from exogenous compute demand, or that is swept
        if command == "statics" and doc["ces"]["sigma"] <= SIGMA_LEONTIEF_THRESHOLD:
            return True  # at fixed proportions the relative wage does not pin w_h
    return any(field_violation(path, value) for path, value in fields.items()) or min(positive, default=1.0) <= 0.0


def _baseline_with(**parts):
    doc = json.loads(Path(BASELINE).read_text(encoding="utf-8"))
    return {**doc, **parts}


@pytest.fixture(scope="module")
def fuzz_scenario(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@settings(max_examples=150, deadline=None)
@given(invocation=_invocation())
# Solver failures that exited 2 as input errors: an output value that underflows
# to 0, and an agent wage k * rc that does.
@example(invocation=("shares", {"--mode": "capped"}, _baseline_with(
    labor_supply_ts={"scale": 1.0, "elasticity": 1.0}, labor_demand_ts={"scale": 1e-255, "elasticity": 0.5})))
@example(invocation=("statics", {"--demand": 1.0, "--rc": 1e-200}, _baseline_with(
    technology={"lambda": 1.0, "k": 1e-200, "g": 0.0})))
def test_every_command_keeps_the_exit_code_contract(fuzz_scenario, invocation):
    # Exit 0, 2 or 3 and nothing raised out of run_command; exit 2 only where
    # the inputs break a stated rule; on exit 0 every float cell of a row that
    # is not an error row is finite.
    command, flags, doc = invocation
    argv = [command, "--format", "json"]
    for name, value in flags.items():
        argv += [name] if value is True else [name, str(value)]
    if doc is not None:
        fuzz_scenario.write_text(json.dumps(doc), encoding="utf-8")
        argv += ["--scenario", str(fuzz_scenario)]
    code, out, err = run(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert _breaks_a_rule(command, flags, doc), err
    if code == 0:
        table = json.loads(out)
        for row in table["rows"]:
            cells = dict(zip(table["headers"], row))
            if not cells.get("error"):
                assert all(math.isfinite(c) for c in row if isinstance(c, float)), cells
