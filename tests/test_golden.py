"""Byte-for-byte golden outputs of ``caw sweep``.

Each file under ``tests/golden/`` is the stdout of one ``run_command`` call;
the test reruns the call and compares bytes. The files cover a 5-point
capped sweep of ``scenarios/baseline.json`` over every sweepable parameter,
linear and ``--log``, CSV and JSON, one coupled sweep, and sweeps that hold
error rows (a zero ceiling, inelastic curves with unequal quantities).

A change that moves these bytes on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import io
import sys
from pathlib import Path

import pytest

from caw.cli import run_command
from caw.statics import SWEEPABLE_PARAMS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
BASELINE = ROOT / "scenarios" / "baseline.json"

# Grid endpoints inside every parameter's valid range, so --log works too.
_RANGES = {"policy.tau_c": (0.05, 0.8), "policy.mu": (1.0, 2.5)}


def _specs() -> dict[str, tuple[Path, list[str]]]:
    specs = {}
    for param in SWEEPABLE_PARAMS:
        start, stop = _RANGES.get(param, (0.5, 2.0))
        for log in (False, True):
            for fmt in ("csv", "json"):
                name = f"capped-{param}-{'log' if log else 'lin'}.{fmt}"
                argv = ["--param", param, "--from", repr(start), "--to", repr(stop),
                        "--steps", "5", "--format", fmt] + (["--log"] if log else [])
                specs[name] = (BASELINE, argv)
    specs["coupled-technology.lambda-lin.csv"] = (
        BASELINE,
        ["--param", "technology.lambda", "--from", "0.25", "--to", "4", "--steps", "5",
         "--mode", "coupled"],
    )
    # lambda = 5e-324 at r_c = 0.5 rounds the ceiling to exactly zero: the
    # first row (inelastic demand) takes the zero-ceiling corner, the others
    # raise DegenerateCeiling.
    specs["error-zero-ceiling.csv"] = (
        GOLDEN / "zero_ceiling.json",
        ["--param", "labor_demand_ts.elasticity", "--from", "0", "--to", "1", "--steps", "5"],
    )
    # Inelastic labor supply: the first row has both labor curves inelastic
    # with unequal quantities, so no wage clears (NoEquilibrium).
    specs["error-inelastic-labor.json"] = (
        GOLDEN / "inelastic_labor.json",
        ["--param", "labor_demand_ts.elasticity", "--from", "0", "--to", "1", "--steps", "5",
         "--format", "json"],
    )
    return specs


SPECS = _specs()


def _output(scenario: Path, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run_command(["sweep", "--scenario", str(scenario), *argv], stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_sweep_output_matches_golden_bytes(name):
    expected = (GOLDEN / name).read_bytes()
    assert _output(*SPECS[name]).encode("utf-8") == expected


def test_error_goldens_hold_error_rows():
    zero = (GOLDEN / "error-zero-ceiling.csv").read_text(encoding="utf-8")
    assert zero.count("labor demand is unbounded as the wage falls to zero") == 4
    inelastic = (GOLDEN / "error-inelastic-labor.json").read_text(encoding="utf-8")
    assert inelastic.count("both curves perfectly inelastic") == 1


if __name__ == "__main__":
    for name, (scenario, argv) in SPECS.items():
        (GOLDEN / name).write_bytes(_output(scenario, argv).encode("utf-8"))
    sys.exit(0)
