"""Byte-for-byte golden outputs of ``caw sweep``, and a corpus pinning every
subcommand.

Each golden file under ``tests/golden/`` is the stdout of one ``run_command``
call; the test reruns the call and compares bytes. The files cover a 5-point
capped sweep of ``scenarios/baseline.json`` over every sweepable parameter,
linear and ``--log``, CSV and JSON, a 5-point coupled CSV sweep over every
sweepable parameter, and sweeps that hold error rows (a zero ceiling,
inelastic curves with unequal quantities, and a coupled sweep of inelastic
compute supply with a value that breaks a scenario rule).

``tests/golden/corpus.txt`` holds one line per invocation of a seeded corpus:
its argv, exit code, and the sha256 of its stdout and of its stderr. The
corpus runs all 8 subcommands, in CSV and JSON, capped and coupled, on random
scenarios whose values are log-uniform in 1e+-1, 1e+-3 and 1e+-300, ``statics``
on every CES branch, and documents each parse rule rejects. Scenario files are
written to a temporary directory and named in the argv by their file name
alone, so no path reaches the hashed text.

A change that moves these bytes on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import hashlib
import io
import json
import random
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from caw.cli import run_command
from caw import SWEEPABLE_PARAMS
from caw.constants import SIGMA_LINEAR_THRESHOLD, SIGMA_LEONTIEF_THRESHOLD

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus.txt"
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
    for param in SWEEPABLE_PARAMS:
        if param != "technology.lambda":
            start, stop = _RANGES.get(param, (0.5, 2.0))
            specs[f"coupled-{param}-lin.csv"] = (
                BASELINE,
                ["--param", param, "--from", repr(start), "--to", repr(stop), "--steps", "5",
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
    # Inelastic compute supply against an inelastic exogenous demand of 3:
    # scale 0 breaks the scenario rule, scales 1 and 2 leave excess compute
    # demand at every rental rate (NoEquilibrium), 3 and 4 clear.
    specs["error-coupled-inelastic-compute.csv"] = (
        GOLDEN / "inelastic_compute.json",
        ["--param", "compute_supply.scale", "--from", "0", "--to", "4", "--steps", "5",
         "--mode", "coupled"],
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


# --- the corpus ----------------------------------------------------------------

_SPREADS = (1.0, 3.0, 300.0)  # values are log-uniform in 1e+-spread
# A sigma on each CES branch: fixed proportions, Cobb-Douglas, perfect substitutes; None draws one.
_SIGMAS = (SIGMA_LEONTIEF_THRESHOLD / 10.0, 1.0, SIGMA_LINEAR_THRESHOLD * 10.0, None)
_CURVES = ("compute_supply", "compute_demand", "labor_demand_ts", "labor_supply_ts")


def _draw(rng: random.Random, spread: float) -> float:
    return 10.0 ** rng.uniform(-spread, spread)


def _document(rng: random.Random, spread: float, sigma: float | None) -> dict:
    """A random scenario document. A fifth of the curves are inelastic, and a
    sixth of the documents have no exogenous compute demand."""

    def draw() -> float:
        return _draw(rng, spread)

    doc = {
        "caw_schema": 1,
        "technology": {"lambda": draw(), "k": draw(), "g": draw()},
        "ces": {"A": draw(), "alpha": draw(), "beta": draw(), "sigma": draw() if sigma is None else sigma},
        "policy": {"tau_c": draw(), "mu": 1.0 + draw()},
        "output_price": draw(),
    }
    for key in _CURVES:
        doc[key] = {"scale": draw(), "elasticity": 0.0 if rng.random() < 0.2 else draw()}
    if rng.random() < 1 / 6:
        doc["compute_demand"] = None
    return doc


def _corpus(seed: int = 12) -> tuple[list[list[str]], dict[str, str]]:
    """The corpus invocations, and the scenario documents they name, by file name."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    calls: list[list[str]] = []

    def fmt() -> list[str]:
        return ["--format", rng.choice(("csv", "json"))]

    def flag(spread: float, at_least: float = 0.0) -> str:
        return repr(at_least + _draw(rng, spread))

    def scenario(doc) -> str:
        name = f"s{len(files):02d}.json"
        files[name] = doc if isinstance(doc, str) else json.dumps(doc, indent=2)
        return name

    calls += [["table1"], ["table1", "--format", "json"]]
    for i in range(16):
        s = _SPREADS[i % 3]
        if i % 2:
            calls.append(["bound", "--lambda", flag(s), "--k", flag(s), "--rc", flag(s),
                          "--tau", flag(s), "--mu", flag(s, 1.0), *fmt()])
        else:
            calls.append(["ces", "--A", flag(s), "--alpha", flag(s), "--beta", flag(s),
                          "--sigma", flag(s), "--wh", flag(s), "--wa", flag(s), *fmt()])

    for i in range(18):  # every spread with every CES branch
        s = _SPREADS[i % 3]
        name = scenario(_document(rng, s, _SIGMAS[i % 4]))
        rc = ["--rc", flag(s)] if rng.random() < 0.5 else []
        calls.append(["solve", "--scenario", name, "--mode", "capped", *fmt()])
        calls.append(["solve", "--scenario", name, "--mode", "coupled", *fmt()])
        calls.append(["shares", "--scenario", name, "--mode", rng.choice(("capped", "coupled")), *fmt()])
        calls.append(["trajectory", "--scenario", name, "--t-max", flag(s), "--steps", "4", *rc, *fmt()])
        calls.append(["statics", "--scenario", name, "--demand", flag(s), *rc, *fmt()])
        for mode, steps in (("capped", "5"), ("coupled", "3")):
            log = ["--log"] if rng.random() < 0.5 else []
            calls.append(["sweep", "--scenario", name, "--param", rng.choice(SWEEPABLE_PARAMS),
                          "--from", flag(s), "--to", flag(s), "--steps", steps, *log, "--mode", mode, *fmt()])

    # statics on each CES branch of the baseline scenario, at a demand every branch but
    # fixed proportions meets, and flags its rules reject.
    for sigma in _SIGMAS:
        doc = json.loads(BASELINE.read_text(encoding="utf-8"))
        doc["ces"]["sigma"] = doc["ces"]["sigma"] if sigma is None else sigma
        name = scenario(doc)
        calls.append(["statics", "--scenario", name, "--demand", "5", *fmt()])
    for flags in (["--demand", "-1"], ["--rc", "0"], ["--rel-step", "0.5"]):
        calls.append(["statics", "--scenario", name, *flags, *fmt()])

    # Documents the parser rejects: not an object, no technology, a section
    # that is not an object, a technology without k, and one that breaks a rule.
    for doc in ("[1]", {"caw_schema": 1}, {"caw_schema": 1, "technology": {"lambda": 1, "k": 1}, "ces": 3},
                {"caw_schema": 1, "technology": {"lambda": 1}},
                {"caw_schema": 1, "technology": {"lambda": 1, "k": 1}, "ces": {"sigma": 0}}):
        calls.append([rng.choice(("solve", "shares", "statics")), "--scenario", scenario(doc)])
    return calls, files


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _corpus_lines(directory: Path) -> list[str]:
    """One line per corpus invocation: argv, exit code, stdout and stderr digests."""
    calls, files = _corpus()
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    lines = []
    for argv in calls:
        run = [str(directory / a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        code = run_command(run, stdout=out, stderr=err)
        lines.append(f"{shlex.join(argv)}\t{code}\t{_sha(out.getvalue())}\t{_sha(err.getvalue())}")
    return lines


def test_every_subcommand_matches_the_corpus(tmp_path):
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    assert _corpus_lines(tmp_path) == lines
    assert {shlex.split(line.split("\t")[0])[0] for line in lines} == {
        "table1", "bound", "ces", "solve", "sweep", "trajectory", "statics", "shares"}
    assert {line.split("\t")[1] for line in lines} == {"0", "2", "3"}


if __name__ == "__main__":
    for name, (scenario, argv) in SPECS.items():
        (GOLDEN / name).write_bytes(_output(scenario, argv).encode("utf-8"))
    with tempfile.TemporaryDirectory() as directory:
        CORPUS.write_text("\n".join(_corpus_lines(Path(directory))) + "\n", encoding="utf-8")
    sys.exit(0)
