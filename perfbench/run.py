"""Benchmark for caw: end-to-end metrics per workload, or per-layer metrics from spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a caw checkout; it imports caw from ``src``.  The
workloads are ``cli_cold``, ``sweep_capped``, ``sweep_coupled`` and
``statics_grid`` (see perfbench/NOTES.md for why each exists).

``--trace 0`` starts five worker processes one after another.  Each sets
up (its set-up time is one ``setup_s`` sample) and then runs ops until the
ops' summed wall time reaches S/5 seconds, timing fixed reference work
(reference.py) between ops.  Op costs are reported in reference units, which
cancels the drift of a shared machine's speed.  The last line of stdout is
one JSON object with the end-to-end metrics.

``--trace 1`` runs a fixed number of ops three times in fresh workers:
untraced, traced, and traced again.  The first traced pass gives the
per-layer metrics and the overhead of tracing; the second must repeat its
exact counters and every op's output digest, or the run is not correct.

A detailed result (versions, failures by type, digests, counters, tail
percentile) goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKERS_PER_RUN = 5
TAIL_BEYOND = 10
# Ops per traced pass: enough spans for stable self times, few enough that
# three passes stay well inside one run's time.
TRACE_OPS = {"cli_cold": 16, "sweep_capped": 4, "sweep_coupled": 4, "statics_grid": 8}

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_ref": "ref", "op_tail_ref": "ref", "op_cpu_p50_ref": "ref",
    "rows_per_ref": "rows/ref", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "startup.interpreter_ms": "ms", "startup.import_numpy_ms": "ms", "startup.import_caw_ms": "ms",
    "cli.self_ms": "ms",
    "scenario_io.parse_us": "us", "model.validate_us": "us", "scenario_io.sha256_us": "us",
    "scenario_io.parse_calls": "count",
    "scenario_io.emit_csv_us_per_row": "us/row", "scenario_io.emit_json_us_per_row": "us/row",
    "scenario_io.emit_bytes": "bytes",
    "statics.sweep_self_us_per_row": "us/row", "statics.sweep_rows": "count", "statics.sweep_rows_error": "count",
    "markets.solve_capped_us": "us", "markets.solve_coupled_us": "us", "markets.capped_eval_us": "us",
    "markets.coupled_evals_per_solve": "evals/solve", "markets.coupled_evals_baseline": "evals/solve",
    "markets.clear_market_per_eval": "calls/eval", "bound.caw_ceiling_calls": "count",
    "statics.point_us": "us", "statics.gap_evals_per_point": "evals/point",
    "statics.points_ok": "count", "statics.points_infeasible": "count",
    "statics.points_noconvergence": "count", "statics.points_other": "count",
    "ces.relative_wage_calls": "count", "ces.relative_wage_us": "us",
    "calibration.table1_us": "us", "trace.overhead_frac": "ratio",
}
STARTUP_METRICS = ("startup.interpreter_ms", "startup.import_numpy_ms", "startup.import_caw_ms")


class WorkerFailed(RuntimeError):
    pass


def start_worker(env: dict, root: str, args: list[str]) -> tuple[dict, float]:
    """Run one worker to completion; return its report and its set-up wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                            text=True, env=env, cwd=root)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        last = ready
        for line in proc.stdout:
            last = line
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not ready.startswith('{"ready"'):
        raise WorkerFailed(f"worker {' '.join(args)} exited with {code}")
    return json.loads(last), setup_s


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it.

    Returns the value, that percentile, and the samples beyond it (fewer
    than TAIL_BEYOND only when there are too few samples; then the maximum).
    """
    ordered = sorted(samples)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    k = len(ordered) - 1 - beyond
    return ordered[k], 100.0 * (k + 1) / len(ordered), beyond


def in_ref_units(report: dict, key: str, ref_key: str) -> list[float]:
    """Each op's cost over the mean of the two reference timings around it."""
    refs = report[ref_key]
    return [value * 2.0 / (refs[k] + refs[k + 1]) for k, value in enumerate(report[key])]


def chunk_rates(reports: list[dict], costs: list[list[float]], period: int) -> list[float]:
    """Rows per unit of cost over each run of ``period`` consecutive ops.

    Each chunk holds every kind of op once, so chunk rates are comparable and
    their median shrugs off a burst of fast or slow machine time.
    """
    rates = []
    for r, cost in zip(reports, costs):
        for k in range(0, len(cost) - period + 1, period):
            rates.append(sum(r["rows"][k:k + period]) / sum(cost[k:k + period]))
    return rates or [sum(sum(r["rows"]) for r in reports) / sum(sum(c) for c in costs)]


def merge_reports(reports: list[dict]) -> dict:
    """Attempted and failed inputs, failures by type, outcomes and digests over several workers.

    ``attempted`` counts the distinct inputs run (pool indices; setups on
    ``statics_grid``) and ``failures`` the distinct inputs that failed, by the
    type of their first failure.  caw is deterministic, so an input fails on
    every call or on none (a difference shows in the digests), and these
    counts depend on the seed and on which inputs a run reached, not on how
    many times it repeated them.  ``calls`` counts every call made.
    ``nondeterministic`` counts the op specs whose bytes differed between two
    executions, within a worker or across workers.
    """
    merged = {"calls": 0, "failures": {}, "failure_examples": {}, "outcomes": {},
              "digests": {}, "nondeterministic": 0}
    inputs: set[int] = set()
    failed_inputs: dict[str, str] = {}
    for r in reports:
        merged["calls"] += r["calls"]
        inputs.update(r["inputs"])
        merged["nondeterministic"] += r["nondeterministic"]
        for key, kind in r["failures"].items():
            failed_inputs.setdefault(key, kind)
        for key, count in r["outcomes"].items():
            merged["outcomes"][key] = merged["outcomes"].get(key, 0) + count
        for key, detail in r["failure_examples"].items():
            merged["failure_examples"].setdefault(key, detail)
        for key, digest in r["digests"].items():
            if merged["digests"].setdefault(key, digest) != digest:
                merged["nondeterministic"] += 1
    merged["attempted"] = len(inputs)
    for kind in failed_inputs.values():
        merged["failures"][kind] = merged["failures"].get(kind, 0) + 1
    return merged


def measured_run(workload: str, seed: int, seconds: float, work: str, env: dict, root: str) -> dict:
    reports, setups = [], []
    start = 0
    for j in range(WORKERS_PER_RUN):
        report, setup_s = start_worker(env, root, [
            "--workload", workload, "--seed", str(seed), "--work", os.path.join(work, f"w{j}"),
            "--start", str(start), "--budget-s", repr(seconds / WORKERS_PER_RUN),
        ])
        reports.append(report)
        setups.append(setup_s)
        start += report["ops"]
    # Set-up time on a machine on which the workload's reference work takes
    # its nominal time: the median set-up over the median of all the
    # reference timings of the run, so the machine's drift between runs does
    # not read as a change.
    ref_s = statistics.median(ns for r in reports for ns in r["ref_wall_ns"]) * 1e-9
    wall = [[ns * 1e-6 for ns in r["wall_ns"]] for r in reports]
    wall_ref = [in_ref_units(r, "wall_ns", "ref_wall_ns") for r in reports]
    cpu_ref = [in_ref_units(r, "cpu_ns", "ref_cpu_ns") for r in reports]
    all_wall = [v for w in wall for v in w]
    all_ref = [v for w in wall_ref for v in w]
    tail_ref, tail_pct, beyond = tail(all_ref)
    period = workloads.MIX_PERIOD[workload]
    metrics = {
        "setup_s": statistics.median(setups) * reports[0]["ref_nominal_s"] / ref_s,
        "op_p50_ref": statistics.median(all_ref),
        "op_tail_ref": tail_ref,
        "op_cpu_p50_ref": statistics.median(v for c in cpu_ref for v in c),
        "rows_per_ref": statistics.median(chunk_rates(reports, wall_ref, period)),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in reports) / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(setups),
        "ref_ms_p50": ref_s * 1e3,
        "op_ms_p50": statistics.median(all_wall),
        "op_ms_tail": tail(all_wall)[0],
        "op_cpu_ms_p50": statistics.median(ns * 1e-6 for r in reports for ns in r["cpu_ns"]),
        "rows_per_s": statistics.median(chunk_rates(reports, [[v * 1e-3 for v in w] for w in wall], period)),
    }
    return {
        **merge_reports(reports),
        "metrics": metrics,
        "self_check": None,
        "detail": {
            "raw_setup_s_samples": setups,
            "raw": raw,
            "tail_percentile": tail_pct,
            "tail_samples_beyond": beyond,
            "op_samples": len(all_ref),
        },
    }


def traced_run(workload: str, seed: int, work: str, env: dict, root: str, out_dir: str) -> dict:
    n = TRACE_OPS[workload]
    base = ["--workload", workload, "--seed", str(seed), "--ops", str(n)]
    spans_out = os.path.join(out_dir, f"spans-{workload}-seed{seed}.tsv.gz")
    untraced, _ = start_worker(env, root, [*base, "--work", os.path.join(work, "a")])
    first, _ = start_worker(env, root, [*base, "--work", os.path.join(work, "b"), "--traced",
                                        "--spans-out", spans_out]
                            + (["--startup"] if workload == "cli_cold" else []))
    second, _ = start_worker(env, root, [*base, "--work", os.path.join(work, "c"), "--traced"])
    merged = merge_reports([untraced, first, second])
    ratios = [t / u for t, u in zip(in_ref_units(first, "wall_ns", "ref_wall_ns"),
                                    in_ref_units(untraced, "wall_ns", "ref_wall_ns"))]
    metrics = dict(first["layer"])
    for name in STARTUP_METRICS:
        metrics[name] = first.get("startup", {}).get(name, 0.0)
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return {
        **merged,
        "metrics": metrics,
        "self_check": {"counters_repeat": first["counters"] == second["counters"],
                       "digests_repeat": merged["nondeterministic"] == 0,
                       "counters": first["counters"], "counters_second": second["counters"]},
        "detail": {
            "ops_per_pass": n,
            "missing_hooks": first["missing_hooks"],
            "missing_metrics": first["missing_metrics"],
            "spans_file": os.path.relpath(spans_out, root),
        },
    }


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "caw", "__init__.py")):
        print("perfbench: src/caw not found; run from the root of a caw checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["CAW_NO_COLOR"] = "1"

    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir)
    try:
        for sub in [f"w{j}" for j in range(WORKERS_PER_RUN)] + ["a", "b", "c"]:
            os.makedirs(os.path.join(work, sub))
        if args.trace:
            run = traced_run(args.workload, args.seed, work, env, root, out_dir)
            units = PER_LAYER_UNITS
        else:
            run = measured_run(args.workload, args.seed, args.seconds, work, env, root)
            units = END_TO_END_UNITS
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(run["failures"].values())
    self_check = run["self_check"]
    correct = run["nondeterministic"] == 0 and (self_check is None or self_check["counters_repeat"])
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "failures": run["failures"],
        "calls": run["calls"],
        "failure_examples": run["failure_examples"],
        "outcomes": run["outcomes"],
        "nondeterministic": run["nondeterministic"],
        "self_check": self_check,
        "digests": run["digests"],
        **run["detail"],
    }
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    summary = {k: detail[k] for k in ("workload", "seed", "python", "numpy", "nproc", "failures", "outcomes")}
    summary["detail_file"] = os.path.relpath(path, root)
    if args.trace:
        summary["missing_metrics"] = detail["missing_metrics"]
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
