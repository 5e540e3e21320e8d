"""One benchmark worker process: set up a workload, run ops, report JSON.

    python perfbench/worker.py --workload W --seed S --work DIR --start I
        (--budget-s B | --ops N) [--traced] [--startup] [--spans-out FILE]

``run.py`` starts workers one after another; nothing else needs to.  A
worker prints ``{"ready": true}`` once set-up is done (inputs generated,
scenario files written, caw imported, warm-up op run), then one JSON line
with its samples.  With ``--budget-s`` it runs ops from index I until the
ops' summed wall time reaches B seconds (on ``statics_grid``, and until it
has run every distinct op once); with ``--ops`` it runs exactly N
ops, which is what makes the traced counters repeat exactly.  Before the
first op and after each one it times the workload's reference work.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import re
import resource
import selectors
import statistics
import subprocess
import sys
import time

import oracles
import reference
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
COLDTRACE = os.path.join(HERE, "coldtrace.py")
BASELINE_OP = -2
STARTUP_PROBES = 5
COLD_TIMEOUT_S = 60  # a hung child ends the run with an error, inside its time limit


class Op:
    """What one op left behind: its cost, its bytes, and how each call ended.

    ``inputs`` names the distinct inputs the op ran (a pool index, or on
    ``statics_grid`` one setup index per call); each failure names its input.
    """

    __slots__ = ("wall_ns", "cpu_ns", "maxrss_kb", "rows", "inputs", "failures", "outcomes", "digest")

    def __init__(self, inputs: list[int]):
        self.maxrss_kb = 0  # set for cold processes only
        self.rows = 0
        self.inputs = inputs
        self.failures: list[tuple[int, str, str | None]] = []
        self.outcomes: dict[str, int] = {}

    def outcome(self, name: str) -> None:
        self.outcomes[name] = self.outcomes.get(name, 0) + 1

    def fail(self, kind: str, detail: str | None = None, input_id: int | None = None) -> None:
        self.failures.append((self.inputs[0] if input_id is None else input_id, kind, detail))


def _digest(code, emitted: str) -> str:
    return hashlib.sha256(f"{code}\n{emitted}".encode("utf-8")).hexdigest()


class Child:
    """A finished child process with its own resource usage, from ``os.wait4``."""

    def __init__(self, cmd: list[str], timeout_s: float):
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
        chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
        deadline = time.monotonic() + timeout_s
        with selectors.DefaultSelector() as sel:
            for pipe in (proc.stdout, proc.stderr):
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -9
                    raise TimeoutError(f"{' '.join(cmd)} ran longer than {timeout_s} s")
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_ns = time.perf_counter_ns() - t0
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_ns = int((usage.ru_utime + usage.ru_stime) * 1e9)
        self.maxrss_kb = usage.ru_maxrss
        self.stdout = b"".join(chunks[out_fd]).decode("utf-8")
        self.stderr = b"".join(chunks[err_fd]).decode("utf-8")


class ColdCli:
    """Each op is a fresh ``python -m caw`` process."""

    op_span = "cli.run_command"
    time_reference = staticmethod(reference.timed_cold)
    reference_nominal_s = reference.NOMINAL_COLD_S
    min_ops = 0

    def __init__(self, args):
        self.work = args.work
        self.pool = workloads.cli_pool(args.seed)
        self.size = len(self.pool)
        self.rec = None
        self.paths = []
        for n, spec in enumerate(self.pool):
            path = os.path.join(self.work, f"scenario-{n}.json")
            if spec["doc"] is not None:
                _write_json(path, spec["doc"])
            self.paths.append(path)

    def run(self, i: int) -> Op:
        n = i % len(self.pool)
        spec = self.pool[n]
        out_path = os.path.join(self.work, f"out-{n}.{spec['format']}") if spec["out"] else None
        if out_path and os.path.exists(out_path):
            os.remove(out_path)
        argv = workloads.cli_argv(spec, self.paths[n], out_path)
        spans_path = os.path.join(self.work, f"spans-{n}.json")
        op = Op([n])
        proc = cold_call(argv, spans_path if self.rec is not None else None)
        op.wall_ns, op.cpu_ns, op.maxrss_kb = proc.wall_ns, proc.cpu_ns, proc.maxrss_kb
        emitted = proc.stdout
        if out_path:
            emitted = _read(out_path) if os.path.exists(out_path) else ""
        op.digest = _digest(proc.returncode, emitted)
        op.outcome(f"exit:{proc.returncode}")
        if out_path and proc.stdout:
            reason = "stdout_with_out"
        else:
            reason = oracles.check_cli(spec, proc.returncode, emitted, proc.stderr,
                                       workloads.CLI_HEADERS[spec["cmd"]])
        if reason:
            op.fail(reason, f"{' '.join(argv)}: {proc.stderr[-300:]}")
        elif proc.returncode == 0:
            op.rows = len(oracles.parse_table(emitted, spec["format"])[1])
        if self.rec is not None and os.path.exists(spans_path):
            self.rec.merge(spans.load(spans_path), i)
        return op

    def trace(self, rec: spans.Recorder) -> None:
        self.rec = rec  # the hooks go into each child, through coldtrace.py


def cold_call(argv: list[str], spans_path: str | None) -> Child:
    """Run caw in a fresh interpreter, plain or with span hooks."""
    if spans_path is None:
        return Child([sys.executable, "-m", "caw", *argv], COLD_TIMEOUT_S)
    return Child([sys.executable, COLDTRACE, spans_path, *argv], COLD_TIMEOUT_S)


class InProcessSweep:
    """Each op is one ``run_command(["sweep", ...])`` call in this process."""

    op_span = "cli.run_command"
    time_reference = staticmethod(reference.timed)
    reference_nominal_s = reference.NOMINAL_S
    min_ops = 0

    def __init__(self, args):
        from caw import CawError
        from caw.cli import run_command

        self.caw_error = CawError
        self.run_command = run_command
        self.pool = workloads.sweep_pool(args.seed, coupled=args.workload == "sweep_coupled")
        self.size = len(self.pool)
        self.argv = []
        for n, spec in enumerate(self.pool):
            path = os.path.join(args.work, f"scenario-{n}.json")
            _write_json(path, spec["doc"])
            self.argv.append(workloads.sweep_argv(spec, path))

    def trace(self, rec: spans.Recorder) -> None:
        rec.install()
        self.run_command = rec.wrap("cli.run_command", self.run_command)

    def run(self, i: int) -> Op:
        n = i % len(self.pool)
        spec = self.pool[n]
        out, err = io.StringIO(), io.StringIO()
        op = Op([n])
        code = None
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        try:
            code = self.run_command(self.argv[n], stdout=out, stderr=err)
        except self.caw_error as exc:
            op.outcome(type(exc).__name__)
        except Exception as exc:  # any other exception is a counted failure
            op.fail(f"exception:{type(exc).__name__}", str(exc)[:300])
        op.wall_ns = time.perf_counter_ns() - t0
        op.cpu_ns = time.process_time_ns() - c0
        text = out.getvalue()
        op.digest = _digest(code, text)
        if op.failures or code is None:
            return op
        op.outcome(f"exit:{code}")
        if "Traceback (most recent call last)" in err.getvalue():
            op.fail("traceback", err.getvalue()[-300:])
        elif code != 0:
            op.fail(f"exit_mismatch:0->{code}", err.getvalue()[:300])
        else:
            reason = oracles.check_sweep(text, spec)
            if reason:
                op.fail(f"oracle:{spec['mode']}", reason)
            else:
                op.rows = spec["steps"]
        return op


class StaticsGrid:
    """Each op is ``semi_elasticity`` on STATICS_BATCH consecutive setups of the pool.

    A single call takes a few hundred microseconds, too short to time
    steadily on a shared machine, and the slowest of thousands of such calls
    is set by scheduler hiccups, so calls are timed in batches; attempted
    and failed count single setups.
    """

    op_span = "statics.semi_elasticity"
    time_reference = staticmethod(reference.timed)
    reference_nominal_s = reference.NOMINAL_S
    batch = workloads.STATICS_BATCH

    def __init__(self, args):
        from caw import CawError, CesParams, StaticsSetup, semi_elasticity, supply_curve

        self.caw_error = CawError
        self.semi_elasticity = semi_elasticity
        self.setups = [
            StaticsSetup(
                ces=CesParams(A=p["A"], alpha=p["alpha"], beta=p["beta"], sigma=p["sigma"]),
                l_eff_demand=p["l_eff_demand"],
                labor_supply=supply_curve(p["supply_scale"], p["supply_elasticity"]),
                w_a_eff=p["w_a_eff"],
            )
            for p in workloads.statics_pool(args.seed)
        ]
        self.size = len(self.setups) // math.gcd(len(self.setups), self.batch)  # distinct ops
        # A budgeted worker runs every distinct op at least once, so every
        # run counts every setup in attempted and failed, however fast it goes.
        self.min_ops = self.size

    def trace(self, rec: spans.Recorder) -> None:
        rec.install()
        self.semi_elasticity = rec.wrap(self.op_span, self.semi_elasticity)

    def run(self, i: int) -> Op:
        ids = [(i * self.batch + j) % len(self.setups) for j in range(self.batch)]
        setups = [self.setups[n] for n in ids]
        results: list[object] = []
        op = Op(ids)
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        for setup in setups:
            try:
                results.append(self.semi_elasticity(setup))
            except Exception as exc:  # sorted into outcomes and failures below
                results.append(exc.with_traceback(None))  # no frame cycles to collect
        op.wall_ns = time.perf_counter_ns() - t0
        op.cpu_ns = time.process_time_ns() - c0
        texts = []
        for n, setup, result in zip(ids, setups, results):
            if isinstance(result, self.caw_error):
                op.outcome(type(result).__name__)
                texts.append(f"{type(result).__name__}: {result}")
            elif isinstance(result, Exception):
                op.fail(f"exception:{type(result).__name__}", f"{result} at {setup!r}", n)
                texts.append(f"{type(result).__name__}: {result}")
            else:
                op.outcome("ok")
                texts.append(repr(result))
                reason = oracles.check_statics(result)
                if reason:
                    op.fail(f"oracle:{reason}", f"{result!r} at {setup!r}", n)
                else:
                    op.rows += 1
        op.digest = _digest(0, "\n".join(texts))
        return op


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def startup_split(baseline_path: str) -> dict[str, float]:
    """Bare interpreter time, and numpy's and caw's share of a cold ``caw solve``."""
    bare = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append((time.perf_counter_ns() - t0) * 1e-6)
    numpy_ms, caw_ms = [], []
    for _ in range(STARTUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "caw", "solve", "--scenario", baseline_path],
            capture_output=True, text=True, check=True,
        )
        n, c = _importtime_split(proc.stderr)
        numpy_ms.append(n)
        caw_ms.append(c)
    return {
        "startup.interpreter_ms": statistics.median(bare),
        "startup.import_numpy_ms": statistics.median(numpy_ms),
        "startup.import_caw_ms": statistics.median(caw_ms),
    }


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)$")


def _importtime_split(stderr: str) -> tuple[float, float]:
    """(numpy ms, caw ms excluding numpy) from ``-X importtime`` output."""
    numpy_us, numpy_nested, caw_us = 0, False, 0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)) // 2, m.group(4)
        if name == "numpy" and not numpy_us:
            numpy_us, numpy_nested = cumulative, depth > 0
        elif depth == 0 and (name == "caw" or name.startswith("caw.")):
            caw_us += cumulative
    return numpy_us * 1e-3, (caw_us - (numpy_us if numpy_nested else 0)) * 1e-3


WORKLOAD_CLASSES = {
    "cli_cold": ColdCli,
    "sweep_capped": InProcessSweep,
    "sweep_coupled": InProcessSweep,
    "statics_grid": StaticsGrid,
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--budget-s", type=float)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--startup", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    baseline_path = os.path.join(args.work, "baseline.json")
    _write_json(baseline_path, workloads.BASELINE_DOC)
    load = WORKLOAD_CLASSES[args.workload](args)
    seen = {args.start % load.size: load.run(args.start).digest}  # the warm-up op
    rec = None
    if args.traced:
        rec = spans.Recorder()
        load.trace(rec)
    print(json.dumps({"ready": True}), flush=True)

    ops: list[Op] = []
    refs = [load.time_reference()]  # refs[k] and refs[k + 1] bracket op k
    calls = 0
    inputs: set[int] = set()
    failures: dict[str, str] = {}
    failure_examples: dict[str, str | None] = {}
    outcomes: dict[str, int] = {}
    nondeterministic = 0
    budget_ns = (args.budget_s or 0.0) * 1e9
    spent = 0
    i = args.start
    while len(ops) < args.ops if args.ops is not None else spent < budget_ns or len(ops) < load.min_ops:
        if rec is not None:
            rec.op_id = i
        op = load.run(i)
        refs.append(load.time_reference())
        spent += op.wall_ns
        if seen.setdefault(i % load.size, op.digest) != op.digest:
            nondeterministic += 1
        i += 1
        # Fold what the op left into the totals and keep only its numbers, so
        # the worker's memory does not grow with the number of ops it runs.
        calls += len(op.inputs)
        inputs.update(op.inputs)
        for name, count in op.outcomes.items():
            outcomes[name] = outcomes.get(name, 0) + count
        for n, kind, detail in op.failures:
            failures.setdefault(str(n), kind)
            failure_examples.setdefault(kind, detail)
        op.inputs = op.failures = op.outcomes = None
        ops.append(op)

    report = {
        "start": args.start,
        "ops": len(ops),
        "calls": calls,
        "inputs": sorted(inputs),
        "wall_ns": [op.wall_ns for op in ops],
        "cpu_ns": [op.cpu_ns for op in ops],
        "rows": [op.rows for op in ops],
        "ref_wall_ns": [wall for wall, _ in refs],
        "ref_cpu_ns": [cpu for _, cpu in refs],
        "ref_nominal_s": load.reference_nominal_s,
        "failures": failures,
        "failure_examples": failure_examples,
        "outcomes": outcomes,
        "digests": {str(n): d for n, d in sorted(seen.items())},
        "nondeterministic": nondeterministic,
    }
    if isinstance(load, ColdCli):
        report["peak_rss_kb"] = max(op.maxrss_kb for op in ops)
    else:
        report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if rec is not None:
        rec.restore()
        probe_spans = os.path.join(args.work, "spans-baseline.json")
        cold_call(["solve", "--scenario", baseline_path, "--mode", "coupled"], probe_spans)
        rec.merge(spans.load(probe_spans), BASELINE_OP)
        layer = spans.layer_metrics(rec, load.op_span, BASELINE_OP)
        report["layer"] = layer
        report["counters"] = {k: layer[k] for k in spans.COUNTERS}
        report["missing_hooks"] = rec.missing
        report["missing_metrics"] = spans.missing_metrics(rec.missing)
        if args.spans_out:
            rec.write(args.spans_out)
    if args.startup:
        report["startup"] = startup_split(baseline_path)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
