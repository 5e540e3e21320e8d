"""Spans recorded around calls into caw's public functions, from outside the package.

A hook replaces a module attribute (``caw.cli.parse_scenario`` and so on)
with a wrapper that records one span per call: name, start, end, parent
span and op id.  Replacing the name where it is looked up catches exactly
the calls made through it, so ``caw.statics.solve_scenario`` sees the
per-row solves of ``sweep`` and nothing else.  The package's sources are
never edited; :meth:`Recorder.restore` puts every original back.

A hook whose target no longer exists (a function renamed or moved by a
refactor) is skipped and listed in ``Recorder.missing``; the metrics that
need it are then reported as missing instead of aborting the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array

# (module where the name is looked up, attribute, span name).  Span names
# are fixed here, not derived from the function, so that a metric keeps its
# name when a function moves.
HOOKS = (
    ("caw.cli", "parse_scenario", "scenario_io.parse_scenario"),
    ("caw.cli", "scenario_sha256", "scenario_io.scenario_sha256"),
    ("caw.cli", "solve_scenario", "markets.solve_scenario"),
    ("caw.cli", "sweep", "statics.sweep"),
    ("caw.cli", "emit_table", "scenario_io.emit_table"),
    ("caw.cli", "table1", "calibration.table1"),
    ("caw.cli", "semi_elasticity", "statics.semi_elasticity"),
    ("caw.cli", "caw_ceiling", "bound.caw_ceiling"),
    ("caw.statics", "scenario_with", "statics.scenario_with"),
    ("caw.statics", "solve_scenario", "markets.solve_scenario"),
    ("caw.statics", "solve_statics_point", "statics.solve_statics_point"),
    ("caw.statics", "relative_wage", "ces.relative_wage"),
    ("caw.markets", "solve_capped_labor_market", "markets.solve_capped_labor_market"),
    ("caw.markets", "solve_coupled", "markets.solve_coupled"),
    ("caw.markets", "clear_market", "markets.clear_market"),
    ("caw.markets", "caw_ceiling", "bound.caw_ceiling"),
    ("caw.scenario_io", "validate_scenario", "model.validate_scenario"),
)

# Supply-curve evaluations made directly inside solve_statics_point are the
# wage-gap evaluations of its root search (plus one for the final point).
QUANTITY_HOOK = ("caw.model", "IsoElasticCurve", "quantity")


def _emit_note(args, kwargs, result):
    table = args[0]
    fmt = args[1] if len(args) > 1 else kwargs.get("format", "csv")
    return (len(table.rows), fmt, len(result.encode("utf-8")))


def _sweep_note(args, kwargs, result):
    return (len(result), sum(1 for row in result if row.result is None))


def _solve_note(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("mode", "capped")


NOTES = {
    "scenario_io.emit_table": _emit_note,
    "statics.sweep": _sweep_note,
    "markets.solve_scenario": _solve_note,
}


class Recorder:
    """Spans kept in flat arrays; extra per-span facts in sparse dicts."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.error: dict[int, str] = {}
        self.note: dict[int, object] = {}
        self.quantity_calls: dict[int, int] = {}
        self.stack: list[int] = []
        self.op_id = -1
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, name: str) -> int:
        sid = len(self.t0)
        self.name.append(self._name_index(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.t1.append(0)
        self.stack.append(sid)
        self.t0.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int, error: BaseException | None = None) -> None:
        self.t1[sid] = time.perf_counter_ns()
        self.stack.pop()
        if error is not None:
            self.error[sid] = type(error).__name__

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(sid, exc)
                raise
            self.close(sid)
            if note is not None:
                self.note[sid] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))
        module_name, cls_name, attr = QUANTITY_HOOK
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        fn = getattr(cls, attr, None)
        if fn is None:
            self.missing.append(".".join(QUANTITY_HOOK))
            return
        statics_point = self._name_index("statics.solve_statics_point")
        counts, stack, names = self.quantity_calls, self.stack, self.name

        def quantity(curve, price):
            if stack and names[stack[-1]] == statics_point:
                counts[stack[-1]] = counts.get(stack[-1], 0) + 1
            return fn(curve, price)

        self._saved.append((cls, attr, fn))
        setattr(cls, attr, quantity)

    def restore(self) -> None:
        while self._saved:
            holder, attr, fn = self._saved.pop()
            setattr(holder, attr, fn)

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(s) for s in zip(self.name, self.parent, self.op, self.t0, self.t1)],
            "error": self.error,
            "note": self.note,
            "quantity_calls": self.quantity_calls,
            "missing": self.missing,
        }

    def merge(self, doc: dict, op_id: int) -> None:
        """Append spans recorded by another process, under ``op_id``."""
        base = len(self.t0)
        remap = [self._name_index(n) for n in doc["names"]]
        for name, parent, _op, t0, t1 in doc["spans"]:
            self.name.append(remap[name])
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(op_id)
            self.t0.append(t0)
            self.t1.append(t1)
        for table, src in ((self.error, "error"), (self.note, "note"), (self.quantity_calls, "quantity_calls")):
            for sid, value in doc[src].items():
                table[int(sid) + base] = tuple(value) if isinstance(value, list) else value
        for name in doc["missing"]:
            if name not in self.missing:
                self.missing.append(name)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\terror\n")
            for sid, (name, parent, op, t0, t1) in enumerate(
                zip(self.name, self.parent, self.op, self.t0, self.t1)
            ):
                fh.write(f"{sid}\t{parent}\t{op}\t{self.names[name]}\t{t0}\t{t1}\t{self.error.get(sid, '')}\n")


# Which hook each per-layer metric needs; a metric whose hook is missing is
# reported as missing.
METRIC_HOOKS = {
    "cli.self_ms": (),
    "scenario_io.parse_us": ("caw.cli.parse_scenario",),
    "model.validate_us": ("caw.scenario_io.validate_scenario",),
    "scenario_io.sha256_us": ("caw.cli.scenario_sha256",),
    "scenario_io.parse_calls": ("caw.cli.parse_scenario",),
    "scenario_io.emit_csv_us_per_row": ("caw.cli.emit_table",),
    "scenario_io.emit_json_us_per_row": ("caw.cli.emit_table",),
    "scenario_io.emit_bytes": ("caw.cli.emit_table",),
    "statics.sweep_self_us_per_row": ("caw.cli.sweep", "caw.statics.solve_scenario"),
    "statics.sweep_rows": ("caw.cli.sweep",),
    "statics.sweep_rows_error": ("caw.cli.sweep",),
    "markets.solve_capped_us": ("caw.markets.solve_capped_labor_market",),
    "markets.solve_coupled_us": ("caw.markets.solve_coupled",),
    "markets.capped_eval_us": ("caw.markets.solve_capped_labor_market", "caw.markets.solve_coupled"),
    "markets.coupled_evals_per_solve": ("caw.markets.solve_capped_labor_market", "caw.markets.solve_coupled"),
    "markets.coupled_evals_baseline": ("caw.markets.solve_capped_labor_market", "caw.markets.solve_coupled"),
    "markets.clear_market_per_eval": ("caw.markets.solve_capped_labor_market", "caw.markets.clear_market"),
    "bound.caw_ceiling_calls": ("caw.markets.caw_ceiling", "caw.cli.caw_ceiling"),
    "statics.point_us": ("caw.statics.solve_statics_point",),
    "statics.gap_evals_per_point": ("caw.statics.solve_statics_point", ".".join(QUANTITY_HOOK)),
    "statics.points_ok": ("caw.statics.solve_statics_point",),
    "statics.points_infeasible": ("caw.statics.solve_statics_point",),
    "statics.points_noconvergence": ("caw.statics.solve_statics_point",),
    "statics.points_other": ("caw.statics.solve_statics_point",),
    "ces.relative_wage_calls": ("caw.statics.relative_wage",),
    "ces.relative_wage_us": ("caw.statics.relative_wage",),
    "calibration.table1_us": ("caw.cli.table1",),
}

# Metrics that are exact counts: they must repeat between two runs of one seed.
COUNTERS = (
    "scenario_io.parse_calls", "scenario_io.emit_bytes", "statics.sweep_rows",
    "statics.sweep_rows_error", "markets.coupled_evals_per_solve", "markets.coupled_evals_baseline",
    "markets.clear_market_per_eval", "bound.caw_ceiling_calls", "statics.gap_evals_per_point",
    "statics.points_ok", "statics.points_infeasible", "statics.points_noconvergence",
    "statics.points_other", "ces.relative_wage_calls",
)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(rec: Recorder, op_span: str, baseline_op: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ops >= 0 (and the baseline probe)."""
    n = len(rec.t0)
    dur = [rec.t1[i] - rec.t0[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
    idx = {name: i for i, name in enumerate(rec.names)}
    by_name: dict[int, list[int]] = {}
    for i in range(n):
        by_name.setdefault(rec.name[i], []).append(i)

    def spans(name: str, op_filter=lambda op: op >= 0) -> list[int]:
        return [i for i in by_name.get(idx.get(name, -2), ()) if op_filter(rec.op[i])]

    def parent_is(i: int, name: str) -> bool:
        p = rec.parent[i]
        return p >= 0 and rec.name[p] == idx.get(name, -2)

    us = 1e-3
    m: dict[str, float] = {}
    ops = spans(op_span) if op_span == "cli.run_command" else []
    m["cli.self_ms"] = _mean([(dur[i] - child[i]) * 1e-6 for i in ops])

    parses = spans("scenario_io.parse_scenario")
    m["scenario_io.parse_us"] = _mean([dur[i] * us for i in parses])
    m["scenario_io.parse_calls"] = len(parses)
    m["model.validate_us"] = _mean([dur[i] * us for i in spans("model.validate_scenario")])
    m["scenario_io.sha256_us"] = _mean([dur[i] * us for i in spans("scenario_io.scenario_sha256")])

    emits = [(i, rec.note[i]) for i in spans("scenario_io.emit_table") if i in rec.note]
    for fmt, key in (("csv", "scenario_io.emit_csv_us_per_row"), ("json", "scenario_io.emit_json_us_per_row")):
        chosen = [(i, note) for i, note in emits if note[1] == fmt]
        rows = sum(note[0] for _, note in chosen)
        m[key] = sum(dur[i] for i, _ in chosen) * us / rows if rows else 0.0
    m["scenario_io.emit_bytes"] = sum(note[2] for _, note in emits)

    sweeps = [i for i in spans("statics.sweep") if i in rec.note]
    rows = sum(rec.note[i][0] for i in sweeps)
    solves_in_sweeps = sum(dur[i] for i in spans("markets.solve_scenario") if parent_is(i, "statics.sweep"))
    m["statics.sweep_self_us_per_row"] = (sum(dur[i] for i in sweeps) - solves_in_sweeps) * us / rows if rows else 0.0
    m["statics.sweep_rows"] = rows
    m["statics.sweep_rows_error"] = sum(rec.note[i][1] for i in sweeps)

    capped = spans("markets.solve_capped_labor_market")
    evals = [i for i in capped if parent_is(i, "markets.solve_coupled")]
    direct = [i for i in capped if not parent_is(i, "markets.solve_coupled")]
    coupled = spans("markets.solve_coupled")
    m["markets.solve_capped_us"] = _mean([dur[i] * us for i in direct])
    m["markets.solve_coupled_us"] = _mean([dur[i] * us for i in coupled])
    m["markets.capped_eval_us"] = _mean([dur[i] * us for i in evals])
    m["markets.coupled_evals_per_solve"] = len(evals) / len(coupled) if coupled else 0.0
    probe = lambda op: op == baseline_op  # noqa: E731
    probe_coupled = spans("markets.solve_coupled", probe)
    probe_evals = [i for i in spans("markets.solve_capped_labor_market", probe) if parent_is(i, "markets.solve_coupled")]
    m["markets.coupled_evals_baseline"] = len(probe_evals) / len(probe_coupled) if probe_coupled else 0.0
    clears = [i for i in spans("markets.clear_market") if parent_is(i, "markets.solve_capped_labor_market")]
    m["markets.clear_market_per_eval"] = len(clears) / len(capped) if capped else 0.0
    m["bound.caw_ceiling_calls"] = len(spans("bound.caw_ceiling"))

    points = spans("statics.solve_statics_point")
    m["statics.point_us"] = _mean([dur[i] * us for i in points])
    gap_evals = 0
    for i in points:
        calls = rec.quantity_calls.get(i, 0)
        # A point that returned from the search evaluates supply once more.
        gap_evals += calls - 1 if calls and i not in rec.error else calls
    m["statics.gap_evals_per_point"] = gap_evals / len(points) if points else 0.0
    outcomes = {"ok": 0, "infeasible": 0, "noconvergence": 0, "other": 0}
    for i in points:
        err = rec.error.get(i)
        key = "ok" if err is None else {"Infeasible": "infeasible", "NoConvergence": "noconvergence"}.get(err, "other")
        outcomes[key] += 1
    for key, count in outcomes.items():
        m[f"statics.points_{key}"] = count
    rw = spans("ces.relative_wage")
    m["ces.relative_wage_calls"] = len(rw)
    m["ces.relative_wage_us"] = _mean([dur[i] * us for i in rw])
    m["calibration.table1_us"] = _mean([dur[i] * us for i in spans("calibration.table1")])
    return m


def missing_metrics(missing_hooks: list[str]) -> list[str]:
    gone = set(missing_hooks)
    return sorted(name for name, hooks in METRIC_HOOKS.items() if gone.intersection(hooks))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
