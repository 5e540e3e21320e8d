"""Output oracles that recompute expected results with stdlib ``math`` only.

Each check returns ``None`` when the output is accepted, or a short reason
naming the first thing it rejected.  Nothing here imports ``caw``: the
expected values come from the generated inputs and the closed forms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

REL_TOL = 1e-12
RESIDUAL_REL_TOL = 1e-7
SIGN_PROBE = 1e-8


_NONFINITE_CSV = re.compile(r"(?:^|,)(?:-?inf|nan)(?:,|$)", re.MULTILINE)


def parse_table(text: str, fmt: str) -> tuple[list[str], list[list], bool]:
    """Headers, data rows (cells as text or JSON values), and whether a cell is non-finite."""
    if fmt == "json":
        nonfinite = []
        doc = json.loads(text, parse_constant=lambda name: nonfinite.append(name) or float(name.lower()))
        return doc["headers"], doc["rows"], bool(nonfinite)
    body = "\n".join(line for line in text.split("\n") if line and not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    return rows[0], rows[1:], bool(_NONFINITE_CSV.search(body))


def _num(cell) -> float | None:
    if cell is None or cell == "" or isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _close(got: float | None, want: float, rel: float = REL_TOL) -> bool:
    return got is not None and abs(got - want) <= rel * max(abs(want), 1e-300)


def flatten(doc: dict) -> dict[str, float]:
    """Scenario fields by their public dotted name (``technology.lambda``, ...)."""
    return {
        f"{section}.{key}": value
        for section, body in doc.items()
        if isinstance(body, dict)
        for key, value in body.items()
    }


def _labor_side(p: dict, r_c: float) -> tuple[float, float, float]:
    """(ceiling, uncapped clearing wage, agent labor) at rental rate r_c."""
    ceiling = p["technology.lambda"] * p["technology.k"] * (1.0 + p["policy.tau_c"]) * p["policy.mu"] * r_c
    ld_s, ld_e = p["labor_demand_ts.scale"], p["labor_demand_ts.elasticity"]
    ls_s, ls_e = p["labor_supply_ts.scale"], p["labor_supply_ts.elasticity"]
    w_clear = (ld_s / ls_s) ** (1.0 / (ld_e + ls_e))
    if w_clear <= ceiling:
        return ceiling, w_clear, 0.0
    return ceiling, w_clear, p["technology.lambda"] * max(0.0, ld_s * ceiling**-ld_e - ls_s * ceiling**ls_e)


def _compute_sides(p: dict, r_c: float) -> tuple[float, float]:
    """(exogenous compute demand, compute supply) at rental rate r_c."""
    demand = p["compute_demand.scale"] * r_c ** -p["compute_demand.elasticity"] if "compute_demand.scale" in p else 0.0
    return demand, p["compute_supply.scale"] * r_c ** p["compute_supply.elasticity"]


def grid(start: float, stop: float, steps: int, log: bool) -> list[float]:
    if steps == 1:
        return [start]
    if log:
        a, b = math.log(start), math.log(stop)
        return [math.exp(a + (b - a) * i / (steps - 1)) for i in range(steps)]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def check_grid(values: list[float | None], spec: dict) -> str | None:
    if len(values) != spec["steps"]:
        return f"grid has {len(values)} rows, expected {spec['steps']}"
    if values[0] != spec["start"] or values[-1] != spec["stop"]:
        return "grid endpoints differ from --from/--to"
    step = 1.0 if spec["stop"] >= spec["start"] else -1.0
    for prev, cur in zip(values, values[1:]):
        if (cur - prev) * step < 0.0:
            return "grid is not monotone"
    for got, want in zip(values, grid(spec["start"], spec["stop"], spec["steps"], spec["log"])):
        if not _close(got, want, 1e-9):
            return "grid value differs from the evenly spaced point"
    return None


def _columns(headers: list[str], rows: list[list]) -> dict[str, list]:
    return {name: [row[i] for row in rows] for i, name in enumerate(headers)}


def check_sweep(text: str, spec: dict) -> str | None:
    """Capped rows against the closed form; coupled rows by compute-market residual."""
    headers, rows, nonfinite = parse_table(text, spec["format"])
    if nonfinite:
        return "nonfinite"
    cols = _columns(headers, rows)
    values = [_num(v) for v in cols["value"]]
    reason = check_grid(values, spec)
    if reason:
        return reason
    if any(e not in (None, "") for e in cols["error"]):
        return "sweep row carries an error"
    p = flatten(spec["doc"])
    for i, value in enumerate(values):
        p[spec["param"]] = value
        r_c = _num(cols["r_c_star"][i])
        if spec["mode"] == "capped":
            es, ed = p["compute_supply.elasticity"], p["compute_demand.elasticity"]
            want_r = (p["compute_demand.scale"] / p["compute_supply.scale"]) ** (1.0 / (es + ed))
            if not _close(r_c, want_r):
                return f"row {i}: r_c {r_c!r} != closed form {want_r!r}"
        else:
            reason = _check_coupled_root(p, r_c, _num(cols["k_c_star"][i]))
            if reason:
                return f"row {i}: {reason}"
        ceiling, w_clear, l_a = _labor_side(p, r_c)
        if not _close(_num(cols["ceiling"][i]), ceiling):
            return f"row {i}: ceiling {cols['ceiling'][i]!r} != {ceiling!r}"
        if not _close(_num(cols["w_h_star"][i]), min(w_clear, ceiling)):
            return f"row {i}: w_h {cols['w_h_star'][i]!r} != min(w_clear, ceiling)"
        scale = p["technology.lambda"] * p["labor_demand_ts.scale"] * ceiling ** -p["labor_demand_ts.elasticity"]
        if abs(_num(cols["l_a_star"][i]) - l_a) > 1e-9 * scale:
            return f"row {i}: l_a {cols['l_a_star'][i]!r} != {l_a!r}"
    return None


def _excess(p: dict, r_c: float) -> float:
    _, _, l_a = _labor_side(p, r_c)
    demand, supply = _compute_sides(p, r_c)
    return p["technology.k"] * l_a + demand - supply


def _check_coupled_root(p: dict, r_c: float | None, k_c: float | None) -> str | None:
    if r_c is None or k_c is None or not r_c > 0.0:
        return "missing rental rate"
    demand, supplied = _compute_sides(p, r_c)
    used = k_c + demand
    if abs(used - supplied) <= RESIDUAL_REL_TOL * max(used, supplied):
        return None
    # Excess demand may jump at the ceiling; then the root is a sign change.
    if _excess(p, r_c * (1.0 - SIGN_PROBE)) > 0.0 > _excess(p, r_c * (1.0 + SIGN_PROBE)):
        return None
    return f"compute market residual {used - supplied!r} with no sign change"


def check_statics(result) -> str | None:
    fields = (result.direct, result.fd, result.fd_forward, result.fd_backward,
              result.base.w_h, result.base.l_h, result.base.l_a)
    if not all(math.isfinite(v) for v in fields):
        return "nonfinite"
    if abs(result.direct - result.fd) > max(1e-4, 1e-3 * abs(result.fd)):
        return "identity"
    return None


def check_cli(spec: dict, code: int, emitted: str, stderr: str, headers: tuple[str, ...]) -> str | None:
    """Exit code, headers and finiteness of one cold CLI call."""
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if code not in (0, 2, 3):
        return f"exit:{code}"
    if code != spec["expect_exit"]:
        return f"exit_mismatch:{spec['expect_exit']}->{code}"
    if code != 0:
        return None if stderr.startswith("error:") and not emitted else "bad_error_report"
    got_headers, rows, nonfinite = parse_table(emitted, spec["format"])
    if tuple(got_headers) != headers:
        return "headers"
    if not rows:
        return "empty"
    return "nonfinite" if nonfinite else None
