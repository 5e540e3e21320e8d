"""Scenario document parsing/emission and deterministic table output.

Scenario documents are JSON with a mandatory schema version key:

    {
      "caw_schema": 1,
      "technology":      {"lambda": 1.0, "k": 1.0, "g": 0.0},
      "ces":             {"A": 1.0, "alpha": 0.5, "beta": 0.5, "sigma": 2.0},
      "compute_supply":  {"scale": 1.0, "elasticity": 1.0},
      "compute_demand":  {"scale": 4.0, "elasticity": 1.0},
      "labor_demand_ts": {"scale": 10.0, "elasticity": 1.0},
      "labor_supply_ts": {"scale": 1.0, "elasticity": 1.0},
      "policy":          {"tau_c": 0.0, "mu": 1.0},
      "output_price": 1.0
    }

Only ``caw_schema`` and ``technology`` (with ``lambda`` and ``k``) are
required; every other key has the documented default shown above, so a
minimal document runs. ``compute_demand`` may be ``null`` for scenarios
whose only compute demand derives from agent labor (coupled mode). Unknown
keys are rejected rather than ignored.

Table output is deterministic byte for byte: CSV uses ``.`` decimals, no
thousands separators, headers on the first line, and metadata as trailing
``#``-prefixed comment lines sorted by key; floats carry 17 significant
digits so cross-implementation diffs are exact.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass
from typing import Any, Mapping

from . import constants
from .errors import InvalidInput, ParseError, ValidationError
from .model import (
    CesParams,
    CurveKind,
    IsoElasticCurve,
    PolicyLevers,
    Scenario,
    Technology,
    validate_scenario,
)

SCHEMA_VERSION = 1

DEFAULT_CES = {"A": 1.0, "alpha": 0.5, "beta": 0.5, "sigma": 2.0}
DEFAULT_COMPUTE_SUPPLY = {"scale": 1.0, "elasticity": 1.0}
DEFAULT_COMPUTE_DEMAND = {"scale": 4.0, "elasticity": 1.0}
DEFAULT_LABOR_DEMAND = {"scale": 10.0, "elasticity": 1.0}
DEFAULT_LABOR_SUPPLY = {"scale": 1.0, "elasticity": 1.0}
DEFAULT_POLICY = {"tau_c": 0.0, "mu": 1.0}

_TOP_LEVEL_KEYS = (
    "caw_schema",
    "technology",
    "ces",
    "compute_supply",
    "compute_demand",
    "labor_demand_ts",
    "labor_supply_ts",
    "policy",
    "output_price",
)


def _as_number(value: Any, where: str) -> float:
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _section(doc: Mapping[str, Any], key: str, known: tuple[str, ...]) -> dict[str, Any]:
    raw = doc[key]
    if not isinstance(raw, dict):
        raise ParseError(f"{key}: expected an object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ParseError(f"{key}: unknown keys {unknown}")
    return raw


def _curve(raw: Mapping[str, Any], key: str, kind: CurveKind) -> IsoElasticCurve:
    return IsoElasticCurve(
        kind=kind,
        scale=_as_number(raw.get("scale"), f"{key}.scale"),
        elasticity=_as_number(raw.get("elasticity"), f"{key}.elasticity"),
    )


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document.

    Raises ParseError with key context for structural problems and
    ValidationError carrying every invariant violation at once.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"scenario document must be a JSON object, got {type(doc).__name__}")

    unknown = sorted(set(doc) - set(_TOP_LEVEL_KEYS))
    if unknown:
        raise ParseError(f"unknown top-level keys {unknown}")
    if "caw_schema" not in doc:
        raise ParseError("missing mandatory key 'caw_schema'")
    if doc["caw_schema"] != SCHEMA_VERSION:
        raise ParseError(f"unsupported caw_schema {doc['caw_schema']!r}; this tool reads version {SCHEMA_VERSION}")
    if "technology" not in doc:
        raise ParseError("missing mandatory key 'technology'")

    tech_raw = _section(doc, "technology", ("lambda", "k", "g"))
    for required in ("lambda", "k"):
        if required not in tech_raw:
            raise ParseError(f"technology: missing required key '{required}'")
    technology = Technology(
        lam=_as_number(tech_raw["lambda"], "technology.lambda"),
        k=_as_number(tech_raw["k"], "technology.k"),
        g=_as_number(tech_raw.get("g", 0.0), "technology.g"),
    )

    ces_raw = _section(doc, "ces", ("A", "alpha", "beta", "sigma")) if "ces" in doc else DEFAULT_CES
    ces = CesParams(
        A=_as_number(ces_raw.get("A", DEFAULT_CES["A"]), "ces.A"),
        alpha=_as_number(ces_raw.get("alpha", DEFAULT_CES["alpha"]), "ces.alpha"),
        beta=_as_number(ces_raw.get("beta", DEFAULT_CES["beta"]), "ces.beta"),
        sigma=_as_number(ces_raw.get("sigma", DEFAULT_CES["sigma"]), "ces.sigma"),
    )

    curve_keys = ("scale", "elasticity")
    supply_raw = (
        _section(doc, "compute_supply", curve_keys) if "compute_supply" in doc else DEFAULT_COMPUTE_SUPPLY
    )
    compute_supply = _curve(supply_raw, "compute_supply", CurveKind.SUPPLY)

    if "compute_demand" in doc and doc["compute_demand"] is None:
        compute_demand = None
    else:
        demand_raw = (
            _section(doc, "compute_demand", curve_keys) if "compute_demand" in doc else DEFAULT_COMPUTE_DEMAND
        )
        compute_demand = _curve(demand_raw, "compute_demand", CurveKind.DEMAND)

    labor_demand_raw = (
        _section(doc, "labor_demand_ts", curve_keys) if "labor_demand_ts" in doc else DEFAULT_LABOR_DEMAND
    )
    labor_demand = _curve(labor_demand_raw, "labor_demand_ts", CurveKind.DEMAND)

    labor_supply_raw = (
        _section(doc, "labor_supply_ts", curve_keys) if "labor_supply_ts" in doc else DEFAULT_LABOR_SUPPLY
    )
    labor_supply = _curve(labor_supply_raw, "labor_supply_ts", CurveKind.SUPPLY)

    policy_raw = _section(doc, "policy", ("tau_c", "mu")) if "policy" in doc else DEFAULT_POLICY
    policy = PolicyLevers(
        tau_c=_as_number(policy_raw.get("tau_c", 0.0), "policy.tau_c"),
        mu=_as_number(policy_raw.get("mu", 1.0), "policy.mu"),
    )

    output_price = _as_number(doc.get("output_price", 1.0), "output_price")

    scenario = Scenario(
        technology=technology,
        ces=ces,
        compute_supply=compute_supply,
        compute_demand_exogenous=compute_demand,
        labor_demand_ts=labor_demand,
        labor_supply_ts=labor_supply,
        policy=policy,
        output_price=output_price,
    )
    violations = validate_scenario(scenario)
    if violations:
        raise ValidationError(violations)
    return scenario


def _curve_doc(curve: IsoElasticCurve | None) -> dict[str, float] | None:
    if curve is None:
        return None
    return {"scale": curve.scale, "elasticity": curve.elasticity}


def emit_scenario(s: Scenario) -> str:
    """Canonical scenario document; parse(emit(s)) == s field for field."""
    doc = {
        "caw_schema": SCHEMA_VERSION,
        "technology": {"lambda": s.technology.lam, "k": s.technology.k, "g": s.technology.g},
        "ces": {"A": s.ces.A, "alpha": s.ces.alpha, "beta": s.ces.beta, "sigma": s.ces.sigma},
        "compute_supply": _curve_doc(s.compute_supply),
        "compute_demand": _curve_doc(s.compute_demand_exogenous),
        "labor_demand_ts": _curve_doc(s.labor_demand_ts),
        "labor_supply_ts": _curve_doc(s.labor_supply_ts),
        "policy": {"tau_c": s.policy.tau_c, "mu": s.policy.mu},
        "output_price": s.output_price,
    }
    return json.dumps(doc, indent=2) + "\n"


def scenario_sha256(s: Scenario) -> str:
    return hashlib.sha256(emit_scenario(s).encode("utf-8")).hexdigest()


def inputs_sha256(inputs: Mapping[str, Any]) -> str:
    """Digest for commands whose inputs are flags rather than a scenario file."""
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class OutputTable:
    """Ordered tabular result with mandatory provenance metadata."""

    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict[str, Any]

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if len(row) != len(self.headers):
                raise InvalidInput(
                    f"row {i} has {len(row)} cells for {len(self.headers)} headers"
                )
        if not self.metadata:
            raise InvalidInput("output tables must carry metadata")


def standard_metadata(source_sha256: str) -> dict[str, Any]:
    """Metadata block for every emitted table: version, input hash, tolerances."""
    meta: dict[str, Any] = {
        "caw_version": _tool_version(),
        "source_sha256": source_sha256,
    }
    for key, value in constants.tolerance_table().items():
        meta[f"tol_{key}"] = value
    return meta


def _tool_version() -> str:
    from . import __version__

    return __version__


def _float_text(value: float) -> str:
    text = format(value, ".17g")
    # Integral values print without a point; nan and inf keep their names.
    return text if "." in text or "e" in text or "n" in text else text + ".0"


def format_number(value: float) -> str:
    """17-significant-digit decimal form, always marked as a float."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return _float_text(value)


def _escape_csv(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _other_text(cell: Any) -> str:
    # Types outside the dispatch tables: number subclasses, and anything else
    # by its str().
    if isinstance(cell, (int, float)):
        return format_number(cell)
    return str(cell)


def _other_csv(cell: Any) -> str:
    return _escape_csv(_other_text(cell))


def _other_json(cell: Any) -> str:
    # Containers and number subclasses, as json.dumps writes them one level
    # down a row (three levels deep in the document).
    return json.dumps(cell, indent=2, sort_keys=True).replace("\n", "\n" + " " * 6)


_BOOL_TEXT = {True: "true", False: "false"}
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Cell renderers keyed by exact type; other types go to _other_csv or
# _other_json. Only text cells need CSV escaping: number text never holds a
# comma, a quote or a newline.
_CSV = {
    float: _float_text,
    str: _escape_csv,
    bool: _BOOL_TEXT.__getitem__,
    int: int.__repr__,
    type(None): lambda _: "",
}
_JSON = {
    float: lambda v: _JSON_NONFINITE.get(text := repr(v), text),
    str: encode_basestring_ascii,
    bool: _BOOL_TEXT.__getitem__,
    int: int.__repr__,
    type(None): lambda _: "null",
}


def emit_table(t: OutputTable, format: str = "csv") -> str:
    """Render a table as ``"csv"`` or ``"json"``.

    Both renderings are deterministic byte for byte for identical inputs:
    CSV appends metadata as sorted ``# key=value`` comment lines, JSON
    nests metadata alongside the rows and equals
    ``json.dumps(doc, indent=2, sort_keys=True)``, its rows written directly.
    """
    if format == "csv":
        cell = _CSV.get
        lines = [",".join(t.headers)]
        lines += [",".join([cell(type(c), _other_csv)(c) for c in row]) for row in t.rows]
        for key in sorted(t.metadata):
            value = t.metadata[key]
            text = value if type(value) is str else cell(type(value), _other_text)(value)
            lines.append(f"# {key}={text}")
        lines.append("")
        return "\n".join(lines)
    if format == "json":
        doc = {"headers": list(t.headers), "metadata": t.metadata}
        head = json.dumps(doc, indent=2, sort_keys=True)[:-2]  # up to the closing "\n}"
        if not t.rows:
            return head + ',\n  "rows": []\n}\n'
        cell = _JSON.get
        rows = [
            "    [\n      " + ",\n      ".join([cell(type(c), _other_json)(c) for c in row]) + "\n    ]"
            if row
            else "    []"
            for row in t.rows
        ]
        rows[0] = head + ',\n  "rows": [\n' + rows[0]
        rows[-1] += "\n  ]\n}\n"
        return ",\n".join(rows)
    raise InvalidInput(f"unknown table format {format!r}")
