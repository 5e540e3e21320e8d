"""Scenario document parsing/emission and deterministic table output.

Scenario documents are JSON objects: a mandatory ``"caw_schema": 1`` and
one key per section of :data:`caw.model.SECTIONS`, the scenario schema
table, which gives every field's key, default and lower-bound rule
(``scenarios/baseline.json`` writes every field out).

Only ``caw_schema`` and ``technology`` (with ``lambda`` and ``k``) are
required. An omitted section takes the table's defaults, and so does a key
omitted from ``technology``, ``ces`` or ``policy``; a curve section that is
written must give both its keys. ``compute_demand`` may be ``null`` for
scenarios whose only compute demand derives from agent labor (coupled
mode). Unknown keys are rejected rather than ignored.

Table output is deterministic byte for byte: CSV uses ``.`` decimals, no
thousands separators, headers on the first line, and metadata as trailing
``#``-prefixed comment lines sorted by key; floats carry 17 significant
digits so cross-implementation diffs are exact.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, NamedTuple

from . import constants
from .errors import InvalidInput, ParseError, ValidationError
from .model import REQUIRED, SECTIONS, CurveKind, Scenario, Section, validate_scenario

SCHEMA_VERSION = 1


def _as_number(value: Any, where: str) -> float:
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ParseError(f"{where}: number lies outside the floating-point range") from None


def _part(doc: Mapping[str, Any], section: Section):
    """The scenario part ``section`` describes in ``doc``."""
    key = section.key
    if key not in doc:
        if any(f.default is REQUIRED for f in section.fields):
            raise ParseError(f"missing mandatory key '{key}'")
        return section.build([f.default for f in section.fields])
    raw = doc[key]
    if section.kind is float:
        return _as_number(raw, key)
    if raw is None and section.nullable:
        return None
    if not isinstance(raw, dict):
        raise ParseError(f"{key}: expected an object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {f.key for f in section.fields})
    if unknown:
        raise ParseError(f"{key}: unknown keys {unknown}")
    for f in section.fields:
        if f.default is REQUIRED and f.key not in raw:
            raise ParseError(f"{key}: missing required key '{f.key}'")
    # A curve is written whole: a key it lacks reads as null, and is rejected as one.
    whole = isinstance(section.kind, CurveKind)
    return section.build(
        [_as_number(raw.get(f.key, None if whole else f.default), f.path) for f in section.fields]
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
    except ValueError:  # an integer literal longer than int() reads (sys.get_int_max_str_digits())
        raise ParseError("invalid JSON: an integer literal has too many digits") from None
    if not isinstance(doc, dict):
        raise ParseError(f"scenario document must be a JSON object, got {type(doc).__name__}")

    unknown = sorted(set(doc) - {"caw_schema", *(section.key for section in SECTIONS)})
    if unknown:
        raise ParseError(f"unknown top-level keys {unknown}")
    if "caw_schema" not in doc:
        raise ParseError("missing mandatory key 'caw_schema'")
    if doc["caw_schema"] != SCHEMA_VERSION:
        raise ParseError(f"unsupported caw_schema {doc['caw_schema']!r}; this tool reads version {SCHEMA_VERSION}")

    scenario = Scenario(**{section.attr: _part(doc, section) for section in SECTIONS})
    violations = validate_scenario(scenario)
    if violations:
        raise ValidationError(violations)
    return scenario


def emit_scenario(s: Scenario) -> str:
    """Canonical scenario document; parse(emit(s)) == s field for field."""
    doc: dict[str, Any] = {"caw_schema": SCHEMA_VERSION}
    for section in SECTIONS:
        part = getattr(s, section.attr)
        if part is not None and section.kind is not float:
            part = {f.key: getattr(part, f.attr) for f in section.fields}
        doc[section.key] = part
    return json.dumps(doc, indent=2) + "\n"


def scenario_sha256(s: Scenario) -> str:
    return hashlib.sha256(emit_scenario(s).encode("utf-8")).hexdigest()


def inputs_sha256(inputs: Mapping[str, Any]) -> str:
    """Digest for commands whose inputs are flags rather than a scenario file."""
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode("utf-8")).hexdigest()


class _OutputTable(NamedTuple):
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict[str, Any]


class OutputTable(_OutputTable):
    """Ordered tabular result with mandatory provenance metadata."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks its copy too

    def __new__(cls, headers: tuple[str, ...], rows: tuple[tuple, ...], metadata: dict[str, Any]):
        for i, row in enumerate(rows):
            if len(row) != len(headers):
                raise InvalidInput(f"row {i} has {len(row)} cells for {len(headers)} headers")
        if not metadata:
            raise InvalidInput("output tables must carry metadata")
        return super().__new__(cls, headers, rows, metadata)


def standard_metadata(source_sha256: str, **fields: Any) -> dict[str, Any]:
    """Metadata block for every emitted table: version, input hash,
    tolerances, and the command's own ``fields``."""
    meta: dict[str, Any] = {"caw_version": _tool_version(), "source_sha256": source_sha256, **fields}
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
