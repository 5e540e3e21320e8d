import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caw import (
    CesParams,
    InvalidInput,
    OutputTable,
    ParseError,
    PolicyLevers,
    Scenario,
    Technology,
    ValidationError,
    demand_curve,
    emit_scenario,
    emit_table,
    parse_scenario,
    supply_curve,
    validate_scenario,
)
from caw.scenario_io import _escape_csv, format_number, standard_metadata
from conftest import make_scenario

MINIMAL = '{"caw_schema": 1, "technology": {"lambda": 1.0, "k": 1.0}}'


def test_minimal_document_gets_documented_defaults():
    s = parse_scenario(MINIMAL)
    assert s.technology.g == 0.0
    assert s.policy == PolicyLevers(tau_c=0.0, mu=1.0)
    assert s.output_price == 1.0
    assert validate_scenario(s) == []


def test_schema_key_is_mandatory():
    with pytest.raises(ParseError, match="caw_schema"):
        parse_scenario('{"technology": {"lambda": 1.0, "k": 1.0}}')


def test_wrong_schema_version_rejected():
    with pytest.raises(ParseError, match="version"):
        parse_scenario('{"caw_schema": 2, "technology": {"lambda": 1.0, "k": 1.0}}')


def test_unknown_top_level_key_rejected():
    with pytest.raises(ParseError, match="frobnicate"):
        parse_scenario('{"caw_schema": 1, "technology": {"lambda": 1, "k": 1}, "frobnicate": 3}')


def test_unknown_nested_key_rejected():
    with pytest.raises(ParseError, match="technology"):
        parse_scenario('{"caw_schema": 1, "technology": {"lambda": 1, "k": 1, "phi": 2}}')


def test_invalid_json_reports_line():
    with pytest.raises(ParseError, match="line"):
        parse_scenario('{"caw_schema": 1,\n  "technology": }')


@pytest.mark.parametrize("text", ["[" * 200_000, '{"a": ' * 200_000], ids=["array", "object"])
def test_json_nested_deeper_than_the_decoder_reads_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nest deeper"):
        parse_scenario(text)


def test_non_numeric_field_rejected():
    with pytest.raises(ParseError, match="technology.k"):
        parse_scenario('{"caw_schema": 1, "technology": {"lambda": 1, "k": "one"}}')


def test_boolean_is_not_a_number():
    with pytest.raises(ParseError, match="technology.k"):
        parse_scenario('{"caw_schema": 1, "technology": {"lambda": 1, "k": true}}')


def test_sigma_zero_surfaces_as_validation_error():
    doc = {
        "caw_schema": 1,
        "technology": {"lambda": 1.0, "k": 1.0},
        "ces": {"A": 1.0, "alpha": 0.5, "beta": 0.5, "sigma": 0.0},
    }
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario(json.dumps(doc))
    assert [v.message for v in excinfo.value.violations] == ["sigma must be > 0"]


def test_null_compute_demand_parses_to_none():
    doc = {
        "caw_schema": 1,
        "technology": {"lambda": 1.0, "k": 1.0},
        "compute_demand": None,
    }
    s = parse_scenario(json.dumps(doc))
    assert s.compute_demand_exogenous is None


# The defaults README's "Scenario files" documents, written out.
DOCUMENTED_DEFAULTS = {
    "ces": {"A": 1.0, "alpha": 0.5, "beta": 0.5, "sigma": 2.0},
    "compute_supply": {"scale": 1.0, "elasticity": 1.0},
    "compute_demand": {"scale": 4.0, "elasticity": 1.0},
    "labor_demand_ts": {"scale": 10.0, "elasticity": 1.0},
    "labor_supply_ts": {"scale": 1.0, "elasticity": 1.0},
    "policy": {"tau_c": 0.0, "mu": 1.0},
    "output_price": 1.0,
}


@pytest.mark.parametrize("section", sorted(DOCUMENTED_DEFAULTS))
def test_omitted_section_parses_as_its_documented_defaults(section):
    written = json.loads(MINIMAL)
    written[section] = DOCUMENTED_DEFAULTS[section]
    assert parse_scenario(MINIMAL) == parse_scenario(json.dumps(written))


@pytest.mark.parametrize("curve", ["compute_supply", "compute_demand", "labor_demand_ts", "labor_supply_ts"])
def test_written_curve_must_give_both_keys(curve):
    doc = json.loads(MINIMAL)
    doc[curve] = {"scale": 1.0}
    with pytest.raises(ParseError) as excinfo:
        parse_scenario(json.dumps(doc))
    assert str(excinfo.value) == f"{curve}.elasticity: expected a number, got None"


def test_round_trip_of_explicit_scenario():
    s = make_scenario(lam=1.5, k=0.05, g=0.3, tau_c=0.1, mu=1.2, output_price=2.0)
    assert parse_scenario(emit_scenario(s)) == s


def test_round_trip_preserves_none_demand():
    s = make_scenario(compute_demand=None)
    assert parse_scenario(emit_scenario(s)) == s


def random_scenario(rng: random.Random) -> Scenario:
    def logu(lo, hi):
        import math

        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    return Scenario(
        technology=Technology(lam=logu(0.1, 10.0), k=logu(0.01, 5.0), g=rng.uniform(0.0, 1.0)),
        ces=CesParams(A=logu(0.2, 5.0), alpha=logu(0.1, 3.0), beta=logu(0.1, 3.0), sigma=logu(1e-3, 1e3)),
        compute_supply=supply_curve(logu(0.1, 10.0), rng.uniform(0.0, 3.0)),
        compute_demand_exogenous=None if rng.random() < 0.1 else demand_curve(logu(0.1, 10.0), rng.uniform(0.0, 3.0)),
        labor_demand_ts=demand_curve(logu(0.1, 10.0), rng.uniform(0.0, 3.0)),
        labor_supply_ts=supply_curve(logu(0.1, 10.0), rng.uniform(0.0, 3.0)),
        policy=PolicyLevers(tau_c=rng.uniform(0.0, 1.0), mu=1.0 + rng.uniform(0.0, 1.0)),
        output_price=logu(0.1, 10.0),
    )


def test_round_trip_on_randomized_scenarios():
    rng = random.Random(424242)
    for _ in range(1000):
        s = random_scenario(rng)
        assert parse_scenario(emit_scenario(s)) == s


@settings(max_examples=100)
@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_round_trip_property(lam, k, g):
    s = make_scenario(lam=lam, k=k, g=g)
    assert parse_scenario(emit_scenario(s)) == s


# --- table emission -----------------------------------------------------------


def table_fixture(rows):
    return OutputTable(
        headers=("ceiling",),
        rows=rows,
        metadata={"caw_version": "0.1.0", "source_sha256": "x", "tol_price_rel_tol": 1e-10},
    )


def test_empty_table_emits_headers_and_metadata_only():
    text = emit_table(
        OutputTable(headers=("a", "b"), rows=(), metadata={"caw_version": "0.1.0"}), "csv"
    )
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert all(line.startswith("# ") for line in lines[1:])


def test_single_cell_table_shape():
    text = emit_table(table_fixture(((2.0,),)), "csv")
    assert text.startswith("ceiling\n2.0\n# ")


def test_float_formatting_keeps_17_significant_digits():
    assert format_number(2.0) == "2.0"
    assert format_number(0.05) == "0.050000000000000003"
    assert float(format_number(1.0 / 3.0)) == 1.0 / 3.0
    assert format_number(10.0) == "10.0"


def test_csv_uses_dot_decimal_and_lf():
    text = emit_table(table_fixture(((2.5,), (1.25,))), "csv")
    assert "\r" not in text
    assert "2.5" in text and "1.25" in text


def test_metadata_is_sorted_and_trailing():
    text = emit_table(table_fixture(((2.0,),)), "csv")
    lines = text.splitlines()
    meta_lines = [line for line in lines if line.startswith("# ")]
    assert meta_lines == sorted(meta_lines)
    assert lines[-1].startswith("# ")


def test_structured_format_nests_metadata():
    doc = json.loads(emit_table(table_fixture(((2.0,),)), "json"))
    assert doc["headers"] == ["ceiling"]
    assert doc["rows"] == [[2.0]]
    assert doc["metadata"]["caw_version"] == "0.1.0"


def test_unknown_table_format_rejected():
    for fmt in ("structured", "xml"):
        with pytest.raises(InvalidInput, match="unknown table format"):
            emit_table(table_fixture(((2.0,),)), fmt)


def test_emission_is_deterministic():
    t = table_fixture(((2.0,), (0.1,)))
    assert emit_table(t, "csv") == emit_table(t, "csv")
    assert emit_table(t, "json") == emit_table(t, "json")


def test_row_length_mismatch_rejected():
    with pytest.raises(InvalidInput):
        OutputTable(headers=("a", "b"), rows=((1.0,),), metadata={"v": 1})
    with pytest.raises(InvalidInput):
        OutputTable(headers=("a",), rows=((1.0,),), metadata={"v": 1})._replace(headers=("a", "b"))


def test_metadata_required():
    with pytest.raises(InvalidInput):
        OutputTable(headers=("a",), rows=(), metadata={})


def test_standard_metadata_has_required_keys():
    meta = standard_metadata("deadbeef")
    assert meta["source_sha256"] == "deadbeef"
    assert "caw_version" in meta
    assert any(key.startswith("tol_") for key in meta)


# --- emission against reference renderings ------------------------------------------

_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, float("nan"),
                     float("inf"), float("-inf")]),
    st.integers(min_value=10**16, max_value=10**17).map(float),  # integral, around 17 digits
    st.integers(min_value=-(10**17), max_value=-(10**16)).map(float),
)
_TEXT = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from([",", '"', "\n", "\r", " ", "a", "1", ".", "é", "中", "😀"])),
)


# Number subclasses have no renderer of their own; each is written as the number it is.
class _Int(int):
    pass


class _Float(float):
    pass


_CELLS = st.one_of(
    _FLOATS,
    st.sampled_from([_Int(7), _Int(-(2**70)), _Float(0.5), _Float(1e16), _Float("nan"), _Float("-inf")]),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.none(),
    _TEXT,
    st.lists(st.integers(), max_size=3).map(tuple),
)


@st.composite
def _tables(draw):
    width = draw(st.integers(min_value=0, max_value=4))
    headers = tuple(draw(st.lists(st.text(alphabet="abc_", min_size=1), min_size=width, max_size=width)))
    rows = draw(st.lists(st.tuples(*[_CELLS] * width), max_size=5))
    metadata = draw(st.dictionaries(st.text(alphabet="abcxyz_", min_size=1), _CELLS, min_size=1, max_size=4))
    return OutputTable(headers=headers, rows=tuple(rows), metadata=metadata)


def _reference_csv(t):
    def text(cell):
        if cell is None:
            return ""
        if isinstance(cell, (int, float)):
            return format_number(cell)
        return str(cell)

    lines = [",".join(t.headers)]
    lines += [",".join(_escape_csv(text(c)) for c in row) for row in t.rows]
    lines += [f"# {key}={text(t.metadata[key])}" for key in sorted(t.metadata)]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_emitted_json_equals_json_dumps(t):
    doc = {"headers": list(t.headers), "rows": [list(row) for row in t.rows], "metadata": t.metadata}
    assert emit_table(t, "json") == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None)
@given(_tables())
@example(OutputTable(headers=("a", "b"), rows=((_Int(7), _Float(1e16)),), metadata={"k": _Float(0.5)}))
def test_emitted_csv_equals_the_per_cell_reference(t):
    assert emit_table(t, "csv") == _reference_csv(t)


# Tables shaped like sweep output: up to 300 rows, each column of one type.
# Float columns mostly draw from a few values, so they repeat, hold a single
# value, or mix signed zeros, nan, infinities, the smallest subnormal and
# integral values with ordinary floats; one kind has every value distinct.
_FLOAT_POOL = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 1e17,
                               0.1, 2.5, -3.75, 1.0 / 3.0])
_COLUMN_KINDS = ("pooled", "pooled", "signed_zeros", "distinct", "bool", "int", "text", "none")


@st.composite
def _column_tables(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    cols = []
    for kind in draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=5)):
        if kind in ("pooled", "signed_zeros"):
            pool = draw(st.lists(_FLOAT_POOL | st.floats(), min_size=kind == "pooled", max_size=4))
            if kind == "signed_zeros":
                pool += [0.0, -0.0]
            cols.append([rnd.choice(pool) for _ in range(n)])
        elif kind == "distinct":
            specials = draw(st.lists(_FLOAT_POOL, max_size=2))
            cols.append(specials + [rnd.uniform(-1e3, 1e3) for _ in range(n - len(specials))])
            rnd.shuffle(cols[-1])
        else:
            make = {"bool": lambda: rnd.random() < 0.5, "int": lambda: rnd.randint(-(10**20), 10**20),
                    "text": lambda: rnd.choice(["mixed", "a,b", 'q"', ""]), "none": lambda: None}[kind]
            cols.append([make() for _ in range(n)])
    headers = tuple(f"c{i}" for i in range(len(cols)))
    rows = tuple(zip(*(col[:n] for col in cols)))
    return OutputTable(headers=headers, rows=rows, metadata={"k": 1.0})


@settings(max_examples=40, deadline=None)
@given(_column_tables())
def test_column_wise_emission_equals_the_references(t):
    doc = {"headers": list(t.headers), "rows": [list(row) for row in t.rows], "metadata": t.metadata}
    assert emit_table(t, "json") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert emit_table(t, "csv") == _reference_csv(t)


@pytest.mark.parametrize("headers", [(), ("a", "b")])
def test_empty_rows_in_both_formats(headers):
    t = OutputTable(headers=headers, rows=(), metadata={"k": 1.0})
    doc = {"headers": list(headers), "rows": [], "metadata": {"k": 1.0}}
    assert emit_table(t, "json") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert emit_table(t, "csv") == _reference_csv(t) == ",".join(headers) + "\n# k=1.0\n"


def test_float_text_marks_integral_values_and_keeps_special_names():
    assert [format_number(v) for v in (0.0, -0.0, 1e16, 1e17, float("nan"), float("-inf"))] == [
        "0.0", "-0.0", "10000000000000000.0", "1e+17", "nan", "-inf"]
