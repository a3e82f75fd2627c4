"""Document parsing, emission, validation, and the command line surface.

The wire format is JSON with every scalar a rational string; emission is
canonical (sorted keys, two-space indent, trailing newline), so
emit(parse(x)) is byte-identical for canonical inputs. Golden command
outputs are frozen under tests/golden and compared byte for byte.
"""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from prelieder import (
    CliError,
    Document,
    ParseError,
    cli_run,
    cohomology_dim,
    emit,
    parse,
    parse_scalar,
    validate_document,
)
import prelieder.cohomology
import prelieder.extension
from prelieder import io_cli
from prelieder.io_cli import DOCUMENTS, MAX_COCHAIN_DIM, _build_parser, emit_scalar

REPO = Path(__file__).resolve().parent.parent
CORPUS = sorted((REPO / "corpus").glob("*.json"))
GOLDEN = REPO / "tests" / "golden"


def doc_bytes(kind="prelie", **over):
    base = {
        "kind": kind,
        "dim": 2,
        "table": [[["0", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]],
    }
    base.update(over)
    return json.dumps(base).encode()


# ----------------------------------------------------------------------
# scalars


def test_scalar_parsing_and_canonical_form():
    assert parse_scalar("2/4", "$") == Fraction(1, 2)
    assert parse_scalar(" -3 ", "$") == Fraction(-3)
    assert parse_scalar(7, "$") == Fraction(7)
    with pytest.raises(ParseError, match=re.escape("$.x: invalid rational '1/0'")):
        parse_scalar("1/0", "$.x")
    with pytest.raises(ParseError, match="expected a rational string, got float"):
        parse_scalar(1.5, "$")
    with pytest.raises(ParseError, match="expected a rational string, got bool"):
        parse_scalar(True, "$")
    with pytest.raises(ParseError, match="invalid rational"):
        parse_scalar("", "$")


def test_scalars_past_the_digit_limit(tmp_path, capsys):
    # str() refuses integers past int_max_str_digits (4300): results are
    # still written exactly, and rational strings past it are refused
    assert emit_scalar(Fraction(-(10**4400), 3)) == "-1" + "0" * 4400 + "/3"
    assert emit_scalar(Fraction(10**4400)) == "1" + "0" * 4400
    with pytest.raises(ParseError, match=re.escape("$.x: rational with a part of more than 4300 digits")):
        parse_scalar("1/" + "7" * 4301, "$.x")
    # a 4299-digit constant parses, and the mc residual holds numbers twice as long
    table = [[["0", "0"], ["9" * 4299, "0"]], [["0", "0"], ["0", "0"]]]
    pair = {"kind": "derpair", "algebra": {"dim": 2, "table": table}, "D": [["1", "2"], ["3", "4"]]}
    assert cli_run(written(["mc", pair, "--json"], tmp_path)) in (0, 1)
    out, err = capsys.readouterr()
    assert err == "" and max(map(len, re.findall("[0-9]+", out))) > 4300


# (string, accepted): the parser and the schema's rational pattern agree on each
RATIONAL_STRINGS = [
    ("3", True), ("-1/2", True), ("2/4", True), ("0", True), ("-0", True), ("007", True),
    ("1/01", True), (" -3 ", True), ("\t7\n", True), ("12345678901234567890/3", True),
    ("", False), (" ", False), ("-", False), ("1/0", False), ("1/00", False), ("1/", False),
    ("/2", False), ("1/-2", False), ("-1/-2", False), ("--1", False), ("+1", False),
    ("0.5", False), (".5", False), ("1.", False), ("1e3", False), ("1E3", False),
    ("1_000", False), ("1/2_0", False), ("- 1", False), ("1 /2", False), ("1/2/3", False),
    ("inf", False), ("nan", False), ("0x10", False), ("\u0663", False), ("1\u00a0/2", False),
]


# (JSON number literal, accepted): JSON Schema's integer type takes a number
# with a zero fractional part, and so does the parser, reading the literal exactly
RATIONAL_NUMBERS = [
    ("7", True), ("-0", True), ("1.0", True), ("-2.00", True), ("1e3", True), ("1E+3", True),
    ("10e-1", True), ("2.50e1", True), ("-0.0", True),
    ("0.5", False), ("-1.5", False), ("1e-3", False), ("1.25e1", False),
]


def test_rational_pattern_matches_parse_scalar():
    schema = json.loads((REPO / "docs" / "document.schema.json").read_text())
    rational = Draft202012Validator(schema["$defs"]["rational"])
    for text, accepted in RATIONAL_STRINGS:
        assert rational.is_valid(text) == accepted, text
        if accepted:
            assert parse_scalar(text, "$") == Fraction(text.strip())
        else:
            with pytest.raises(ParseError, match=re.escape(f"$.x: invalid rational {text!r}")):
                parse_scalar(text, "$.x")
    for literal, accepted in RATIONAL_NUMBERS:
        assert rational.is_valid(json.loads(literal)) == accepted, literal
        table = [[["0", "0"], ["0", "@"]], [["0", "0"], ["0", "0"]]]
        data = doc_bytes(table=table).replace(b'"@"', literal.encode())
        if accepted:
            assert parse(data).obj.prod_basis(0, 1)[1] == Fraction(Decimal(literal)), literal
        else:
            message = "$.table[0][1][1]: expected a rational string, got float"
            with pytest.raises(ParseError, match=re.escape(message)):
                parse(data)


# (string, value or None when refused): the schema bounds numerator and
# denominator to 4300 digits past their leading zeros, as the parser does
DIGIT_BOUND = [
    ("9" * 4300, 10**4300 - 1),
    ("-" + "9" * 4300, 1 - 10**4300),
    ("0" * 4301 + "1", 1),
    ("0" * 5000, 0),
    ("1/" + "9" * 4300, Fraction(1, 10**4300 - 1)),
    ("1/" + "0" * 4301 + "1", 1),
    ("9" * 4301, None),
    ("-" + "0" * 10 + "9" * 4301, None),
    ("1/" + "9" * 4301, None),
    ("1/" + "0" * 10 + "9" * 4301, None),
]


def test_rational_pattern_has_the_parser_digit_bound(tmp_path, capsys):
    schema = json.loads((REPO / "docs" / "document.schema.json").read_text())
    rational = Draft202012Validator(schema["$defs"]["rational"])
    for text, value in DIGIT_BOUND:
        assert rational.is_valid(text) == (value is not None), text[:12]
        if value is not None:
            assert parse_scalar(text, "$") == value, text[:12]
        else:
            with pytest.raises(ParseError, match=re.escape("$.x: rational with a part of more than 4300 digits")):
                parse_scalar(text, "$.x")
    # a refused part is a malformed document: exit 2, with its path
    for text in ("9" * 4301, "1/" + "9" * 4301):
        doc = corpus_doc("prelie_shift", (("table", 0, 1, 1), text))
        assert cli_run(written(["validate", doc], tmp_path)) == 2
        assert "$.table[0][1][1]: rational with a part of more than 4300 digits" in capsys.readouterr().err


def test_integer_bounds_have_the_parser_digit_bound(tmp_path, capsys):
    # the schema's integer branch and parse_scalar both take +-(10^4300 - 1)
    # and both refuse +-10^4300, which a document can only hold as a JSON
    # number: the parser refuses it with exit 2 and the JSON path
    schema = json.loads((REPO / "docs" / "document.schema.json").read_text())
    rational = Draft202012Validator(schema["$defs"]["rational"])
    top = 10**4300 - 1
    for n in (top, -top, top + 1, -top - 1):
        ok = abs(n) <= top
        # the validator's error message spells out the refused integer,
        # which has more digits than str(int) writes by default
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert rational.is_valid(n) == ok
        finally:
            sys.set_int_max_str_digits(limit)
        literal = str(Decimal(n))
        if ok:
            assert parse_scalar(Decimal(literal), "$") == n
        else:
            with pytest.raises(ParseError, match=re.escape("$.x: integer with more than 4300 digits")):
                parse_scalar(Decimal(literal), "$.x")
        text = json.dumps(corpus_doc("prelie_shift", (("table", 0, 1, 1), "N"))).replace('"N"', literal)
        (tmp_path / "doc.json").write_text(text)
        code = cli_run(["validate", str(tmp_path / "doc.json")])
        err = capsys.readouterr().err
        if ok:
            assert code == 0, err
        else:
            assert code == 2
            assert "$.table[0][1][1]: integer with more than 4300 digits" in err


def test_integral_numbers_are_integers_everywhere():
    # dimensions and indices follow the same rule as scalars
    data = (REPO / "corpus" / "pair_shift.json").read_bytes()
    as_float = json.loads(data)
    as_float["algebra"]["dim"] = 2.0
    assert emit(parse(json.dumps(as_float).encode())) == data
    as_float["algebra"]["dim"] = 2.5
    with pytest.raises(ParseError, match=re.escape("$.algebra.dim: expected an integer")):
        parse(json.dumps(as_float).encode())


def test_non_canonical_rationals_are_canonicalized():
    raw = doc_bytes(table=[[["0", "0"], ["0", "2/4"]], [["0", "0"], ["0", "0"]]])
    out = emit(parse(raw)).decode()
    assert '"1/2"' in out and "2/4" not in out


# ----------------------------------------------------------------------
# corpus round trips and schemas


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_emit_parse_identity(path):
    data = path.read_bytes()
    doc = parse(data)
    assert emit(doc) == data
    # a second round trip is also stable
    assert emit(parse(emit(doc))) == data


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_matches_document_schema(path):
    schema = json.loads((REPO / "docs" / "document.schema.json").read_text())
    Draft202012Validator.check_schema(schema)
    Draft202012Validator(schema).validate(json.loads(path.read_text()))


def test_document_table_matches_schema_kinds():
    schema = json.loads((REPO / "docs" / "document.schema.json").read_text())
    kinds = [
        schema["$defs"][ref["$ref"].rsplit("/", 1)[1]]["properties"]["kind"]["const"]
        for ref in schema["oneOf"]
    ]
    assert list(DOCUMENTS) == list(dict.fromkeys(kinds))


def test_corpus_documents_validate():
    for path in CORPUS:
        doc = parse(path.read_bytes())
        if doc.kind in ("prelie", "representation", "derpair", "extension"):
            assert validate_document(doc) == {"ok": True, "failed": []}, path.name


# ----------------------------------------------------------------------
# parse failures carry positional paths


DROP = object()


def corpus_doc(name, *edits):
    """A corpus document with edits applied: (key path, value), DROP deletes."""
    doc = json.loads((REPO / "corpus" / f"{name}.json").read_text())
    for keys, value in edits:
        *head, last = keys
        node = doc
        for k in head:
            node = node[k]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return doc


def entry(wedge, tail, value):
    return {"wedge": wedge, "tail": tail, "value": value}


FULL_VALUE = ["1", "0", "0", "0"]
TWO_SLOT_VALUE = ["1", "0"]

# One malformed document per ParseError site reachable from parse, plus
# the field paths of the payload parsers, each with its exact message.
MALFORMED = [
    ("scalar-type", corpus_doc("prelie_shift", (("table", 0, 1, 1), 1.5)),
     "$.table[0][1][1]: expected a rational string, got float"),
    ("scalar-invalid", corpus_doc("prelie_shift", (("table", 0, 1, 0), "1/0")),
     "$.table[0][1][0]: invalid rational '1/0'"),
    ("not-an-object", corpus_doc("module_regular", (("algebra",), [])),
     "$.algebra: expected an object"),
    ("unknown-field", corpus_doc("prelie_shift", (("extra",), 1)),
     "$: unknown field 'extra'"),
    ("not-a-list", corpus_doc("prelie_shift", (("table",), "x")),
     "$.table: expected a list"),
    ("wrong-length", corpus_doc("prelie_shift", (("table", 0, 1), ["0", "1", "0"])),
     "$.table[0][1]: expected length 2, got 3"),
    ("missing-field", corpus_doc("pair_shift", (("D",), DROP)),
     "$: missing field 'D'"),
    ("not-an-integer", corpus_doc("prelie_shift", (("dim",), "2")),
     "$.dim: expected an integer"),
    ("dim-positive", corpus_doc("prelie_shift", (("dim",), 0), (("table",), [])),
     "$.dim: must be positive"),
    ("not-json", b"{nope",
     "$: not valid JSON (Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1))"),
    ("not-a-json-object", b"[1, 2]", "$: expected a JSON object"),
    ("integer-digits", b'{"kind": "prelie", "dim": 1' + b"0" * 4300 + b', "table": []}',
     "$.dim: integer with more than 4300 digits"),
    ("integer-exponent", b'{"kind": "prelie", "dim": 1, "table": [[[1e4300]]]}',
     "$.table[0][0][0]: integer with more than 4300 digits"),
    ("nested-too-deep", b"[" * 100000,
     "$: not valid JSON (maximum recursion depth exceeded while decoding a JSON array "
     "from a unicode string)"),
    ("unknown-kind", {"kind": "group"},
     "$.kind: expected one of prelie, representation, derivation, derpair, "
     "cochain, deformation, extension"),
    ("unhashable-kind", {"kind": ["prelie"]},
     "$.kind: expected one of prelie, representation, derivation, derpair, "
     "cochain, deformation, extension"),
    ("prelie-no-table", corpus_doc("prelie_shift", (("table",), DROP)),
     "$.table: expected a list"),
    ("prelie-no-dim", corpus_doc("prelie_shift", (("dim",), DROP)),
     "$.dim: expected an integer"),
    ("representation-dim-v", corpus_doc("module_regular", (("dim_v",), 0)),
     "$.dim_v: must be positive"),
    ("representation-no-dim-v", corpus_doc("module_regular", (("dim_v",), DROP)),
     "$: missing field 'dim_v'"),
    ("representation-rho-count", corpus_doc("module_regular", (("rho",), [[["0", "0"], ["0", "1"]]])),
     "$.rho: expected length 2, got 1"),
    ("representation-mu-row", corpus_doc("module_regular", (("mu", 1, 0), ["0"])),
     "$.mu[1][0]: expected length 2, got 1"),
    ("representation-K", corpus_doc("module_regular", (("K",), [["0", "0"]])),
     "$.K: expected length 2, got 1"),
    *(
        (f"rational-{name}", corpus_doc("prelie_shift", (("table", 0, 1, 1), text)),
         f"$.table[0][1][1]: invalid rational {text!r}")
        for name, text in (("decimal", "0.5"), ("exponent", "1e3"), ("underscore", "1_000"),
                           ("plus", "+1"), ("signed-denominator", "1/-2"))
    ),
    ("representation-algebra-table",
     corpus_doc("module_regular", (("algebra", "table", 1, 1, 0), "1/0")),
     "$.algebra.table[1][1][0]: invalid rational '1/0'"),
    ("derivation-shape", corpus_doc("derivation_section", (("rows",), -1)),
     "$: negative shape"),
    ("derivation-matrix", corpus_doc("derivation_section", (("matrix", 2), ["0"])),
     "$.matrix[2]: expected length 2, got 1"),
    ("derpair-rho-without-mu", corpus_doc("pair_module", (("mu",), DROP)),
     "$: rho and mu must appear together"),
    ("derpair-dim-v", corpus_doc("pair_module", (("dim_v",), 0)),
     "$.dim_v: must be positive"),
    ("derpair-no-dim-v", corpus_doc("pair_module", (("dim_v",), DROP)),
     "$: missing field 'dim_v'"),
    ("derpair-regular-dim-v", corpus_doc("pair_shift", (("dim_v",), 1)),
     "$.dim_v: only allowed with explicit rho and mu"),
    ("derpair-rho-matrix", corpus_doc("pair_module", (("rho", 0), [["1"], ["0"]])),
     "$.rho[0]: expected length 1, got 2"),
    ("derpair-module-D", corpus_doc("pair_module", (("D",), [["0", "1"], ["0", "0"]])),
     "$.D: expected length 1, got 2"),
    ("derpair-regular-D", corpus_doc("pair_shift", (("D", 1), ["0"])),
     "$.D[1]: expected length 2, got 1"),
    ("derpair-algebra-field", corpus_doc("pair_shift", (("algebra", "kind"), "prelie")),
     "$.algebra: unknown field 'kind'"),
    ("wedge-negative", corpus_doc("cochain_structure", (("entries",), [entry([-1], 0, FULL_VALUE)])),
     "$.entries[0].wedge: negative index"),
    ("wedge-order", corpus_doc("cochain_structure", (("arity",), 3),
                               (("entries",), [entry([1, 0], 0, FULL_VALUE)])),
     "$.entries[0].wedge: must be strictly increasing"),
    ("tail-negative", corpus_doc("cochain_structure", (("entries",), [entry([0], -1, FULL_VALUE)])),
     "$.entries[0].tail: negative index"),
    ("entry-no-value", corpus_doc("cochain_structure", (("entries", 0, "value"), DROP)),
     "$.entries[0]: missing field 'value'"),
    ("entry-value-length", corpus_doc("cochain_structure", (("entries", 0, "value"), ["1"])),
     "$.entries[0].value: expected length 4, got 1"),
    ("full-dimensions", corpus_doc("cochain_structure", (("dim_g",), 0)),
     "$: bad dimensions"),
    ("full-arity", corpus_doc("cochain_structure", (("arity",), 0)),
     "$.arity: must be at least 1"),
    ("full-wedge-count", corpus_doc("cochain_structure", (("entries",), [entry([], 0, FULL_VALUE)])),
     "$.entries[0].wedge: expected 1 indices"),
    ("full-index-range", corpus_doc("cochain_structure", (("entries",), [entry([4], 0, FULL_VALUE)])),
     "$.entries[0]: index out of range for total dimension 4"),
    ("full-duplicate", corpus_doc("cochain_structure", (("entries", 2, "wedge"), [0])),
     "$.entries[2]: duplicate key"),
    ("component-wedge-count", corpus_doc("cocycle_zero", (("f",), [entry([], 0, TWO_SLOT_VALUE)])),
     "$.f[0].wedge: expected 1 indices"),
    ("component-wedge-range", corpus_doc("cocycle_zero", (("f",), [entry([2], 0, TWO_SLOT_VALUE)])),
     "$.f[0].wedge: index out of range"),
    ("component-tail-range", corpus_doc("cocycle_zero", (("theta",), [entry([], 2, TWO_SLOT_VALUE)])),
     "$.theta[0].tail: index out of range"),
    ("component-duplicate",
     corpus_doc("cocycle_coboundary", (("f", 1, "wedge"), [0])),
     "$.f[1]: duplicate key"),
    ("two-slot-dimensions", corpus_doc("cocycle_zero", (("dim_v",), 0)),
     "$: bad dimensions"),
    ("two-slot-degree", corpus_doc("cocycle_zero", (("degree",), 0)),
     "$.degree: must be at least 1"),
    ("two-slot-target", corpus_doc("cocycle_zero", (("target",), "w")),
     "$.target: expected 'g' or 'v'"),
    ("two-slot-theta-degree-1",
     corpus_doc("cocycle_zero", (("degree",), 1), (("theta",), [entry([], 0, TWO_SLOT_VALUE)])),
     "$.theta: must be empty at degree 1"),
    ("cochain-format", corpus_doc("cocycle_zero", (("format",), "sparse")),
     "$.format: expected 'full' or 'two-slot'"),
    ("deformation-dimensions", corpus_doc("deformation_zero", (("dim_g",), 0)),
     "$: bad dimensions"),
    ("deformation-omega-row", corpus_doc("deformation_zero", (("omega", 1), [["0", "0"]])),
     "$.omega[1]: expected length 2, got 1"),
    ("deformation-omega-scalar", corpus_doc("deformation_zero", (("omega", 0, 1, 0), "x")),
     "$.omega[0][1][0]: invalid rational 'x'"),
    ("deformation-sigma-count", corpus_doc("deformation_zero", (("sigma",), [[["0", "0"], ["0", "0"]]])),
     "$.sigma: expected length 2, got 1"),
    ("deformation-tau-row", corpus_doc("deformation_zero", (("tau", 1, 1), ["0"])),
     "$.tau[1][1]: expected length 2, got 1"),
    ("deformation-no-dhat", corpus_doc("deformation_zero", (("dhat",), DROP)),
     "$: missing field 'dhat'"),
    ("extension-iota-width", corpus_doc("extension_semidirect", (("iota",), [[], [], [], []])),
     "$.iota: needs between 1 and 3 columns"),
    ("extension-total-dim-1",
     corpus_doc("extension_semidirect",
                (("total",), {"algebra": {"dim": 1, "table": [[["0"]]]}, "D": [["0"]]}),
                (("iota",), [["1"]]), (("proj",), [])),
     "$.total.algebra: an extension needs dimension at least 2, got 1"),
    ("extension-total-D", corpus_doc("extension_semidirect", (("total", "D"), DROP)),
     "$.total: missing field 'D'"),
    ("extension-total-table",
     corpus_doc("extension_semidirect", (("total", "algebra", "table", 0, 0, 0), True)),
     "$.total.algebra.table[0][0][0]: expected a rational string, got bool"),
    ("extension-proj", corpus_doc("extension_semidirect", (("proj",), [["1", "0", "0", "0"]])),
     "$.proj: expected length 2, got 1"),
]


@pytest.mark.parametrize(
    "doc,message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_parse_error_messages(doc, message):
    data = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
    with pytest.raises(ParseError) as info:
        parse(data)
    assert str(info.value) == message


def test_parse_derpair_field_rules():
    alg = {"dim": 1, "table": [[["0"]]]}
    base = {"kind": "derpair", "algebra": alg, "D": [["0"]]}
    parse(json.dumps(base).encode())  # regular pair form

    with_rho = dict(base, rho=[[["0"]]])
    with pytest.raises(ParseError, match="rho and mu must appear together"):
        parse(json.dumps(with_rho).encode())

    with_dimv = dict(base, dim_v=1)
    with pytest.raises(
        ParseError, match=re.escape("$.dim_v: only allowed with explicit rho and mu")
    ):
        parse(json.dumps(with_dimv).encode())

    full = dict(base, dim_v=1, rho=[[["0"]]], mu=[[["0"]]])
    doc = parse(json.dumps(full).encode())
    assert doc.kind == "derpair"


def test_parse_cochain_rules():
    base = {
        "kind": "cochain",
        "format": "full",
        "dim_g": 2,
        "dim_v": 1,
        "arity": 2,
        "entries": [],
    }
    parse(json.dumps(base).encode())

    bad = dict(base, format="sparse")
    with pytest.raises(
        ParseError, match=re.escape("$.format: expected 'full' or 'two-slot'")
    ):
        parse(json.dumps(bad).encode())

    entries = [{"wedge": [1, 0], "tail": 0, "value": ["1", "0", "0"]}]
    with pytest.raises(ParseError, match="must be strictly increasing"):
        parse(json.dumps(dict(base, arity=3, entries=entries)).encode())

    dup = [
        {"wedge": [0], "tail": 1, "value": ["1", "0", "0"]},
        {"wedge": [0], "tail": 1, "value": ["0", "1", "0"]},
    ]
    with pytest.raises(ParseError, match=re.escape("$.entries[1]: duplicate key")):
        parse(json.dumps(dict(base, entries=dup)).encode())

    two = {
        "kind": "cochain",
        "format": "two-slot",
        "dim_g": 2,
        "dim_v": 2,
        "degree": 1,
        "target": "g",
        "f": [],
        "theta": [{"wedge": [], "tail": 0, "value": ["1", "0"]}],
    }
    with pytest.raises(ParseError, match=re.escape("$.theta: must be empty at degree 1")):
        parse(json.dumps(two).encode())
    parse(json.dumps(dict(two, theta=[])).encode())


# ----------------------------------------------------------------------
# mathematical validation of documents


def test_validate_document_tags():
    ok = parse(doc_bytes())
    assert validate_document(ok) == {"ok": True, "failed": []}

    # e1 e1 = e2, e2 e1 = e1 is not left symmetric
    bad = parse(
        doc_bytes(table=[[["0", "1"], ["0", "0"]], [["1", "0"], ["0", "0"]]])
    )
    assert validate_document(bad)["failed"] == ["prelie-left-symmetry"]

    # shift pair with a non-derivation D
    raw = json.loads((REPO / "corpus" / "pair_shift.json").read_text())
    raw["D"] = [["0", "1"], ["0", "0"]]
    rep = validate_document(parse(json.dumps(raw).encode()))
    assert rep["failed"] == ["derivation-axiom"]

    # derivation documents are containers, no equations to check
    deriv = {"kind": "derivation", "rows": 1, "cols": 2, "matrix": [["1", "2"]]}
    assert validate_document(parse(json.dumps(deriv).encode()))["ok"]


# ----------------------------------------------------------------------
# golden command transcripts


def run_cli(args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "prelieder", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        timeout=120,
    )


def test_golden_outputs_byte_identical(monkeypatch, capsysbinary):
    # every golden replayed in one process, in order, reversed and in order
    # again, through the one parser cli_run builds; a usage error and --help
    # between the passes leave no trace. The subprocess replay is criterion 10.
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    assert len(manifest) >= 20
    monkeypatch.chdir(REPO)
    _build_parser.cache_clear()
    for k, entries in enumerate((manifest, manifest[::-1], manifest)):
        if k:
            argv = ["cohomology", "corpus/pair_shift.json", "--complex", "pair", "--degree", "x"]
            assert cli_run(argv) == 2
            out, err = capsysbinary.readouterr()
            assert out == b"" and err.startswith(b"usage: prelieder cohomology")
            assert b"argument --degree: invalid int value: 'x'" in err
            assert cli_run(["--help"]) == 0
            out, err = capsysbinary.readouterr()
            assert out.startswith(b"usage: prelieder") and err == b""
        for entry in entries:
            assert cli_run(entry["args"]) == entry["exit"], entry["name"]
            out, err = capsysbinary.readouterr()
            assert out == (GOLDEN / f"{entry['name']}.out").read_bytes(), entry["name"]
            assert err == b"", entry["name"]
    assert _build_parser.cache_info().misses == 1


def test_import_and_library_calls_build_no_parser():
    script = (
        "import prelieder\n"
        "from prelieder.io_cli import _build_parser\n"
        "doc = prelieder.parse(open('corpus/pair_shift.json', 'rb').read())\n"
        "prelieder.validate_document(doc)\n"
        "print(_build_parser.cache_info().misses)\n"
        "for argv in (['validate', 'corpus/pair_shift.json'], ['--help']):\n"
        "    prelieder.cli_run(argv)\n"
        "print(_build_parser.cache_info().misses)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "0" and out.stdout.splitlines()[-1] == "1"


def test_golden_json_outputs_match_report_schema():
    schema = json.loads((REPO / "docs" / "report.schema.json").read_text())
    Draft202012Validator.check_schema(schema)
    validator = Draft202012Validator(schema)
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    json_reports = 0
    for entry in manifest:
        if "--json" not in entry["args"]:
            continue
        payload = json.loads((GOLDEN / f"{entry['name']}.out").read_text())
        validator.validate(payload)
        json_reports += 1
    assert json_reports >= 15


# ----------------------------------------------------------------------
# exit codes


def test_cli_exit_codes(tmp_path, capsys):
    shift = str(REPO / "corpus" / "pair_shift.json")
    assert cli_run(["validate", shift]) == 0
    capsys.readouterr()

    # mathematically false: exit 1
    bad = tmp_path / "bad_pair.json"
    raw = json.loads(Path(shift).read_text())
    raw["D"] = [["0", "1"], ["0", "0"]]
    bad.write_text(json.dumps(raw))
    assert cli_run(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "derivation-axiom" in out

    # malformed document: exit 2 with the path in the message
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert cli_run(["validate", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "broken.json" in err and "not valid JSON" in err

    # missing file
    assert cli_run(["validate", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()

    # usage errors from the argument parser
    assert cli_run(["no-such-command"]) == 2
    capsys.readouterr()
    assert cli_run([]) == 2
    capsys.readouterr()
    assert cli_run(["--help"]) == 0
    capsys.readouterr()

    # wrong document kind for the command
    assert cli_run(["cohomology", "--complex", "pair", "--degree", "1", str(broken)]) == 2
    capsys.readouterr()
    deriv = tmp_path / "just_deriv.json"
    deriv.write_text(
        json.dumps({"kind": "derivation", "rows": 1, "cols": 1, "matrix": [["1"]]})
    )
    assert cli_run(["cohomology", "--complex", "pair", "--degree", "1", str(deriv)]) == 2
    capsys.readouterr()


def test_cli_math_false_paths(tmp_path, capsys):
    # deformation datum failing the quadratic equations: deform check exits 1
    shift = json.loads((REPO / "corpus" / "pair_shift.json").read_text())
    datum = {
        "kind": "deformation",
        "dim_g": 2,
        "dim_v": 2,
        "omega": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
        "sigma": [
            [["1", "0"], ["0", "0"]],
            [["0", "0"], ["0", "0"]],
        ],
        "tau": [
            [["0", "0"], ["0", "0"]],
            [["0", "0"], ["0", "0"]],
        ],
        "dhat": [["0", "0"], ["0", "0"]],
    }
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(shift))
    datum_file = tmp_path / "datum.json"
    datum_file.write_text(json.dumps(datum))
    code = cli_run(["deform", "check", str(pair_file), str(datum_file)])
    captured = capsys.readouterr()
    if code != 1:
        # the datum may happen to be valid for this pair; force a failure
        pytest.fail(f"expected exit 1, got {code}: {captured.out}")


def corpus_path(name):
    return str(REPO / "corpus" / f"{name}.json")


def written(args, tmp_path):
    """argv with each document (a dict) written to a file under tmp_path."""
    argv = []
    for k, a in enumerate(args):
        if isinstance(a, dict):
            path = tmp_path / f"arg{k}.json"
            path.write_text(json.dumps(a))
            a = str(path)
        argv.append(a)
    return argv


BAD_PAIR = corpus_doc("pair_shift", (("D",), [["0", "1"], ["0", "0"]]))
BAD_DATUM = corpus_doc("deformation_zero", (("dhat", 0, 0), "1"))
BAD_COCYCLE = corpus_doc("cocycle_coboundary", (("theta",), [entry([], 0, TWO_SLOT_VALUE)]))
NOT_A_SECTION = corpus_doc("derivation_section", (("matrix",), [["0", "0"]] * 4))

# A ValueError from the library is a mathematically false input: exit 1
# with an error report, in text and in JSON.
REFUSALS = [
    (["deform", "class", corpus_path("pair_shift"), BAD_DATUM, corpus_path("deformation_zero")],
     {"command": "deform-class", "same_class": False},
     "input datum is not a 2-cocycle of the pair"),
    (["ext", "build", corpus_path("pair_shift"), corpus_path("module_regular"), BAD_COCYCLE],
     {"command": "ext-build", "ok": False},
     "(theta, xi) is not a 2-cocycle of the module complex"),
    (["ext", "extract", corpus_path("extension_semidirect"), "--section", NOT_A_SECTION],
     {"command": "ext-extract", "ok": False},
     "not a section of the projection"),
    (["ext", "classify", corpus_path("pair_shift"), corpus_path("module_regular"), BAD_COCYCLE,
      corpus_path("cocycle_zero")],
     {"command": "ext-classify", "same_class": False},
     "input is not a 2-cocycle of the module complex"),
]


@pytest.mark.parametrize(
    "args,report,error", REFUSALS, ids=[report["command"] for _, report, _ in REFUSALS]
)
def test_library_refusals_exit_1_with_an_error_report(args, report, error, tmp_path, capsys):
    argv = written(args, tmp_path)
    assert cli_run(argv) == 1
    assert capsys.readouterr() == (f"error: {error}\n", "")
    assert cli_run(argv + ["--json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {**report, "error": error}
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# Command-level refusals: exit 2, one stderr line, nothing on stdout.
USAGE_ERRORS = [
    (["les", BAD_PAIR, "--max", "2"], "{argv[1]}: not a valid pair (derivation-axiom)"),
    (["deform", "check", BAD_PAIR, corpus_path("deformation_zero")],
     "{argv[2]}: not a valid pair (derivation-axiom)"),
    (["les", corpus_path("pair_shift"), "--max", "0"], "--max must be at least 1"),
    (["cohomology", corpus_path("pair_module"), "--complex", "regular", "--degree", "1"],
     "{argv[1]}: this command needs a regular pair (no explicit rho/mu)"),
    (["cohomology", corpus_path("pair_shift"), "--complex", "rep", "--degree", "1",
      "--rep", corpus_doc("module_regular", (("K",), DROP))],
     "{argv[7]}: module documents need the field K"),
    (["cohomology", corpus_path("pair_shift"), "--complex", "rep", "--degree", "1"],
     "--complex rep needs --rep <module.json>"),
    (["mc", corpus_path("prelie_shift")], "{argv[1]}: expected a derpair document, got prelie"),
    (["bracket", corpus_path("cocycle_zero"), corpus_path("cochain_structure")],
     "bracket needs two full-format cochains"),
    (["deform", "check", corpus_path("pair_module"), corpus_path("deformation_zero")],
     "datum dimensions do not match the base pair"),
    (["ext", "extract", corpus_path("extension_semidirect"), "--section",
      corpus_doc("derivation_section", (("rows",), 2), (("matrix",), [["1", "0"], ["0", "1"]]))],
     "section has the wrong shape"),
    (["validate", corpus_doc("prelie_shift", (("dim",), 0), (("table",), []))],
     "{argv[1]}: $.dim: must be positive"),
    (["les", corpus_path("pair_shift"), "--max", "5"],
     "--max must be at most dim g + 2 = 4: every cochain space past it is zero"),
]


@pytest.mark.parametrize("args,message", USAGE_ERRORS)
def test_command_refusals_exit_2(args, message, tmp_path, capsys):
    argv = written(args, tmp_path)
    assert cli_run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(argv=argv)}\n")


def test_cohomology_rep_checks_the_pair_before_the_module(monkeypatch, tmp_path, capsys):
    # an invalid pair is reported without validating the module first
    calls = []
    real = io_cli.derpair_representation_report
    monkeypatch.setattr(io_cli, "derpair_representation_report", lambda *args: calls.append(args) or real(*args))
    tail = ["--complex", "rep", "--degree", "1", "--rep", corpus_path("module_regular"), "--json"]
    assert cli_run(written(["cohomology", BAD_PAIR, *tail], tmp_path)) == 1
    assert json.loads(capsys.readouterr().out) == {"command": "cohomology", "ok": False, "failed": ["pair-invalid"]}
    assert calls == []
    assert cli_run(["cohomology", corpus_path("pair_shift"), *tail]) == 0
    assert len(calls) == 1


# one structure constant of pair_shift changed (e1.e1 = e1): the algebra is
# no longer pre-Lie, d² != 0 in every complex over it, and ranks cut by the
# basis of B^n come out wrong (test_the_cut_needs_d_squared_zero)
PERTURBED_PAIR = corpus_doc("pair_shift", (("algebra", "table", 1, 1, 1), "1"))


def refuse_ranks(monkeypatch) -> list:
    """Patch Complex.rank to record its degree and raise; the records."""
    ranked = []

    def rank(self, n):
        ranked.append(n)
        raise AssertionError("ranked an invalid pair")

    monkeypatch.setattr(prelieder.cohomology.Complex, "rank", rank)
    return ranked


@pytest.mark.parametrize("cid", ["coeffs", "prelie", "pair", "regular", "rep"])
def test_cohomology_refuses_a_perturbed_pair_before_any_rank(cid, monkeypatch, tmp_path, capsys):
    # Complex.rank is exact only where d² = 0, so the CLI must refuse an
    # invalid pair, exit 1, before it ranks anything
    ranked = refuse_ranks(monkeypatch)
    extra = ["--rep", corpus_path("module_regular")] if cid == "rep" else []
    argv = written(["cohomology", PERTURBED_PAIR, "--complex", cid, "--degree", "2", *extra, "--json"], tmp_path)
    assert cli_run(argv) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False
    assert ranked == []


def test_les_refuses_a_perturbed_pair_before_any_rank(monkeypatch, tmp_path, capsys):
    # les refuses an invalid pair as a command-level error (exit 2, as for
    # BAD_PAIR in USAGE_ERRORS), also before it ranks anything
    ranked = refuse_ranks(monkeypatch)
    argv = written(["les", PERTURBED_PAIR, "--max", "2"], tmp_path)
    assert cli_run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {argv[1]}: not a valid pair (prelie-left-symmetry, derivation-axiom)\n")
    assert ranked == []


def test_cli_reports_are_deterministic():
    args = ["cohomology", "--complex", "pair", "--degree", "2", "--json",
            "corpus/pair_dual.json"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_internal_error_exits_3_with_one_line(monkeypatch, capsys):
    # exit 1 means "mathematically false"; a failed internal certificate is not that
    monkeypatch.setattr("prelieder.extension.is_morphism", lambda *args: False)
    names = ("pair_shift.json", "module_regular.json", "cocycle_coboundary.json", "cocycle_zero.json")
    argv = ["ext", "classify"] + [str(REPO / "corpus" / name) for name in names]
    assert cli_run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: RuntimeError: ")
    assert "Traceback" not in captured.err


def test_ext_commands_check_the_module_once(monkeypatch):
    # ext build and ext classify check the module once, in
    # _ext_module_inputs, whose report gives the exit-2 message; they then
    # call the library entry points that take a checked module
    calls = []
    real = prelieder.extension.derpair_representation_report

    def counted(base, r):
        calls.append(r)
        return real(base, r)

    monkeypatch.setattr("prelieder.io_cli.derpair_representation_report", counted)
    monkeypatch.setattr("prelieder.extension.derpair_representation_report", counted)
    pair, module, cocycle = corpus_path("pair_shift"), corpus_path("module_regular"), corpus_path("cocycle_coboundary")
    for argv in (
        ["ext", "build", pair, module, cocycle],
        ["ext", "classify", pair, module, cocycle, corpus_path("cocycle_zero")],
    ):
        calls.clear()
        with redirect_stdout(io.StringIO()):
            assert cli_run(argv + ["--json"]) == 0, argv
        assert len(calls) == 1, argv


def test_kind_checks_are_value_errors_under_optimize():
    # python -O strips assert statements; a Document of an unknown kind
    # and a cochain document of the wrong type must still be refused
    script = (
        "from prelieder import Document, emit\n"
        "for bad in (lambda: Document('group', None), lambda: emit(Document('cochain', 3))):\n"
        "    try:\n"
        "        bad()\n"
        "    except ValueError as e:\n"
        "        print(type(e).__name__)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ValueError"] * 2


# ----------------------------------------------------------------------
# size guard


def abelian_pair(dim):
    zero = ["0"] * dim
    return {"kind": "derpair", "algebra": {"dim": dim, "table": [[zero] * dim] * dim},
            "D": [zero] * dim}


OVER = "error: {} complex: dim C^3 = {} is over the limit of 1000\n"


# (argv, stderr): exit 0 with no stderr, or exit 2 naming the complex, the
# degree, the dimension and the limit
SIZES = [
    (["cohomology", abelian_pair(4), "--complex", "pair", "--degree", "4"], ""),  # C^4: 608
    (["cohomology", abelian_pair(5), "--complex", "pair", "--degree", "1"], ""),  # C^2: 400
    (["cohomology", abelian_pair(5), "--complex", "regular", "--degree", "2"], ""),
    (["les", abelian_pair(5), "--max", "1"], ""),
    (["cohomology", abelian_pair(5), "--complex", "pair", "--degree", "2"],
     OVER.format("pair", 1250)),
    (["cohomology", abelian_pair(5), "--complex", "prelie", "--degree", "3"],
     OVER.format("prelie", 1125)),
    (["les", abelian_pair(5), "--max", "2"], OVER.format("pair", 1250)),
    (["les", abelian_pair(5), "--max", "1000000000"], OVER.format("pair", 1250)),
]


@pytest.mark.parametrize("args,error", SIZES)
def test_size_guard_refuses_large_cochain_spaces(args, error, tmp_path, capsys):
    assert MAX_COCHAIN_DIM == 1000
    assert cli_run(written(args, tmp_path)) == (2 if error else 0)
    out, err = capsys.readouterr()
    assert err == error and (out == "") == bool(error)


def test_size_guard_leaves_library_calls_alone():
    pair = parse(json.dumps(abelian_pair(5)).encode()).obj.to_derpair()
    assert cohomology_dim("pair", 2, pair) == (400, 0, 400)


# ----------------------------------------------------------------------
# mutated documents


# (command, the corpus documents it is fed): mc and cohomology read pairs
FUZZ_COMMANDS = [
    (["validate"], [path.stem for path in CORPUS]),
    (["mc"], [path.stem for path in CORPUS if path.stem.startswith("pair_")]),
    (["cohomology", "--complex", "pair", "--degree", "1"],
     [path.stem for path in CORPUS if path.stem.startswith("pair_")]),
]
# number literals written into the JSON text as they are
LITERALS = ["1.0", "-2.00", "1e3", "0.5", "-1e-3", "1e400", "1e5000", "-0", "NaN"]


class Literal:
    """A number literal, written into the document text as it is."""

    def __init__(self, text):
        self.text = text


JSON_VALUES = st.one_of(
    st.sampled_from(LITERALS).map(Literal),
    st.integers(4290, 4310).map(lambda digits: Literal("9" * digits)),  # about the digit limit
    st.integers(-3, 3), st.integers(-(10**40), 10**40), st.sampled_from(["0", "1", "-1/2", "7/3"]),
    st.none(), st.booleans(), st.floats(), st.sampled_from(["x", "", "1/0", "0.5"]),
    st.lists(st.sampled_from(["0", "1"]), max_size=3), st.just({}),
)


@st.composite
def mutated_requests(draw):
    """(command, document bytes): a corpus document with one or two of its
    fields dropped, added or replaced, sometimes cut short."""
    command, names = draw(st.sampled_from(FUZZ_COMMANDS))
    doc = json.loads((REPO / "corpus" / f"{draw(st.sampled_from(names))}.json").read_text())
    for _ in range(draw(st.integers(1, 2))):
        node = doc
        while True:  # a (container, key) somewhere in the document
            keys = [k for k in node if k != "kind"] if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(list(keys))) if keys else None
            child = None if key is None else node[key]
            if not (isinstance(child, (dict, list)) and child and draw(st.integers(0, 7))):
                break
            node = child
        op = draw(st.sampled_from(["replace", "drop", "extra", "replace"]))
        if op == "extra" or key is None:
            value = draw(JSON_VALUES)
            if isinstance(node, dict):
                node[draw(st.sampled_from(["extra", "dim", "D", "rho", "mu", "K"]))] = value
            else:
                node.append(value)
        elif op == "drop":
            del node[key]
        else:
            node[key] = draw(JSON_VALUES)
    literals = []

    def verbatim(value):
        literals.append(value.text)
        return f"@{len(literals) - 1}@"

    text = json.dumps(doc, default=verbatim)
    for k, literal in enumerate(literals):
        text = text.replace(f'"@{k}@"', literal)
    data = text.encode()
    if draw(st.integers(0, 7)) == 0:
        data = data[: draw(st.integers(0, len(data) - 1))]
    return command, data


@settings(max_examples=300, deadline=None)
@given(mutated_requests())
def test_mutated_documents_exit_0_1_or_2(tmp_path_factory, request_):
    command, data = request_
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_run([*command, str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code != 2:
        assert err == ""
        return
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    try:
        parse(data)
    except ParseError as e:
        assert str(e).startswith("$"), e
        assert err == f"error: {path}: {e}\n"
