"""Document parsing, emission, validation, and the command line surface.

The wire format is JSON with every scalar a rational string; emission is
canonical (sorted keys, two-space indent, trailing newline), so
emit(parse(x)) is byte-identical for canonical inputs. Golden command
outputs are frozen under tests/golden and compared byte for byte.
"""

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from prelieder import (
    CliError,
    Document,
    ParseError,
    cli_run,
    emit,
    parse,
    parse_scalar,
    validate_document,
)

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


def test_corpus_documents_validate():
    for path in CORPUS:
        doc = parse(path.read_bytes())
        if doc.kind in ("prelie", "representation", "derpair", "extension"):
            assert validate_document(doc) == {"ok": True, "failed": []}, path.name


# ----------------------------------------------------------------------
# parse failures carry positional paths


def test_parse_rejects_malformed_documents():
    with pytest.raises(ParseError, match=re.escape("$: not valid JSON")):
        parse(b"{nope")
    with pytest.raises(ParseError, match=re.escape("$: expected a JSON object")):
        parse(b"[1, 2]")
    with pytest.raises(ParseError, match=re.escape("$.kind: expected one of")):
        parse(json.dumps({"kind": "group"}).encode())
    with pytest.raises(ParseError, match=re.escape("unknown field 'extra'")):
        parse(doc_bytes(extra=1))
    with pytest.raises(ParseError, match=re.escape("$.dim: expected an integer")):
        parse(doc_bytes(dim="2"))
    with pytest.raises(ParseError, match=re.escape("$.dim: must be positive")):
        parse(doc_bytes(dim=0, table=[]))
    with pytest.raises(
        ParseError, match=re.escape("$.table[0][1]: expected length 2, got 3")
    ):
        parse(doc_bytes(table=[[["0", "0"], ["0", "1", "0"]], [["0", "0"], ["0", "0"]]]))
    with pytest.raises(
        ParseError, match=re.escape("$.table[0][1][0]: invalid rational '1/0'")
    ):
        parse(doc_bytes(table=[[["0", "0"], ["1/0", "1"]], [["0", "0"], ["0", "0"]]]))


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


def test_parse_extension_iota_width():
    ext = json.loads((REPO / "corpus" / "extension_semidirect.json").read_text())
    ext["iota"] = [["1", "0", "0"] for _ in range(4)]
    ext["iota"][0][0] = "1"
    with pytest.raises(ParseError, match=re.escape("$.iota: needs between 1 and 3 columns")):
        bad = dict(ext)
        bad["iota"] = [[] for _ in range(4)]
        parse(json.dumps(bad).encode())


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
        capture_output=True,
        timeout=120,
    )


def test_golden_outputs_byte_identical():
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    assert len(manifest) >= 20
    for entry in manifest:
        proc = run_cli(entry["args"])
        expected = (GOLDEN / f"{entry['name']}.out").read_bytes()
        assert proc.returncode == entry["exit"], (entry["name"], proc.stderr)
        assert proc.stdout == expected, entry["name"]
        assert proc.stderr == b"", entry["name"]


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
