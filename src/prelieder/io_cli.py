"""JSON document format and the command-line surface.

Document kinds: prelie, representation, derivation, derpair, cochain,
deformation, extension. `DOCUMENTS` is the one place a kind is defined:
its row holds the kind's parser, its emitter and its equation check.
All scalars are exact rationals written as strings "p/q" or "n" (plain
JSON integers are accepted on input and canonicalized to strings on
output). Number literals are read exactly from their text: as in JSON
Schema, a number with a zero fractional part (1.0, -2.00, 1e3) is an
integer, and any other (0.5) is refused.

A derpair document without explicit rho/mu is a regular pair: the
algebra acts on itself by left and right multiplication and D is a
square matrix on it.

Cochain documents come in two formats: "full" for multilinear maps on
the total space (field `entries`, used by the bracket command) and
"two-slot" for (f, theta) elements of the regular or module-coefficient
complex (fields `f` and `theta`; an extension cocycle is the degree-2,
target-"v" case).

Exit codes: 0 success / mathematically true, 1 mathematically false,
2 malformed input or usage, 3 internal error (one stderr line). The
cohomology and les commands exit 2 before any assembly when a cochain
space they need has dimension over MAX_COCHAIN_DIM; library calls have
no such limit. cli_run builds the argument parser once per process, on
its first call.
Reports are deterministic; --json swaps the human text for a
machine-readable object including equation tags.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

from .cochain import Cochain, MixedMap, MixedShape, SplitDims
from .cohomology import (
    COMPLEXES,
    TwoSlotCochain,
    cohomology_dim,
    les_check,
    space_dimension,
)
from .deformation import (
    DeformationDatum,
    is_infinitesimal_deformation,
    same_cohomology_class,
)
from .exact_linalg import Matrix
from .extension import (
    AbelianExtension,
    DerPairRepresentation,
    ExtensionCocycle,
    _build_extension,
    _classify,
    canonical_section,
    derpair_representation_report,
    extract_cocycle,
    validate_extension,
)
from .linfty import MCCandidate, mc_check
from .mn_bracket import mn_bracket
from .prelie import (
    DerPair,
    PreLieAlgebra,
    RegularPair,
    Representation,
    axiom_brackets,
    failed_axioms,
    is_regular_pair,
    pair_failures,
)


class ParseError(Exception):
    """Malformed document; message carries the field path."""


# ---------------------------------------------------------------------------
# scalar, matrix and table helpers


# The "rational" pattern of docs/document.schema.json, but for its digit
# bound: an optional minus, ASCII digits and an optional nonzero
# denominator, with surrounding whitespace. The groups are the sign and
# the numerator and denominator past their leading zeros (no numerator
# group for zero). Fraction alone would also take "+1", "0.5", "1e3"
# and "1_0".
_RATIONAL = re.compile(r"\s*(-?)(?:0*([1-9][0-9]*)|0+)(?:/0*([1-9][0-9]*))?\s*")


# parse reads every JSON number as a Decimal, exactly from its text. One that
# denotes an integer may have up to Python's default int_max_str_digits.
_DECODER = json.JSONDecoder(parse_float=Decimal, parse_int=Decimal)
_MAX_DIGITS = 4300


def _integer(x, path: str):
    """The integer a JSON value denotes, or None: 3, 1.0 and 1e3 do, 0.5 and true do not."""
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return x
    if isinstance(x, Decimal) and x.is_finite() and x == x.to_integral_value():
        if x.adjusted() >= _MAX_DIGITS:
            raise ParseError(f"{path}: integer with more than {_MAX_DIGITS} digits")
        return int(x)
    return None


def parse_scalar(x, path: str) -> Fraction:
    if isinstance(x, str):
        m = _RATIONAL.fullmatch(x)
        if not m:
            raise ParseError(f"{path}: invalid rational {x!r}")
        sign, num, den = m.groups("")
        # the schema's bound, on the digits past the leading zeros
        if max(len(num), len(den)) > _MAX_DIGITS:
            raise ParseError(f"{path}: rational with a part of more than {_MAX_DIGITS} digits")
        return Fraction(int(sign + (num or "0")), int(den or "1"))
    n = _integer(x, path)
    if n is None:
        name = "float" if isinstance(x, Decimal) else type(x).__name__
        raise ParseError(f"{path}: expected a rational string, got {name}")
    return Fraction(n)


def emit_scalar(f: Fraction) -> str:
    try:
        return str(f)
    except ValueError:  # a part past int_max_str_digits, which Decimal still writes
        num, den = (str(Decimal(k)) for k in (f.numerator, f.denominator))
        return num if den == "1" else f"{num}/{den}"


def _expect_dict(obj, path, keys):
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    extra = set(obj) - set(keys)
    if extra:
        raise ParseError(f"{path}: unknown field {sorted(extra)[0]!r}")
    return obj


def _expect_list(obj, path, length=None):
    if not isinstance(obj, list):
        raise ParseError(f"{path}: expected a list")
    if length is not None and len(obj) != length:
        raise ParseError(f"{path}: expected length {length}, got {len(obj)}")
    return obj


def _get(obj, key, path):
    if key not in obj:
        raise ParseError(f"{path}: missing field {key!r}")
    return obj[key]


def _int(x, path) -> int:
    n = _integer(x, path)
    if n is None:
        raise ParseError(f"{path}: expected an integer")
    return n


def parse_vector(obj, length, path) -> tuple:
    row = _expect_list(obj, path, length)
    return tuple(parse_scalar(v, f"{path}[{k}]") for k, v in enumerate(row))


def parse_matrix(obj, rows, cols, path) -> Matrix:
    m = _expect_list(obj, path, rows)
    return Matrix(rows, cols, [parse_vector(r, cols, f"{path}[{i}]") for i, r in enumerate(m)])


def emit_vector(v) -> list:
    return [emit_scalar(x) for x in v]


def emit_matrix(m: Matrix) -> list:
    return [emit_vector(row) for row in m.entries]


def _parse_table(obj, dim, path) -> list:
    """A dim x dim table of dim-vectors, as the structure constants of a product."""
    table = []
    for i, row in enumerate(_expect_list(obj, path, dim)):
        row = _expect_list(row, f"{path}[{i}]", dim)
        table.append([parse_vector(v, dim, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return table


def _parse_mats(obj, count, dim, path):
    lst = _expect_list(obj, path, count)
    return [parse_matrix(m, dim, dim, f"{path}[{i}]") for i, m in enumerate(lst)]


def _dumps(payload) -> str:
    """The canonical JSON text of documents and reports."""
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# per-kind payloads


def _parse_algebra(obj, path) -> PreLieAlgebra:
    obj = _expect_dict(obj, path, ("dim", "table"))
    dim = _int(_get(obj, "dim", path), f"{path}.dim")
    if dim < 1:
        raise ParseError(f"{path}.dim: must be positive")
    return PreLieAlgebra(dim, _parse_table(_get(obj, "table", path), dim, f"{path}.table"))


def _emit_algebra(a: PreLieAlgebra) -> dict:
    return {
        "dim": a.dim,
        "table": [[emit_vector(a.prod_basis(i, j)) for j in range(a.dim)] for i in range(a.dim)],
    }


def _parse_action(raw, dim_g, path) -> Representation:
    """The fields dim_v, rho and mu: one dim_v x dim_v matrix per basis vector of g."""
    dim_v = _int(_get(raw, "dim_v", path), f"{path}.dim_v")
    if dim_v < 1:
        raise ParseError(f"{path}.dim_v: must be positive")
    rho = _parse_mats(_get(raw, "rho", path), dim_g, dim_v, f"{path}.rho")
    mu = _parse_mats(_get(raw, "mu", path), dim_g, dim_v, f"{path}.mu")
    return Representation(dim_v, rho, mu)


def _emit_action(dim_v, rho, mu) -> dict:
    return {
        "dim_v": dim_v,
        "rho": [emit_matrix(m) for m in rho],
        "mu": [emit_matrix(m) for m in mu],
    }


class Document:
    """Parsed document: kind plus the constructed domain object."""

    def __init__(self, kind: str, obj):
        if kind not in DOCUMENTS:
            raise ValueError(f"unknown document kind {kind!r}")
        self.kind = kind
        self.obj = obj


def parse(data: bytes) -> Document:
    try:
        raw = _DECODER.decode(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ParseError(f"$: not valid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ParseError("$: expected a JSON object")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in DOCUMENTS:
        raise ParseError(f"$.kind: expected one of {', '.join(DOCUMENTS)}")
    return Document(kind, DOCUMENTS[kind].parse(raw, "$"))


def emit(doc: Document) -> bytes:
    payload = {"kind": doc.kind, **DOCUMENTS[doc.kind].emit(doc.obj)}
    return (_dumps(payload) + "\n").encode("utf-8")


def validate_document(doc: Document) -> dict:
    """Mathematical validation; structural checks already ran in parse."""
    failed = DOCUMENTS[doc.kind].failed(doc.obj)
    return {"ok": not failed, "failed": failed}


def _parse_prelie(raw, path) -> PreLieAlgebra:
    raw = _expect_dict(raw, path, ("kind", "dim", "table"))
    return _parse_algebra({"dim": raw.get("dim"), "table": raw.get("table")}, path)


def _failed_prelie(a: PreLieAlgebra) -> list:
    return failed_axioms(axiom_brackets(a))


def _parse_representation(raw, path):
    raw = _expect_dict(raw, path, ("kind", "algebra", "dim_v", "rho", "mu", "K"))
    a = _parse_algebra(_get(raw, "algebra", path), f"{path}.algebra")
    rep = _parse_action(raw, a.dim, path)
    K = None
    if "K" in raw:
        K = parse_matrix(raw["K"], rep.dim_v, rep.dim_v, f"{path}.K")
    return (a, rep, K)


def _emit_representation_doc(obj) -> dict:
    a, rep, K = obj
    out = {"algebra": _emit_algebra(a), **_emit_action(rep.dim_v, rep.rho, rep.mu)}
    if K is not None:
        out["K"] = emit_matrix(K)
    return out


def _failed_representation(obj) -> list:
    a, rep, K = obj
    return failed_axioms(axiom_brackets(a, rep))


def _parse_derivation(raw, path) -> Matrix:
    raw = _expect_dict(raw, path, ("kind", "rows", "cols", "matrix"))
    rows = _int(_get(raw, "rows", path), f"{path}.rows")
    cols = _int(_get(raw, "cols", path), f"{path}.cols")
    if rows < 0 or cols < 0:
        raise ParseError(f"{path}: negative shape")
    return parse_matrix(_get(raw, "matrix", path), rows, cols, f"{path}.matrix")


def _emit_derivation_doc(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "matrix": emit_matrix(m)}


def _parse_derpair(raw, path):
    raw = _expect_dict(raw, path, ("kind", "algebra", "D", "dim_v", "rho", "mu"))
    a = _parse_algebra(_get(raw, "algebra", path), f"{path}.algebra")
    if ("rho" in raw) != ("mu" in raw):
        raise ParseError(f"{path}: rho and mu must appear together")
    if "rho" in raw:
        rep = _parse_action(raw, a.dim, path)
        return DerPair(a, rep, parse_matrix(_get(raw, "D", path), rep.dim_v, a.dim, f"{path}.D"))
    if "dim_v" in raw:
        raise ParseError(f"{path}.dim_v: only allowed with explicit rho and mu")
    return RegularPair(a, parse_matrix(_get(raw, "D", path), a.dim, a.dim, f"{path}.D"))


def _emit_derpair_doc(p) -> dict:
    out = {"algebra": _emit_algebra(p.algebra), "D": emit_matrix(p.D)}
    if isinstance(p, DerPair):
        out.update(_emit_action(p.rep.dim_v, p.rep.rho, p.rep.mu))
    return out


def _as_pair(p) -> DerPair:
    """The pair, with the action (L, R) of a regular pair made explicit."""
    return p.to_derpair() if isinstance(p, RegularPair) else p


def _parse_dims(raw, path, min_v=1) -> SplitDims:
    """The fields dim_g >= 1 and dim_v >= min_v."""
    dim_g = _int(_get(raw, "dim_g", path), f"{path}.dim_g")
    dim_v = _int(_get(raw, "dim_v", path), f"{path}.dim_v")
    if dim_g < 1 or dim_v < min_v:
        raise ParseError(f"{path}: bad dimensions")
    return SplitDims(dim_g, dim_v)


def _parse_entries(obj, path):
    """(wedge, tail, raw value, entry path) per entry, indices non-negative."""
    out = []
    for k, e in enumerate(_expect_list(obj, path)):
        epath = f"{path}[{k}]"
        e = _expect_dict(e, epath, ("wedge", "tail", "value"))
        w = _expect_list(_get(e, "wedge", epath), f"{epath}.wedge")
        wedge = tuple(_int(x, f"{epath}.wedge[{i}]") for i, x in enumerate(w))
        if any(x < 0 for x in wedge):
            raise ParseError(f"{epath}.wedge: negative index")
        if any(wedge[i] >= wedge[i + 1] for i in range(len(wedge) - 1)):
            raise ParseError(f"{epath}.wedge: must be strictly increasing")
        tail = _int(_get(e, "tail", epath), f"{epath}.tail")
        if tail < 0:
            raise ParseError(f"{epath}.tail: negative index")
        out.append((wedge, tail, _get(e, "value", epath), epath))
    return out


def _parse_cochain_full(raw, path):
    raw = _expect_dict(raw, path, ("kind", "format", "dim_g", "dim_v", "arity", "entries"))
    dims = _parse_dims(raw, path, min_v=0)
    arity = _int(_get(raw, "arity", path), f"{path}.arity")
    if arity < 1:
        raise ParseError(f"{path}.arity: must be at least 1")
    total = dims.total
    coeffs = {}
    for wedge, tail, value, epath in _parse_entries(_get(raw, "entries", path), f"{path}.entries"):
        if len(wedge) != arity - 1:
            raise ParseError(f"{epath}.wedge: expected {arity - 1} indices")
        if any(x >= total for x in wedge) or tail >= total:
            raise ParseError(f"{epath}: index out of range for total dimension {total}")
        if (wedge, tail) in coeffs:
            raise ParseError(f"{epath}: duplicate key")
        coeffs[(wedge, tail)] = parse_vector(value, total, f"{epath}.value")
    return Cochain(dims, arity, coeffs)


def _parse_component(obj, dims, shape, target, path) -> MixedMap:
    coeffs = {}
    for wedge, tail, value, epath in _parse_entries(obj, path):
        if shape.degenerate or len(wedge) != shape.g_wedge:
            raise ParseError(f"{epath}.wedge: expected {max(shape.g_wedge, 0)} indices")
        if any(x >= dims.dim_g for x in wedge):
            raise ParseError(f"{epath}.wedge: index out of range")
        if tail >= dims.dim_g:
            raise ParseError(f"{epath}.tail: index out of range")
        full_key = (wedge, (), tail)
        if full_key in coeffs:
            raise ParseError(f"{epath}: duplicate key")
        tdim = dims.dim_g if target == "g" else dims.dim_v
        coeffs[full_key] = parse_vector(value, tdim, f"{epath}.value")
    return MixedMap(dims, shape, target, coeffs)


def _parse_cochain_two_slot(raw, path):
    raw = _expect_dict(
        raw, path, ("kind", "format", "dim_g", "dim_v", "degree", "target", "f", "theta")
    )
    dims = _parse_dims(raw, path)
    degree = _int(_get(raw, "degree", path), f"{path}.degree")
    if degree < 1:
        raise ParseError(f"{path}.degree: must be at least 1")
    target = _get(raw, "target", path)
    if target not in ("g", "v"):
        raise ParseError(f"{path}.target: expected 'g' or 'v'")
    f = _parse_component(
        _get(raw, "f", path), dims, MixedShape(degree - 1, 0, "g"), target, f"{path}.f"
    )
    theta_shape = MixedShape(degree - 2, 0, "g")
    theta_raw = _get(raw, "theta", path)
    if theta_shape.degenerate:
        if _expect_list(theta_raw, f"{path}.theta"):
            raise ParseError(f"{path}.theta: must be empty at degree 1")
        theta = MixedMap(dims, theta_shape, target)
    else:
        theta = _parse_component(theta_raw, dims, theta_shape, target, f"{path}.theta")
    return TwoSlotCochain(dims, degree, target, f, theta)


def _parse_cochain(raw, path):
    fmt = raw.get("format")
    if fmt == "full":
        return _parse_cochain_full(raw, path)
    if fmt == "two-slot":
        return _parse_cochain_two_slot(raw, path)
    raise ParseError(f"{path}.format: expected 'full' or 'two-slot'")


def _emit_entries(coeffs) -> list:
    """Entries of the coefficients of a Cochain or MixedMap, in key order.

    A key is (wedge, tail) or (g-wedge, v-wedge, tail); only the first
    wedge is written.
    """
    return [
        {"wedge": list(key[0]), "tail": key[-1], "value": emit_vector(v)}
        for key, v in sorted(coeffs.items())
    ]


def _emit_cochain_doc(c) -> dict:
    if isinstance(c, Cochain):
        return {
            "format": "full",
            "dim_g": c.dims.dim_g,
            "dim_v": c.dims.dim_v,
            "arity": c.arity,
            "entries": _emit_entries(c.coeffs),
        }
    if not isinstance(c, TwoSlotCochain):
        raise ValueError(f"cannot emit a {type(c).__name__} as a cochain document")
    return {
        "format": "two-slot",
        "dim_g": c.dims.dim_g,
        "dim_v": c.dims.dim_v,
        "degree": c.n,
        "target": c.target,
        "f": _emit_entries(c.f.coeffs),
        "theta": _emit_entries(c.theta.coeffs),
    }


def _parse_deformation(raw, path) -> DeformationDatum:
    raw = _expect_dict(
        raw, path, ("kind", "dim_g", "dim_v", "omega", "sigma", "tau", "dhat")
    )
    dims = _parse_dims(raw, path)
    dim_g, dim_v = dims.dim_g, dims.dim_v
    omega_table = _parse_table(_get(raw, "omega", path), dim_g, f"{path}.omega")
    sigma = _parse_mats(_get(raw, "sigma", path), dim_g, dim_v, f"{path}.sigma")
    tau = _parse_mats(_get(raw, "tau", path), dim_g, dim_v, f"{path}.tau")
    dhat = parse_matrix(_get(raw, "dhat", path), dim_v, dim_g, f"{path}.dhat")
    return DeformationDatum.from_matrices(dims, omega_table, sigma, tau, dhat)


def _emit_deformation_doc(d: DeformationDatum) -> dict:
    dg = d.dims.dim_g
    return {
        "dim_g": dg,
        "dim_v": d.dims.dim_v,
        "omega": [[emit_vector(d.omega_vec(i, j)) for j in range(dg)] for i in range(dg)],
        "sigma": [emit_matrix(d.sigma_mat(i)) for i in range(dg)],
        "tau": [emit_matrix(d.tau_mat(j)) for j in range(dg)],
        "dhat": emit_matrix(d.dhat_mat()),
    }


def _parse_extension(raw, path) -> AbelianExtension:
    raw = _expect_dict(raw, path, ("kind", "total", "iota", "proj"))
    total_raw = _expect_dict(_get(raw, "total", path), f"{path}.total", ("algebra", "D"))
    a = _parse_algebra(_get(total_raw, "algebra", f"{path}.total"), f"{path}.total.algebra")
    if a.dim < 2:
        raise ParseError(f"{path}.total.algebra: an extension needs dimension at least 2, got {a.dim}")
    D = parse_matrix(_get(total_raw, "D", f"{path}.total"), a.dim, a.dim, f"{path}.total.D")
    total = RegularPair(a, D)
    iota_raw = _expect_list(_get(raw, "iota", path), f"{path}.iota", a.dim)
    dim_v = len(_expect_list(iota_raw[0], f"{path}.iota[0]"))
    if not 1 <= dim_v < a.dim:
        raise ParseError(f"{path}.iota: needs between 1 and {a.dim - 1} columns")
    iota = parse_matrix(iota_raw, a.dim, dim_v, f"{path}.iota")
    proj = parse_matrix(_get(raw, "proj", path), a.dim - dim_v, a.dim, f"{path}.proj")
    return AbelianExtension(total, iota, proj)


def _emit_extension_doc(e: AbelianExtension) -> dict:
    return {
        "total": {"algebra": _emit_algebra(e.total.algebra), "D": emit_matrix(e.total.D)},
        "iota": emit_matrix(e.iota),
        "proj": emit_matrix(e.proj),
    }


def _failed_extension(e: AbelianExtension) -> list:
    return validate_extension(e)["failed"]


def _no_equations(obj) -> list:
    """Structural validity only: parse has already checked everything."""
    return []


class _DocumentKind(NamedTuple):
    parse: Callable  # (raw JSON object, field path) -> domain object
    emit: Callable  # domain object -> JSON payload without "kind"
    failed: Callable  # domain object -> tags of the failed equations


# The order here is the order of the "$.kind: expected one of" message.
DOCUMENTS = {
    "prelie": _DocumentKind(_parse_prelie, _emit_algebra, _failed_prelie),
    "representation": _DocumentKind(
        _parse_representation, _emit_representation_doc, _failed_representation
    ),
    "derivation": _DocumentKind(_parse_derivation, _emit_derivation_doc, _no_equations),
    "derpair": _DocumentKind(_parse_derpair, _emit_derpair_doc, pair_failures),
    "cochain": _DocumentKind(_parse_cochain, _emit_cochain_doc, _no_equations),
    "deformation": _DocumentKind(_parse_deformation, _emit_deformation_doc, _no_equations),
    "extension": _DocumentKind(_parse_extension, _emit_extension_doc, _failed_extension),
}


# ---------------------------------------------------------------------------
# CLI


class CliError(Exception):
    """Bad input at the command level; exits 2."""


# The largest dim C^k a cohomology or les command may need. Every degree of
# a dense (4,4) pair (608 at most) fits; a dense (5,5) pair from degree 2
# on (dim C^3 = 1250) is refused. The value was set when such ranks took
# minutes; a new one needs its own measurements.
MAX_COCHAIN_DIM = 1000


def _check_size(complex_id: str, data, degrees) -> None:
    for k in degrees:
        dim = space_dimension(complex_id, k, data)
        if dim > MAX_COCHAIN_DIM:
            raise CliError(
                f"{complex_id} complex: dim C^{k} = {dim} is over the limit of {MAX_COCHAIN_DIM}"
            )


def _load(path: str) -> Document:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise CliError(f"{path}: {e.strerror or e}") from None
    try:
        return parse(data)
    except ParseError as e:
        raise CliError(f"{path}: {e}") from None


def _load_kind(path: str, *kinds: str) -> Document:
    doc = _load(path)
    if doc.kind not in kinds:
        raise CliError(f"{path}: expected a {' or '.join(kinds)} document, got {doc.kind}")
    return doc


def _valid_pair(path: str) -> DerPair:
    """A derpair document that passes validation, as a DerPair."""
    doc = _load_kind(path, "derpair")
    failed = validate_document(doc)["failed"]
    if failed:
        raise CliError(f"{path}: not a valid pair ({', '.join(failed)})")
    return _as_pair(doc.obj)


def _require_regular(doc: Document, path: str) -> RegularPair:
    if not isinstance(doc.obj, RegularPair):
        raise CliError(f"{path}: this command needs a regular pair (no explicit rho/mu)")
    return doc.obj


def _load_module(path: str) -> DerPairRepresentation:
    a, rep, K = _load_kind(path, "representation").obj
    if K is None:
        raise CliError(f"{path}: module documents need the field K")
    return DerPairRepresentation(rep.dim_v, K, rep.rho, rep.mu)


def _print(args, payload: dict, text_lines):
    if args.json:
        sys.stdout.write(_dumps(payload) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _refused(args, payload: dict, e: ValueError) -> int:
    """Report the library's refusal of a mathematically false input: exit 1."""
    _print(args, {**payload, "error": str(e)}, [f"error: {e}"])
    return 1


def _cmd_validate(args) -> int:
    doc = _load(args.file)
    rep = validate_document(doc)
    _print(
        args,
        {"command": "validate", "kind": doc.kind, "ok": rep["ok"], "failed": rep["failed"]},
        [
            f"kind: {doc.kind}",
            "valid" if rep["ok"] else "invalid: " + ", ".join(rep["failed"]),
        ],
    )
    return 0 if rep["ok"] else 1


def _cmd_bracket(args) -> int:
    f = _load_kind(args.f, "cochain").obj
    g = _load_kind(args.g, "cochain").obj
    if not isinstance(f, Cochain) or not isinstance(g, Cochain):
        raise CliError("bracket needs two full-format cochains")
    if f.dims != g.dims:
        raise CliError("cochains live over different spaces")
    out = mn_bracket(f, g)
    payload = _emit_cochain_doc(out)
    _print(args, {"command": "bracket", "result": payload}, [_dumps(payload)])
    return 0


def _cmd_cohomology(args) -> int:
    doc = _load_kind(args.pair, "derpair")
    n = args.degree
    if n < 1:
        raise CliError("--degree must be at least 1")
    cid = args.complex
    if cid != "rep":
        data = _require_regular(doc, args.pair) if cid == "regular" else _as_pair(doc.obj)
        report = validate_document(doc)
        if not report["ok"]:
            _print(
                args,
                {"command": "cohomology", "ok": False, "failed": report["failed"]},
                ["input is not a valid pair: " + ", ".join(report["failed"])],
            )
            return 1
    else:
        regp = _require_regular(doc, args.pair)
        if not args.rep:
            raise CliError("--complex rep needs --rep <module.json>")
        module = _load_module(args.rep)
        if module.dim_g != regp.algebra.dim:
            raise CliError("module and pair dimensions do not match")
        if not is_regular_pair(regp):
            _print(
                args,
                {"command": "cohomology", "ok": False, "failed": ["pair-invalid"]},
                ["input is not a valid pair"],
            )
            return 1
        rep_report = derpair_representation_report(regp, module)
        if not rep_report["ok"]:
            _print(
                args,
                {"command": "cohomology", "ok": False, "failed": rep_report["failed"]},
                ["input is not a valid module: " + ", ".join(rep_report["failed"])],
            )
            return 1
        data = (regp, module)
    _check_size(cid, data, (n - 1, n, n + 1))
    z, b, h = cohomology_dim(cid, n, data)
    _print(
        args,
        {"command": "cohomology", "complex": cid, "degree": n, "z": z, "b": b, "h": h},
        [f"complex {cid}, degree {n}: cocycles {z}, coboundaries {b}, cohomology {h}"],
    )
    return 0


def _cmd_mc(args) -> int:
    p = _as_pair(_load_kind(args.candidate, "derpair").obj)
    res = mc_check(MCCandidate(p.algebra, p.rep.rho, p.rep.mu, p.D))
    sh, hp = res["residual"]
    payload = {
        "command": "mc",
        "is_mc": res["is_mc"],
        "residual": {
            "structure": _emit_entries(sh.coeffs),
            "mixing": _emit_entries(hp.coeffs),
        },
    }
    lines = ["maurer-cartan: " + ("yes" if res["is_mc"] else "no")]
    if not res["is_mc"]:
        which = []
        if not sh.is_zero():
            which.append("structure self-bracket")
        if not hp.is_zero():
            which.append("derivation mixing bracket")
        lines.append("nonzero residual: " + ", ".join(which))
    _print(args, payload, lines)
    return 0 if res["is_mc"] else 1


def _deformation_inputs(args):
    base = _valid_pair(args.base)
    datum = _load_kind(args.datum, "deformation").obj
    if datum.dims != base.dims:
        raise CliError("datum dimensions do not match the base pair")
    return base, datum


def _cmd_deform_check(args) -> int:
    base, datum = _deformation_inputs(args)
    res = is_infinitesimal_deformation(base, datum)
    _print(
        args,
        {"command": "deform-check", "ok": res["ok"], "failed": res["failed"]},
        [
            "infinitesimal deformation: " + ("yes" if res["ok"] else "no"),
        ]
        + ([] if res["ok"] else ["failed: " + ", ".join(res["failed"])]),
    )
    return 0 if res["ok"] else 1


def _cmd_deform_class(args) -> int:
    base, d1 = _deformation_inputs(args)
    d2 = _load_kind(args.datum2, "deformation").obj
    if d2.dims != base.dims:
        raise CliError("second datum dimensions do not match the base pair")
    try:
        w = same_cohomology_class(base, d1, d2)
    except ValueError as e:
        return _refused(args, {"command": "deform-class", "same_class": False}, e)
    if w is None:
        _print(
            args,
            {"command": "deform-class", "same_class": False, "witness": None},
            ["distinct cohomology classes"],
        )
        return 1
    _print(
        args,
        {
            "command": "deform-class",
            "same_class": True,
            "witness": {"N": emit_matrix(w.N), "S": emit_matrix(w.S)},
        },
        ["same cohomology class", f"N = {emit_matrix(w.N)}", f"S = {emit_matrix(w.S)}"],
    )
    return 0


def _ext_module_inputs(args):
    base = _require_regular(_load_kind(args.base, "derpair"), args.base)
    if not is_regular_pair(base):
        raise CliError(f"{args.base}: not a valid regular pair")
    module = _load_module(args.module)
    if module.dim_g != base.algebra.dim:
        raise CliError("module and pair dimensions do not match")
    report = derpair_representation_report(base, module)
    if not report["ok"]:
        raise CliError(f"{args.module}: not a module ({', '.join(report['failed'])})")
    # the module is checked here, once: the commands call the library
    # entry points that take a checked module
    return base, module


def _load_ext_cocycle(path: str, base, module) -> ExtensionCocycle:
    c = _load_kind(path, "cochain").obj
    if not isinstance(c, TwoSlotCochain) or c.target != "v" or c.n != 2:
        raise CliError(f"{path}: expected a two-slot cochain of degree 2 with target v")
    if c.dims != SplitDims(base.algebra.dim, module.dim_v):
        raise CliError(f"{path}: dimensions do not match base and module")
    return ExtensionCocycle(c.dims, *c.blocks())


def _cmd_ext_build(args) -> int:
    base, module = _ext_module_inputs(args)
    c = _load_ext_cocycle(args.cocycle, base, module)
    try:
        ext = _build_extension(base, module, c)
    except ValueError as e:
        return _refused(args, {"command": "ext-build", "ok": False}, e)
    payload = _emit_extension_doc(ext)
    _print(
        args,
        {"command": "ext-build", "ok": True, "extension": payload},
        [_dumps({"kind": "extension", **payload})],
    )
    return 0


def _cmd_ext_extract(args) -> int:
    ext = _load_kind(args.extension, "extension").obj
    vrep = validate_extension(ext)
    if not vrep["ok"]:
        _print(
            args,
            {"command": "ext-extract", "ok": False, "failed": vrep["failed"]},
            ["not a valid abelian extension: " + ", ".join(vrep["failed"])],
        )
        return 1
    if args.section:
        s = _load_kind(args.section, "derivation").obj
        if s.rows != ext.total.algebra.dim or s.cols != ext.dim_g:
            raise CliError("section has the wrong shape")
    else:
        s = canonical_section(ext)
    try:
        cocycle, module = extract_cocycle(ext, s)
    except ValueError as e:
        return _refused(args, {"command": "ext-extract", "ok": False}, e)
    payload = {
        "command": "ext-extract",
        "ok": True,
        "cocycle": _emit_cochain_doc(TwoSlotCochain(cocycle.dims, 2, "v", *cocycle.blocks())),
        "module": {
            **_emit_action(module.dim_v, module.rho_t, module.mu_t),
            "K": emit_matrix(module.K),
        },
    }
    _print(args, payload, [_dumps({k: v for k, v in payload.items() if k != "command"})])
    return 0


def _cmd_ext_classify(args) -> int:
    base, module = _ext_module_inputs(args)
    c1 = _load_ext_cocycle(args.c1, base, module)
    c2 = _load_ext_cocycle(args.c2, base, module)
    try:
        zeta = _classify(base, module, c1, c2)
    except ValueError as e:
        return _refused(args, {"command": "ext-classify", "same_class": False}, e)
    if zeta is None:
        _print(
            args,
            {"command": "ext-classify", "same_class": False, "zeta": None},
            ["distinct extension classes"],
        )
        return 1
    _print(
        args,
        {"command": "ext-classify", "same_class": True, "zeta": emit_matrix(zeta)},
        ["isomorphic extensions", f"zeta = {emit_matrix(zeta)}"],
    )
    return 0


def _cmd_les(args) -> int:
    pair = _valid_pair(args.pair)
    if args.max < 1:
        raise CliError("--max must be at least 1")
    top = pair.dims.dim_g + 2  # C^k is zero past k = dim g + 2
    for cid in ("pair", "prelie", "coeffs"):
        _check_size(cid, pair, range(1, min(args.max + 1, top) + 1))
    if args.max > top:
        raise CliError(f"--max must be at most dim g + 2 = {top}: every cochain space past it is zero")
    report = les_check(pair, args.max)
    lines = []
    for node in report["nodes"]:
        lines.append(
            f"degree {node['degree']} {node['node']}: h={node['h']} "
            f"in={node['rank_in']} out={node['rank_out']} "
            + ("exact" if node["exact"] else "NOT EXACT")
        )
    lines.append("all exact" if report["all_exact"] else "exactness fails")
    _print(args, {"command": "les", **report}, lines)
    return 0 if report["all_exact"] else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first cli_run and reused: parse_args
    returns a new Namespace per call and finds sys.stdout/stderr only when it
    prints."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable report")
    top = argparse.ArgumentParser(
        prog="prelieder",
        description="Exact cohomology and deformation computations for pre-Lie pairs with derivations.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check the axioms of a document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bracket", parents=[common], help="matching bracket of two cochains")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("cohomology", parents=[common], help="cocycle/coboundary/cohomology dimensions")
    p.add_argument("pair")
    p.add_argument(
        "--complex",
        required=True,
        choices=list(COMPLEXES),
    )
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--rep", help="module document for --complex rep")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("mc", parents=[common], help="Maurer-Cartan test for a candidate pair")
    p.add_argument("candidate")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("deform", help="infinitesimal deformation commands")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    q = dsub.add_parser("check", parents=[common], help="validate a deformation datum")
    q.add_argument("base")
    q.add_argument("datum")
    q.set_defaults(func=_cmd_deform_check)
    q = dsub.add_parser("class", parents=[common], help="compare two data in cohomology")
    q.add_argument("base")
    q.add_argument("datum")
    q.add_argument("datum2")
    q.set_defaults(func=_cmd_deform_class)

    p = sub.add_parser("ext", help="abelian extension commands")
    esub = p.add_subparsers(dest="subcommand", required=True)
    q = esub.add_parser("build", parents=[common], help="extension from a cocycle")
    q.add_argument("base")
    q.add_argument("module")
    q.add_argument("cocycle")
    q.set_defaults(func=_cmd_ext_build)
    q = esub.add_parser("extract", parents=[common], help="cocycle and module from an extension")
    q.add_argument("extension")
    q.add_argument("--section", help="derivation document with an explicit section matrix")
    q.set_defaults(func=_cmd_ext_extract)
    q = esub.add_parser("classify", parents=[common], help="compare two extension cocycles")
    q.add_argument("base")
    q.add_argument("module")
    q.add_argument("c1")
    q.add_argument("c2")
    q.set_defaults(func=_cmd_ext_classify)

    p = sub.add_parser("les", parents=[common], help="long exact sequence exactness report")
    p.add_argument("pair")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_les)
    return top


def cli_run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except Exception as e:  # a fault in the library, not a false answer (exit 1)
        message = " ".join(f"{type(e).__name__}: {e}".split())
        sys.stderr.write(f"internal error: {message}\n")
        return 3


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
