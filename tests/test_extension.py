"""Abelian extensions of regular pairs and their degree-2 classification.

Coordinates are always g + V with the base copy first. A module over a
regular pair carries compatible actions plus a map K on V; extensions
are built from module-valued 2-cocycles, sections recover them, and two
extensions are isomorphic over (g, V) exactly when the cocycles differ
by a coboundary.
"""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prelieder.exact_linalg
import prelieder.extension
from prelieder import (
    AbelianExtension,
    DerPairRepresentation,
    ExtensionCocycle,
    Matrix,
    PreLieAlgebra,
    RegularPair,
    build_extension,
    canonical_section,
    classify,
    coboundary_cocycle,
    cohomology_dim,
    derpair_representation_report,
    differential_matrix,
    extract_cocycle,
    induced_base,
    is_derpair_representation,
    is_extension_cocycle,
    is_regular_pair,
    is_section,
    kernel_basis,
    regular_module,
    semidirect_product,
    validate_extension,
)
from prelieder.cochain import SplitDims
from prelieder.cohomology import COMPLEXES, _unflatten
from prelieder.extension import _LAYOUT_REFUSALS
from prelieder.io_cli import cli_run

from conftest import REPO, random_matrix, regular_pairs, shift_algebra
from oracles import extension_reference, in_span, prod_reference, sympy_matrix


@pytest.fixture(scope="module")
def bases():
    return [b for b in regular_pairs(random.Random(11)) if b.algebra.dim <= 3]


def golden_base() -> RegularPair:
    return RegularPair(shift_algebra(), Matrix(2, 2, [[0, 0], [0, 1]]))


def zero_module(base: RegularPair, dim_v: int, K: Matrix) -> DerPairRepresentation:
    z = [Matrix.zeros(dim_v, dim_v)] * base.algebra.dim
    return DerPairRepresentation(dim_v, K, z, z)


def modules_over(base: RegularPair):
    out = [regular_module(base), zero_module(base, 1, Matrix(1, 1, [[2]]))]
    if base.algebra.dim == 2 and base.algebra == shift_algebra():
        # one-dimensional module where only the first basis vector acts
        rho = [Matrix(1, 1, [[1]]), Matrix.zeros(1, 1)]
        mu = [Matrix.zeros(1, 1)] * 2
        cand = DerPairRepresentation(1, Matrix(1, 1, [[3]]), rho, mu)
        if is_derpair_representation(base, cand):
            out.append(cand)
    return out


def cocycles_over(base, r, count=3):
    """Genuine 2-cocycles straight from the kernel of the differential."""
    dims = SplitDims(base.algebra.dim, r.dim_v)
    vecs = kernel_basis(differential_matrix("rep", 2, (base, r)))
    out = [ExtensionCocycle.zero(dims)]
    for vec in vecs[:count]:
        theta, xi = _unflatten(dims, COMPLEXES["rep"].specs(2), list(vec))
        out.append(ExtensionCocycle(dims, theta, xi))
    return out


def section_with(ext: AbelianExtension, phi: Matrix) -> Matrix:
    dg, dv = ext.dim_g, ext.dim_v
    rows = [[1 if j == i else 0 for j in range(dg)] for i in range(dg)]
    rows += [list(phi.row(u)) for u in range(dv)]
    return Matrix(dg + dv, dg, rows)


def invertible_integer_matrix(rng: random.Random, n: int) -> Matrix:
    while True:
        P = Matrix(n, n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if sympy_matrix(P).det() != 0:
            return P


def inverse(P: Matrix) -> Matrix:
    inv = sympy_matrix(P).inv()
    return Matrix(P.rows, P.rows, [[Fraction(str(x)) for x in inv.row(i)] for i in range(P.rows)])


def conjugated(ext: AbelianExtension, P: Matrix) -> AbelianExtension:
    """ext in the coordinates y = P x: iota' = P iota, proj' = proj P^-1,
    and the product and Dhat rebased."""
    n, a, Q = P.rows, ext.total.algebra, inverse(P)
    cols = [Q.col(k) for k in range(n)]
    table = [[P.matvec(prod_reference(a, x, y)) for y in cols] for x in cols]
    total = RegularPair(PreLieAlgebra(n, table), P * ext.total.D * Q)
    return AbelianExtension(total, P * ext.iota, ext.proj * Q)


def same_regular_pair(p: RegularPair, q: RegularPair) -> bool:
    return p.algebra == q.algebra and p.D == q.D


def same_module(r1: DerPairRepresentation, r2: DerPairRepresentation) -> bool:
    return r1.K == r2.K and r1.rho_t == r2.rho_t and r1.mu_t == r2.mu_t


# ----------------------------------------------------------------------
# modules and the semidirect product


def test_module_report_tags(bases):
    rng = random.Random(0)
    k_failures = 0
    for b in bases:
        r = regular_module(b)
        assert derpair_representation_report(b, r) == {"ok": True, "failed": []}

        # K compatibility is separate from the plain representation axioms
        bumped = DerPairRepresentation(
            r.dim_v,
            r.K + Matrix(r.dim_v, r.dim_v, [
                [1 if (i, j) == (0, 0) else 0 for j in range(r.dim_v)]
                for i in range(r.dim_v)
            ]),
            r.rho_t,
            r.mu_t,
        )
        rep = derpair_representation_report(b, bumped)
        assert not any(t.startswith("rep-axiom") for t in rep["failed"])
        k_failures += not rep["ok"]
    assert k_failures >= 3

    # breaking an action matrix trips a plain representation axiom
    b = golden_base()
    r = regular_module(b)
    rho = [m for m in r.rho_t]
    rho[0] = rho[0] + Matrix(2, 2, [[0, 1], [0, 0]])
    broken = DerPairRepresentation(2, r.K, rho, r.mu_t)
    failed = derpair_representation_report(b, broken)["failed"]
    assert any(t.startswith("rep-axiom") for t in failed)


def test_zero_action_module_accepts_any_k(bases):
    rng = random.Random(1)
    for b in bases[:5]:
        K = random_matrix(rng, 2, 2)
        assert is_derpair_representation(b, zero_module(b, 2, K))


def test_semidirect_product_blocks(bases):
    for b in bases[:6]:
        r = regular_module(b)
        sd = semidirect_product(b, r)
        dg = b.algebra.dim
        dv = r.dim_v
        assert is_regular_pair(sd)
        a = sd.algebra
        for i in range(dg):
            for j in range(dg):
                assert a.prod_basis(i, j)[:dg] == b.algebra.prod_basis(i, j)
                assert all(x == 0 for x in a.prod_basis(i, j)[dg:])
            for u in range(dv):
                assert a.prod_basis(i, dg + u)[dg:] == r.rho_t[i].col(u)
                assert a.prod_basis(dg + u, i)[dg:] == r.mu_t[i].col(u)
        for u in range(dv):
            for w in range(dv):
                assert all(x == 0 for x in a.prod_basis(dg + u, dg + w))
        # derivation is block triangular with K in the corner
        for i in range(dg):
            assert sd.D.row(i) == tuple(b.D.row(i)) + (Fraction(0),) * dv
        for u in range(dv):
            assert sd.D.row(dg + u) == (Fraction(0),) * dg + tuple(r.K.row(u))

    bad = DerPairRepresentation(
        1, Matrix(1, 1, [[1]]), [Matrix(1, 1, [[1]])] * 2, [Matrix.zeros(1, 1)] * 2
    )
    b = golden_base()
    if not is_derpair_representation(b, bad):
        with pytest.raises(ValueError):
            semidirect_product(b, bad)


# ----------------------------------------------------------------------
# build / extract


def test_build_extract_round_trip(bases):
    instances = 0
    for b in bases:
        for r in modules_over(b):
            for c in cocycles_over(b, r):
                ext = build_extension(b, r, c)
                assert validate_extension(ext) == {"ok": True, "failed": []}
                s = canonical_section(ext)
                assert is_section(ext, s)
                c2, r2 = extract_cocycle(ext, s)
                assert c2 == c and same_module(r2, r)
                assert same_regular_pair(induced_base(ext, s), b)
                instances += 1
    assert instances >= 10


def test_build_refuses_bad_inputs():
    b = golden_base()
    r = regular_module(b)
    dims = SplitDims(2, 2)
    # a non-cocycle: theta(e1, e1) = e1 fails the cocycle equation here
    theta = [[(1, 0), (0, 0)], [(0, 0), (0, 0)]]
    cand = ExtensionCocycle.from_matrices(dims, theta, Matrix.zeros(2, 2))
    if not is_extension_cocycle(b, r, cand):
        with pytest.raises(ValueError):
            build_extension(b, r, cand)

    bad_mod = DerPairRepresentation(
        2, r.K + Matrix(2, 2, [[1, 0], [0, 0]]), r.rho_t, r.mu_t
    )
    if not is_derpair_representation(b, bad_mod):
        with pytest.raises(ValueError):
            build_extension(b, bad_mod, ExtensionCocycle.zero(dims))
        # classify checks the module first too, before the cocycles
        with pytest.raises(ValueError, match="not a module over the regular pair"):
            classify(b, bad_mod, ExtensionCocycle.zero(dims), ExtensionCocycle.zero(dims))


def test_section_change_adds_coboundary(bases):
    rng = random.Random(2)
    moved = 0
    for b in bases[:6]:
        r = regular_module(b)
        for c in cocycles_over(b, r, count=2):
            ext = build_extension(b, r, c)
            for _ in range(2):
                phi = random_matrix(rng, r.dim_v, b.algebra.dim)
                s = section_with(ext, phi)
                assert is_section(ext, s)
                c2, r2 = extract_cocycle(ext, s)
                # the induced module data do not depend on the section
                assert same_module(r2, r)
                assert same_regular_pair(induced_base(ext, s), b)
                cb = coboundary_cocycle(b, r, phi)
                assert c2.theta - c.theta == cb.theta
                assert c2.xi - c.xi == cb.xi
                moved += not (cb.theta.is_zero() and cb.xi.is_zero())
    assert moved >= 6


def test_extract_needs_a_section():
    b = golden_base()
    ext = build_extension(b, regular_module(b), ExtensionCocycle.zero(SplitDims(2, 2)))
    not_s = Matrix(4, 2, [[1, 0], [0, 0], [0, 0], [0, 0]])
    assert not is_section(ext, not_s)
    # induced_base refuses it as extract_cocycle does
    for read in (extract_cocycle, induced_base):
        with pytest.raises(ValueError, match="not a section of the projection"):
            read(ext, not_s)


def test_extraction_reads_any_basis(bases):
    # the same extension in the coordinates y = P x, for an invertible
    # integer P, so that [s | iota] is no longer a permutation matrix
    rng = random.Random(4)
    instances = fractional = 0
    for b in bases[:6]:
        for r in modules_over(b):
            for c in cocycles_over(b, r, count=2):
                ext = build_extension(b, r, c)
                P = invertible_integer_matrix(rng, ext.total.algebra.dim)
                moved = conjugated(ext, P)
                assert validate_extension(moved) == {"ok": True, "failed": []}
                s = P * canonical_section(ext)
                assert is_section(moved, s)
                c2, r2 = extract_cocycle(moved, s)
                assert c2 == c and same_module(r2, r)
                assert same_regular_pair(induced_base(moved, s), b)
                # changing the section by phi still shifts by its coboundary
                phi = random_matrix(rng, r.dim_v, b.algebra.dim)
                c3, r3 = extract_cocycle(moved, P * section_with(ext, phi))
                cb = coboundary_cocycle(b, r, phi)
                assert c3.theta - c.theta == cb.theta and c3.xi - c.xi == cb.xi
                assert same_module(r3, r)
                instances += 1
                fractional += abs(int(sympy_matrix(P).det())) > 1
    assert instances >= 12 and fractional >= 3


def golden_extension_with(*, iota=None, table_cell=None, D_cell=None) -> AbelianExtension:
    """The golden semidirect extension with iota replaced, one product
    coefficient or one entry of Dhat set to 1."""
    b = golden_base()
    ext = build_extension(b, regular_module(b), ExtensionCocycle.zero(SplitDims(2, 2)))
    table = [[list(v) for v in row] for row in ext.total.algebra.table]
    D = [list(row) for row in ext.total.D.entries]
    if table_cell is not None:
        i, j, k = table_cell
        table[i][j][k] = 1
    if D_cell is not None:
        D[D_cell[0]][D_cell[1]] = 1
    total = RegularPair(PreLieAlgebra(4, table), Matrix(4, 4, D))
    return AbelianExtension(total, ext.iota if iota is None else iota, ext.proj)


def test_extraction_refuses_what_has_no_block_layout():
    # one case per check of the reader after the section check; V is
    # spanned by e2, e3
    s = Matrix(4, 2, [[1, 0], [0, 1], [0, 0], [0, 0]])
    cases = [
        (golden_extension_with(iota=Matrix(4, 2, [[1, 0], [0, 0], [1, 0], [0, 1]])),
         "iota does not map into the kernel of the projection"),
        (golden_extension_with(iota=Matrix(4, 2, [[0, 0], [0, 0], [1, 1], [0, 0]])),
         "iota is not injective"),
        (golden_extension_with(table_cell=(2, 3, 2)), "V is not abelian"),
        (golden_extension_with(table_cell=(0, 2, 0)), "V is not an ideal"),  # g.V
        (golden_extension_with(table_cell=(3, 1, 1)), "V is not an ideal"),  # V.g
        (golden_extension_with(D_cell=(0, 2)), "the derivation does not map V into V"),
    ]
    for ext, message in cases:
        assert is_section(ext, s)
        assert not validate_extension(ext)["ok"]
        for read in (extract_cocycle, induced_base):
            with pytest.raises(ValueError, match=message):
                read(ext, s)


def test_extraction_eliminates_once_not_per_vector(monkeypatch):
    # the reader inverts [s | iota] once: no elimination runs per vector
    # of the blocks it reads
    b = golden_base()
    r = regular_module(b)
    c = coboundary_cocycle(b, r, Matrix(2, 2, [[1, 2], [0, 1]]))
    ext = build_extension(b, r, c)
    s = canonical_section(ext)
    counts = {"sparse_solve": 0, "_reduce": 0}
    for name in counts:
        real = getattr(prelieder.exact_linalg, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(prelieder.exact_linalg, name, counted)
    c2, r2 = extract_cocycle(ext, s)
    assert c2 == c and same_module(r2, r)
    assert counts["sparse_solve"] <= ext.dim_g + ext.dim_v
    assert counts["_reduce"] <= ext.dim_g + ext.dim_v


# ----------------------------------------------------------------------
# classification


def test_classify_iff_cohomologous(bases):
    rng = random.Random(3)
    isomorphic = distinct = 0
    for b in bases[:6]:
        r = regular_module(b)
        dims = SplitDims(b.algebra.dim, r.dim_v)
        d1 = differential_matrix("rep", 1, (b, r))
        d1_cols = [d1.col(j) for j in range(d1.cols)]
        from prelieder.cohomology import _flatten

        for c in cocycles_over(b, r, count=2):
            phi = random_matrix(rng, r.dim_v, b.algebra.dim)
            cb = coboundary_cocycle(b, r, phi)
            shifted = ExtensionCocycle(dims, c.theta + cb.theta, c.xi + cb.xi)
            zeta = classify(b, r, c, shifted)
            assert zeta is not None
            isomorphic += 1

        for c in cocycles_over(b, r, count=4)[1:]:
            vec = _flatten([c.theta, c.xi])
            if in_span(d1_cols, vec):
                continue
            assert classify(b, r, c, ExtensionCocycle.zero(dims)) is None
            distinct += 1
    assert isomorphic >= 6 and distinct >= 1


def test_classify_refuses_non_cocycles():
    b = golden_base()
    r = regular_module(b)
    dims = SplitDims(2, 2)
    theta = [[(1, 0), (0, 0)], [(0, 0), (0, 0)]]
    cand = ExtensionCocycle.from_matrices(dims, theta, Matrix.zeros(2, 2))
    if not is_extension_cocycle(b, r, cand):

        with pytest.raises(ValueError):
            classify(b, r, cand, ExtensionCocycle.zero(dims))


def test_classify_certificate_survives_a_failed_morphism_check(monkeypatch):
    # the morphism certificate is a real check: when it fails, classify
    # raises instead of returning an unverified matrix (even under -O)
    b = golden_base()
    r = regular_module(b)
    cb = coboundary_cocycle(b, r, Matrix(2, 2, [[1, 2], [0, 1]]))
    from prelieder import classify

    monkeypatch.setattr("prelieder.extension.is_morphism", lambda *args: False)
    with pytest.raises(RuntimeError):
        classify(b, r, cb, ExtensionCocycle.zero(SplitDims(2, 2)))


@pytest.mark.parametrize("part, tag", [("V.V", "extension-abelian"), ("Dhat(V)", "extension-derivation")])
def test_build_certificate_refuses_a_faulty_total(part, tag, monkeypatch, capsys):
    # every built extension is validated, not trusted: a total with V.V
    # nonzero or a g-component of Dhat(V) is an internal fault, a
    # RuntimeError naming the failed tag, and ext build exits 3 with one
    # stderr line
    real = prelieder.extension._total

    def total(base, r, c):
        good = real(base, r, c)
        n = good.algebra.dim
        table = [[list(v) for v in row] for row in good.algebra.table]
        D = [list(row) for row in good.D.entries]
        if part == "V.V":
            table[n - 1][n - 1][n - 1] += 1
        else:
            D[0][n - 1] += 1
        return RegularPair(PreLieAlgebra(n, table), Matrix(n, n, D))

    monkeypatch.setattr(prelieder.extension, "_total", total)
    b = golden_base()
    with pytest.raises(RuntimeError, match=tag):
        build_extension(b, regular_module(b), ExtensionCocycle.zero(SplitDims(2, 2)))
    names = ("pair_shift.json", "module_regular.json", "cocycle_zero.json")
    assert cli_run(["ext", "build"] + [str(REPO / "corpus" / name) for name in names]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: RuntimeError: ") and tag in lines[0]


def test_build_certificate_survives_optimize():
    # the certificate is an if statement, not an assert: under python -O a
    # total whose Dhat is no derivation (extension-total) or does not keep
    # V (extension-derivation) still makes build_extension raise
    script = (
        "import prelieder.extension as E\n"
        "from prelieder import ExtensionCocycle, Matrix, PreLieAlgebra, RegularPair, regular_module\n"
        "from prelieder.cochain import SplitDims\n"
        "base = RegularPair(PreLieAlgebra(2, [[[0, 0], [0, 1]], [[0, 0], [0, 0]]]), Matrix(2, 2, [[0, 0], [0, 1]]))\n"
        "real = E._total\n"
        "def faulty(*args):\n"
        "    t = real(*args)\n"
        "    return RegularPair(t.algebra, t.D + bump)\n"
        "E._total = faulty\n"
        "for cell in ((0, 0), (0, 3)):\n"
        "    bump = Matrix(4, 4, [[int((i, j) == cell) for j in range(4)] for i in range(4)])\n"
        "    try:\n"
        "        E.build_extension(base, regular_module(base), ExtensionCocycle.zero(SplitDims(2, 2)))\n"
        "    except RuntimeError as e:\n"
        "        print(str(e).replace(' ', ''))\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    first, second = out.stdout.split()
    assert "'extension-total'" in first and "'extension-derivation'" in second


# ----------------------------------------------------------------------
# structural validation tags


EXTENSION_PARTS = (None, "table", "V.V", "g.V", "V.g", "Dhat", "Dhat(V)", "iota", "proj", "rank", "leak")


def moved_entry(rng: random.Random, ext: AbelianExtension, part) -> AbelianExtension:
    """ext with one entry of the named part moved by a nonzero rational:
    any product coefficient ("table"), a coefficient of V.V, the
    g-component of g.V or of V.g, any entry of Dhat, a g-component of
    Dhat(V), or any entry of iota or proj. "rank" zeroes a row of proj,
    and "leak" adds a row of proj to a column of iota, so that proj iota
    is nonzero."""
    n, dg, dv = ext.total.algebra.dim, ext.dim_g, ext.dim_v
    table = [[list(v) for v in row] for row in ext.total.algebra.table]
    D, iota, proj = ([list(row) for row in m.entries] for m in (ext.total.D, ext.iota, ext.proj))
    g, V, every = range(dg), range(dg, n), range(n)
    step = rng.choice((1, -1, Fraction(1, 2), -2))
    cells = {"table": (every, every, every), "V.V": (V, V, every), "g.V": (g, V, g), "V.g": (V, g, g)}
    if part in cells:
        i, j, k = (rng.choice(r) for r in cells[part])
        table[i][j][k] += step
    elif part in ("Dhat", "Dhat(V)"):
        rows, cols = (every, every) if part == "Dhat" else (g, V)
        D[rng.choice(rows)][rng.choice(cols)] += step
    elif part == "iota":
        iota[rng.randrange(n)][rng.randrange(dv)] += step
    elif part == "proj":
        proj[rng.randrange(dg)][rng.randrange(n)] += step
    elif part == "rank":
        proj[rng.randrange(dg)] = [0] * n
    elif part == "leak":
        u, r = rng.randrange(dv), rng.randrange(dg)
        for k in every:
            iota[k][u] += proj[r][k]
    total = RegularPair(PreLieAlgebra(n, table), Matrix(n, n, D))
    return AbelianExtension(total, Matrix(n, dv, iota), Matrix(dg, n, proj))


@pytest.fixture(scope="module")
def built(bases):
    return [build_extension(b, r, c) for b in bases for r in modules_over(b) for c in cocycles_over(b, r, count=2)]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(EXTENSION_PARTS), st.booleans())
@example(0, None, True)
@example(0, "V.g", False)
@example(0, "leak", True)
def test_extension_tags_match_the_reference(built, seed, part, conjugate):
    # a built extension, one entry moved in standard coordinates, then
    # read there or in the coordinates y = P x; where the input is exact
    # the block reader refuses it for the first failed layout tag
    rng = random.Random(seed)
    ext = moved_entry(rng, rng.choice(built), part)
    if conjugate:
        ext = conjugated(ext, invertible_integer_matrix(rng, ext.total.algebra.dim))
    want = extension_reference(ext)
    assert validate_extension(ext)["failed"] == want
    if "extension-exact" in want:
        return
    layout = [tag for tag in want if tag in _LAYOUT_REFUSALS]
    s = canonical_section(ext)
    if layout:
        with pytest.raises(ValueError, match=re.escape(_LAYOUT_REFUSALS[layout[0]])):
            extract_cocycle(ext, s)
    else:
        extract_cocycle(ext, s)


def test_validate_extension_tag_granularity():
    b = golden_base()
    r = regular_module(b)
    ext = build_extension(b, r, ExtensionCocycle.zero(SplitDims(2, 2)))
    total, iota, proj = ext.total, ext.iota, ext.proj
    a = total.algebra

    def with_table(mutate):
        table = [[list(v) for v in row] for row in a.table]
        mutate(table)
        return PreLieAlgebra(4, table)

    # derivation no longer compatible: the total tag fires
    bad_d = RegularPair(a, total.D + Matrix(4, 4, [
        [1 if (i, j) == (0, 0) else 0 for j in range(4)] for i in range(4)
    ]))
    report = validate_extension(AbelianExtension(bad_d, iota, proj))
    assert "extension-total" in report["failed"]

    # projection of rank 1 breaks exactness
    flat = Matrix(2, 4, [[1, 0, 0, 0], [0, 0, 0, 0]])
    report = validate_extension(AbelianExtension(total, iota, flat))
    assert "extension-exact" in report["failed"]

    # V times V lands in V: abelian fails, ideal still holds
    def vv(table):
        table[2][2][2] = 1

    report = validate_extension(AbelianExtension(RegularPair(with_table(vv), total.D), iota, proj))
    assert "extension-abelian" in report["failed"]
    assert "extension-ideal" not in report["failed"]

    # g times V sticks out of V: ideal fails
    def gv(table):
        table[0][2][0] = 1

    report = validate_extension(AbelianExtension(RegularPair(with_table(gv), total.D), iota, proj))
    assert "extension-ideal" in report["failed"]

    # derivation maps V outside V
    leak = Matrix(4, 4, [
        [1 if (i, j) == (0, 2) else 0 for j in range(4)] for i in range(4)
    ])
    report = validate_extension(AbelianExtension(RegularPair(a, total.D + leak), iota, proj))
    assert "extension-derivation" in report["failed"]

    # golden extension with a visible cocycle: the classify matrix blocks
    phi = Matrix(2, 2, [[1, 2], [0, 1]])
    cb = coboundary_cocycle(b, r, phi)
    from prelieder import classify

    zeta = classify(b, r, cb, ExtensionCocycle.zero(SplitDims(2, 2)))
    assert zeta is not None
    for i in range(2):
        for j in range(2):
            assert zeta.entries[i][j] == (1 if i == j else 0)
            assert zeta.entries[2 + i][2 + j] == (1 if i == j else 0)
    # the lower-left block is some primitive of the same coboundary;
    # d1 has a kernel here, so it need not equal phi itself
    solved = Matrix(2, 2, [list(zeta.row(2))[:2], list(zeta.row(3))[:2]])
    back = coboundary_cocycle(b, r, solved)
    assert back.theta == cb.theta and back.xi == cb.xi


def test_shape_checks_are_value_errors_under_optimize():
    # python -O strips assert statements; the shape checks of modules,
    # extension cocycles and extensions must not be asserts
    script = (
        "from prelieder import (AbelianExtension, DerPairRepresentation, ExtensionCocycle, Matrix,\n"
        "    PreLieAlgebra, RegularPair, TwoSlotCochain, derpair_representation_report)\n"
        "from prelieder.cochain import MixedMap, MixedShape, SplitDims\n"
        "from prelieder.cohomology import COMPLEXES, _unflatten\n"
        "shift = PreLieAlgebra(2, [[[0, 0], [0, 1]], [[0, 0], [0, 0]]])\n"
        "base = RegularPair(shift, Matrix.zeros(2, 2))\n"
        "z1, z2 = Matrix.zeros(1, 1), Matrix.zeros(2, 2)\n"
        "dims = SplitDims(2, 1)\n"
        "theta = MixedMap(dims, MixedShape(1, 0, 'g'), 'v')\n"
        "xi = MixedMap(dims, MixedShape(0, 0, 'g'), 'v')\n"
        "cases = [\n"
        "    lambda: DerPairRepresentation(1, z2, [z1, z1], [z1, z1]),\n"
        "    lambda: DerPairRepresentation(1, z1, [z1, z2], [z1, z1]),\n"
        "    lambda: DerPairRepresentation(1, z1, [z1, z1], [z1]),\n"
        "    lambda: derpair_representation_report(base, DerPairRepresentation(1, z1, [z1], [z1])),\n"
        "    lambda: ExtensionCocycle(dims, xi, xi),\n"
        "    lambda: ExtensionCocycle(dims, theta, theta),\n"
        "    lambda: ExtensionCocycle(SplitDims(2, 2), theta, xi),\n"
        "    lambda: TwoSlotCochain(SplitDims(2, 2), 2, 'v', theta, xi),\n"
        "    lambda: AbelianExtension(base, Matrix(3, 1, [[0], [0], [1]]), Matrix(1, 2, [[1, 0]])),\n"
        "    lambda: AbelianExtension(base, Matrix(2, 1, [[0], [1]]), Matrix(2, 2, [[1, 0], [0, 1]])),\n"
        "]\n"
        "for bad in cases:\n"
        "    try:\n"
        "        bad()\n"
        "    except ValueError as e:\n"
        "        print(type(e).__name__)\n"
        "    else:\n"
        "        print('accepted')\n"
        # a wrong coordinate count is an internal fault, never a ValueError,
        # also for a short vector whose cut-off last chunk is nonzero
        "for d, vec in ((dims, [0] * 5), (SplitDims(2, 2), [0] * 10 + [1])):\n"
        "    try:\n"
        "        _unflatten(d, COMPLEXES['rep'].specs(2), vec)\n"
        "    except RuntimeError as e:\n"
        "        print(type(e).__name__)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ValueError"] * 10 + ["RuntimeError"] * 2
