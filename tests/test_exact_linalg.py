import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prelieder import Matrix, kernel_basis, rank, rref, solve
from prelieder.exact_linalg import (
    _copy,
    _reduce,
    columns_matrix,
    sparse_kernel,
    sparse_matvec,
    sparse_rank,
    sparse_solve,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)

from oracles import in_span, sympy_matrix, sympy_nullity, sympy_rank, sympy_solve

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    ent = draw(
        st.lists(
            st.lists(fractions, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix(rows, cols, ent)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_sympy(m):
    assert rank(m) == sympy_rank(m)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_is_exact_nullspace(m):
    basis = kernel_basis(m)
    assert len(basis) == sympy_nullity(m)
    for v in basis:
        assert all(x == 0 for x in m.matvec(v))
    # independence: stacking the kernel vectors as columns gives full rank
    if basis:
        k = Matrix(m.cols, len(basis), [[v[r] for v in basis] for r in range(m.cols)])
        assert rank(k) == len(basis)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_finds_solutions_exactly_when_consistent(m, data):
    # build b either from the column space or at random
    if data.draw(st.booleans()) and m.cols > 0:
        x = data.draw(st.lists(fractions, min_size=m.cols, max_size=m.cols))
        b = m.matvec(x)
        s = solve(m, b)
        assert s is not None
        assert tuple(m.matvec(s)) == tuple(b)
    else:
        b = tuple(data.draw(st.lists(fractions, min_size=m.rows, max_size=m.rows)))
        s = solve(m, b)
        if s is None:
            # inconsistent: the augmented matrix must gain rank
            aug = Matrix(m.rows, m.cols + 1, [list(r) + [b[i]] for i, r in enumerate(m.entries)])
            assert sympy_rank(aug) == sympy_rank(m) + 1
        else:
            assert tuple(m.matvec(s)) == tuple(b)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_matches_sympy(m):
    r, rk, pivots = rref(m)
    want, want_pivots = sympy_matrix(m).rref()
    assert sympy_matrix(r) == want
    assert tuple(pivots) == tuple(want_pivots)
    assert rk == len(pivots)


@st.composite
def sparse_matrices(draw, max_rows=12, max_cols=14):
    """At least 80% zeros; zero rows and columns come up often, and so do
    0 x n and n x 0. Big enough for fill-in and for back-substitution
    into earlier pivot rows."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    picked = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 5)) if cells else set()
    ent = [[Fraction(0)] * cols for _ in range(rows)]
    for i, j in picked:
        ent[i][j] = draw(fractions.filter(bool))
    return Matrix(rows, cols, ent)


@settings(max_examples=120, deadline=None)
@given(sparse_matrices())
def test_sparse_rref_matches_sympy(m):
    before = [list(row) for row in m.entries]
    r, rk, pivots = rref(m)
    assert [list(row) for row in m.entries] == before
    assert (r.rows, r.cols) == (m.rows, m.cols)
    if m.rows and m.cols:
        want, want_pivots = sympy_matrix(m).rref()
        assert sympy_matrix(r) == want
    else:
        want_pivots = ()
        assert r.is_zero()
    assert tuple(pivots) == tuple(want_pivots)
    assert rk == len(pivots)


@settings(max_examples=120, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_rank_is_the_forward_phase_of_rref(m, rnd):
    rk = rank(m)
    assert rk == rref(m)[1] == sympy_rank(m)
    # the same rows in sparse form, with some zero cells kept as explicit zeros
    rows = [{j: x for j, x in enumerate(row) if x or rnd.random() < 0.3} for row in m.entries]
    copy = [dict(r) for r in rows]
    assert sparse_rank(rows, m.cols) == rk
    assert rows == copy


@settings(max_examples=120, deadline=None)
@given(sparse_matrices(), st.data())
def test_sparse_kernel_solve_and_matvec_match_the_dense_adapters(m, data):
    # the same rows in sparse form, with some zero cells kept as explicit zeros
    rnd = data.draw(st.randoms(use_true_random=False))
    rows = [{j: x for j, x in enumerate(row) if x or rnd.random() < 0.3} for row in m.entries]
    copy = [dict(r) for r in rows]
    v = data.draw(st.lists(fractions, min_size=m.cols, max_size=m.cols))
    b = m.matvec(v) if data.draw(st.booleans()) else data.draw(
        st.lists(fractions, min_size=m.rows, max_size=m.rows)
    )
    assert sparse_matvec(rows, v) == m.matvec(v)
    assert sparse_kernel(rows, m.cols) == kernel_basis(m)
    assert sparse_solve(rows, m.cols, b) == solve(m, b)
    assert rows == copy


WIDE = 2**64
# int and Fraction entries with numerators and denominators up to 2^64;
# zeros of both types are kept as explicit entries
wide_entries = st.one_of(
    st.sampled_from([0, Fraction(0)]),
    st.integers(-WIDE, WIDE),
    st.builds(Fraction, st.integers(-WIDE, WIDE), st.integers(1, WIDE)),
)


@st.composite
def wide_rows(draw, max_dim=6):
    """(rows as {column: entry}, cols): either free entries or the product of
    two wide factors through a smaller inner dimension, so that the rank
    falls short and elimination must cancel products of 2^64-sized numbers
    exactly, with the content of the rows growing before it is divided out."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))

    def block(r, c):
        return [[draw(wide_entries) for _ in range(c)] for _ in range(r)]

    if draw(st.booleans()):
        ent = block(rows, cols)
    else:
        inner = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
        a, b = block(rows, inner), block(inner, cols)
        ent = [[sum((a[i][k] * b[k][j] for k in range(inner)), 0) for j in range(cols)] for i in range(rows)]
        # mix the types back in: whole-number products become ints
        ent = [[int(x) if Fraction(x).denominator == 1 else x for x in row] for row in ent]
    return [dict(enumerate(row)) for row in ent], cols


def _sympy_kernel(m: Matrix) -> list:
    """sympy's nullspace: the free variable 1, the others 0, as Fractions."""
    if m.rows == 0:
        return [tuple(Fraction(int(i == j)) for i in range(m.cols)) for j in range(m.cols)]
    return [tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in sympy_matrix(m).nullspace()]


@settings(max_examples=120, deadline=None)
@given(wide_rows(), st.data())
def test_wide_coefficients_match_sympy(rc, data):
    rows, cols = rc
    copy = [dict(r) for r in rows]
    m = Matrix(len(rows), cols, [[r[j] for j in range(cols)] for r in rows])
    rk = sympy_rank(m)
    assert rank(m) == sparse_rank(rows, cols) == rk
    r, rk_r, pivots = rref(m)
    assert rk_r == rk
    if m.rows and m.cols:
        want, want_pivots = sympy_matrix(m).rref()
        assert sympy_matrix(r) == want
        assert pivots == tuple(want_pivots)
    kernel = _sympy_kernel(m)
    assert kernel_basis(m) == sparse_kernel(rows, cols) == kernel
    x = data.draw(st.lists(wide_entries, min_size=cols, max_size=cols))
    b = m.matvec(x) if data.draw(st.booleans()) else data.draw(
        st.lists(wide_entries, min_size=m.rows, max_size=m.rows)
    )
    assert sparse_matvec(rows, x) == m.matvec(x)
    want = sympy_solve(m, b)
    assert solve(m, b) == sparse_solve(rows, cols, b) == want
    assert rows == copy


FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__abs__",
)


def _no_fraction_arithmetic(*args):
    raise AssertionError("Fraction arithmetic in the elimination kernel")


@settings(max_examples=80, deadline=None)
@given(wide_rows(), st.lists(wide_entries, min_size=6, max_size=6))
def test_kernel_runs_on_primitive_integer_rows(rc, b):
    rows, cols = rc
    b = b[: len(rows)]
    m = Matrix(len(rows), cols, [[r[j] for j in range(cols)] for r in rows])
    want = (rank(m), rref(m), kernel_basis(m), solve(m, b), sparse_kernel(rows, cols), sparse_solve(rows, cols, b))
    # the entry copy: each nonzero row times a rational, an integer row of content 1
    ints = _copy(rows)
    nonzero = [r for r in rows if any(r.values())]
    assert len(ints) == len(nonzero)
    for src, row in zip(nonzero, ints):
        assert row.keys() == {k for k, x in src.items() if x}
        assert all(type(x) is int for x in row.values()) and gcd(*row.values()) == 1
        k = next(iter(row))
        assert all(row[j] * Fraction(src[k]) == row[k] * Fraction(src[j]) for j in row)
    pivots, reduced = _reduce(ints, cols)
    for c, row in zip(pivots, reduced):
        assert all(type(x) is int for x in row.values()) and gcd(*row.values()) == 1
        assert not any(j in row for j in pivots if j != c)
    # with every Fraction operator disabled, ranks, reduced forms, kernels
    # and solves still come out: Fractions are only built, at read-off
    with pytest.MonkeyPatch.context() as mp:
        for name in FRACTION_ARITHMETIC:
            mp.setattr(Fraction, name, _no_fraction_arithmetic)
        got = (rank(m), rref(m), kernel_basis(m), solve(m, b), sparse_kernel(rows, cols), sparse_solve(rows, cols, b))
    assert got == want


def test_sparse_rank_takes_explicit_zeros_and_cancelling_rows():
    z, half = Fraction(0), Fraction(1, 2)
    # explicit zeros in the pivot column: neither row may become its pivot
    assert sparse_rank([{0: z, 2: Fraction(1)}, {0: z, 1: Fraction(3)}, {0: z}, {}], 3) == 2
    # row 1 is twice row 0 and row 3 is row 1 plus row 2: rank 2
    rows = [
        {0: half, 1: Fraction(1)},
        {0: Fraction(1), 1: Fraction(2)},
        {1: Fraction(3), 2: Fraction(-1)},
        {0: Fraction(1), 1: Fraction(5), 2: Fraction(-1), 3: z},
    ]
    assert sparse_rank(rows, 4) == 2
    assert sparse_rank(rows[:2], 4) == 1
    # int entries: row 1 is row 0 over 3, which a float pivot inverse 1 / 3 misses
    assert sparse_rank([{0: 3, 1: 5}, {0: 1, 1: Fraction(5, 3)}], 2) == 1
    assert sparse_rank([], 5) == 0
    # rows of ints, as differentials are assembled: only the zeros and the
    # content go, and explicit zeros are no pivots either
    assert _copy([{0: 4, 1: 0, 2: -6}, {1: 0}, {}, {3: -7}]) == [{0: 2, 2: -3}, {3: -1}]
    assert sparse_rank([{0: 0, 2: 1}, {0: 0, 1: 3}, {0: 0}, {}], 3) == 2
    # a row of nonzero ints is copied whole: the copy is divided by its
    # content, the row the caller keeps is not
    kept = [{0: 4, 2: -6}, {1: 5}]
    copies = _copy(kept)
    assert copies == [{0: 2, 2: -3}, {1: 1}]
    assert kept == [{0: 4, 2: -6}, {1: 5}] and all(c is not r for c, r in zip(copies, kept))


def test_shape_errors_are_value_errors():
    with pytest.raises(ValueError):
        Matrix(2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        Matrix(-1, 0, [])
    a = Matrix(2, 3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        a + Matrix.identity(2)
    with pytest.raises(ValueError):
        a * a
    with pytest.raises(ValueError):
        a.matvec([1, 2])
    with pytest.raises(ValueError):
        solve(a, [1, 2, 3])
    with pytest.raises(ValueError):
        columns_matrix([(1, 2), (1, 2, 3)], 2)


def test_shape_and_float_checks_survive_optimize():
    # python -O strips assert statements; these checks must not be asserts
    script = (
        "from prelieder import Matrix\n"
        "for bad in ([[1, 2], [3]], [[1, 2.0], [3, 4]]):\n"
        "    try:\n"
        "        Matrix(2, 2, bad)\n"
        "    except (ValueError, TypeError) as e:\n"
        "        print(type(e).__name__)\n"
        "    else:\n"
        "        print('accepted')\n"
        "from prelieder import PreLieAlgebra, RegularPair, cohomology_dim\n"
        "shift = PreLieAlgebra(2, [[[0, 0], [0, 1]], [[0, 0], [0, 0]]])\n"
        "try:\n"
        "    cohomology_dim('regular', 0, RegularPair(shift, Matrix.zeros(2, 2)))\n"
        "except ValueError as e:\n"
        "    print(type(e).__name__)\n"
        "else:\n"
        "    print('accepted')\n"
        "from prelieder import TwoSlotCochain, huaD_reg\n"
        "from prelieder.cochain import SplitDims\n"
        "v_valued = TwoSlotCochain.zero(SplitDims(2, 2), 2, 'v')\n"
        "try:\n"
        "    huaD_reg(RegularPair(shift, Matrix.zeros(2, 2)), v_valued)\n"
        "except ValueError as e:\n"
        "    print(type(e).__name__)\n"
        "else:\n"
        "    print('accepted')\n"
        "from prelieder import mn_bracket\n"
        "from prelieder.cochain import Cochain\n"
        "for bad in (\n"
        "    lambda: PreLieAlgebra(2, [[[0, 0], [0]], [[0, 0], [0, 0]]]),\n"
        "    lambda: mn_bracket(Cochain(SplitDims(2, 1), 2), Cochain(SplitDims(1, 2), 2)),\n"
        "):\n"
        "    try:\n"
        "        bad()\n"
        "    except ValueError as e:\n"
        "        print(type(e).__name__)\n"
        "    else:\n"
        "        print('accepted')\n"
        "from prelieder import AbelianExtension, canonical_section, extract_cocycle\n"
        "nilpotent = PreLieAlgebra(2, [[[0, 0], [0, 0]], [[0, 0], [1, 0]]])\n"
        "total = RegularPair(nilpotent, Matrix.zeros(2, 2))\n"
        "# iota does not span the kernel of proj; then proj is not onto g\n"
        "skew = AbelianExtension(total, Matrix(2, 1, [[1], [1]]), Matrix(1, 2, [[0, 1]]))\n"
        "flat = AbelianExtension(total, Matrix(2, 1, [[1], [0]]), Matrix(1, 2, [[0, 0]]))\n"
        "# e1 . e1 = e0 is nonzero with V spanned by e1: V is not abelian\n"
        "stray = AbelianExtension(total, Matrix(2, 1, [[0], [1]]), Matrix(1, 2, [[1, 0]]))\n"
        "for bad in (\n"
        "    lambda: extract_cocycle(skew, canonical_section(skew)),\n"
        "    lambda: canonical_section(flat),\n"
        "    lambda: extract_cocycle(stray, canonical_section(stray)),\n"
        "):\n"
        "    try:\n"
        "        bad()\n"
        "    except ValueError as e:\n"
        "        print(type(e).__name__)\n"
        "    else:\n"
        "        print('accepted')\n"
        "# a nonzero column map of structure constants, as its flat entries,\n"
        "# with a coefficient other than a sign\n"
        "from prelieder.cochain import MixedShape\n"
        "from prelieder.cohomology import _assemble, _lay_out\n"
        "plan = _lay_out(SplitDims(1, 1), [(MixedShape(0, 0, 'g'), 'g')])\n"
        "term = lambda key: [(0, (), (), key[2], 2, ((0, 0, 1),))]\n"
        "try:\n"
        "    _assemble(plan, plan, [term])\n"
        "except RuntimeError as e:\n"
        "    print(type(e).__name__)\n"
        "else:\n"
        "    print('accepted')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ValueError", "TypeError"] + ["ValueError"] * 7 + ["RuntimeError"]


def test_empty_shapes():
    e = Matrix(0, 3, [])
    assert rank(e) == 0
    assert len(kernel_basis(e)) == 3
    assert solve(e, ()) is not None
    t = Matrix(3, 0, [[], [], []])
    assert rank(t) == 0
    assert solve(t, (0, 0, 0)) == ()
    assert solve(t, (1, 0, 0)) is None


def test_matrix_algebra_identities():
    rng = Random(3)
    a = Matrix(3, 3, [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
    b = Matrix(3, 3, [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
    c = Matrix(3, 3, [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    i = Matrix.identity(3)
    assert a * i == a and i * a == a
    v = (Fraction(1), Fraction(-2), Fraction(3))
    assert (a * b).matvec(v) == a.matvec(b.matvec(v))


def test_matvec_agrees_with_one_column_product():
    rng = Random(5)
    m = Matrix(3, 4, [[Fraction(rng.randint(-3, 3), 2) for _ in range(4)] for _ in range(3)])
    for v in ([0, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [3, 0, 0, "-1/3"], (1, 2, 3, 4)):
        expected = (m * Matrix(4, 1, [[x] for x in v])).col(0)
        assert m.matvec(v) == expected
        assert all(isinstance(x, Fraction) for x in m.matvec(v))
    assert m.matvec([0, 0, 0, 0]) == (0, 0, 0)
    assert Matrix(2, 0, [[], []]).matvec([]) == (0, 0)
    assert Matrix(0, 3, []).matvec([1, 0, 2]) == ()
    # floats are refused even where the entry is zero and would be skipped
    with pytest.raises(TypeError):
        m.matvec([0, 1.0, 0, 0])
    with pytest.raises(TypeError):
        m.matvec([0.0, 0, 0, 0])


def test_vector_helpers():
    v = (Fraction(1), Fraction(2))
    w = (Fraction(3), Fraction(-1))
    assert vec_add(v, w) == (4, 1)
    assert vec_sub(v, w) == (-2, 3)
    assert vec_scale(Fraction(1, 2), v) == (Fraction(1, 2), 1)
    assert zero_vec(2) == (0, 0)


def test_in_span():
    cols = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    assert in_span(cols, (Fraction(5), Fraction(2)))
    assert not in_span([(Fraction(1), Fraction(0))], (Fraction(0), Fraction(1)))
    assert in_span([], (Fraction(0), Fraction(0)))
    assert not in_span([], (Fraction(1), Fraction(0)))


def test_immutability():
    m = Matrix(1, 1, [[1]])
    with pytest.raises(AttributeError):
        m.rows = 2
