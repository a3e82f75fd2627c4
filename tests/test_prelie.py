from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prelieder import (
    DerPair,
    Matrix,
    PreLieAlgebra,
    RegularPair,
    Representation,
    derivation_cochain,
    is_derivation,
    is_derpair,
    is_morphism,
    is_prelie,
    is_regular_pair,
    is_representation,
    regular_representation,
    representation_report,
    structure_cochain,
    subadjacent_lie,
)
from prelieder.cochain import bidegree_of, theta_component
from prelieder.prelie import morphism_sides

from conftest import (
    ALGEBRAS,
    abelian_algebra,
    derivation_space,
    direct_sum,
    dual_numbers,
    idempotent_line,
    random_matrix,
    rational,
    rebased_pair,
    shift_algebra,
    triangular_algebra,
    unipotent,
    zero_representation,
)
from oracles import bracket_vec, left_symmetric_reference, prod_reference


def test_corpus_algebras_are_prelie():
    for a in ALGEBRAS:
        assert is_prelie(a)


def test_non_prelie_detected():
    # e1.e1 = e2, e2.e1 = e1 fails left symmetry
    a = PreLieAlgebra(2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
    assert not is_prelie(a)


def transported_table(a, t, t_inv):
    """Structure constants of a in the basis f_i = sum_m t[m][i] e_m."""
    n = a.dim
    return [
        [
            [
                sum(
                    t_inv.entries[r][m] * t.entries[x][i] * t.entries[y][j] * a.prod_basis(x, y)[m]
                    for x in range(n)
                    for y in range(n)
                    for m in range(n)
                )
                for r in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def test_is_prelie_matches_dense_reference():
    rng = Random(42)
    seen = set()
    bases = [abelian_algebra(0), *ALGEBRAS]
    bases += [direct_sum(triangular_algebra(), idempotent_line(1)), direct_sum(shift_algebra(), dual_numbers())]
    tables = []
    for a in bases:
        for _ in range(4):
            # dense pre-Lie tables, then one entry perturbed
            t, t_inv = unipotent(rng, a.dim)
            tab = transported_table(a, t, t_inv)
            tables.append([[list(v) for v in row] for row in tab])
            if a.dim:
                i, j, k = (rng.randrange(a.dim) for _ in range(3))
                tab[i][j][k] += rng.choice((1, -1, Fraction(1, 2)))
                tables.append(tab)
    for n in range(5):
        for density in (0.1, 0.3, 0.8):
            for _ in range(6):
                # explicit Fraction(0) entries sit among int zeros
                tables.append([
                    [
                        [rational(rng) if rng.random() < density else rng.choice((0, Fraction(0))) for _ in range(n)]
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ])
    for tab in tables:
        n = len(tab)
        want = left_symmetric_reference(n, tab)
        assert is_prelie(PreLieAlgebra(n, tab)) == want, tab
        seen.add((n, want))
    assert {(n, v) for n in range(2, 5) for v in (True, False)} <= seen


def test_subadjacent_lie_satisfies_jacobi():
    for a in ALGEBRAS:
        dim = a.dim

        def nested(i, j, k):
            # [[e_i, e_j], e_k], expanding the inner bracket over the basis
            inner = bracket_vec(a, i, j)
            out = [Fraction(0)] * dim
            for p, c in enumerate(inner):
                if c != 0:
                    for t, x in enumerate(bracket_vec(a, p, k)):
                        out[t] += c * x
            return out

        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    s, t, u = nested(i, j, k), nested(j, k, i), nested(k, i, j)
                    assert all(x + y + z == 0 for x, y, z in zip(s, t, u))


def test_subadjacent_lie_table():
    a = shift_algebra()
    lie = subadjacent_lie(a)
    # [e1,e2] = e1.e2 - e2.e1 = e2
    assert lie[0][1] == (0, 1)
    assert lie[1][0] == (0, -1)
    assert lie[0][0] == (0, 0)


def test_regular_representation_is_representation():
    for a in ALGEBRAS:
        assert is_representation(a, regular_representation(a))


def test_zero_representation_is_representation():
    for a in ALGEBRAS:
        for dv in (1, 2):
            assert is_representation(a, zero_representation(a, dv))


def test_representation_report_tags():
    a = shift_algebra()
    # rho violating the bracket axiom only
    rho = [Matrix(1, 1, [[0]]), Matrix(1, 1, [[1]])]
    mu = [Matrix(1, 1, [[0]]), Matrix(1, 1, [[0]])]
    rep = Representation(1, rho, mu)
    r = representation_report(a, rep)
    assert not r["ok"] and "rep-axiom-1" in r["failed"]
    # mu violating the mixed axiom only: mu(e1) nilpotent fails mu(y)mu(x) = mu(x.y)
    rho2 = [Matrix(1, 1, [[1]]), Matrix(1, 1, [[0]])]
    mu2 = [Matrix(1, 1, [[1]]), Matrix(1, 1, [[0]])]
    r2 = representation_report(a, Representation(1, rho2, mu2))
    assert set(r2["failed"]) <= {"rep-axiom-1", "rep-axiom-2"}
    ok = representation_report(a, regular_representation(a))
    assert ok == {"ok": True, "failed": []}


def test_derivation_space_dimensions_and_validity():
    rng = Random(44)
    for a in ALGEBRAS:
        reg = regular_representation(a)
        basis = derivation_space(a, reg.rho, reg.mu, a.dim)
        for d in basis:
            assert is_regular_pair(RegularPair(a, d))
    # abelian: every matrix is a derivation
    ab = abelian_algebra(2)
    reg = regular_representation(ab)
    assert len(derivation_space(ab, reg.rho, reg.mu, 2)) == 4


def test_derivation_rejects_non_derivations():
    a = shift_algebra()
    # D(e1) = e1 violates D(e1.e2) = D(e1).e2 + e1.D(e2) with D(e2)=0
    D = Matrix(2, 2, [[1, 0], [0, 0]])
    assert not is_regular_pair(RegularPair(a, D))


def test_derpair_validator_combines_all_axioms():
    a = dual_numbers()
    rep = zero_representation(a, 1)
    good = DerPair(a, rep, Matrix(1, 2, [[0, 0]]))
    assert is_derpair(good)
    # nonzero D into the zero rep must kill products; D(e2) != 0 breaks it
    bad = DerPair(a, rep, Matrix(1, 2, [[0, 1]]))
    assert not is_derpair(bad)
    assert not is_derivation(bad)


def test_is_morphism_identity_and_conjugation():
    a = triangular_algebra()
    p = RegularPair(a, Matrix.zeros(3, 3)).to_derpair()
    eye = Matrix.identity(3)
    assert is_morphism(eye, eye, p, p)
    # a non-equivariant map is rejected
    bad = Matrix(3, 3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert not is_morphism(bad, bad, p, p)


def test_is_morphism_checks_each_identity(pair_corpus):
    # a rebased copy is isomorphic to its pair through the change of basis;
    # disturbing one structure map of the target breaks exactly the
    # identity that reads it (product, rho, mu, D in morphism_sides order)
    rng = Random(46)
    p = next(
        q
        for q in pair_corpus
        if q.algebra.dim >= 2
        and not q.D.is_zero()
        and any(not m.is_zero() for m in q.rep.rho + q.rep.mu)
    )
    dg, dv = p.dims.dim_g, p.dims.dim_v
    t, t_inv = unipotent(rng, dg)
    s, s_inv = unipotent(rng, dv)
    q = rebased_pair(p, t, t_inv, s, s_inv)
    assert q.algebra != p.algebra
    assert is_morphism(t, s, q, p)
    assert is_morphism(t_inv, s_inv, p, q)

    def unit(rows, cols):
        return Matrix(rows, cols, [[int(r == c == 0) for c in range(cols)] for r in range(rows)])

    def bump(mats):
        return [mats[0] + unit(dv, dv)] + list(mats[1:])

    table = [[list(p.algebra.prod_basis(i, j)) for j in range(dg)] for i in range(dg)]
    table[0][1][0] += 1
    rho, mu = p.rep.rho, p.rep.mu
    broken = [
        DerPair(PreLieAlgebra(dg, table), p.rep, p.D),
        DerPair(p.algebra, Representation(dv, bump(rho), mu), p.D),
        DerPair(p.algebra, Representation(dv, rho, bump(mu)), p.D),
        DerPair(p.algebra, p.rep, p.D + unit(dv, dg)),
    ]
    for k, dst in enumerate(broken):
        assert not is_morphism(t, s, q, dst)
        holds = [lhs == rhs for lhs, rhs in morphism_sides(t, s, q, dst)]
        assert holds == [j != k for j in range(4)]


def test_structure_cochain_bidegree_and_content():
    a = shift_algebra()
    p = RegularPair(a, Matrix(2, 2, [[0, 0], [0, 1]])).to_derpair()
    m = structure_cochain(p)
    assert m.arity == 2
    assert bidegree_of(m) == (1, 0)
    dc = derivation_cochain(p)
    assert dc.arity == 1
    assert bidegree_of(dc) == (1, -1)
    th = theta_component(dc)
    assert th.eval_local((), (), 1) == tuple(p.D.col(1))


def test_prod_and_mult_matrices_agree():
    rng = Random(45)
    for a in ALGEBRAS:
        for i in range(a.dim):
            L = a.left_mult(i)
            R = a.right_mult(i)
            for j in range(a.dim):
                ej = tuple(Fraction(1) if t == j else Fraction(0) for t in range(a.dim))
                assert L.matvec(ej) == a.prod_basis(i, j)
                assert R.matvec(ej) == a.prod_basis(j, i)


def _sparse_matrix(rng: Random, rows: int, cols: int) -> Matrix:
    """A random rational matrix with about half its entries zero and,
    when it has two columns or more, one zero column."""
    entries = [[rational(rng) if rng.random() < 0.5 else 0 for _ in range(cols)] for _ in range(rows)]
    if cols > 1:
        zero = rng.randrange(cols)
        for row in entries:
            row[zero] = 0
    return Matrix(rows, cols, entries)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@example(0, 0, 2, 1)
@example(0, 3, 0, 2)
def test_products_match_the_dense_product(seed, n, p, q):
    # every product of a column of X with a column of Y, rectangular and
    # empty shapes included, against the dense expansion over all basis pairs
    rng = Random(seed)
    table = [[[rational(rng) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)] for _ in range(n)]
    a = PreLieAlgebra(n, table)
    X, Y = _sparse_matrix(rng, n, p), _sparse_matrix(rng, n, q)
    out = a.products(X, Y)
    assert out == [[prod_reference(a, X.col(i), Y.col(j)) for j in range(q)] for i in range(p)]
    assert all(type(x) is Fraction for row in out for v in row for x in v)
    with pytest.raises(ValueError):
        a.products(Matrix.zeros(n + 1, p), Y)


def test_representation_rejects_shape_mismatch():
    a = shift_algebra()
    with pytest.raises(ValueError):
        Representation(2, [Matrix.zeros(1, 1)] * 2, [Matrix.zeros(2, 2)] * 2)
