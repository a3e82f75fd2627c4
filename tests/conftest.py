"""Shared structure generators.

Everything is deterministic: generators take a random.Random seeded by
the caller, and module-level corpora are built once per session with
fixed seeds. Pair families cover algebra dimensions 1 to 3 and module
dimensions 1 to 2, mixing regular pairs and pairs with genuine module
coefficients.
"""

from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from prelieder import (
    DerPair,
    Matrix,
    PreLieAlgebra,
    RegularPair,
    Representation,
    is_derpair,
    is_prelie,
    kernel_basis,
    regular_representation,
    solve,
)
from prelieder.cochain import Cochain, MixedMap, SplitDims, mixed_space_dim
from prelieder.spaces import wedge_tail_basis

from oracles import prod_reference

REPO = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO / "corpus"


def rational(rng: Random, span: int = 3) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.choice((1, 1, 2))
    return Fraction(num, den)


def random_vec(rng: Random, n: int) -> tuple:
    return tuple(rational(rng) for _ in range(n))


def random_matrix(rng: Random, rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [[rational(rng) for _ in range(cols)] for _ in range(rows)])


# ----------------------------------------------------------------------
# algebra families


def abelian_algebra(dim: int) -> PreLieAlgebra:
    z = [[([0] * dim) for _ in range(dim)] for _ in range(dim)]
    return PreLieAlgebra(dim, z)


def idempotent_line(alpha) -> PreLieAlgebra:
    """One-dimensional algebra e.e = alpha e (pre-Lie for every alpha)."""
    return PreLieAlgebra(1, [[[alpha]]])


def shift_algebra() -> PreLieAlgebra:
    """e1.e2 = e2, all other products zero."""
    return PreLieAlgebra(2, [[[0, 0], [0, 1]], [[0, 0], [0, 0]]])


def dual_numbers() -> PreLieAlgebra:
    """e1.e1 = e2, all other products zero."""
    return PreLieAlgebra(2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])


def triangular_algebra() -> PreLieAlgebra:
    """Upper triangular 2x2 matrices, basis E11, E12, E22."""
    basis = [(1, 1), (1, 2), (2, 2)]
    tab = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for bi, (i, j) in enumerate(basis):
        for bj, (k, l) in enumerate(basis):
            if j == k and (i, l) in basis:
                tab[bi][bj][basis.index((i, l))] = 1
    return PreLieAlgebra(3, tab)


def direct_sum(a: PreLieAlgebra, b: PreLieAlgebra) -> PreLieAlgebra:
    n = a.dim + b.dim
    tab = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(a.dim):
        for j in range(a.dim):
            v = a.prod_basis(i, j)
            for k in range(a.dim):
                tab[i][j][k] = v[k]
    for i in range(b.dim):
        for j in range(b.dim):
            v = b.prod_basis(i, j)
            for k in range(b.dim):
                tab[a.dim + i][a.dim + j][a.dim + k] = v[k]
    return PreLieAlgebra(n, tab)


ALGEBRAS = [
    idempotent_line(0),
    idempotent_line(1),
    idempotent_line(Fraction(-1, 2)),
    abelian_algebra(2),
    shift_algebra(),
    dual_numbers(),
    abelian_algebra(3),
    triangular_algebra(),
    direct_sum(shift_algebra(), idempotent_line(0)),
    direct_sum(dual_numbers(), idempotent_line(1)),
]


# ----------------------------------------------------------------------
# derivations and representations by solving the defining linear system


def derivation_system(a: PreLieAlgebra, rho, mu, dim_v: int) -> Matrix:
    """Rows of the linear system a derivation's entries must satisfy.

    Unknowns are the dim_v * dim_g entries of D, column-major in the
    source index: unknown (u, i) at position i * dim_v + u. Equations:
    for each source pair (i, j) and target coordinate u,
    D(e_i . e_j) = rho(e_i) D(e_j) + mu(e_j) D(e_i).
    """
    dg = a.dim
    rows = []
    for i in range(dg):
        for j in range(dg):
            prod = a.prod_basis(i, j)
            for u in range(dim_v):
                row = [Fraction(0)] * (dg * dim_v)
                for k in range(dg):
                    if prod[k] != 0:
                        row[k * dim_v + u] += prod[k]
                for w in range(dim_v):
                    row[j * dim_v + w] -= rho[i].entries[u][w]
                    row[i * dim_v + w] -= mu[j].entries[u][w]
                rows.append(row)
    return Matrix(len(rows), dg * dim_v, rows)


def derivation_space(a: PreLieAlgebra, rho, mu, dim_v: int) -> list:
    """Basis of derivations g -> V as matrices."""
    sols = kernel_basis(derivation_system(a, rho, mu, dim_v))
    out = []
    for s in sols:
        out.append(Matrix(dim_v, a.dim, [[s[i * dim_v + u] for i in range(a.dim)] for u in range(dim_v)]))
    return out


def random_derivation(a: PreLieAlgebra, rho, mu, dim_v: int, rng: Random) -> Matrix:
    basis = derivation_space(a, rho, mu, dim_v)
    D = Matrix.zeros(dim_v, a.dim)
    for m in basis:
        D = D + m.scale(rational(rng))
    return D


def zero_representation(a: PreLieAlgebra, dim_v: int) -> Representation:
    z = [Matrix.zeros(dim_v, dim_v) for _ in range(a.dim)]
    return Representation(dim_v, z, list(z))


def conjugated_regular(a: PreLieAlgebra, t: Matrix, t_inv: Matrix) -> Representation:
    reg = regular_representation(a)
    rho = [t_inv * m * t for m in reg.rho]
    mu = [t_inv * m * t for m in reg.mu]
    return Representation(a.dim, rho, mu)


def small_int(rng: Random) -> int:
    return rng.choice((-2, -1, 1, 2))


def unipotent(rng: Random, n: int, draw=rational):
    """A random upper unipotent matrix and its exact inverse.

    It is a product of elementary row operations, each adding draw(rng)
    times a later row; with draw=small_int both are integer matrices.
    """
    t = Matrix.identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            c = draw(rng)
            rows = [list(r) for r in t.entries]
            for k in range(n):
                rows[i][k] += c * rows[j][k]
            t = Matrix(n, n, rows)
    cols = []
    for k in range(n):
        e = tuple(Fraction(1) if r == k else Fraction(0) for r in range(n))
        cols.append(solve(t, e))
    inv = Matrix(n, n, [[cols[c][r] for c in range(n)] for r in range(n)])
    return t, inv


def rebased_pair(p: DerPair, t: Matrix, t_inv: Matrix, s: Matrix, s_inv: Matrix) -> DerPair:
    """The same pair written in the basis of the columns of t on g and of s on V.

    e'_i . e'_j = t^-1 (t e_i . t e_j), rho'(e'_i) = s^-1 rho(t e_i) s, the
    same for mu, and D' = s^-1 D t. An isomorphic pair, so its cohomology
    is the same, while sparse structure data turns dense.
    """
    a, n = p.algebra, p.algebra.dim
    cols = [t.col(i) for i in range(n)]
    table = [[t_inv.matvec(prod_reference(a, cols[i], cols[j])) for j in range(n)] for i in range(n)]

    def move(mats):
        out = []
        for x in cols:
            m = Matrix.zeros(s.rows, s.rows)
            for k, c in enumerate(x):
                if c:
                    m = m + mats[k].scale(c)
            out.append(s_inv * m * s)
        return out

    rep = Representation(p.rep.dim_v, move(p.rep.rho), move(p.rep.mu))
    return DerPair(PreLieAlgebra(n, table), rep, s_inv * p.D * t)


def dense_copy(rng: Random, p: DerPair) -> DerPair:
    """p under random integer unipotent basis changes of g and of V."""
    t, t_inv = unipotent(rng, p.algebra.dim, small_int)
    s, s_inv = unipotent(rng, p.rep.dim_v, small_int)
    return rebased_pair(p, t, t_inv, s, s_inv)


def regular_pairs(rng: Random) -> list:
    """Regular pairs over every corpus algebra, random derivation each."""
    out = []
    for a in ALGEBRAS:
        reg = regular_representation(a)
        D = random_derivation(a, reg.rho, reg.mu, a.dim, rng)
        out.append(RegularPair(a, D))
    return out


def module_pairs(rng: Random) -> list:
    """Pairs with genuine module coefficients, dim V in {1, 2}."""
    out = []
    for a in ALGEBRAS:
        for dim_v in (1, 2):
            rep = zero_representation(a, dim_v)
            D = random_derivation(a, rep.rho, rep.mu, dim_v, rng)
            out.append(DerPair(a, rep, D))
    for a in (shift_algebra(), dual_numbers()):
        t, t_inv = unipotent(rng, a.dim)
        rep = conjugated_regular(a, t, t_inv)
        D = random_derivation(a, rep.rho, rep.mu, a.dim, rng)
        out.append(DerPair(a, rep, D))
    # the shift algebra's one-dimensional module: rho(e1) = 1, rest zero
    rep = Representation(
        1,
        [Matrix(1, 1, [[1]]), Matrix(1, 1, [[0]])],
        [Matrix(1, 1, [[0]]), Matrix(1, 1, [[0]])],
    )
    out.append(DerPair(shift_algebra(), rep, Matrix(1, 2, [[0, 1]])))
    return out


def corpus_pairs(rng: Random) -> list:
    """All DerPair instances for suite-wide properties (>= 20)."""
    pairs = [p.to_derpair() for p in regular_pairs(rng)]
    pairs.extend(module_pairs(rng))
    assert all(is_prelie(p.algebra) and is_derpair(p) for p in pairs)
    return pairs


# ----------------------------------------------------------------------
# random cochains


def random_cochain(rng: Random, dims: SplitDims, arity: int, density=0.5) -> Cochain:
    coeffs = {}
    for wedge, tail in wedge_tail_basis(dims.total, arity):
        if rng.random() < density:
            v = random_vec(rng, dims.total)
            if any(x != 0 for x in v):
                coeffs[(wedge, tail)] = v
    return Cochain(dims, arity, coeffs)


def random_mixed(rng: Random, dims: SplitDims, shape, target, density=0.7) -> MixedMap:
    m = MixedMap(dims, shape, target)
    if mixed_space_dim(dims, shape, target) == 0:
        return m
    coeffs = {}
    for key in m.basis_keys():
        if rng.random() < density:
            v = random_vec(rng, m.target_dim)
            if any(x != 0 for x in v):
                coeffs[key] = v
    return MixedMap(dims, shape, target, coeffs)


# ----------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def rng():
    return Random(20240811)


@pytest.fixture(scope="session")
def pair_corpus():
    return corpus_pairs(Random(7))


@pytest.fixture(scope="session")
def regular_corpus():
    return regular_pairs(Random(11))
