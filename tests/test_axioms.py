"""The pair and module axioms read off the bracket table, against the
explicit formulas of tests/oracles.py.

prelie.AXIOMS gives each structure and module tag one component of
[m, m], [m, D] or [m, Delta], and every validator reads its tags off
those brackets. Here each validator's tag list is compared, in order,
with the Matrix-product references on random valid and perturbed
inputs, and each of the seven components is shown to fire alone on a
structure that breaks only its axiom.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prelieder import (
    DerPair,
    DerPairRepresentation,
    Document,
    Matrix,
    PreLieAlgebra,
    RegularPair,
    Representation,
    derpair_representation_report,
    is_derivation,
    is_derpair,
    is_derpair_representation,
    is_prelie,
    is_regular_pair,
    regular_module,
    representation_report,
    validate_document,
)
from prelieder.cochain import MixedMap, SplitDims, component, lift
from prelieder.prelie import AXIOMS, axiom_brackets, derivation_cochain, pair_failures

from conftest import abelian_algebra, corpus_pairs, rebased_pair, regular_pairs, shift_algebra, unipotent
from oracles import module_reference, pair_reference, representation_reference

PAIRS = corpus_pairs(Random(7))
REGULARS = regular_pairs(Random(11))
SEEDS = st.integers(0, 2**32 - 1)


def _bumped(rng: Random, m: Matrix) -> Matrix:
    """m with one entry moved by a nonzero rational."""
    rows = [list(r) for r in m.entries]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.choice((1, -1, Fraction(1, 2), -2))
    return Matrix(m.rows, m.cols, rows)


def _bumped_table(rng: Random, a: PreLieAlgebra) -> PreLieAlgebra:
    table = [[list(v) for v in row] for row in a.table]
    i, j, k = (rng.randrange(a.dim) for _ in range(3))
    table[i][j][k] += rng.choice((1, -1, Fraction(1, 2), -2))
    return PreLieAlgebra(a.dim, table)


def _bumped_one(rng: Random, mats) -> list:
    out = list(mats)
    g = rng.randrange(len(out))
    out[g] = _bumped(rng, out[g])
    return out


def _rebased(rng: Random, p: DerPair) -> DerPair:
    t, t_inv = unipotent(rng, p.dims.dim_g)
    s, s_inv = unipotent(rng, p.dims.dim_v)
    return rebased_pair(p, t, t_inv, s, s_inv)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.sampled_from((None, "table", "rho", "mu", "D")))
@example(0, None)
@example(0, "rho")
def test_pair_tags_match_the_reference(seed, part):
    rng = Random(seed)
    p = rng.choice(PAIRS)
    if rng.random() < 0.5:
        p = _rebased(rng, p)
    a, rep, D = p.algebra, p.rep, p.D
    if part == "table":
        a = _bumped_table(rng, a)
    elif part == "rho":
        rep = Representation(rep.dim_v, _bumped_one(rng, rep.rho), rep.mu)
    elif part == "mu":
        rep = Representation(rep.dim_v, rep.rho, _bumped_one(rng, rep.mu))
    elif part == "D":
        D = _bumped(rng, D)
    q = DerPair(a, rep, D)
    want = pair_reference(q)
    assert pair_failures(q) == want
    assert validate_document(Document("derpair", q))["failed"] == want
    assert is_derpair(q) == (not want)
    assert is_prelie(a) == ("prelie-left-symmetry" not in want)
    assert representation_report(a, rep)["failed"] == representation_reference(a, rep)
    assert is_derivation(q) == ("derivation-axiom" not in want)
    rep_doc = Document("representation", (a, rep, None))
    assert validate_document(rep_doc)["failed"] == [t for t in want if t != "derivation-axiom"]


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.sampled_from((None, "table", "D")))
@example(0, None)
@example(0, "D")
def test_regular_pair_tags_match_the_reference(seed, part):
    rng = Random(seed)
    p = rng.choice(REGULARS)
    if rng.random() < 0.5:
        t, t_inv = unipotent(rng, p.algebra.dim)
        q = rebased_pair(p.to_derpair(), t, t_inv, t, t_inv)
        p = RegularPair(q.algebra, q.D)
    a, D = p.algebra, p.D
    if part == "table":
        a = _bumped_table(rng, a)
    elif part == "D":
        D = _bumped(rng, D)
    q = RegularPair(a, D)
    # the reference writes the action (L, R) out as matrices
    want = pair_reference(q)
    assert pair_failures(q) == want
    assert validate_document(Document("derpair", q))["failed"] == want
    assert is_regular_pair(q) == (not want)


def _modules(rng: Random, base: RegularPair) -> list:
    """Valid modules over base: the regular one in a random basis, and
    zero actions with a random K."""
    r = regular_module(base)
    s, s_inv = unipotent(rng, r.dim_v)
    rho, mu = ([s_inv * m * s for m in x] for x in (r.rho_t, r.mu_t))
    out = [DerPairRepresentation(r.dim_v, s_inv * r.K * s, rho, mu)]
    for dv in (1, 2):
        z = [Matrix.zeros(dv, dv)] * base.algebra.dim
        K = Matrix(dv, dv, [[rng.randint(-2, 2) for _ in range(dv)] for _ in range(dv)])
        out.append(DerPairRepresentation(dv, K, z, z))
    return out


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.sampled_from((None, "K", "rho", "mu")))
@example(0, None)
@example(0, "K")
def test_module_tags_match_the_reference(seed, part):
    rng = Random(seed)
    base = rng.choice(REGULARS)
    r = rng.choice(_modules(rng, base))
    K, rho, mu = r.K, r.rho_t, r.mu_t
    if part == "K":
        K = _bumped(rng, K)
    elif part == "rho":
        rho = _bumped_one(rng, rho)
    elif part == "mu":
        mu = _bumped_one(rng, mu)
    m = DerPairRepresentation(r.dim_v, K, rho, mu)
    want = module_reference(base, m)
    assert derpair_representation_report(base, m)["failed"] == want
    assert is_derpair_representation(base, m) == (not want)


# ---------------------------------------------------------------------------
# each component alone


def _m(*rows) -> Matrix:
    return Matrix(len(rows), len(rows[0]), rows)


def _zero_rep(dim_g: int, dim_v: int) -> Representation:
    z = [Matrix.zeros(dim_v, dim_v)] * dim_g
    return Representation(dim_v, z, z)


# e1.e1 = e2, e2.e1 = e1: not left-symmetric
NOT_PRELIE = PreLieAlgebra(2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
AB1, AB2 = abelian_algebra(1), abelian_algebra(2)
# rho(e1) and rho(e2) do not commute, though [e1, e2] = 0
NON_COMMUTING = [_m([0, 1], [0, 0]), _m([0, 0], [1, 0])]
ZERO2 = [Matrix.zeros(2, 2)] * 2
NILPOTENT = [_m([0, 1], [0, 0])]
ZERO1 = [Matrix.zeros(1, 1)]
ONE = [_m([1])]


def _module(D: Matrix, K: Matrix, rho, mu) -> tuple:
    """(regular pair (abelian g of dim len(rho), D), module (K, rho, mu))."""
    base = RegularPair(abelian_algebra(len(rho)), D)
    return base, DerPairRepresentation(K.rows, K, rho, mu)


# (AXIOMS row, kind, structure); each structure breaks only that row's axiom
ALONE = [
    (0, "pair", DerPair(NOT_PRELIE, _zero_rep(2, 1), Matrix.zeros(1, 2))),
    (0, "regular", RegularPair(NOT_PRELIE, Matrix.zeros(2, 2))),
    (1, "pair", DerPair(AB2, Representation(2, NON_COMMUTING, ZERO2), Matrix.zeros(2, 2))),
    (2, "pair", DerPair(AB1, Representation(1, ZERO1, ONE), Matrix.zeros(1, 1))),
    (3, "pair", DerPair(PreLieAlgebra(1, [[[1]]]), _zero_rep(1, 1), _m([1]))),
    (4, "regular", RegularPair(shift_algebra(), _m([1, 0], [0, 0]))),
    (1, "module", _module(Matrix.zeros(2, 2), Matrix.zeros(2, 2), NON_COMMUTING, ZERO2)),
    (2, "module", _module(Matrix.zeros(1, 1), Matrix.zeros(1, 1), ZERO1, ONE)),
    (5, "module", _module(_m([1]), Matrix.zeros(1, 1), ONE, ZERO1)),
    (6, "module", _module(_m([1]), Matrix.zeros(2, 2), [Matrix.zeros(2, 2)], NILPOTENT)),
]


def _nonzero_rows(brackets: dict) -> list:
    return [
        k
        for k, (_, name, shape, target) in enumerate(AXIOMS)
        if name in brackets and not component(brackets[name], shape, target).is_zero()
    ]


@pytest.mark.parametrize("row, kind, data", ALONE, ids=lambda x: x if isinstance(x, str) else None)
def test_each_component_fires_alone(row, kind, data):
    tag = AXIOMS[row][0]
    if kind == "module":
        base, r = data
        assert is_regular_pair(base)
        dims = SplitDims(base.algebra.dim, r.dim_v)
        d_g, k_v = (lift(MixedMap.from_matrix(dims, t, t, x)) for t, x in (("g", base.D), ("v", r.K)))
        brackets = axiom_brackets(base.algebra, r.plain(), d_g + k_v)
        assert derpair_representation_report(base, r)["failed"] == [tag]
        assert module_reference(base, r) == [tag]
    else:
        if kind == "regular":
            delta = lift(MixedMap.from_matrix(SplitDims(data.algebra.dim, 0), "g", "g", data.D))
            brackets = axiom_brackets(data.algebra, derivation=delta)
        else:
            brackets = axiom_brackets(data.algebra, data.rep, derivation_cochain(data))
        assert pair_failures(data) == [tag]
        assert validate_document(Document("derpair", data))["failed"] == [tag]
        assert pair_reference(data) == [tag]
    assert _nonzero_rows(brackets) == [row]


def test_every_component_has_a_case_of_its_own():
    assert sorted({row for row, _, _ in ALONE}) == list(range(len(AXIOMS)))
