from fractions import Fraction
from itertools import product
from math import factorial
from random import Random

from prelieder import mn_bracket
from prelieder.cochain import SplitDims, bidegree_of, component_bidegree, lift
from prelieder.mn_bracket import circ
from prelieder.prelie import structure_cochain
from prelieder.spaces import perm_sign

from conftest import ALGEBRAS, random_cochain, random_mixed, random_vec
from oracles import (
    associator_defect,
    bracket_11_oracle,
    bracket_21_oracle,
    circ_reference,
    left_symmetric_reference,
    unit,
    unshuffles,
)

DIMS = SplitDims(2, 1)


def test_circ_matches_dense_reference():
    # p = 0 and q = 0 both occur; density 0 gives the zero cochain
    rng = Random(30)
    densities = (0, 0.1, 0.5, 0.9)
    for dims in (SplitDims(2, 1), SplitDims(1, 2), SplitDims(2, 2), SplitDims(3, 1)):
        for ap, aq in product((1, 2, 3), repeat=2):
            for dp, dq in product(densities, repeat=2):
                P = random_cochain(rng, dims, ap, density=dp)
                Q = random_cochain(rng, dims, aq, density=dq)
                got, want = circ(P, Q), circ_reference(P, Q)
                assert got == want, (dims, ap, aq, dp, dq)
                assert list(got.coeffs) == list(want.coeffs)


def test_unshuffle_counts_are_multinomial():
    # the oracle's unshuffles, which circ_reference sums over
    cases = [(1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 2), (2, 1, 2), (0, 2), (2, 0)]
    for sizes in cases:
        n = sum(sizes)
        want = factorial(n)
        for s in sizes:
            want //= factorial(s)
        got = unshuffles(sizes)
        assert len(got) == want
        # each is a genuine permutation, increasing within blocks
        for perm, sign in got:
            assert sorted(perm) == list(range(n))
            assert sign == perm_sign(perm)
            off = 0
            for s in sizes:
                block = perm[off : off + s]
                assert list(block) == sorted(block)
                off += s


def test_unshuffles_degenerate_blocks():
    assert unshuffles((-1, 2)) == []
    assert unshuffles((0, 0)) == [((), 1)]
    assert unshuffles((2, 1, -1)) == []


def test_arity_one_bracket_is_commutator():
    rng = Random(31)
    for _ in range(20):
        f = random_cochain(rng, DIMS, 1, density=0.8)
        g = random_cochain(rng, DIMS, 1, density=0.8)
        assert mn_bracket(f, g) == bracket_11_oracle(f, g)


def test_arity_two_one_closed_form():
    rng = Random(32)
    for _ in range(20):
        f = random_cochain(rng, DIMS, 2, density=0.6)
        g = random_cochain(rng, DIMS, 1, density=0.8)
        assert mn_bracket(f, g) == bracket_21_oracle(f, g)


def test_self_bracket_matches_the_two_composition_formula():
    # [P, P] composes once; it must equal P.P - (-1)^(pp) P.P, the two
    # compositions of the general formula: twice P.P for odd p (arity 2, 4)
    # and zero for even p (arity 1, 3), arity 2p + 1 either way
    rng = Random(38)
    for dims in (SplitDims(2, 1), SplitDims(1, 2), SplitDims(2, 2)):
        for arity in (1, 2, 3, 4):
            for density in (0, 0.3, 0.8):
                P = random_cochain(rng, dims, arity, density=density)
                p = arity - 1
                want = circ(P, P) - circ(P, P).scale(-1 if p % 2 else 1)
                got = mn_bracket(P, P)
                assert got == want and got.arity == 2 * p + 1, (dims, arity, density)
                assert list(got.coeffs) == list(want.coeffs)
                assert got.is_zero() == (p % 2 == 0 or circ(P, P).is_zero())


def test_self_bracket_is_twice_alternated_associator():
    rng = Random(33)
    total = DIMS.total
    for _ in range(10):
        f = random_cochain(rng, DIMS, 2, density=0.6)
        br = mn_bracket(f, f)
        for x, y, z in product(range(total), repeat=3):
            if x == y:
                continue
            want = tuple(
                2 * c for c in associator_defect(f, unit(total, x), unit(total, y), unit(total, z))
            )
            assert br.eval_basis([x, y], z) == want


def test_structure_self_bracket_detects_prelie():
    rng = Random(34)
    for a in ALGEBRAS:
        p = structure_cochain_from_algebra(a)
        assert mn_bracket(p, p).is_zero()
    # perturbed tables must be caught unless the perturbation is again pre-Lie
    from prelieder import PreLieAlgebra

    caught = 0
    bigger = [a for a in ALGEBRAS if a.dim >= 2]
    for _ in range(60):
        a = rng.choice(bigger)
        tab = [
            [list(a.prod_basis(i, j)) for j in range(a.dim)] for i in range(a.dim)
        ]
        i, j, k = (rng.randrange(a.dim) for _ in range(3))
        tab[i][j][k] += Fraction(rng.choice((1, 2, -1)))
        b = PreLieAlgebra(a.dim, tab)
        q = structure_cochain_from_algebra(b)
        want = left_symmetric_reference(b.dim, b.table)
        assert mn_bracket(q, q).is_zero() == want
        caught += not want
    assert caught >= 20


def structure_cochain_from_algebra(a):
    from prelieder import DerPair, Matrix, Representation

    rep = Representation(1, [Matrix(1, 1, [[0]])] * a.dim, [Matrix(1, 1, [[0]])] * a.dim)
    return structure_cochain(DerPair(a, rep, Matrix.zeros(1, a.dim)))


def test_graded_antisymmetry():
    rng = Random(35)
    for ap, aq in [(1, 1), (2, 1), (2, 2), (3, 2), (1, 3)]:
        p, q = ap - 1, aq - 1
        sign = -1 if (p * q) % 2 else 1
        P = random_cochain(rng, DIMS, ap, density=0.5)
        Q = random_cochain(rng, DIMS, aq, density=0.5)
        assert mn_bracket(P, Q) == mn_bracket(Q, P).scale(-sign)


def test_graded_jacobi():
    rng = Random(36)
    dims = SplitDims(2, 0)
    for arities in [(2, 2, 2), (2, 2, 1), (3, 2, 2), (1, 2, 3)]:
        P, Q, R = (random_cochain(rng, dims, a, density=0.4) for a in arities)
        p, q, r = (a - 1 for a in arities)
        t1 = mn_bracket(mn_bracket(P, Q), R).scale(-1 if (p * r) % 2 else 1)
        t2 = mn_bracket(mn_bracket(Q, R), P).scale(-1 if (q * p) % 2 else 1)
        t3 = mn_bracket(mn_bracket(R, P), Q).scale(-1 if (r * q) % 2 else 1)
        assert (t1 + t2 + t3).is_zero()


def all_shapes(arity):
    from prelieder.cochain import MixedShape

    out = []
    for a in range(arity):
        b = arity - 1 - a
        for tail in ("g", "v"):
            for target in ("g", "v"):
                out.append((MixedShape(a, b, tail), target))
    return out


def test_bidegree_additivity_and_vanishing():
    rng = Random(37)
    dims = SplitDims(2, 2)
    checked = 0
    while checked < 120:
        af = rng.choice((1, 2, 3))
        ag = rng.choice((1, 2, 3))
        sf, tf = rng.choice(all_shapes(af))
        sg, tg = rng.choice(all_shapes(ag))
        f = lift(random_mixed(rng, dims, sf, tf))
        g = lift(random_mixed(rng, dims, sg, tg))
        if f.is_zero() or g.is_zero():
            continue
        kf, lf = component_bidegree(sf, tf)
        kg, lg = component_bidegree(sg, tg)
        br = mn_bracket(f, g)
        if lf + lg <= -2:
            assert br.is_zero()
        else:
            assert bidegree_of(br) in (None, (kf + kg, lf + lg))
        checked += 1


def test_two_module_valued_maps_bracket_to_zero():
    # both factors have bidegree (.|-1); their bracket sits in v-degree -2,
    # which no cochain on g + V can carry
    from prelieder.cochain import MixedShape

    rng = Random(39)
    dims = SplitDims(2, 2)
    for af, ag in [(1, 1), (1, 2), (2, 2), (3, 2), (2, 1)]:
        f = lift(random_mixed(rng, dims, MixedShape(af - 1, 0, "g"), "v"))
        g = lift(random_mixed(rng, dims, MixedShape(ag - 1, 0, "g"), "v"))
        assert mn_bracket(f, g).is_zero()


def test_circ_left_action_block_structure():
    # composing with an arity-1 map inserts it argument by argument
    rng = Random(38)
    f = random_cochain(rng, DIMS, 3, density=0.4)
    g = random_cochain(rng, DIMS, 1, density=0.8)
    h = circ(f, g)
    assert h.arity == 3
    # circ against zero vanishes
    from prelieder.cochain import Cochain

    z = Cochain(DIMS, 2)
    assert circ(f, z).is_zero() and circ(z, f).is_zero()
    assert mn_bracket(f, z).is_zero()
