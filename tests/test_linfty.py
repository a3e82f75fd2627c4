"""Tests for the graded algebra whose Maurer-Cartan elements are pairs.

The binary product lives on two slots (a shifted full cochain plus a
module-valued component map), so the checks here cover the grading
bookkeeping, graded symmetry, the homotopy Jacobi identity, the
equivalence between Maurer-Cartan elements and valid pair structures,
and the fact that twisting recovers the pair coboundary.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from prelieder import (
    Cochain,
    DerPair,
    DerPairCochain,
    LElement,
    MCCandidate,
    Matrix,
    MixedMap,
    MixedShape,
    PreLieAlgebra,
    Representation,
    SplitDims,
    higher_lk,
    huaD,
    l1_on_subalgebra,
    l2,
    lift,
    mc_check,
    mc_residual,
    mc_twisted_check,
    mn_bracket,
    theta_component,
    twist,
)

from conftest import corpus_pairs, random_mixed
from oracles import pair_reference


def sgn(k):
    return -1 if k % 2 else 1


def rand_elem(rng, dims, d):
    """Homogeneous element of degree d with all three shifted components."""
    a = d + 1
    m = lift(random_mixed(rng, dims, MixedShape(a, 0, "g"), "g"))
    m = m + lift(random_mixed(rng, dims, MixedShape(a, 0, "v"), "v"))
    if a >= 1:
        m = m + lift(random_mixed(rng, dims, MixedShape(a - 1, 1, "g"), "v"))
    h = random_mixed(rng, dims, MixedShape(d, 0, "g"), "v")
    return LElement(dims, d, m, h)


@pytest.fixture(scope="module")
def small_pairs():
    return [
        p
        for p in corpus_pairs(random.Random(7))
        if p.algebra.dim <= 2 and p.rep.dim_v <= 2
    ]


def test_element_guards_and_linear_structure():
    dims = SplitDims(2, 1)
    rng = random.Random(0)
    x = rand_elem(rng, dims, 0)
    y = rand_elem(rng, dims, 0)
    assert (x + y) - y == x
    assert x.scale(Fraction(3, 2)).scale(Fraction(2, 3)) == x
    assert LElement.zero(dims, 1).is_zero()
    z = LElement.zero(dims, -1)
    assert z.shifted.arity == 1 and z.h_part.shape == MixedShape(-1, 0, "g")

    # shifted slot must be concentrated in bidegree (d+1)|0; the value
    # below has a g part (bidegree 1|0) and a v part (bidegree 2|-1)
    bad = Cochain(dims, 2, {((0,), 1): (0, 1, 1)})
    with pytest.raises(ValueError):
        LElement(dims, 0, bad, MixedMap(dims, MixedShape(0, 0, "g"), "v"))

    with pytest.raises(ValueError):
        x + rand_elem(rng, dims, 1)


def test_l2_degree_and_graded_symmetry():
    # symmetry sign is (-1)^(|x||y|); include degree pairs where only the
    # h slot survives the wedge dimension cap
    rng = random.Random(1)
    dims = SplitDims(3, 1)
    nonzero = 0
    for dx, dy in [(-1, 0), (-1, 1), (0, 0), (0, 1), (0, 2), (1, 1)]:
        for _ in range(3):
            x = rand_elem(rng, dims, dx)
            y = rand_elem(rng, dims, dy)
            xy = l2(x, y)
            assert xy.degree == dx + dy + 1
            assert xy == l2(y, x).scale(sgn(dx * dy))
            nonzero += not xy.is_zero()
    assert nonzero >= 10


def test_l2_matches_bracket_on_slots():
    rng = random.Random(2)
    dims = SplitDims(2, 2)
    for dx, dy in [(0, 0), (0, 1), (1, 0)]:
        x = rand_elem(rng, dims, dx)
        y = rand_elem(rng, dims, dy)
        out = l2(x, y)
        assert out.shifted == mn_bracket(x.shifted, y.shifted).scale(sgn(dx + 1))
        expect_h = theta_component(mn_bracket(x.shifted, lift(y.h_part)))
        expect_h = expect_h + theta_component(
            mn_bracket(y.shifted, lift(x.h_part))
        ).scale(sgn(dx * dy))
        assert out.h_part == expect_h

    # a degree -1 argument has a degenerate h slot, only the first
    # mixing term survives
    x = rand_elem(rng, dims, -1)
    y = rand_elem(rng, dims, 0)
    assert l2(x, y).h_part == theta_component(mn_bracket(x.shifted, lift(y.h_part)))


def test_l2_homotopy_jacobi():
    # sum over the three (2,1)-unshuffle orderings with Koszul signs
    rng = random.Random(3)
    nonzero = 0
    for dims in (SplitDims(3, 1), SplitDims(2, 2)):
        for dx, dy, dz in [(-1, 0, 0), (-1, 0, 1), (0, 0, 0), (0, 0, 1)]:
            for _ in range(2):
                x = rand_elem(rng, dims, dx)
                y = rand_elem(rng, dims, dy)
                z = rand_elem(rng, dims, dz)
                t1 = l2(l2(x, y), z)
                t2 = l2(l2(x, z), y).scale(sgn(dy * dz))
                t3 = l2(l2(y, z), x).scale(sgn(dx * (dy + dz)))
                assert (t1 + t2 + t3).is_zero()
                nonzero += not t1.is_zero()
    assert nonzero >= 6


def test_higher_products_vanish():
    rng = random.Random(4)
    dims = SplitDims(2, 1)
    args = [rand_elem(rng, dims, d) for d in (0, 0, 1)]
    out = higher_lk(args)
    assert out.is_zero() and out.degree == 2
    out4 = higher_lk(args + [rand_elem(rng, dims, -1)])
    assert out4.is_zero() and out4.degree == 1
    x = rand_elem(rng, dims, 0)
    assert l1_on_subalgebra(x).is_zero()
    assert l1_on_subalgebra(x).degree == 1
    with pytest.raises(ValueError):
        higher_lk(args[:2])


def _perturbations(rng, p: DerPair):
    """Candidates differing from p in exactly one structure entry."""
    dim, dim_v = p.algebra.dim, p.rep.dim_v
    out = []

    table = [list(map(list, row)) for row in p.algebra.table]
    i, j, k = (rng.randrange(dim) for _ in range(3))
    table[i][j][k] += 1
    out.append(
        MCCandidate(PreLieAlgebra(dim, table), p.rep.rho, p.rep.mu, p.D)
    )

    for attr in ("rho", "mu"):
        mats = [[list(r) for r in m.entries] for m in getattr(p.rep, attr)]
        mats[rng.randrange(dim)][rng.randrange(dim_v)][rng.randrange(dim_v)] += 1
        fixed = [Matrix(dim_v, dim_v, m) for m in mats]
        rho = fixed if attr == "rho" else list(p.rep.rho)
        mu = fixed if attr == "mu" else list(p.rep.mu)
        out.append(MCCandidate(p.algebra, rho, mu, p.D))

    d_rows = [list(r) for r in p.D.entries]
    d_rows[rng.randrange(dim_v)][rng.randrange(dim)] += 1
    out.append(MCCandidate(p.algebra, p.rep.rho, p.rep.mu, Matrix(dim_v, dim, d_rows)))
    return out


def test_mc_iff_valid_pair(small_pairs):
    rng = random.Random(5)
    agree_true = agree_false = 0
    for p in small_pairs:
        cand = MCCandidate(p.algebra, p.rep.rho, p.rep.mu, p.D)
        res = mc_check(cand)
        assert res["is_mc"] and pair_reference(p) == []
        assert res["residual"][0].is_zero() and res["residual"][1].is_zero()
        agree_true += 1
        for q in _perturbations(rng, p):
            qp = DerPair(q.algebra, Representation(q.D.rows, q.rho, q.mu), q.D)
            got = mc_check(q)["is_mc"]
            assert got == (pair_reference(qp) == [])
            agree_false += not got
    assert agree_true >= 8 and agree_false >= 8


def test_mc_residual_is_half_self_bracket(small_pairs):
    for p in small_pairs[:4]:
        cand = MCCandidate(p.algebra, p.rep.rho, p.rep.mu, p.D)
        alpha = cand.element()
        res = mc_residual(alpha)
        m = alpha.shifted
        assert res.shifted == mn_bracket(m, m).scale(Fraction(-1, 2))
        assert res.h_part == theta_component(mn_bracket(m, lift(alpha.h_part)))


def test_twist_rejects_bad_elements(small_pairs):
    rng = random.Random(6)
    p = small_pairs[0]
    cand = MCCandidate(p.algebra, p.rep.rho, p.rep.mu, p.D)
    alpha = cand.element()
    with pytest.raises(ValueError):
        twist(rand_elem(rng, alpha.dims, 1))
    bad = _perturbations(rng, p)[0]
    if not mc_check(bad)["is_mc"]:
        with pytest.raises(ValueError):
            twist(bad.element())
    t = twist(alpha)
    assert t["l2"] is l2


def test_twisted_differential_is_pair_coboundary(small_pairs):
    # l1 after twisting equals the pair coboundary times (-1)^(n-2)
    rng = random.Random(7)
    checked = 0
    for p in small_pairs[:5]:
        cand = MCCandidate(p.algebra, p.rep.rho, p.rep.mu, p.D)
        t = twist(cand.element())
        dims = p.dims
        for n in (1, 2, 3):
            c = DerPairCochain(
                dims,
                n,
                random_mixed(rng, dims, MixedShape(n - 1, 0, "g"), "g"),
                random_mixed(rng, dims, MixedShape(n - 1, 0, "v"), "v"),
                random_mixed(rng, dims, MixedShape(n - 2, 1, "g"), "v"),
                random_mixed(rng, dims, MixedShape(n - 2, 0, "g"), "v"),
            )
            got = t["l1"](c.lelement())
            want = huaD(p, c).lelement().scale(sgn(n - 2))
            assert got == want
            checked += not got.is_zero()
    assert checked >= 10


def test_twisted_differential_squares_to_zero(small_pairs):
    rng = random.Random(8)
    for p in small_pairs[:4]:
        cand = MCCandidate(p.algebra, p.rep.rho, p.rep.mu, p.D)
        t = twist(cand.element())
        for d in (-1, 0, 1):
            x = rand_elem(rng, p.dims, d)
            assert t["l1"](t["l1"](x)).is_zero()


def test_twisted_mc_matches_shifted_sum(small_pairs):
    rng = random.Random(9)
    both = 0
    for p in small_pairs:
        cand = MCCandidate(p.algebra, p.rep.rho, p.rep.mu, p.D)
        alpha = cand.element()
        # moving to another valid structure on the same spaces
        for q in small_pairs:
            if q.dims != p.dims:
                continue
            beta = MCCandidate(q.algebra, q.rep.rho, q.rep.mu, q.D).element()
            diff = beta - alpha
            assert mc_twisted_check(alpha, diff) == mc_residual(beta).is_zero()
            assert mc_twisted_check(alpha, diff)
            both += 1
        # random degree-0 displacement: twisted MC iff the plain MC of the sum
        for _ in range(3):
            xi = rand_elem(rng, p.dims, 0)
            assert mc_twisted_check(alpha, xi) == mc_residual(alpha + xi).is_zero()
    assert both >= 4


def test_shape_checks_are_value_errors_under_optimize():
    # python -O strips assert statements; the degree and shape checks of
    # elements, products and candidates must not be asserts
    script = (
        "from prelieder import (Cochain, LElement, MCCandidate, Matrix, MixedMap, MixedShape,\n"
        "    PreLieAlgebra, SplitDims, higher_lk, l2, mc_twisted_check)\n"
        "dims = SplitDims(2, 1)\n"
        "z0, z1 = LElement.zero(dims, 0), LElement.zero(dims, 1)\n"
        "h0 = MixedMap(dims, MixedShape(0, 0, 'g'), 'v')\n"
        "a = PreLieAlgebra(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])\n"
        "one, D = Matrix.identity(1), Matrix.zeros(1, 2)\n"
        "cases = [\n"
        "    lambda: LElement(dims, -2, None, None),\n"
        "    lambda: LElement(dims, 0, Cochain(dims, 3), h0),\n"
        "    lambda: LElement(dims, 0, Cochain(dims, 2), MixedMap(dims, MixedShape(1, 0, 'g'), 'v')),\n"
        "    lambda: z0 + z1,\n"
        "    lambda: l2(z0, LElement.zero(SplitDims(1, 1), 0)),\n"
        "    lambda: higher_lk([z0, z0]),\n"
        "    lambda: MCCandidate(a, [one, one], [one, one], Matrix.zeros(1, 1)),\n"
        "    lambda: MCCandidate(a, [D, one], [one, one], D),\n"
        "    lambda: MCCandidate(a, [one], [one], D),\n"
        "    lambda: mc_twisted_check(z1, z1),\n"
        "]\n"
        "for bad in cases:\n"
        "    try:\n"
        "        bad()\n"
        "    except ValueError as e:\n"
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
    assert out.stdout.split() == ["ValueError"] * 10
