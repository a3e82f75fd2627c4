import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb
from pathlib import Path
from random import Random

import pytest

from prelieder.cochain import (
    Cochain,
    MixedMap,
    MixedShape,
    SplitDims,
    basis_cochains,
    bidegree_of,
    component,
    component_bidegree,
    decompose_k0,
    lift,
    mixed_space_dim,
    theta_component,
)
from prelieder.spaces import perm_sign

from conftest import random_cochain, random_mixed


def test_eval_basis_alternates_in_wedge():
    dims = SplitDims(2, 1)
    c = Cochain(dims, 3, {((0, 1), 2): (Fraction(1), Fraction(2), Fraction(3))})
    base = c.eval_basis([0, 1], 2)
    for sigma in permutations((0, 1)):
        got = c.eval_basis([sigma[0], sigma[1]], 2)
        assert got == tuple(perm_sign(sigma) * x for x in base)
    # repeated wedge index kills the value
    assert all(x == 0 for x in c.eval_basis([0, 0], 2))
    # the tail is not alternated: a repeated wedge/tail index is fine
    c2 = Cochain(dims, 2, {((0,), 0): (Fraction(1), Fraction(0), Fraction(0))})
    assert c2.eval_basis([0], 0) == (1, 0, 0)


def test_cochain_constructor_normalizes_nothing_but_rejects_junk():
    dims = SplitDims(1, 1)
    with pytest.raises(ValueError, match="expected 1 wedge indices"):
        Cochain(dims, 2, {((0, 1), 0): (Fraction(1), Fraction(0))})  # wedge too long
    with pytest.raises(ValueError, match="value of length 1, expected 2"):
        Cochain(dims, 1, {((), 0): (Fraction(1),)})  # value has wrong length


def test_cochain_linear_ops():
    rng = Random(5)
    dims = SplitDims(2, 1)
    a = random_cochain(rng, dims, 2)
    b = random_cochain(rng, dims, 2)
    assert (a + b) - b == a
    assert a.scale(Fraction(0)).is_zero()
    assert (a.scale(Fraction(3)) - a.scale(Fraction(2))) == a
    assert (-a) + a == Cochain(dims, 2)


def test_mixed_space_dim_is_binomial_product():
    dims = SplitDims(3, 2)
    for a in range(-1, 4):
        for b in range(-1, 3):
            for tail in ("g", "v"):
                for target in ("g", "v"):
                    shape = MixedShape(a, b, tail)
                    want = 0
                    if a >= 0 and b >= 0:
                        tail_dim = 3 if tail == "g" else 2
                        tgt = 3 if target == "g" else 2
                        want = comb(3, a) * comb(2, b) * tail_dim * tgt
                    assert mixed_space_dim(dims, shape, target) == want


def test_eval_local_signs_and_zeros():
    dims = SplitDims(3, 2)
    shape = MixedShape(2, 1, "g")
    m = MixedMap(dims, shape, "v", {((0, 1), (1,), 2): (Fraction(1), Fraction(-1))})
    assert m.eval_local((0, 1), (1,), 2) == (1, -1)
    assert m.eval_local((1, 0), (1,), 2) == (-1, 1)
    assert m.eval_local((0, 0), (1,), 2) == (0, 0)
    assert m.eval_local((0, 2), (1,), 2) == (0, 0)  # absent key


def test_lift_component_round_trip():
    rng = Random(9)
    dims = SplitDims(2, 2)
    for shape, target in [
        (MixedShape(1, 0, "g"), "g"),
        (MixedShape(1, 0, "g"), "v"),
        (MixedShape(0, 1, "v"), "v"),
        (MixedShape(1, 1, "g"), "g"),
        (MixedShape(2, 0, "g"), "v"),
    ]:
        m = random_mixed(rng, dims, shape, target)
        lifted = lift(m)
        back = component(lifted, shape, target)
        assert back == m
        bd = bidegree_of(lifted)
        assert bd is None and m.is_zero() or bd == component_bidegree(shape, target)


def test_lift_of_degenerate_shape_is_zero():
    dims = SplitDims(2, 1)
    m = MixedMap(dims, MixedShape(-1, 0, "g"), "g")
    assert lift(m).is_zero()


def test_component_extracts_mixtures():
    rng = Random(13)
    dims = SplitDims(2, 1)
    sh1, sh2 = MixedShape(1, 0, "g"), MixedShape(0, 1, "g")
    m1 = random_mixed(rng, dims, sh1, "g")
    m2 = random_mixed(rng, dims, sh2, "g")
    c = lift(m1) + lift(m2)
    assert component(c, sh1, "g") == m1
    assert component(c, sh2, "g") == m2
    assert bidegree_of(c) is None or m1.is_zero() or m2.is_zero()


def test_bidegree_of_zero_is_none():
    dims = SplitDims(2, 1)
    assert bidegree_of(Cochain(dims, 2)) is None


def test_decompose_k0_round_trip():
    rng = Random(21)
    dims = SplitDims(2, 2)
    for n in (1, 2, 3):
        f_g = random_mixed(rng, dims, MixedShape(n - 1, 0, "g"), "g")
        f_rho = random_mixed(rng, dims, MixedShape(n - 1, 0, "v"), "v")
        f_mu = random_mixed(rng, dims, MixedShape(n - 2, 1, "g"), "v")
        c = lift(f_g) + lift(f_rho) + lift(f_mu)
        g2, r2, m2 = decompose_k0(c)
        assert (g2, r2) == (f_g, f_rho)
        if n == 1:
            assert m2.shape.degenerate and m2.is_zero()
        else:
            assert m2 == f_mu


def test_decompose_k0_rejects_wrong_bidegree():
    dims = SplitDims(2, 2)
    bad = lift(
        MixedMap(dims, MixedShape(0, 1, "v"), "v", {((), (0,), 1): (Fraction(1), Fraction(0))})
    )
    with pytest.raises(ValueError, match="outside bidegree"):
        decompose_k0(bad)


def test_theta_component():
    rng = Random(2)
    dims = SplitDims(2, 1)
    th = random_mixed(rng, dims, MixedShape(1, 0, "g"), "v")
    c = lift(th) + lift(random_mixed(rng, dims, MixedShape(1, 0, "g"), "g"))
    assert theta_component(c) == th


def test_basis_cochains_count_and_independence():
    dims = SplitDims(1, 1)
    arity = 2
    basis = list(basis_cochains(dims, arity))
    assert len(basis) == comb(2, 1) * 2 * 2
    seen = set()
    for b in basis:
        assert len(b.coeffs) == 1
        ((w, t), v), = b.coeffs.items()
        key = (w, t, v.index(max(v)))
        assert key not in seen
        seen.add(key)


def test_component_bidegree_table():
    # tail g, no v-wedges, target g: pure algebra maps have l = 0
    assert component_bidegree(MixedShape(2, 0, "g"), "g") == (2, 0)
    # same source into the module: one step down in v-degree
    assert component_bidegree(MixedShape(2, 0, "g"), "v") == (3, -1)
    # one v argument with value in the module: the rho/mu shape
    assert component_bidegree(MixedShape(1, 1, "g"), "g") == (1, 1)
    assert component_bidegree(MixedShape(1, 0, "g"), "v") == (2, -1)
    assert component_bidegree(MixedShape(0, 1, "v"), "v") == (0, 1)


def test_key_and_shape_checks_are_value_errors_under_optimize():
    # python -O strips assert statements; the key, shape and sum checks of
    # cochains and component maps, and decompose_k0's bidegree check, must
    # still refuse bad input
    script = (
        "from prelieder.cochain import (Cochain, MixedMap, MixedShape, SplitDims, component,\n"
        "    decompose_k0, lift)\n"
        "dims, dims21 = SplitDims(1, 1), SplitDims(2, 1)\n"
        "g1, v1 = MixedShape(1, 0, 'g'), MixedShape(0, 1, 'v')\n"
        "cases = [\n"
        "    lambda: SplitDims(-1, 0),\n"
        "    lambda: Cochain(dims, 0),\n"
        "    lambda: Cochain(dims, 2, {((0, 1), 0): (1, 0)}),\n"
        "    lambda: Cochain(dims, 2, {((2,), 0): (1, 0)}),\n"
        "    lambda: Cochain(dims, 2, {((0,), 2): (1, 0)}),\n"
        "    lambda: Cochain(dims, 3, {((1, 0), 0): (1, 0)}),\n"
        "    lambda: Cochain(dims, 1, {((), 0): (1,)}),\n"
        "    lambda: Cochain(dims, 1) + Cochain(dims, 2),\n"
        "    lambda: MixedShape(0, 0, 'w'),\n"
        "    lambda: MixedMap(dims, g1, 'w'),\n"
        "    lambda: MixedMap(dims, MixedShape(-1, 0, 'g'), 'g', {((), (), 0): (1,)}),\n"
        "    lambda: MixedMap(dims, g1, 'g', {((), (), 0): (1,)}),\n"
        "    lambda: MixedMap(dims, g1, 'g', {((1,), (), 0): (1,)}),\n"
        "    lambda: MixedMap(dims21, MixedShape(2, 0, 'g'), 'g', {((1, 0), (), 0): (1, 0)}),\n"
        "    lambda: MixedMap(dims, g1, 'g') + MixedMap(dims, v1, 'g'),\n"
        "    lambda: MixedMap(dims, g1, 'g').to_matrix(),\n"
        "    lambda: component(Cochain(dims, 3), g1, 'g'),\n"
        "    lambda: decompose_k0(lift(MixedMap(dims, v1, 'v', {((), (0,), 0): (1,)}))),\n"
        "]\n"
        "for bad in cases:\n"
        "    try:\n"
        "        bad()\n"
        "    except ValueError as e:\n"
        "        print(type(e).__name__)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ValueError"] * 18
