from itertools import permutations
from math import comb

import pytest

from prelieder.spaces import (
    enumerate_basis,
    normalize_wedge,
    perm_sign,
    wedge_basis,
    wedge_tail_basis,
)


def brute_sign(sigma):
    # count inversions directly
    inv = sum(
        1
        for i in range(len(sigma))
        for j in range(i + 1, len(sigma))
        if sigma[i] > sigma[j]
    )
    return -1 if inv % 2 else 1


def test_perm_sign_matches_inversion_count():
    for n in range(5):
        for sigma in permutations(range(n)):
            assert perm_sign(sigma) == brute_sign(sigma)


def test_perm_sign_multiplicative():
    for sigma in permutations(range(4)):
        for tau in permutations(range(4)):
            comp = tuple(sigma[tau[i]] for i in range(4))
            assert perm_sign(comp) == perm_sign(sigma) * perm_sign(tau)


def test_malformed_arguments_raise_value_error():
    with pytest.raises(ValueError):
        enumerate_basis(((0, 0), "w"), (2, 1))


def test_normalize_wedge():
    assert normalize_wedge((2, 0, 1)) == (1, (0, 1, 2))
    assert normalize_wedge((1, 0)) == (-1, (0, 1))
    assert normalize_wedge((0, 0)) == (0, None)
    assert normalize_wedge(()) == (1, ())


def test_wedge_basis_counts():
    for dim in range(5):
        for k in range(-1, dim + 2):
            got = wedge_basis(dim, k)
            assert len(got) == (comb(dim, k) if k >= 0 else 0)
            assert got == sorted(got)
            for w in got:
                assert all(w[i] < w[i + 1] for i in range(len(w) - 1))


def test_wedge_tail_basis_counts():
    for dim in (1, 2, 3):
        for n in (1, 2, 3, 4):
            got = wedge_tail_basis(dim, n)
            assert len(got) == comb(dim, n - 1) * dim
    assert wedge_tail_basis(2, 0) == []


def test_enumerate_basis_counts_and_order():
    dims = (2, 1)
    keys = enumerate_basis(((1, 1), "g"), dims)
    assert len(keys) == comb(2, 1) * comb(1, 1) * 2
    assert keys == sorted(keys)
    assert enumerate_basis(((-1, 0), "g"), dims) == []
    assert enumerate_basis(((0, 0), "v"), dims) == [((), (), 0)]
