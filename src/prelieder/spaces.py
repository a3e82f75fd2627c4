"""Wedge bases, the ordered bases of mixed component spaces, and
permutation signs.

Conventions used throughout the package:
  * a wedge basis index is a strictly increasing tuple of basis indices,
  * permutations are stored 0-based as tuples sigma with sigma[j] = the
    argument placed in slot j, and perm_sign is their signature.
"""

from __future__ import annotations

from itertools import combinations


def perm_sign(sigma) -> int:
    """Signature of a permutation given as a tuple of images."""
    s = 1
    n = len(sigma)
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j]:
                s = -s
    return s


def normalize_wedge(indices):
    """Sort a wedge index tuple; returns (sign, sorted_tuple).

    sign is 0 and the tuple slot is None when an index repeats (the
    wedge vanishes); otherwise sign is the signature of the sorting
    permutation.
    """
    idx = tuple(indices)
    if len(set(idx)) != len(idx):
        return 0, None
    order = sorted(range(len(idx)), key=lambda i: idx[i])
    return perm_sign(tuple(order)), tuple(sorted(idx))


def wedge_basis(dim: int, k: int) -> list:
    """Strictly increasing k-tuples from range(dim), lexicographic."""
    if k < 0:
        return []
    return list(combinations(range(dim), k))


def wedge_tail_basis(dim: int, n: int) -> list:
    """All (increasing (n-1)-tuple, tail index) pairs, lexicographic."""
    if n < 1:
        return []
    return [(w, t) for w in wedge_basis(dim, n - 1) for t in range(dim)]


def enumerate_basis(space_shape, dims) -> list:
    """Ordered basis keys for a mixed component space.

    space_shape is ((g_wedge, v_wedge), tail_tag) with tail_tag 'g' or
    'v'; dims is (dim_g, dim_v). Keys are (g_tuple, v_tuple, tail)
    triples in lexicographic order, the coordinate order every
    differential matrix uses. Degenerate shapes (negative wedge sizes)
    have an empty basis.
    """
    (g_wedge, v_wedge), tail_tag = space_shape
    dim_g, dim_v = dims
    if tail_tag not in ("g", "v"):
        raise ValueError(f"tail tag must be 'g' or 'v', got {tail_tag!r}")
    if g_wedge < 0 or v_wedge < 0:
        return []
    tail_dim = dim_g if tail_tag == "g" else dim_v
    return [
        (gt, vt, t)
        for gt in wedge_basis(dim_g, g_wedge)
        for vt in wedge_basis(dim_v, v_wedge)
        for t in range(tail_dim)
    ]
