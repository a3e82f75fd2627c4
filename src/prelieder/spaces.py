"""Combinatorics of wedge bases and unshuffles.

Conventions used throughout the package:
  * a wedge basis index is a strictly increasing tuple of basis indices,
  * an (i1,...,ik)-unshuffle is a permutation of {1,...,i1+...+ik} that
    is increasing inside each consecutive block; permutations are stored
    0-based as tuples sigma with sigma[j] = the argument placed in slot
    j, and unshuffles() pairs each with its signature,
  * perm_sign is the ordinary signature, koszul_sign the graded sign
    picked up by moving graded symbols through each other (no signature
    factor; multiply the two when a convention needs both).
"""

from __future__ import annotations

from itertools import combinations


def unshuffles(block_sizes) -> list:
    """All (i1,...,ik)-unshuffles as (perm, sign) pairs.

    Permutations are 0-based image tuples, increasing inside each
    consecutive block; zero-size blocks are allowed (the identity is
    included, matching the empty-block convention). Any negative block
    size yields no unshuffles at all, which is the empty-sum convention
    the composition formulas rely on.
    """
    sizes = list(block_sizes)
    if any(s < 0 for s in sizes):
        return []
    n = sum(sizes)
    result = []

    def extend(remaining, acc):
        if not remaining:
            perm = tuple(acc)
            result.append((perm, perm_sign(perm)))
            return
        used = set(acc)
        free = [i for i in range(n) if i not in used]
        for chosen in combinations(free, remaining[0]):
            extend(remaining[1:], acc + list(chosen))

    extend(sizes, [])
    return result


def perm_sign(sigma) -> int:
    """Signature of a permutation given as a tuple of images."""
    s = 1
    n = len(sigma)
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j]:
                s = -s
    return s


def _perm_tuple(perm):
    # accept either a raw image tuple or a (perm, sign) pair
    if len(perm) == 2 and isinstance(perm[0], tuple) and isinstance(perm[1], int):
        return perm[0]
    return tuple(perm)


def koszul_sign(perm, degrees) -> int:
    """Koszul sign of a permutation acting on symbols of given degrees.

    Product of (-1)^(d_a d_b) over every inversion, i.e. over each pair
    of symbols whose order the permutation swaps. No signature factor;
    callers combine with perm_sign when their convention needs both.
    Accepts a raw image tuple or an unshuffles() (perm, sign) pair.
    """
    sigma = _perm_tuple(perm)
    if len(sigma) != len(degrees):
        raise ValueError(f"{len(sigma)} symbols permuted but {len(degrees)} degrees given")
    s = 1
    n = len(sigma)
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j]:
                if degrees[sigma[i]] % 2 and degrees[sigma[j]] % 2:
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
