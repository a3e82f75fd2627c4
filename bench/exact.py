"""The benchmark's own arithmetic, independent of prelieder.

Input generation solves small linear systems here, and the output
checks recompute ranks, products and axioms here, so that no check
compares prelieder against itself. Structures are plain data:

  table[i][j]   coefficient list of e_i . e_j (length dim g)
  rho[i], mu[i] dim V x dim V row-major lists, the actions of e_i
  D             dim V x dim g row-major list

numpy is imported only by the functions that check ranks and products,
which run after the timed region.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Q = Fraction
PRIMES = (2147483647, 2147483629)  # 2^31 - 1 and the next prime below it
SMALL_PRIMES = (1048573, 1048571)  # below 2^20: products of 1000 terms fit in int64


# ---------------------------------------------------------------------------
# exact elimination over Q (small systems: input generation, witnesses)


def rref(rows, ncols):
    """Reduced row echelon form of a list of rows; returns (R, pivots)."""
    a = [[Q(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def kernel(rows, ncols):
    """Basis of {x : rows x = 0}, one vector per free column."""
    R, pivots = rref(rows, ncols)
    out = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [Q(0)] * ncols
        v[j] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][j]
        out.append(v)
    return out


def consistent(rows, rhs, ncols):
    """Does rows x = rhs have a solution over Q?"""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    return ncols not in rref(aug, ncols + 1)[1]


def mat_mul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((row[k] * b[k][j] for k in range(inner) if row[k]), Q(0)) for j in range(cols)] for row in a]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v) if x and y), Q(0)) for row in a]


def mat_add(a, b, c=1):
    return [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_inv(a):
    n = len(a)
    R, pivots = rref([list(r) + [Q(int(i == j)) for j in range(n)] for i, r in enumerate(a)], n)
    assert pivots == list(range(n)), "singular matrix"
    return [r[n:] for r in R]


def identity(n):
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[Q(0)] * c for _ in range(r)]


def comb_rows(mats, coeffs):
    """sum_k coeffs[k] * mats[k] for equally shaped matrices."""
    out = zeros(len(mats[0]), len(mats[0][0])) if mats else []
    for m, c in zip(mats, coeffs):
        if c:
            out = mat_add(out, m, c)
    return out


# ---------------------------------------------------------------------------
# the axioms, from their definitions


def prod(table, x, y):
    n = len(table)
    out = [Q(0)] * n
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    ab = a * b
                    for k, c in enumerate(table[i][j]):
                        if c:
                            out[k] += ab * c
    return out


def unit(n, i):
    return [Q(int(k == i)) for k in range(n)]


def prelie_residual(table):
    """Concatenated (x.y).z - x.(y.z) - (y.x).z + y.(x.z) over basis triples, i < j."""
    n = len(table)
    e = [unit(n, i) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                a1 = [p - q for p, q in zip(prod(table, table[i][j], e[k]), prod(table, e[i], table[j][k]))]
                a2 = [p - q for p, q in zip(prod(table, table[j][i], e[k]), prod(table, e[j], table[i][k]))]
                out += [p - q for p, q in zip(a1, a2)]
    return out


def is_prelie(table):
    return not any(prelie_residual(table))


def act(mats, x):
    """The action of the vector x: sum_k x_k mats[k]."""
    return comb_rows(mats, x)


def is_rep(table, rho, mu):
    n = len(table)
    for i in range(n):
        for j in range(n):
            br = [p - q for p, q in zip(table[i][j], table[j][i])]
            lhs = act(rho, br)
            rhs = mat_add(mat_mul(rho[i], rho[j]), mat_mul(rho[j], rho[i]), -1)
            if lhs != rhs:
                return False
            lhs = mat_add(mat_mul(mu[j], mu[i]), act(mu, table[i][j]), -1)
            rhs = mat_add(mat_mul(mu[j], rho[i]), mat_mul(rho[i], mu[j]), -1)
            if lhs != rhs:
                return False
    return True


def column(m, j):
    return [row[j] for row in m]


def is_derivation(table, rho, mu, D):
    n = len(table)
    for i in range(n):
        for j in range(n):
            lhs = mat_vec(D, table[i][j])
            rhs = [p + q for p, q in zip(mat_vec(rho[i], column(D, j)), mat_vec(mu[j], column(D, i)))]
            if lhs != rhs:
                return False
    return True


def is_pair(s):
    return is_prelie(s.table) and is_rep(s.table, s.rho, s.mu) and is_derivation(s.table, s.rho, s.mu, s.D)


def left_mult(table):
    n = len(table)
    return [[[table[i][j][k] for j in range(n)] for k in range(n)] for i in range(n)]


def right_mult(table):
    n = len(table)
    return [[[table[j][i][k] for j in range(n)] for k in range(n)] for i in range(n)]


def is_module(table, D, K, rho, mu):
    """rho, mu a representation and K compatible with the derivation D."""
    if not is_rep(table, rho, mu):
        return False
    for i in range(len(table)):
        dcol = column(D, i)
        for m in (rho, mu):
            lhs = mat_mul(K, m[i])
            rhs = mat_add(mat_mul(m[i], K), act(m, dcol))
            if lhs != rhs:
                return False
    return True


def total_structure(table, D, K, rho, mu, theta, xi):
    """Product table and derivation of g + V corrected by (theta, xi).

    theta[i][j] is the V-vector theta(e_i, e_j), xi is dim V x dim g.
    g + V has the g basis first; V is an abelian ideal.
    """
    dg, dv = len(table), len(K)
    n = dg + dv
    tab = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(dg):
        for j in range(dg):
            tab[i][j] = list(table[i][j]) + list(theta[i][j])
        for u in range(dv):
            tab[i][dg + u] = [Q(0)] * dg + column(rho[i], u)
            tab[dg + u][i] = [Q(0)] * dg + column(mu[i], u)
    Dt = [list(D[i]) + [Q(0)] * dv for i in range(dg)]
    Dt += [list(xi[u]) + list(K[u]) for u in range(dv)]
    return tab, Dt


def regular_residual(table, D):
    """Pre-Lie residual followed by D(x.y) - Dx.y - x.Dy over basis pairs."""
    n = len(table)
    out = prelie_residual(table)
    cols = [column(D, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = mat_vec(D, table[i][j])
            a = prod(table, cols[i], unit(n, j))
            b = prod(table, unit(n, i), cols[j])
            out += [p - q - r for p, q, r in zip(lhs, a, b)]
    return out


def is_regular_pair(table, D):
    return not any(regular_residual(table, D))


# ---------------------------------------------------------------------------
# ranks modulo primes and exact products (numpy, checks only)


def integer_rows(entries):
    """Each row of Fractions scaled by the lcm of its denominators."""
    out = []
    for row in entries:
        den = 1
        for x in row:
            if x and x.denominator != 1:
                den = lcm(den, x.denominator)
        out.append([x.numerator * (den // x.denominator) if x else 0 for x in row])
    return out


def _rank_mod(rows, ncols, p):
    import numpy as np

    if not rows or not ncols:
        return 0
    a = np.array([[x % p for x in r] for r in rows], dtype=np.int64)
    rank = 0
    nrows = a.shape[0]
    for c in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        below = a[rank + 1 :, c].copy()
        idx = np.nonzero(below)[0]
        if idx.size:
            rows_idx = rank + 1 + idx
            a[rows_idx] = (a[rows_idx] - (below[idx, None] * a[rank][None, :]) % p) % p
        rank += 1
    return rank


def rank_mod_p(entries, ncols):
    """Rank over Q, recomputed modulo two large primes.

    Each modular rank is a lower bound on the rational rank and equals
    it unless the prime divides a nonzero minor; the larger is returned.
    """
    rows = integer_rows(entries)
    return max(_rank_mod(rows, ncols, p) for p in PRIMES)


def product_is_zero(a, b):
    """Is the product a * b of rational matrices zero?

    Rows of a and columns of b are scaled to integers (which keeps a
    zero product zero and a nonzero one nonzero), then multiplied modulo
    two primes below 2^20 so that int64 sums cannot overflow. A nonzero
    product passes only if every nonzero entry is divisible by both.
    """
    import numpy as np

    if not a or not b or not b[0]:
        return True
    ai = integer_rows(a)
    bt = integer_rows([list(col) for col in zip(*b)])
    for p in SMALL_PRIMES:
        am = np.array([[x % p for x in r] for r in ai], dtype=np.int64)
        bm = np.array([[x % p for x in r] for r in bt], dtype=np.int64).T
        if np.any((am @ bm) % p):
            return False
    return True
