"""Seeded structures for the benchmark, built without prelieder.

Every algebra is a direct sum of small pre-Lie algebras with integer
structure constants (lines e.e = a e, the shift algebra, the dual
numbers, upper-triangular 2x2 matrices, abelian ones), so the shapes of
all complexes are fixed and only the numbers depend on the seed:

  - derivations are random combinations, with nonzero coefficients, of
    a basis of the derivation space solved for exactly;
  - modules are the zero module, a "character" module
    rho(x) = lambda(x) M, mu = 0 with lambda vanishing on [g, g] (and on
    the image of D when a compatible K is needed), or the regular one;
  - every structure is then moved to a seeded basis by a diagonal
    rescaling (see `rebase`), which keeps it sparse.
"""

from __future__ import annotations

from exact import (
    Q,
    column,
    identity,
    is_module,
    is_pair,
    is_regular_pair,
    kernel,
    left_mult,
    mat_inv,
    mat_mul,
    mat_vec,
    prod,
    right_mult,
    zeros,
)

NONZERO = tuple(Q(n, d) for n in (1, -1, 2, -2, 3, -3) for d in (1, 2)) + (Q(2, 3), Q(-3, 2))


class Structure:
    """A pair (table, rho, mu, D), optionally with a module K for the rep complex.

    For a regular pair rho and mu are the left and right multiplications
    and D is square. For the rep complex the module is (K, mrho, mmu)
    over the regular pair (table, D).
    """

    def __init__(self, name, table, rho, mu, D, regular=False, module=None):
        self.name = name
        self.table = table
        self.rho = rho
        self.mu = mu
        self.D = D
        self.regular = regular
        self.module = module  # (K, mrho, mmu) or None

    @property
    def dg(self):
        return len(self.table)

    @property
    def dv(self):
        return len(self.D)


# ---------------------------------------------------------------------------
# algebras


def _zero_table(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def line(a):
    return [[[a]]]


def abelian(n):
    return _zero_table(n)


def shift():
    t = _zero_table(2)
    t[0][1][1] = 1
    return t


def dual():
    t = _zero_table(2)
    t[0][0][1] = 1
    return t


def triangular():
    basis = [(1, 1), (1, 2), (2, 2)]
    t = _zero_table(3)
    for bi, (i, j) in enumerate(basis):
        for bj, (k, l) in enumerate(basis):
            if j == k and (i, l) in basis:
                t[bi][bj][basis.index((i, l))] = 1
    return t


def direct_sum(a, b):
    n, m = len(a), len(b)
    t = _zero_table(n + m)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t[i][j][k] = a[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                t[n + i][n + j][n + k] = b[i][j][k]
    return t


def _q(table):
    return [[[Q(x) for x in v] for v in row] for row in table]


# ---------------------------------------------------------------------------
# derivations and modules


def derivation_space(table, rho, mu, dv):
    """Basis of {D : D(x.y) = rho(x)D(y) + mu(y)D(x)}; unknown D[u][k] at u*dg + k."""
    dg = len(table)
    rows = []
    for i in range(dg):
        for j in range(dg):
            for u in range(dv):
                row = [Q(0)] * (dv * dg)
                for k, c in enumerate(table[i][j]):
                    if c:
                        row[u * dg + k] += c
                for w in range(dv):
                    row[w * dg + j] -= rho[i][u][w]
                    row[w * dg + i] -= mu[j][u][w]
                rows.append(row)
    return [[[v[u * dg + k] for k in range(dg)] for u in range(dv)] for v in kernel(rows, dv * dg)]


def random_combination(rng, basis, shape):
    out = zeros(*shape)
    for m in basis:
        c = rng.choice(NONZERO)
        out = [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(out, m)]
    return out


def upper(rng, n):
    """Upper triangular with seeded nonzero entries: a fixed sparsity pattern."""
    return [[rng.choice(NONZERO) if j >= i else Q(0) for j in range(n)] for i in range(n)]


def random_sparse(rng, rows, cols, nnz):
    m = zeros(rows, cols)
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    for i, j in rng.sample(cells, min(nnz, len(cells))):
        m[i][j] = rng.choice(NONZERO)
    return m


def _functional(rng, table, extra=()):
    """A random nonzero lambda vanishing on [g, g] and on the vectors in extra."""
    dg = len(table)
    rows = [[table[i][j][k] - table[j][i][k] for k in range(dg)] for i in range(dg) for j in range(dg)]
    rows += [list(v) for v in extra]
    basis = kernel(rows, dg)
    if not basis:
        return None
    lam = [Q(0)] * dg
    for v in basis:
        c = rng.choice(NONZERO)
        lam = [x + c * y for x, y in zip(lam, v)]
    return lam


def character_action(lam, M, dg):
    rho = [[[lam[i] * x for x in row] for row in M] for i in range(dg)]
    mu = [zeros(len(M), len(M)) for _ in range(dg)]
    return rho, mu


def module_pair(rng, name, table, kind, dv):
    """A pair over table with a zero, character or regular module."""
    dg = len(table)
    if kind == "regular":
        rho, mu, dv = left_mult(table), right_mult(table), dg
    elif kind == "char":
        lam = _functional(rng, table)
        rho, mu = character_action(lam, upper(rng, dv), dg)
    else:
        rho = [zeros(dv, dv) for _ in range(dg)]
        mu = [zeros(dv, dv) for _ in range(dg)]
    D = random_combination(rng, derivation_space(table, rho, mu, dv), (dv, dg))
    return Structure(name, table, rho, mu, D)


def regular_pair(rng, name, table):
    L, R = left_mult(table), right_mult(table)
    D = random_combination(rng, derivation_space(table, L, R, len(table)), (len(table), len(table)))
    return Structure(name, table, L, R, D, regular=True)


def rep_module(rng, name, base, kind, dv):
    """A module (K, rho, mu) over the regular pair base, for the rep complex."""
    dg = base.dg
    if kind == "regular":
        return Structure(name, base.table, base.rho, base.mu, base.D, True, (base.D, base.rho, base.mu))
    if kind == "char":
        # lambda o D = 0 makes K = a I + b M compatible
        lam = _functional(rng, base.table, extra=[column(base.D, i) for i in range(dg)])
        if lam is not None:
            M = upper(rng, dv)
            rho, mu = character_action(lam, M, dg)
            a, b = rng.choice(NONZERO), rng.choice(NONZERO)
            K = [[a * int(i == j) + b * M[i][j] for j in range(dv)] for i in range(dv)]
            return Structure(name, base.table, base.rho, base.mu, base.D, True, (K, rho, mu))
    rho = [zeros(dv, dv) for _ in range(dg)]
    K = upper(rng, dv)
    return Structure(name, base.table, base.rho, base.mu, base.D, True, (K, rho, [zeros(dv, dv) for _ in range(dg)]))


# ---------------------------------------------------------------------------
# basis changes


def diagonal(rng, n):
    T = identity(n)
    for i in range(n):
        T[i][i] = rng.choice(NONZERO)
    return T


def _conj(S_inv, m, S):
    return mat_mul(mat_mul(S_inv, m), S)


def _move_actions(mats, T, S, S_inv):
    """rho'(e'_i) = S^-1 rho(T e_i) S."""
    dg = len(T)
    out = []
    for i in range(dg):
        m = zeros(len(S), len(S))
        for k in range(dg):
            c = T[k][i]
            if c:
                m = [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(m, mats[k])]
        out.append(_conj(S_inv, m, S))
    return out


def rebase(s, T, S):
    """The same structure in the basis given by the columns of T (on g) and S (on V).

    A regular pair, and a regular module over it, move with T alone; S
    moves every other module and may be None when there is none.
    """
    T_inv = mat_inv(T)
    dg = len(T)
    cols = [column(T, i) for i in range(dg)]
    table = [[mat_vec(T_inv, prod(s.table, cols[i], cols[j])) for j in range(dg)] for i in range(dg)]
    S_inv = mat_inv(S) if S is not None else None
    if s.regular:
        rho, mu = left_mult(table), right_mult(table)
        D = mat_mul(mat_mul(T_inv, s.D), T)
    else:
        rho = _move_actions(s.rho, T, S, S_inv)
        mu = _move_actions(s.mu, T, S, S_inv)
        D = mat_mul(mat_mul(S_inv, s.D), T)
    module = None
    if s.module is not None:
        K, mrho, mmu = s.module
        if K is s.D:
            module = (D, rho, mu)
        else:
            module = (_conj(S_inv, K, S), _move_actions(mrho, T, S, S_inv), _move_actions(mmu, T, S, S_inv))
    return Structure(s.name, table, rho, mu, D, s.regular, module)


def module_dim(s):
    return len(s.module[0]) if s.module is not None else s.dv


def valid(s):
    """The benchmark's own axiom check of a generated structure."""
    if s.regular and not is_regular_pair(s.table, s.D):
        return False
    if not s.regular and not is_pair(s):
        return False
    if s.module is not None:
        K, rho, mu = s.module
        return is_module(s.table, s.D, K, rho, mu)
    return True


# ---------------------------------------------------------------------------
# the sweep corpus


def abelian_data(name, table, dv):
    """Fully abelian data: zero product, actions, derivation and K.

    Every differential vanishes, so h^n = dim C^n in closed form.
    """
    dg = len(table)
    zg = [zeros(dg, dg) for _ in range(dg)]
    zv = [zeros(dv, dv) for _ in range(dg)]
    p = Structure(f"{name}/zero{dv}", table, zv, zv, zeros(dv, dg))
    reg = Structure(name, table, zg, zg, zeros(dg, dg), regular=True)
    rep = Structure(f"{name}/zero{dv}", table, zg, zg, zeros(dg, dg), True, (zeros(dv, dv), zv, zv))
    return [("regular", reg)] + [(cid, p) for cid in ("coeffs", "prelie", "pair")] + [("rep", rep)]


def algebras(rng):
    """(name, integer table) for dim g = 1 .. 4, with seeded line parameters."""
    a = lambda: rng.choice(NONZERO)  # noqa: E731
    return [
        ("line", line(a())),
        ("ab1", abelian(1)),
        ("shift", shift()),
        ("dual", dual()),
        ("ab2", abelian(2)),
        ("tri", triangular()),
        ("shift+line", direct_sum(shift(), line(a()))),
        ("ab3", abelian(3)),
        ("tri+line", direct_sum(triangular(), line(a()))),
        ("ab4", abelian(4)),
    ]


def sweep_corpus(rng):
    """[(complex id, Structure)] for all five complexes, sparse seeded copies.

    Module pairs use dim V = 1 (zero and character modules) and 2 (zero
    and character); regular pairs and their regular module only up to
    dim g = 2 where V = g has dimension at most 2.
    """
    out = []
    for name, t in algebras(rng):
        table = _q(t)
        dg = len(table)
        if name.startswith("ab"):
            out += abelian_data(name, table, 2)
            continue
        reg = regular_pair(rng, name, table)
        out.append(("regular", reg))
        mods = [("zero", 1), ("char", 2)]
        if dg <= 2:
            mods.append(("regular", dg))
        for kind, dv in mods:
            p = module_pair(rng, f"{name}/{kind}{dv}", table, kind, dv)
            for cid in ("coeffs", "prelie", "pair"):
                out.append((cid, p))
            m = rep_module(rng, f"{name}/{kind}{dv}", reg, kind, dv)
            out.append(("rep", m))
    result = []
    for cid, s in out:
        T = diagonal(rng, s.dg)
        S = diagonal(rng, module_dim(s)) if not s.regular or s.module is not None else None
        result.append((cid, rebase(s, T, S)))
    return result
