"""Independent reference implementations the test suite checks against.

Nothing here imports the modules it is used to verify beyond plain data
types: ranks and span membership come from sympy, or for matrices too
large for it from elimination modulo a large prime, the low-arity bracket
formulas are the classical closed forms written out by hand, and the
associator identity characterizes the bracket through its defining
property. The general composition (over unshuffles enumerated here and
signed by their inversions) and left symmetry are walked densely over
the whole basis, the representation, derivation and module axioms
are Matrix products over every basis element, an extension's abelian,
ideal and derivation conditions are dense products over every basis
vector, a differential's term generators are evaluated one output key
at a time, and the eleven equivalence identities are written out one
by one.
"""

from fractions import Fraction
from itertools import combinations

import sympy

from prelieder.cochain import Cochain, MixedMap
from prelieder.exact_linalg import Matrix, combination, vec_add, vec_scale, vec_sub, zero_vec
from prelieder.prelie import RegularPair
from prelieder.spaces import wedge_tail_basis


def sympy_matrix(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m.entries[i][j]))


def sympy_rank(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return sympy_matrix(m).rank()


def sympy_nullity(m: Matrix) -> int:
    return m.cols - sympy_rank(m)


def sympy_solve(m: Matrix, b):
    """One solution of m x = b or None, via sympy's gauss_jordan_solve."""
    if m.cols == 0:
        return () if all(x == 0 for x in b) else None
    sm = sympy_matrix(m)
    sb = sympy.Matrix(m.rows, 1, [sympy.Rational(x) for x in b])
    try:
        sol, params = sm.gauss_jordan_solve(sb)
    except ValueError:
        return None
    sol = sol.subs({p: 0 for p in params})
    return tuple(Fraction(int(sympy.fraction(x)[0]), int(sympy.fraction(x)[1])) for x in sol)


MERSENNE_61 = 2**61 - 1


def rank_mod_p(rows, cols: int, p: int = MERSENNE_61) -> int:
    """Rank over Z/p of the matrix with the given {column: Fraction} rows.

    Every entry n/d becomes n * d^-1 mod p, so p must divide no
    denominator; the result is then a lower bound on the rank r over Q,
    equal to it unless p divides every r x r minor. Rows are
    reduced one at a time against a basis of unit-leading rows, each
    kept once by its leading column.
    """
    basis = {}
    for row in rows:
        v = {}
        for j, x in row.items():
            x = Fraction(x)
            y = x.numerator * pow(x.denominator, -1, p) % p
            if y:
                v[j] = y
        while v:
            lead = min(v)
            b = basis.get(lead)
            if b is None:
                inv = pow(v[lead], -1, p)
                basis[lead] = {j: y * inv % p for j, y in v.items()}
                break
            f = v[lead]
            for j, y in b.items():
                z = (v.get(j, 0) - f * y) % p
                if z:
                    v[j] = z
                else:
                    v.pop(j, None)
    assert all(0 <= j < cols for j in basis)
    return len(basis)


def in_span(vectors, v) -> bool:
    """Is v in the column span of vectors (all of v's length)? Decided by sympy_solve."""
    if not any(v):
        return True
    m = Matrix(len(v), len(vectors), [[u[i] for u in vectors] for i in range(len(v))])
    return sympy_solve(m, v) is not None


def eval_cochain(c: Cochain, args):
    """Evaluate on arbitrary coordinate vectors by full expansion."""
    total = c.dims.total
    out = zero_vec(total)

    def rec(k, idx, coeff):
        nonlocal out
        if coeff == 0:
            return
        if k == len(args):
            v = c.eval_basis(idx[:-1], idx[-1])
            out = vec_add(out, vec_scale(coeff, v))
            return
        for i, x in enumerate(args[k]):
            if x != 0:
                rec(k + 1, idx + [i], coeff * x)

    rec(0, [], Fraction(1))
    return out


def bracket_11_oracle(f: Cochain, g: Cochain) -> Cochain:
    """On two arity-1 cochains the bracket is the commutator f g - g f."""
    assert f.arity == g.arity == 1
    total = f.dims.total
    coeffs = {}
    for t in range(total):
        fg = eval_cochain(f, [g.eval_basis([], t)])
        gf = eval_cochain(g, [f.eval_basis([], t)])
        v = tuple(a - b for a, b in zip(fg, gf))
        if any(x != 0 for x in v):
            coeffs[((), t)] = v
    return Cochain(f.dims, 1, coeffs)


def bracket_21_oracle(f: Cochain, g: Cochain) -> Cochain:
    """Arity 2 with arity 1: [f,g](x,y) = f(gx,y) + f(x,gy) - g(f(x,y))."""
    assert f.arity == 2 and g.arity == 1
    total = f.dims.total
    coeffs = {}
    # the tail slot is not alternated against the wedge, so x == y stays
    for x in range(total):
        for y in range(total):
            v = eval_cochain(f, [g.eval_basis([], x), unit(total, y)])
            v = vec_add(v, eval_cochain(f, [unit(total, x), g.eval_basis([], y)]))
            v = vec_add(v, vec_scale(-1, eval_cochain(g, [f.eval_basis([x], y)])))
            if any(c != 0 for c in v):
                coeffs[((x,), y)] = v
    return Cochain(f.dims, 2, coeffs)


def unit(total, i):
    return tuple(Fraction(1) if k == i else Fraction(0) for k in range(total))


def associator_defect(f: Cochain, x, y, z):
    """as(x,y,z) - as(y,x,z) for the bilinear map f, evaluated brute force."""
    fxy = eval_cochain(f, [x, y])
    fyx = eval_cochain(f, [y, x])
    fyz = eval_cochain(f, [y, z])
    fxz = eval_cochain(f, [x, z])
    as_xyz = vec_add(eval_cochain(f, [fxy, z]), vec_scale(-1, eval_cochain(f, [x, fyz])))
    as_yxz = vec_add(eval_cochain(f, [fyx, z]), vec_scale(-1, eval_cochain(f, [y, fxz])))
    return tuple(a - b for a, b in zip(as_xyz, as_yxz))


def unshuffles(block_sizes) -> list:
    """All (i1,...,ik)-unshuffles as (perm, sign) pairs.

    Permutations are 0-based image tuples, increasing inside each
    consecutive block, and sign is (-1) to the number of inversions;
    zero-size blocks are allowed (the identity is included, matching the
    empty-block convention). Any negative block size yields no unshuffles
    at all, which is the empty-sum convention the composition formulas
    rely on.
    """
    sizes = list(block_sizes)
    if any(s < 0 for s in sizes):
        return []
    n = sum(sizes)
    result = []

    def extend(remaining, acc):
        if not remaining:
            perm = tuple(acc)
            inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1 :])
            result.append((perm, (-1) ** inversions))
            return
        free = [i for i in range(n) if i not in acc]
        for chosen in combinations(free, remaining[0]):
            extend(remaining[1:], acc + list(chosen))

    extend(sizes, [])
    return result


def circ_reference(P: Cochain, Q: Cochain) -> Cochain:
    """P . Q from the double unshuffle sum, evaluated on every output key."""
    assert P.dims == Q.dims
    total = P.dims.total
    p, q = P.arity - 1, Q.arity - 1
    n = p + q + 1
    sign2 = -1 if (p * q) % 2 else 1
    first = unshuffles((q, 1, p - 1))
    second = unshuffles((p, q))
    out = {}
    for wedge, tail in wedge_tail_basis(total, n):
        acc = zero_vec(total)
        for sigma, sgn in first:
            q_args = [wedge[sigma[j]] for j in range(q)]
            mid = wedge[sigma[q]]
            rest = [wedge[sigma[q + 1 + j]] for j in range(p - 1)]
            qv = Q.eval_basis(q_args, mid)
            for k, c in enumerate(qv):
                if c == 0:
                    continue
                pv = P.eval_basis([k] + rest, tail)
                acc = vec_add(acc, vec_scale(sgn * c, pv))
        for sigma, sgn in second:
            p_args = [wedge[sigma[j]] for j in range(p)]
            q_args = [wedge[sigma[p + j]] for j in range(q)]
            qv = Q.eval_basis(q_args, tail)
            for k, c in enumerate(qv):
                if c == 0:
                    continue
                pv = P.eval_basis(p_args, k)
                acc = vec_add(acc, vec_scale(sign2 * sgn * c, pv))
        if any(x != 0 for x in acc):
            out[(wedge, tail)] = acc
    return Cochain(P.dims, n, out)


def left_symmetric_reference(dim: int, table) -> bool:
    """as(x,y,z) = as(y,x,z) on all basis triples, from the raw table.

    table[i][j][m] is the coefficient of e_m in e_i . e_j; every product
    is expanded densely over all intermediate basis vectors.
    """

    def associator(i, j, k):
        return [
            sum(table[i][j][m] * table[m][k][r] - table[j][k][m] * table[i][m][r] for m in range(dim))
            for r in range(dim)
        ]

    return all(
        associator(i, j, k) == associator(j, i, k)
        for i in range(dim)
        for j in range(dim)
        for k in range(dim)
    )


def prod_reference(a, x, y):
    """The product of two coefficient vectors, expanded densely over every
    basis pair: the sum of x_i y_j e_i.e_j."""
    out = zero_vec(a.dim)
    for i, s in enumerate(x):
        for j, t in enumerate(y):
            if s * t:
                out = vec_add(out, vec_scale(s * t, a.prod_basis(i, j)))
    return out


def bracket_vec(a, i: int, j: int):
    """[e_i, e_j] = e_i.e_j - e_j.e_i without the validity gate."""
    return vec_sub(a.prod_basis(i, j), a.prod_basis(j, i))


def representation_reference(a, r) -> list:
    """The failed representation axioms of (rho, mu), in tag order, from
    Matrix products on every basis pair."""
    ok1 = ok2 = True
    for i in range(a.dim):
        for j in range(a.dim):
            # rho([e_i,e_j]) = rho(e_i)rho(e_j) - rho(e_j)rho(e_i)
            lhs = combination(bracket_vec(a, i, j), r.rho, r.dim_v, r.dim_v)
            if lhs != r.rho[i] * r.rho[j] - r.rho[j] * r.rho[i]:
                ok1 = False
            # mu(e_j)mu(e_i) - mu(e_i.e_j) = mu(e_j)rho(e_i) - rho(e_i)mu(e_j)
            mu_prod = combination(a.prod_basis(i, j), r.mu, r.dim_v, r.dim_v)
            if r.mu[j] * r.mu[i] - mu_prod != r.mu[j] * r.rho[i] - r.rho[i] * r.mu[j]:
                ok2 = False
    return [tag for tag, ok in (("rep-axiom-1", ok1), ("rep-axiom-2", ok2)) if not ok]


def derivation_reference(a, rho, mu, D) -> bool:
    """D(e_i.e_j) = rho(e_i)D(e_j) + mu(e_j)D(e_i) on every basis pair."""
    return all(
        D.matvec(a.prod_basis(i, j)) == vec_add(rho[i].matvec(D.col(j)), mu[j].matvec(D.col(i)))
        for i in range(a.dim)
        for j in range(a.dim)
    )


def pair_reference(p) -> list:
    """The failed tags of a pair, or of a regular pair with its action
    (L, R) written out as matrices, in tag order."""
    a = p.algebra
    failed = [] if left_symmetric_reference(a.dim, a.table) else ["prelie-left-symmetry"]
    if isinstance(p, RegularPair):
        rho, mu = ([m(i) for i in range(a.dim)] for m in (a.left_mult, a.right_mult))
    else:
        failed += representation_reference(a, p.rep)
        rho, mu = p.rep.rho, p.rep.mu
    if not derivation_reference(a, rho, mu, p.D):
        failed.append("derivation-axiom")
    return failed


def module_reference(base, r) -> list:
    """The failed module tags of (K, rho_t, mu_t) over a regular pair, in
    tag order: both representation axioms, then K against D for every
    basis element."""
    ok1 = ok2 = True
    for i in range(base.algebra.dim):
        # K rho_t(x) = rho_t(x) K + rho_t(D x), and the same for mu_t
        rho_d = combination(base.D.col(i), r.rho_t, r.dim_v, r.dim_v)
        mu_d = combination(base.D.col(i), r.mu_t, r.dim_v, r.dim_v)
        if r.K * r.rho_t[i] != r.rho_t[i] * r.K + rho_d:
            ok1 = False
        if r.K * r.mu_t[i] != r.mu_t[i] * r.K + mu_d:
            ok2 = False
    failed = representation_reference(base.algebra, r.plain())
    return failed + [tag for tag, ok in (("extension-rep-1", ok1), ("extension-rep-2", ok2)) if not ok]


def extension_reference(ext) -> list:
    """The failed tags of an abelian extension, in tag order: the total's
    pair axioms (pair_reference), exactness from sympy ranks, and the
    abelian, ideal and derivation conditions as dense loops of
    prod_reference over every basis vector."""
    total, iota, proj = ext.total, ext.iota, ext.proj
    a = total.algebra
    n, dg, dv = a.dim, proj.rows, iota.cols
    cols = [iota.col(u) for u in range(dv)]
    abelian = ideal = True
    for u in range(dv):
        for v in range(dv):
            if any(prod_reference(a, cols[u], cols[v])):
                abelian = False
    for w in range(n):
        ew = unit(n, w)
        for u in range(dv):
            for side in (prod_reference(a, ew, cols[u]), prod_reference(a, cols[u], ew)):
                if any(proj.matvec(side)):
                    ideal = False
    exact = (proj * iota).is_zero() and sympy_rank(iota) == dv and sympy_rank(proj) == dg
    checks = (
        ("extension-total", not pair_reference(total)),
        ("extension-exact", exact),
        ("extension-abelian", abelian),
        ("extension-ideal", ideal),
        ("extension-derivation", (proj * total.D * iota).is_zero()),
    )
    return [tag for tag, ok in checks if not ok]


def apply_terms(dims, shape, target, terms, maps) -> MixedMap:
    """The output block (shape, target) of a term generator at the input maps.

    Each output basis key is evaluated on its own: every term reads its
    input value through eval_local, which re-sorts the arguments with
    their sign, scales it by c and maps it through cols when given, each
    flat entry (a, r, y) of cols adding y times coordinate a to
    coordinate r.
    """
    out = MixedMap(dims, shape, target)
    coeffs = {}
    for key in out.basis_keys():
        acc = [Fraction(0)] * out.target_dim
        for src, g_args, v_args, tail, c, cols in terms(key):
            value = maps[src].eval_local(g_args, v_args, tail)
            if cols is None:
                for a, x in enumerate(value):
                    acc[a] += c * x
            else:
                for a, r, y in cols:
                    acc[r] += c * value[a] * y
        if any(acc):
            coeffs[key] = acc
    return MixedMap(dims, shape, target, coeffs)


def equivalence_reference(base, d1, d2, w) -> dict:
    """The eleven equi-deformation identities, each expanded by hand.

    They are the t, t^2, t^3 parts of (Id + tN, Id + tS) being a morphism
    from the d1-deformed pair to the d2-deformed pair: 1..3 of the
    product identity, 4..6 of rho, 7..9 of mu, 10..11 of D.
    """
    dg, dv = base.dims.dim_g, base.dims.dim_v
    a = base.algebra
    N, S = w.N, w.S
    rho, mu, D = base.rep.rho, base.rep.mu, base.D
    failed = set()

    def bilinear(value, vx, vy):
        out = zero_vec(dg)
        for i, ci in enumerate(vx):
            for j, cj in enumerate(vy):
                if ci * cj:
                    out = vec_add(out, vec_scale(ci * cj, value(i, j)))
        return out

    def prod_vec(vx, vy):
        return bilinear(a.prod_basis, vx, vy)

    def omega_of(d, vx, vy):
        return bilinear(d.omega_vec, vx, vy)

    for i in range(dg):
        ei = unit(dg, i)
        ni = N.col(i)
        for j in range(dg):
            ej = unit(dg, j)
            nj = N.col(j)
            # 1: omega'(x,y) - omega(x,y) = N(x).y + x.N(y) - N(x.y)
            lhs = vec_sub(d1.omega_vec(i, j), d2.omega_vec(i, j))
            rhs = vec_add(prod_vec(ni, ej), prod_vec(ei, nj))
            if lhs != vec_sub(rhs, N.matvec(a.prod_basis(i, j))):
                failed.add(1)
            # 2: N(omega'(x,y)) = N(x).N(y) + omega(x, N(y)) + omega(N(x), y)
            rhs = vec_add(prod_vec(ni, nj), omega_of(d2, ei, nj))
            if N.matvec(d1.omega_vec(i, j)) != vec_add(rhs, omega_of(d2, ni, ej)):
                failed.add(2)
            # 3: omega(N(x), N(y)) = 0
            if any(omega_of(d2, ni, nj)):
                failed.add(3)

    for i in range(dg):
        ni = N.col(i)
        rho_n = combination(ni, rho, dv, dv)
        mu_n = combination(ni, mu, dv, dv)
        sig_n = combination(ni, [d2.sigma_mat(k) for k in range(dg)], dv, dv)
        tau_n = combination(ni, [d2.tau_mat(k) for k in range(dg)], dv, dv)
        s1, s2 = d1.sigma_mat(i), d2.sigma_mat(i)
        t1, t2 = d1.tau_mat(i), d2.tau_mat(i)
        # 4: sigma'(x) - sigma(x) = rho(N x) + rho(x) S - S rho(x)
        if s1 - s2 != rho_n + rho[i] * S - S * rho[i]:
            failed.add(4)
        # 5: S sigma'(x) = sigma(N x) + sigma(x) S + rho(N x) S
        if S * s1 != sig_n + s2 * S + rho_n * S:
            failed.add(5)
        # 6: sigma(N x) S = 0
        if not (sig_n * S).is_zero():
            failed.add(6)
        # 7: tau'(., y) - tau(., y) = mu(N y) + mu(y) S - S mu(y)
        if t1 - t2 != mu_n + mu[i] * S - S * mu[i]:
            failed.add(7)
        # 8: S tau'(u, y) = tau(S u, y) + tau(u, N y) + mu(N y) S u
        if S * t1 != t2 * S + tau_n + mu_n * S:
            failed.add(8)
        # 9: tau(S u, N y) = 0
        if not (tau_n * S).is_zero():
            failed.add(9)

    dh1, dh2 = d1.dhat_mat(), d2.dhat_mat()
    # 10: dhat'(x) - dhat(x) = D(N(x)) - S(D(x))
    if dh1 - dh2 != D * N - S * D:
        failed.add(10)
    # 11: S(dhat'(x)) = dhat(N(x))
    if S * dh1 != dh2 * N:
        failed.add(11)

    tags = [f"equi-deformation-{k}" for k in sorted(failed)]
    return {"ok": not tags, "failed": tags}
