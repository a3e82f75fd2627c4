"""Modules over regular pairs, semidirect products, abelian extensions.

A module over a regular pair (g, D) is (V, K, rho_t, mu_t): an action of
the algebra on V together with a map K: V -> V compatible with D,

  extension-rep-1   K(rho_t(x)u) = rho_t(x)K(u) + rho_t(D(x))u
  extension-rep-2   K(mu_t(x)u)  = mu_t(x)K(u)  + mu_t(D(x))u.

An abelian extension presents a regular pair (prod, Dhat) on g + V with
V an abelian ideal. In the basis [s | iota] of a section s of the
projection and the inclusion iota of V, base vectors first, it has the
block layout

  s(x) s(y) = s(x y) + iota theta(x,y),   s(x) iota(u) = iota rho_t(x)u,
  iota(u) s(x) = iota mu_t(x)u,   iota(u) iota(w) = 0,   Dhat = [[D, 0], [xi, K]],

so a section reads off the base pair, the module (rho_t, mu_t, K) and a
2-cocycle (theta, xi) of the module-coefficient complex; extensions are
classified by its degree-2 cohomology. _total writes the layout in the
standard coordinates; _blocks inverts [s | iota] once to read it in any
basis, and refuses an s that is not a section, an iota that is not
injective or does not map into the kernel of the projection, and a
nonzero block outside the layout: V.V != 0, or a g-component of g.V,
V.g or Dhat(V). _layout_failures reads those three conditions, in
standard coordinates off the nonzero products, for validate_extension
(extension-abelian, -ideal, -derivation) and _blocks alike.
"""

from __future__ import annotations

from .cochain import MixedMap, SplitDims, lift
from .cohomology import Complex, _BlockCochain, _slot, _zero_blocks, huaD_rep
from .exact_linalg import Frozen, Matrix, columns_matrix, rank, rref, solve, zero_vec
from .prelie import (
    REP_AXIOM_TAGS,
    PreLieAlgebra,
    RegularPair,
    Representation,
    axiom_brackets,
    basis_vec,
    failed_axioms,
    is_morphism,
    is_regular_pair,
    regular_representation,
    table_map,
)


class DerPairRepresentation(Frozen):
    """(V, K, rho_t, mu_t): a module over a regular pair.

    The term generators of its rep complex are kept in a slot that is
    None until the first Complex over the module is built, together with
    the base pair they were built over."""

    __slots__ = ("dim_v", "K", "rho_t", "mu_t", "_terms")

    def __init__(self, dim_v: int, K: Matrix, rho_t, mu_t):
        object.__setattr__(self, "dim_v", dim_v)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "rho_t", tuple(rho_t))
        object.__setattr__(self, "mu_t", tuple(mu_t))
        object.__setattr__(self, "_terms", None)
        if not K.rows == K.cols == dim_v:
            raise ValueError(f"K must be {dim_v} x {dim_v}")
        if not all(m.rows == m.cols == dim_v for m in self.rho_t + self.mu_t):
            raise ValueError(f"rho_t and mu_t must be {dim_v} x {dim_v} matrices")
        if len(self.rho_t) != len(self.mu_t):
            raise ValueError("rho_t and mu_t must have one matrix per basis vector of g")

    @property
    def dim_g(self) -> int:
        return len(self.rho_t)

    def plain(self) -> Representation:
        return Representation(self.dim_v, self.rho_t, self.mu_t)


def regular_module(base: RegularPair) -> DerPairRepresentation:
    """g acting on itself by left and right multiplication, K = D."""
    r = regular_representation(base.algebra)
    return DerPairRepresentation(r.dim_v, base.D, r.rho, r.mu)


REP_TAGS = REP_AXIOM_TAGS + ("extension-rep-1", "extension-rep-2")


def derpair_representation_report(base: RegularPair, r: DerPairRepresentation) -> dict:
    """Per-equation validation of a module over a regular pair, read off
    [m, m] and [m, Delta] on g + V, Delta being D on g and K on V."""
    a = base.algebra
    if r.dim_g != a.dim:
        raise ValueError(f"module over dim g = {r.dim_g}, base pair has dim g = {a.dim}")
    dims = SplitDims(a.dim, r.dim_v)
    d_g, k_v = (lift(MixedMap.from_matrix(dims, t, t, x)) for t, x in (("g", base.D), ("v", r.K)))
    failed = failed_axioms(axiom_brackets(a, r.plain(), d_g + k_v), REP_TAGS)
    return {"ok": not failed, "failed": failed}


def is_derpair_representation(base: RegularPair, r: DerPairRepresentation) -> bool:
    return derpair_representation_report(base, r)["ok"]


def _require_module(base: RegularPair, r: DerPairRepresentation) -> None:
    if not is_derpair_representation(base, r):
        raise ValueError("not a module over the regular pair")


class ExtensionCocycle(_BlockCochain):
    """(theta, xi): a degree-2 cochain of the rep (module-coefficient)
    complex. theta: g x g -> V and xi: g -> V are its two blocks, the f
    and theta of a two-slot cochain."""

    theta, xi = map(_slot, range(2))

    def __init__(self, dims: SplitDims, theta: MixedMap, xi: MixedMap):
        super().__init__("rep", dims, 2, [theta, xi])

    @staticmethod
    def from_matrices(dims: SplitDims, theta_table, xi: Matrix) -> "ExtensionCocycle":
        return ExtensionCocycle(
            dims, table_map(dims, theta_table, "v"), MixedMap.from_matrix(dims, "g", "v", xi)
        )

    @staticmethod
    def zero(dims: SplitDims) -> "ExtensionCocycle":
        return ExtensionCocycle(dims, *_zero_blocks("rep", dims, 2))


def is_extension_cocycle(base: RegularPair, r: DerPairRepresentation, c: ExtensionCocycle) -> bool:
    return huaD_rep(base, r, c).is_zero()


def _total(base: RegularPair, r: DerPairRepresentation, c: ExtensionCocycle) -> RegularPair:
    """The regular pair on g + V in the block layout of (base, r, c)."""
    a, dg, dv = base.algebra, base.algebra.dim, r.dim_v
    n = dg + dv
    zero_g, zero_v = zero_vec(dg), zero_vec(dv)
    theta = c.theta.coeffs
    table = [[zero_vec(n)] * n for _ in range(n)]
    for i in range(dg):
        for j in range(dg):
            table[i][j] = a.table[i][j] + theta.get(((i,), (), j), zero_v)
        for u in range(dv):
            table[i][dg + u] = zero_g + r.rho_t[i].col(u)
            table[dg + u][i] = zero_g + r.mu_t[i].col(u)
    xi = c.xi.to_matrix()
    D = [base.D.row(i) + zero_v for i in range(dg)] + [xi.row(u) + r.K.row(u) for u in range(dv)]
    return RegularPair(PreLieAlgebra(n, table), Matrix(n, n, D))


def semidirect_product(base: RegularPair, r: DerPairRepresentation) -> RegularPair:
    """Regular pair on g + V with V an abelian ideal and derivation D + K."""
    _require_module(base, r)
    return _total(base, r, ExtensionCocycle.zero(SplitDims(base.algebra.dim, r.dim_v)))


class AbelianExtension:
    """Total regular pair with inclusion of V and projection onto g."""

    def __init__(self, total: RegularPair, iota: Matrix, proj: Matrix):
        self.total = total
        self.iota = iota
        self.proj = proj
        n = total.algebra.dim
        if iota.rows != n or proj.cols != n:
            raise ValueError(f"iota must have {n} rows and proj {n} columns")
        if proj.rows + iota.cols != n:
            raise ValueError(f"dim g + dim V must be {n}, got {proj.rows} + {iota.cols}")

    @property
    def dim_g(self) -> int:
        return self.proj.rows

    @property
    def dim_v(self) -> int:
        return self.iota.cols


# what _blocks refuses for each failed layout tag
_LAYOUT_REFUSALS = {
    "extension-abelian": "V is not abelian: a product of two vectors of V is nonzero",
    "extension-ideal": "V is not an ideal: a product of g and V has a component in g",
    "extension-derivation": "the derivation does not map V into V",
}


def _layout_failures(ext: AbelianExtension) -> list:
    """The failed tags among extension-abelian, -ideal and -derivation, in
    standard coordinates: iota(u) iota(w) = 0, proj(e_k iota(u)) =
    proj(iota(u) e_k) = 0 for every basis vector e_k, and proj Dhat iota = 0."""
    a, iota, proj = ext.total.algebra, ext.iota, ext.proj
    eye = Matrix.identity(a.dim)
    failed = []
    if any(any(v) for row in a.products(iota, iota) for v in row):
        failed.append("extension-abelian")
    sides = a.products(eye, iota) + a.products(iota, eye)
    if any(any(proj.matvec(v)) for row in sides for v in row):
        failed.append("extension-ideal")
    if not (proj * ext.total.D * iota).is_zero():
        failed.append("extension-derivation")
    return failed


def validate_extension(ext: AbelianExtension) -> dict:
    """Structural validity: exactness, abelian ideal, derivation squares."""
    iota, proj = ext.iota, ext.proj
    failed = []
    if not is_regular_pair(ext.total):
        failed.append("extension-total")
    if not ((proj * iota).is_zero() and rank(iota) == ext.dim_v and rank(proj) == ext.dim_g):
        failed.append("extension-exact")
    failed += _layout_failures(ext)
    return {"ok": not failed, "failed": failed}


def build_extension(
    base: RegularPair, r: DerPairRepresentation, c: ExtensionCocycle
) -> AbelianExtension:
    """Total pair with product corrected by theta and derivation by xi.

    Refuses non-cocycles: those are exactly the data for which the total
    structure would fail the pair axioms.
    """
    _require_module(base, r)
    return _build_extension(base, r, c)


def _build_extension(base: RegularPair, r: DerPairRepresentation, c: ExtensionCocycle) -> AbelianExtension:
    """build_extension over a module its caller has already checked."""
    if not is_extension_cocycle(base, r, c):
        raise ValueError("(theta, xi) is not a 2-cocycle of the module complex")
    return _extension(base, r, c)


def _extension(base: RegularPair, r: DerPairRepresentation, c: ExtensionCocycle) -> AbelianExtension:
    """The extension by a cocycle over a module, both already checked."""
    dg, n = base.algebra.dim, base.algebra.dim + r.dim_v
    eye = Matrix.identity(n).entries
    iota, proj = Matrix(n, r.dim_v, [row[dg:] for row in eye]), Matrix(dg, n, eye[:dg])
    ext = AbelianExtension(_total(base, r, c), iota, proj)
    report = validate_extension(ext)
    if not report["ok"]:
        # a cocycle always gives a valid extension, so this is an internal fault
        raise RuntimeError(f"built extension fails its checks: {report['failed']}")
    return ext


def canonical_section(ext: AbelianExtension) -> Matrix:
    """A right inverse of the projection, exact and deterministic."""
    cols = [solve(ext.proj, basis_vec(ext.dim_g, j)) for j in range(ext.dim_g)]
    if None in cols:
        raise ValueError("the projection is not onto g: it has no section")
    return columns_matrix(cols, ext.total.algebra.dim)


def is_section(ext: AbelianExtension, s: Matrix) -> bool:
    return ext.proj * s == Matrix.identity(ext.dim_g)


def _blocks(ext: AbelianExtension, s: Matrix) -> tuple:
    """The products T[i][j] of the basis [s | iota] and the rows of Dhat
    in it, after refusing a total that has no block layout there."""
    if not is_section(ext, s):
        raise ValueError("not a section of the projection")
    if not (ext.proj * ext.iota).is_zero():
        raise ValueError("iota does not map into the kernel of the projection")
    n = ext.total.algebra.dim
    B = Matrix(n, n, [s.row(k) + ext.iota.row(k) for k in range(n)])
    R, _, pivots = rref(Matrix(n, 2 * n, [B.row(k) + basis_vec(n, k) for k in range(n)]))
    if pivots != tuple(range(n)):
        # proj s = 1 and proj iota = 0, so only iota can lose rank
        raise ValueError("iota is not injective")
    failed = _layout_failures(ext)
    if failed:
        raise ValueError(_LAYOUT_REFUSALS[failed[0]])
    inv = Matrix(n, n, [row[n:] for row in R.entries])
    T = [[inv.matvec(v) for v in row] for row in ext.total.algebra.products(B, B)]
    D = (inv * ext.total.D * B).entries
    return T, D


def induced_base(ext: AbelianExtension, s: Matrix) -> RegularPair:
    """The quotient structure pulled through a section (independent of it):
    the base blocks (x y, D) of the layout."""
    T, D = _blocks(ext, s)
    dg = ext.dim_g
    g = range(dg)
    alg = PreLieAlgebra(dg, [[T[i][j][:dg] for j in g] for i in g])
    return RegularPair(alg, Matrix(dg, dg, [D[i][:dg] for i in g]))


def extract_cocycle(ext: AbelianExtension, s: Matrix):
    """(cocycle, module) carried by a section: the blocks (theta, xi) and
    (rho_t, mu_t, K), so theta(x,y) = s(x) s(y) - s(x y) and
    xi(x) = Dhat(s(x)) - s(D(x)) read in V."""
    T, D = _blocks(ext, s)
    dg, dv = ext.dim_g, ext.dim_v
    g, V = range(dg), range(dg, dg + dv)
    rho_t = [Matrix(dv, dv, [[T[i][u][w] for u in V] for w in V]) for i in g]
    mu_t = [Matrix(dv, dv, [[T[u][i][w] for u in V] for w in V]) for i in g]
    r = DerPairRepresentation(dv, Matrix(dv, dv, [D[w][dg:] for w in V]), rho_t, mu_t)
    theta = [[T[i][j][dg:] for j in g] for i in g]
    xi = Matrix(dv, dg, [D[w][:dg] for w in V])
    return ExtensionCocycle.from_matrices(SplitDims(dg, dv), theta, xi), r


def coboundary_cocycle(base: RegularPair, r: DerPairRepresentation, phi: Matrix) -> ExtensionCocycle:
    """Degree-1 coboundary of phi: g -> V in the module complex."""
    cx = Complex("rep", (base, r))
    phi_map = MixedMap.from_matrix(cx.dims, "g", "v", phi)
    zero_theta = _zero_blocks("rep", cx.dims, 1)[1]  # the zero space at n = 1
    return ExtensionCocycle(cx.dims, *cx.coboundary(1, [phi_map, zero_theta]))


def classify(
    base: RegularPair,
    r: DerPairRepresentation,
    c1: ExtensionCocycle,
    c2: ExtensionCocycle,
):
    """Isomorphism id + phi between the two extensions, or None.

    Exists iff c1 - c2 is a coboundary of the module complex; the
    returned matrix is verified to be a pair isomorphism between
    build_extension(base, r, c1) and build_extension(base, r, c2).
    Refuses a non-module first, then non-cocycles.
    """
    _require_module(base, r)
    return _classify(base, r, c1, c2)


def _classify(base: RegularPair, r: DerPairRepresentation, c1: ExtensionCocycle, c2: ExtensionCocycle):
    """classify over a module its caller has already checked."""
    cx = Complex("rep", (base, r))
    for c in (c1, c2):
        if not all(m.is_zero() for m in cx.coboundary(2, c.blocks())):
            raise ValueError("input is not a 2-cocycle of the module complex")
    x = cx.preimage(2, (c1 - c2).blocks())
    if x is None:
        return None
    dg, n = cx.dims.dim_g, cx.dims.total
    zeta_rows = [list(row) for row in Matrix.identity(n).entries]
    for u, row in enumerate(x[0].to_matrix().entries):  # phi: g -> V below the diagonal
        zeta_rows[dg + u][:dg] = row
    zeta = Matrix(n, n, zeta_rows)
    ext1, ext2 = _extension(base, r, c1), _extension(base, r, c2)
    if rank(zeta) != n:
        raise RuntimeError("id + phi is not invertible")
    if not is_morphism(zeta, zeta, ext1.total.to_derpair(), ext2.total.to_derpair()):
        raise RuntimeError("id + phi is not a morphism between the two extensions")
    return zeta
