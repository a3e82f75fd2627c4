"""Infinitesimal deformations of a pair and their classification.

A datum (omega, sigma, tau, dhat) deforms a pair structure to

  x . y   + t omega(x, y)
  rho(x)  + t sigma(x)
  mu(y)   + t tau(., y)
  D       + t dhat

and is an infinitesimal deformation when the deformed structure is a
valid pair for every t. Collecting t-degrees gives four bracket
equations, tagged deformation-1 .. deformation-4:

  1  [m, w] = 0          (m = structure cochain, w = omega+sigma+tau)
  2  [w, w] = 0
  3  [m, dhat] + [w, D] = 0
  4  [w, dhat] = 0

Equations 2 and 4 are quadratic in the datum, so valid data do not form
a linear space. A valid datum is a 2-cocycle of the pair complex.

Equivalence of two data d1 (primed) and d2 is witnessed by a pair of
matrices (N, S) making (Id + tN, Id + tS) a morphism from the
d1-deformed pair to the d2-deformed pair. The t, t^2 and t^3 parts of
the four morphism identities (product, rho, mu, D; the last has no t^3
part) are eleven identities, tagged equi-deformation-1 ..
equi-deformation-11; they are read off the identities at t = 1, 2, 3
rather than written out. Equivalent
data differ by the coboundary of (N, S), so they share a cohomology
class in degree 2.
"""

from __future__ import annotations

from fractions import Fraction

from .cochain import MixedMap, SplitDims, lift
from .cohomology import Complex, DerPairCochain, _slot, _zero_blocks
from .exact_linalg import Matrix, columns_matrix, vec_add, vec_scale, vec_sub
from .mn_bracket import mn_bracket
from .prelie import (
    DerPair,
    PreLieAlgebra,
    Representation,
    derivation_cochain,
    left_action_map,
    morphism_sides,
    right_action_map,
    structure_cochain,
    table_map,
)


class DeformationDatum(DerPairCochain):
    """(omega, sigma, tau, dhat): a degree-2 cochain of the pair complex.

    omega: g x g -> g, sigma: g x V -> V, tau: V x g -> V, dhat: g -> V
    name its blocks f_g, f_rho, f_mu and theta. Only the layout is
    checked at construction, not the deformation equations.
    """

    omega, sigma, tau, dhat = map(_slot, range(4))

    def __init__(self, dims: SplitDims, omega: MixedMap, sigma: MixedMap, tau: MixedMap, dhat: MixedMap):
        super().__init__(dims, 2, omega, sigma, tau, dhat)

    @staticmethod
    def from_matrices(dims: SplitDims, omega_table, sigma_mats, tau_mats, dhat: Matrix) -> "DeformationDatum":
        """omega_table[i][j] = omega(e_i, e_j) as a g-vector; sigma_mats[i]
        acts on V as sigma(e_i); tau_mats[j] sends u to tau(u, e_j)."""
        return DeformationDatum(
            dims,
            table_map(dims, omega_table, "g"),
            left_action_map(dims, sigma_mats),
            right_action_map(dims, tau_mats),
            MixedMap.from_matrix(dims, "g", "v", dhat),
        )

    @staticmethod
    def zero(dims: SplitDims) -> "DeformationDatum":
        return DeformationDatum(dims, *_zero_blocks("pair", dims, 2))

    # matrix views, used by the equation-by-equation validators
    def omega_vec(self, i: int, j: int):
        return self.omega.eval_local((i,), (), j)

    def sigma_mat(self, i: int) -> Matrix:
        dv = self.dims.dim_v
        return columns_matrix([self.sigma.eval_local((i,), (), u) for u in range(dv)], dv)

    def tau_mat(self, j: int) -> Matrix:
        dv = self.dims.dim_v
        return columns_matrix([self.tau.eval_local((), (u,), j) for u in range(dv)], dv)

    def dhat_mat(self) -> Matrix:
        return self.dhat.to_matrix()


class EquivalenceWitness:
    """(N, S): candidate morphism corrections on g and V."""

    def __init__(self, N: Matrix, S: Matrix):
        if N.rows != N.cols or S.rows != S.cols:
            raise ValueError("N and S must be square")
        self.N = N
        self.S = S


DEFORMATION_TAGS = ("deformation-1", "deformation-2", "deformation-3", "deformation-4")


def is_infinitesimal_deformation(base: DerPair, d: DeformationDatum) -> dict:
    """The four t-degree bracket equations, with per-equation tags."""
    if d.dims != base.dims:
        raise ValueError(f"datum over {d.dims}, base pair over {base.dims}")
    m = structure_cochain(base)
    dc = derivation_cochain(base)
    w = lift(d.omega) + lift(d.sigma) + lift(d.tau)
    dh = lift(d.dhat)
    failed = []
    if not mn_bracket(m, w).is_zero():
        failed.append("deformation-1")
    if not mn_bracket(w, w).is_zero():
        failed.append("deformation-2")
    if not (mn_bracket(m, dh) + mn_bracket(w, dc)).is_zero():
        failed.append("deformation-3")
    if not mn_bracket(w, dh).is_zero():
        failed.append("deformation-4")
    return {"ok": not failed, "failed": failed}


def deformed_pair(base: DerPair, d: DeformationDatum, t: Fraction) -> DerPair:
    """The structure at parameter value t; valid for all t iff d deforms base."""
    return _deformation(base, d)(t)


def _deformation(base: DerPair, d: DeformationDatum):
    """t -> the structure deformed by d at parameter value t. The maps of
    d are read once, here, and only scaled by t on each call."""
    dims = base.dims
    r = range(dims.dim_g)
    a = base.algebra
    omega = [[d.omega_vec(i, j) for j in r] for i in r]
    sigma, tau = [d.sigma_mat(i) for i in r], [d.tau_mat(j) for j in r]
    dhat = d.dhat_mat()

    def at(t) -> DerPair:
        table = [[vec_add(a.prod_basis(i, j), vec_scale(t, omega[i][j])) for j in r] for i in r]
        rho = [base.rep.rho[i] + sigma[i].scale(t) for i in r]
        mu = [base.rep.mu[j] + tau[j].scale(t) for j in r]
        rep = Representation(dims.dim_v, rho, mu)
        return DerPair(PreLieAlgebra(dims.dim_g, table), rep, base.D + dhat.scale(t))

    return at


def deformation_cocycle(base: DerPair, d: DeformationDatum) -> DerPairCochain:
    """The datum itself, a degree-2 cochain of the pair complex, once
    checked to be a valid deformation.

    Raises when the datum is not a valid deformation; validity forces
    the cocycle condition, which callers can confirm with huaD.
    """
    res = is_infinitesimal_deformation(base, d)
    if not res["ok"]:
        raise ValueError(f"not an infinitesimal deformation: {res['failed']}")
    return d


EQUIVALENCE_TAGS = tuple(f"equi-deformation-{k}" for k in range(1, 12))

# Row k reads the t^(k+1) part of a polynomial p with p(0) = 0 and degree
# at most 3 off (p(1), p(2), p(3)): the inverse of the matrix (t^k) with
# t = 1, 2, 3 and k = 1, 2, 3.
_T_PARTS = (
    (Fraction(3), Fraction(-3, 2), Fraction(1, 3)),
    (Fraction(-5, 2), Fraction(2), Fraction(-1, 2)),
    (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 6)),
)


def is_equivalence(base: DerPair, d1: DeformationDatum, d2: DeformationDatum, w: EquivalenceWitness) -> dict:
    """Check the eleven identities making (Id+tN, Id+tS) a morphism.

    Source structure is deformed by d1 (the primed datum), target by d2.
    The two sides of each morphism identity (prelie.morphism_sides) differ
    by a polynomial in t of degree at most 3 without constant term, so
    its values at t = 1, 2, 3 give its t, t^2 and t^3 parts: tags
    equi-deformation-1..3 are those of the product identity, 4..6 of the
    left action, 7..9 of the right action and 10..11 of the derivation,
    whose t^3 part vanishes.
    """
    dims = base.dims
    dg, dv = dims.dim_g, dims.dim_v
    if w.N.rows != dg or w.S.rows != dv:
        raise ValueError(f"N must be {dg} x {dg} and S {dv} x {dv}")
    if d1.dims != dims or d2.dims != dims:
        raise ValueError(f"data over {d1.dims} and {d2.dims}, base pair over {dims}")
    defects = []
    deform1, deform2 = _deformation(base, d1), _deformation(base, d2)
    for t in (1, 2, 3):
        f_g = Matrix.identity(dg) + w.N.scale(t)
        f_v = Matrix.identity(dv) + w.S.scale(t)
        src, dst = deform1(t), deform2(t)
        defects.append([vec_sub(lhs, rhs) for lhs, rhs in morphism_sides(f_g, f_v, src, dst)])
    failed = []
    for k, values in enumerate(zip(*defects)):  # product, rho, mu, D at t = 1, 2, 3
        for power, row in enumerate(_T_PARTS[: 2 if k == 3 else 3]):
            if any(sum(c * x for c, x in zip(row, xs)) for xs in zip(*values)):
                failed.append(EQUIVALENCE_TAGS[3 * k + power])
    return {"ok": not failed, "failed": failed}


def _degree_one(dims: SplitDims, N: Matrix, S: Matrix) -> list:
    """(N, S) as the blocks of a pair 1-cochain; f_mu and theta are zero spaces."""
    n_map, s_map = MixedMap.from_matrix(dims, "g", "g", N), MixedMap.from_matrix(dims, "v", "v", S)
    return [n_map, s_map, *_zero_blocks("pair", dims, 1)[2:]]


def coboundary_datum(base: DerPair, N: Matrix, S: Matrix) -> DeformationDatum:
    """The degree-1 coboundary of (N, S) viewed as a deformation datum."""
    blocks = Complex("pair", base).coboundary(1, _degree_one(base.dims, N, S))
    return DeformationDatum(base.dims, *blocks)


def same_cohomology_class(base: DerPair, d1: DeformationDatum, d2: DeformationDatum):
    """Solve d1 - d2 = coboundary(N, S); the witness or None.

    Both inputs must be cocycles of the pair complex. The returned
    witness satisfies the linear identity exactly; it need not satisfy
    the quadratic equivalence constraints.
    """
    cx = Complex("pair", base)
    for d in (d1, d2):
        if not all(m.is_zero() for m in cx.coboundary(2, d.blocks())):
            raise ValueError("input datum is not a 2-cocycle of the pair")
    target = (d1 - d2).blocks()
    x = cx.preimage(2, target)
    if x is None:
        return None
    N, S = x[0].to_matrix(), x[1].to_matrix()
    if cx.coboundary(1, _degree_one(base.dims, N, S)) != target:
        # the solve is exact, so a witness that fails this is an internal fault
        raise RuntimeError("the witness (N, S) does not bound d1 - d2")
    return EquivalenceWitness(N, S)
