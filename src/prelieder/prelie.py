"""Core algebraic objects and axiom validators.

A pre-Lie product satisfies left symmetry of the associator,
(x.y).z - x.(y.z) = (y.x).z - y.(x.z). A representation (V; rho, mu)
consists of a Lie-algebra representation rho of the sub-adjacent
bracket [x,y] = x.y - y.x together with mu satisfying
mu(y)mu(x) - mu(x.y) = mu(y)rho(x) - rho(x)mu(y), and a derivation is a
linear D: g -> V with D(x.y) = rho(x)D(y) + mu(y)D(x). Constructors
accept arbitrary structure constants; validity is always a separate
query so deformation candidates can be represented before they hold.

Every one of these axioms, and the two that make (K, rho, mu) a module
over a regular pair, is the vanishing of one component of a matching
bracket of the structure cochain m = pi + rho + mu (the table AXIOMS),
so each validator computes the brackets and reads its tags off them.

The structure classes are immutable. A PreLieAlgebra, like each Matrix
it is paired with, builds the IntView of its product table on first use
and keeps it, so every complex over one structure shares it. A DerPair
and a RegularPair keep the term generators of their complexes the same
way, built by the first Complex over them (cohomology._kept_terms).
"""

from __future__ import annotations

from fractions import Fraction

from .cochain import Cochain, MixedMap, MixedShape, SplitDims, bidegree_of, component, lift
from .exact_linalg import (
    Frozen,
    IntView,
    Matrix,
    columns_matrix,
    combination,
    frac,
    nonzero_parts,
    vec_sub,
)
from .mn_bracket import mn_bracket


class PreLieAlgebra(Frozen):
    """Bilinear product on a based space, as structure constants.

    table[i][j] is the coefficient vector of e_i . e_j. The IntView of
    the table, whose part i * dim + j is e_i . e_j, is built on first use
    (int_view) and kept in a slot that is None until then.
    """

    __slots__ = ("dim", "table", "_view")

    def __init__(self, dim: int, table):
        if dim < 0:
            raise ValueError(f"algebra dimension must be >= 0, got {dim}")
        tab = tuple(
            tuple(tuple(frac(x) for x in vec) for vec in row) for row in table
        )
        if len(tab) != dim or any(
            len(row) != dim or any(len(v) != dim for v in row) for row in tab
        ):
            raise ValueError(f"structure table must be {dim} x {dim} x {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "_view", None)

    def int_view(self) -> IntView:
        """The IntView of the products e_i . e_j, built on the first call and kept."""
        view = self._view
        if view is None:
            view = IntView(nonzero_parts(v for row in self.table for v in row))
            object.__setattr__(self, "_view", view)
        return view

    def prod_basis(self, i: int, j: int):
        return self.table[i][j]

    def products(self, X: Matrix, Y: Matrix) -> list:
        """out[p][q] is column p of X times column q of Y, summed over the
        nonzero entries of both and the nonzero structure constants."""
        n = self.dim
        if X.rows != n or Y.rows != n:
            raise ValueError(f"products take matrices with {n} rows")
        parts, ys = nonzero_parts(v for row in self.table for v in row), Y.column_parts()
        out = []
        for x in X.column_parts():
            row = []
            for y in ys:
                acc = [Fraction(0)] * n
                for i, a in x:
                    for j, b in y:
                        c = a * b
                        for k, t in parts[i * n + j]:
                            acc[k] += c * t
                row.append(tuple(acc))
            out.append(row)
        return out

    def left_mult(self, i: int) -> Matrix:
        """Matrix of L_{e_i}: y -> e_i . y, whose column j is e_i . e_j."""
        return columns_matrix(self.table[i], self.dim)

    def right_mult(self, i: int) -> Matrix:
        """Matrix of R_{e_i}: y -> y . e_i, whose column j is e_j . e_i."""
        return columns_matrix([row[i] for row in self.table], self.dim)

    def __eq__(self, other):
        return (
            isinstance(other, PreLieAlgebra)
            and self.dim == other.dim
            and self.table == other.table
        )


class Representation(Frozen):
    """(V; rho, mu): one dimV x dimV matrix per g-basis vector, each way."""

    __slots__ = ("dim_v", "rho", "mu")

    def __init__(self, dim_v: int, rho, mu):
        object.__setattr__(self, "dim_v", dim_v)
        object.__setattr__(self, "rho", tuple(rho))
        object.__setattr__(self, "mu", tuple(mu))
        if not all(
            isinstance(m, Matrix) and m.rows == dim_v and m.cols == dim_v
            for m in self.rho + self.mu
        ):
            raise ValueError(f"rho and mu must be {dim_v} x {dim_v} matrices")
        if len(self.rho) != len(self.mu):
            raise ValueError("rho and mu must have one matrix per basis vector of g")

    @property
    def dim_g(self) -> int:
        return len(self.rho)


class DerPair(Frozen):
    """Pre-Lie algebra + representation + derivation candidate D: g -> V.

    The term generators of its complexes are kept in a slot that is None
    until the first Complex over the pair is built."""

    __slots__ = ("algebra", "rep", "D", "_terms")

    def __init__(self, algebra: PreLieAlgebra, rep: Representation, D: Matrix):
        if rep.dim_g != algebra.dim:
            raise ValueError("representation and algebra differ in dim g")
        if D.rows != rep.dim_v or D.cols != algebra.dim:
            raise ValueError(f"D must be {rep.dim_v} x {algebra.dim}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "_terms", None)

    @property
    def dims(self) -> SplitDims:
        return SplitDims(self.algebra.dim, self.rep.dim_v)


class RegularPair(Frozen):
    """Pre-Lie algebra with a derivation into itself (V = g, rep = (L,R)).

    The term generators of its regular complex are kept in a slot that is
    None until the first Complex over the pair is built."""

    __slots__ = ("algebra", "D", "_terms")

    def __init__(self, algebra: PreLieAlgebra, D: Matrix):
        if D.rows != algebra.dim or D.cols != algebra.dim:
            raise ValueError(f"D must be {algebra.dim} x {algebra.dim}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "_terms", None)

    def to_derpair(self) -> DerPair:
        return DerPair(self.algebra, regular_representation(self.algebra), self.D)


def basis_vec(dim: int, i: int):
    return tuple(Fraction(1) if t == i else Fraction(0) for t in range(dim))


def subadjacent_lie(a: PreLieAlgebra):
    """Bracket constants of [x,y] = x.y - y.x; requires a pre-Lie input."""
    if not is_prelie(a):
        raise ValueError("not a pre-Lie algebra")
    return tuple(
        tuple(
            vec_sub(a.prod_basis(i, j), a.prod_basis(j, i)) for j in range(a.dim)
        )
        for i in range(a.dim)
    )


def regular_representation(a: PreLieAlgebra) -> Representation:
    """(g; L, R), the left and right multiplication operators."""
    return Representation(
        a.dim,
        [a.left_mult(i) for i in range(a.dim)],
        [a.right_mult(i) for i in range(a.dim)],
    )


def _entries(mats) -> tuple:
    """The entries of the matrices, row by row, one matrix after another."""
    return tuple(x for m in mats for row in m.entries for x in row)


def morphism_sides(f_g: Matrix, f_v: Matrix, src: DerPair, dst: DerPair) -> tuple:
    """Both sides of the four identities making (f_g, f_V) a morphism
    src -> dst, on every basis element, each side as one tuple:

      product   f_g(x.y)     and  f_g(x).f_g(y)
      rho       f_V rho(x)   and  rho'(f_g x) f_V
      mu        f_V mu(x)    and  mu'(f_g x) f_V
      D         f_V D        and  D' f_g
    """
    a1, a2 = src.algebra, dst.algebra
    if f_g.rows != a2.dim or f_g.cols != a1.dim:
        raise ValueError(f"f_g must be {a2.dim} x {a1.dim}")
    if f_v.rows != dst.rep.dim_v or f_v.cols != src.rep.dim_v:
        raise ValueError(f"f_V must be {dst.rep.dim_v} x {src.rep.dim_v}")
    dv = dst.rep.dim_v
    cols = [f_g.col(i) for i in range(a1.dim)]
    prods = columns_matrix([v for row in a1.table for v in row], a1.dim)
    images = columns_matrix([v for row in a2.products(f_g, f_g) for v in row], a2.dim)
    return (
        (_entries([f_g * prods]), _entries([images])),
        (
            _entries(f_v * m for m in src.rep.rho),
            _entries(combination(c, dst.rep.rho, dv, dv) * f_v for c in cols),
        ),
        (
            _entries(f_v * m for m in src.rep.mu),
            _entries(combination(c, dst.rep.mu, dv, dv) * f_v for c in cols),
        ),
        (_entries([f_v * src.D]), _entries([dst.D * f_g])),
    )


def is_morphism(f_g: Matrix, f_v: Matrix, src: DerPair, dst: DerPair) -> bool:
    """Pre-Lie morphism on g plus the three intertwining identities."""
    return all(lhs == rhs for lhs, rhs in morphism_sides(f_g, f_v, src, dst))


# Component maps for the bracket path. The split space is g + V with g
# indices first; pi, rho, mu all lift to bidegree 1|0 and D to 1|-1.
# The three converters take raw data: table[i][j] is the value on
# (e_i, e_j), and mats[i] is the action of e_i on V.

def table_map(dims: SplitDims, table, target: str) -> MixedMap:
    """The map g x g -> target with (e_i, e_j) -> table[i][j]."""
    r = range(dims.dim_g)
    coeffs = {((i,), (), j): table[i][j] for i in r for j in r}
    return MixedMap(dims, MixedShape(1, 0, "g"), target, coeffs)


def left_action_map(dims: SplitDims, mats) -> MixedMap:
    """The map g x V -> V with (e_i, e_u) -> mats[i] e_u."""
    coeffs = {((i,), (), u): mats[i].col(u) for i in range(dims.dim_g) for u in range(dims.dim_v)}
    return MixedMap(dims, MixedShape(1, 0, "v"), "v", coeffs)


def right_action_map(dims: SplitDims, mats) -> MixedMap:
    """The map V x g -> V with (e_u, e_j) -> mats[j] e_u: the source is
    V tensor g, so u is the wedge slot and j the tail."""
    coeffs = {((), (u,), j): mats[j].col(u) for j in range(dims.dim_g) for u in range(dims.dim_v)}
    return MixedMap(dims, MixedShape(0, 1, "g"), "v", coeffs)


def pi_component(a: PreLieAlgebra, dims: SplitDims) -> MixedMap:
    return table_map(dims, a.table, "g")


def rho_component(r: Representation, dims: SplitDims) -> MixedMap:
    return left_action_map(dims, r.rho)


def mu_component(r: Representation, dims: SplitDims) -> MixedMap:
    return right_action_map(dims, r.mu)


def d_component(D: Matrix, dims: SplitDims) -> MixedMap:
    return MixedMap.from_matrix(dims, "g", "v", D)


def _structure(a: PreLieAlgebra, rep: Representation | None = None) -> Cochain:
    """m = lift(pi) + lift(rho) + lift(mu) on g + V, with V = 0 and
    m = lift(pi) when rep is None."""
    dims = SplitDims(a.dim, 0 if rep is None else rep.dim_v)
    m = lift(pi_component(a, dims))
    if rep is None:
        return m
    return m + lift(rho_component(rep, dims)) + lift(mu_component(rep, dims))


def structure_cochain(p: DerPair) -> Cochain:
    """lift(pi) + lift(rho) + lift(mu), the arity-2 structure cochain."""
    return _structure(p.algebra, p.rep)


def derivation_cochain(p: DerPair) -> Cochain:
    return lift(d_component(p.D, p.dims))


# Each structure and module tag with the bracket component whose
# vanishing it states, as (tag, bracket, source shape, target). The
# brackets are "m", [m, m]; "D", [m, D] for D: g -> V; and "Delta",
# [m, Delta] for Delta = D on g plus K on V. A regular pair is read on
# g alone (V = 0), where its derivation identity is the g-valued
# component of [m, Delta].
AXIOMS = (
    ("prelie-left-symmetry", "m", MixedShape(2, 0, "g"), "g"),
    ("rep-axiom-1", "m", MixedShape(2, 0, "v"), "v"),
    ("rep-axiom-2", "m", MixedShape(1, 1, "g"), "v"),
    ("derivation-axiom", "D", MixedShape(1, 0, "g"), "v"),
    ("derivation-axiom", "Delta", MixedShape(1, 0, "g"), "g"),
    ("extension-rep-1", "Delta", MixedShape(1, 0, "v"), "v"),
    ("extension-rep-2", "Delta", MixedShape(0, 1, "g"), "v"),
)
REP_AXIOM_TAGS = ("rep-axiom-1", "rep-axiom-2")


def _derivation_bracket(m: Cochain, x: Cochain) -> dict:
    """[m, x] under the name AXIOMS reads it by: "D" when x maps g into V
    (bidegree 1|-1), "Delta" when it maps g into g and V into V. A zero x
    has a zero bracket, which fails no tag under either name."""
    return {"D" if bidegree_of(x) == (1, -1) else "Delta": mn_bracket(m, x)}


def axiom_brackets(
    a: PreLieAlgebra, rep: Representation | None = None, derivation: Cochain | None = None
) -> dict:
    """The brackets AXIOMS reads, by name, for m built from a and rep
    (V = 0 without rep): [m, m], and given a derivation cochain also
    [m, derivation], named as _derivation_bracket names it."""
    m = _structure(a, rep)
    out = {"m": mn_bracket(m, m)}
    if derivation is not None:
        out.update(_derivation_bracket(m, derivation))
    return out


def failed_axioms(brackets: dict, tags=None) -> list:
    """The tags of AXIOMS, in table order, whose component is nonzero.

    brackets maps bracket names to the brackets at hand; a tag is read
    only when its bracket is among them and, if tags is given, when it
    is among tags.
    """
    return [
        tag
        for tag, name, shape, target in AXIOMS
        if name in brackets
        and (tags is None or tag in tags)
        and not component(brackets[name], shape, target).is_zero()
    ]


def pair_failures(p) -> list:
    """The failed tags of a pair, or of a regular pair read on g alone."""
    if isinstance(p, RegularPair):
        delta = lift(MixedMap.from_matrix(SplitDims(p.algebra.dim, 0), "g", "g", p.D))
        return failed_axioms(axiom_brackets(p.algebra, derivation=delta))
    return failed_axioms(axiom_brackets(p.algebra, p.rep, derivation_cochain(p)))


def is_prelie(a: PreLieAlgebra) -> bool:
    """Left symmetry of the associator on all basis triples."""
    return not failed_axioms(axiom_brackets(a))


def representation_report(a: PreLieAlgebra, r: Representation) -> dict:
    """Both representation axioms on all basis pairs, tagged per axiom."""
    if r.dim_g != a.dim:
        raise ValueError("representation and algebra differ in dim g")
    failed = failed_axioms(axiom_brackets(a, r), REP_AXIOM_TAGS)
    return {"ok": not failed, "failed": failed}


def is_representation(a: PreLieAlgebra, r: Representation) -> bool:
    """Both representation axioms on all basis pairs."""
    return representation_report(a, r)["ok"]


def is_derivation(p: DerPair) -> bool:
    """D(e_i.e_j) = rho(e_i)D(e_j) + mu(e_j)D(e_i) on all basis pairs."""
    return not failed_axioms(_derivation_bracket(structure_cochain(p), derivation_cochain(p)))


def is_derpair(p: DerPair) -> bool:
    return not pair_failures(p)


def is_regular_pair(p: RegularPair) -> bool:
    return not pair_failures(p)
