"""Cochains on a split space g + V.

A Cochain of arity n is an element of Hom(wedge^(n-1)(g+V) tensor (g+V),
g+V), stored sparsely on the canonical basis: keys are (increasing wedge
tuple of length n-1, tail index), values are coefficient vectors over
the total space. Basis indices 0..dim_g-1 are the g part and
dim_g..dim_g+dim_v-1 the V part, so canonical wedge tuples always list
g indices before V indices.

A MixedMap is one homogeneous component
    wedge^a(g) tensor wedge^b(V) tensor (tail space) -> target space
with tail and target each 'g' or 'v'. Lifting a MixedMap to a Cochain
and cutting a Cochain back into components is sign-free on canonical
keys precisely because of the index ordering above; the unshuffle signs
reappear only when a cochain is evaluated at out-of-order arguments.
"""

from __future__ import annotations

from .exact_linalg import Frozen, Matrix, columns_matrix, frac, vec_add, vec_scale, zero_vec
from .spaces import enumerate_basis, normalize_wedge, wedge_tail_basis


class SplitDims(Frozen):
    """Dimensions of the split space: dim_g for g, dim_v for V."""

    __slots__ = ("dim_g", "dim_v")

    def __init__(self, dim_g: int, dim_v: int):
        if dim_g < 0 or dim_v < 0:
            raise ValueError(f"negative dimensions {dim_g}, {dim_v}")
        object.__setattr__(self, "dim_g", dim_g)
        object.__setattr__(self, "dim_v", dim_v)

    @property
    def total(self) -> int:
        return self.dim_g + self.dim_v

    def is_g(self, i: int) -> bool:
        return 0 <= i < self.dim_g

    def __eq__(self, other):
        return (
            isinstance(other, SplitDims)
            and self.dim_g == other.dim_g
            and self.dim_v == other.dim_v
        )

    def __hash__(self):
        return hash((self.dim_g, self.dim_v))

    def __repr__(self):
        return f"SplitDims(g={self.dim_g}, v={self.dim_v})"


def _clean_value(val, dim):
    v = tuple(frac(x) for x in val)
    if len(v) != dim:
        raise ValueError(f"value of length {len(v)}, expected {dim}")
    return v


class Cochain:
    """Sparse alternating map wedge^(n-1)(g+V) tensor (g+V) -> g+V."""

    def __init__(self, dims: SplitDims, arity: int, coeffs=None):
        if arity < 1:
            raise ValueError(f"cochain arity must be at least 1, got {arity}")
        self.dims = dims
        self.arity = arity
        self.coeffs = {}
        total = dims.total
        for (wedge, tail), val in (coeffs or {}).items():
            wedge = tuple(wedge)
            if len(wedge) != arity - 1:
                raise ValueError(f"cochain key {wedge}: expected {arity - 1} wedge indices")
            if not all(0 <= i < total for i in wedge) or not 0 <= tail < total:
                raise ValueError(
                    f"cochain key {(wedge, tail)}: index out of range for total dimension {total}"
                )
            if not all(wedge[i] < wedge[i + 1] for i in range(len(wedge) - 1)):
                raise ValueError("cochain keys must use strictly increasing wedge tuples")
            v = _clean_value(val, total)
            if any(x != 0 for x in v):
                self.coeffs[(wedge, tail)] = v

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.dims == other.dims
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.dims != other.dims or self.arity != other.arity:
            raise ValueError("cannot add cochains of different dimensions or arities")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = vec_add(out[k], v) if k in out else v
        return Cochain(self.dims, self.arity, out)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c) -> "Cochain":
        c = frac(c)
        return Cochain(
            self.dims,
            self.arity,
            {k: vec_scale(c, v) for k, v in self.coeffs.items()},
        )

    def eval_basis(self, wedge_args, tail: int):
        """Value on basis arguments (e_{i_1},...,e_{i_{n-1}}; e_tail).

        The wedge arguments need not be sorted; the alternating sign is
        applied, and a repeated index gives zero.
        """
        sign, key = normalize_wedge(tuple(wedge_args))
        if sign == 0:
            return zero_vec(self.dims.total)
        val = self.coeffs.get((key, tail))
        if val is None:
            return zero_vec(self.dims.total)
        return vec_scale(sign, val)


class MixedShape(Frozen):
    """Source shape wedge^g_wedge(g) tensor wedge^v_wedge(V) tensor tail."""

    __slots__ = ("g_wedge", "v_wedge", "tail")

    def __init__(self, g_wedge: int, v_wedge: int, tail: str):
        if tail not in ("g", "v"):
            raise ValueError(f"tail must be 'g' or 'v', got {tail!r}")
        object.__setattr__(self, "g_wedge", g_wedge)
        object.__setattr__(self, "v_wedge", v_wedge)
        object.__setattr__(self, "tail", tail)

    @property
    def degenerate(self) -> bool:
        # negative wedge sizes denote the zero space
        return self.g_wedge < 0 or self.v_wedge < 0

    @property
    def arity(self) -> int:
        return self.g_wedge + self.v_wedge + 1

    def __eq__(self, other):
        return (
            isinstance(other, MixedShape)
            and self.g_wedge == other.g_wedge
            and self.v_wedge == other.v_wedge
            and self.tail == other.tail
        )

    def __hash__(self):
        return hash((self.g_wedge, self.v_wedge, self.tail))

    def __repr__(self):
        return f"MixedShape({self.g_wedge}, {self.v_wedge}, {self.tail!r})"


def component_bidegree(shape: MixedShape, target: str):
    """Bidegree k|l of a map with the given source shape and target."""
    a, b = shape.g_wedge, shape.v_wedge
    if shape.tail == "g":
        return (a, b) if target == "g" else (a + 1, b - 1)
    return (a - 1, b + 1) if target == "g" else (a, b)


class MixedMap:
    """One homogeneous component map, stored on local basis indices.

    Keys are (g_tuple, v_tuple, tail_index); g_tuple is increasing in
    range(dim_g), v_tuple increasing in range(dim_v), the tail index is
    local to its space, and values are vectors over the target space.
    A degenerate shape (negative wedge size) is the zero space and
    stores nothing.
    """

    def __init__(self, dims: SplitDims, shape: MixedShape, target: str, coeffs=None):
        if target not in ("g", "v"):
            raise ValueError(f"target must be 'g' or 'v', got {target!r}")
        self.dims = dims
        self.shape = shape
        self.target = target
        self.coeffs = {}
        if shape.degenerate:
            if coeffs:
                raise ValueError(f"{shape} is the zero space and takes no coefficients")
            return
        tail_dim = dims.dim_g if shape.tail == "g" else dims.dim_v
        tgt_dim = dims.dim_g if target == "g" else dims.dim_v
        for (gt, vt, tail), val in (coeffs or {}).items():
            gt, vt = tuple(gt), tuple(vt)
            key = (gt, vt, tail)
            if len(gt) != shape.g_wedge or len(vt) != shape.v_wedge:
                raise ValueError(f"key {key} does not fit {shape}")
            if (
                not all(0 <= i < dims.dim_g for i in gt)
                or not all(0 <= i < dims.dim_v for i in vt)
                or not 0 <= tail < tail_dim
            ):
                raise ValueError(f"key {key}: index out of range for {dims}")
            if not all(gt[i] < gt[i + 1] for i in range(len(gt) - 1)) or not all(
                vt[i] < vt[i + 1] for i in range(len(vt) - 1)
            ):
                raise ValueError(f"key {key}: wedge indices must be strictly increasing")
            v = _clean_value(val, tgt_dim)
            if any(x != 0 for x in v):
                self.coeffs[key] = v

    @staticmethod
    def from_matrix(dims: SplitDims, tail: str, target: str, m: Matrix) -> "MixedMap":
        """The degree-1 map sending e_j of the tail space to column j of m."""
        cols = {((), (), j): m.col(j) for j in range(m.cols)}
        return MixedMap(dims, MixedShape(0, 0, tail), target, cols)

    def to_matrix(self) -> Matrix:
        """Inverse of from_matrix: column j is the value on e_j."""
        if not self.shape.g_wedge == self.shape.v_wedge == 0:
            raise ValueError(f"to_matrix needs a degree-1 map, got {self.shape}")
        tail_dim = self.dims.dim_g if self.shape.tail == "g" else self.dims.dim_v
        zero = zero_vec(self.target_dim)
        cols = [self.coeffs.get(((), (), j), zero) for j in range(tail_dim)]
        return columns_matrix(cols, self.target_dim)

    @property
    def target_dim(self) -> int:
        return self.dims.dim_g if self.target == "g" else self.dims.dim_v

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, MixedMap)
            and self.dims == other.dims
            and self.shape == other.shape
            and self.target == other.target
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "MixedMap") -> "MixedMap":
        if (self.dims, self.shape, self.target) != (other.dims, other.shape, other.target):
            raise ValueError("cannot add maps of different dimensions, shapes or targets")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = vec_add(out[k], v) if k in out else v
        return MixedMap(self.dims, self.shape, self.target, out)

    def __sub__(self, other: "MixedMap") -> "MixedMap":
        return self + other.scale(-1)

    def __neg__(self) -> "MixedMap":
        return self.scale(-1)

    def scale(self, c) -> "MixedMap":
        return MixedMap(
            self.dims,
            self.shape,
            self.target,
            {k: vec_scale(c, v) for k, v in self.coeffs.items()},
        )

    def eval_local(self, g_args, v_args, tail: int):
        """Value on local basis indices, alternating in each wedge block."""
        sg, gt = normalize_wedge(tuple(g_args))
        sv, vt = normalize_wedge(tuple(v_args))
        if sg == 0 or sv == 0:
            return zero_vec(self.target_dim)
        val = self.coeffs.get((gt, vt, tail))
        if val is None:
            return zero_vec(self.target_dim)
        return vec_scale(sg * sv, val)

    def basis_keys(self):
        """Canonical key order for this component space, lexicographic."""
        return enumerate_basis(
            ((self.shape.g_wedge, self.shape.v_wedge), self.shape.tail),
            (self.dims.dim_g, self.dims.dim_v),
        )


def mixed_space_dim(dims: SplitDims, shape: MixedShape, target: str) -> int:
    if shape.degenerate:
        return 0
    from math import comb

    tail_dim = dims.dim_g if shape.tail == "g" else dims.dim_v
    tgt_dim = dims.dim_g if target == "g" else dims.dim_v
    return (
        comb(dims.dim_g, shape.g_wedge)
        * comb(dims.dim_v, shape.v_wedge)
        * tail_dim
        * tgt_dim
    )


def lift(m: MixedMap) -> Cochain:
    """Horizontal lift of a component map to a full cochain.

    On canonical keys this is plain coefficient copying: the g indices of
    a canonical wedge tuple already precede the V indices, so the only
    unshuffle that hits the component's slot pattern is the identity.
    """
    dims = m.dims
    n = m.shape.arity
    out = {}
    if m.shape.degenerate:
        return Cochain(dims, max(n, 1))
    for (gt, vt, tail), val in m.coeffs.items():
        wedge = gt + tuple(i + dims.dim_g for i in vt)
        gtail = tail if m.shape.tail == "g" else tail + dims.dim_g
        if m.target == "g":
            full = val + zero_vec(dims.dim_v)
        else:
            full = zero_vec(dims.dim_g) + val
        out[(wedge, gtail)] = full
    return Cochain(dims, n, out)


def component(c: Cochain, shape: MixedShape, target: str) -> MixedMap:
    """Cut the (shape, target) component out of a cochain."""
    dims = c.dims
    if shape.degenerate:
        return MixedMap(dims, shape, target)
    if shape.arity != c.arity:
        raise ValueError(f"{shape} has arity {shape.arity}, the cochain {c.arity}")
    out = {}
    tgt_slice = (
        (0, dims.dim_g) if target == "g" else (dims.dim_g, dims.total)
    )
    for (wedge, tail), val in c.coeffs.items():
        gt = tuple(i for i in wedge if i < dims.dim_g)
        vt = tuple(i - dims.dim_g for i in wedge if i >= dims.dim_g)
        if len(gt) != shape.g_wedge or len(vt) != shape.v_wedge:
            continue
        tail_is_g = dims.is_g(tail)
        if (shape.tail == "g") != tail_is_g:
            continue
        ltail = tail if tail_is_g else tail - dims.dim_g
        piece = val[tgt_slice[0] : tgt_slice[1]]
        if any(x != 0 for x in piece):
            out[(gt, vt, ltail)] = piece
    return MixedMap(dims, shape, target, out)


def bidegree_of(c: Cochain):
    """Bidegree k|l of a homogeneous cochain, None if mixed or zero.

    The zero cochain is homogeneous of every bidegree, so it gets None
    rather than an arbitrary choice.
    """
    dims = c.dims
    seen = set()
    for (wedge, tail), val in c.coeffs.items():
        a = sum(1 for i in wedge if i < dims.dim_g)
        b = len(wedge) - a
        tail_kind = "g" if dims.is_g(tail) else "v"
        shape = MixedShape(a, b, tail_kind)
        if any(x != 0 for x in val[: dims.dim_g]):
            seen.add(component_bidegree(shape, "g"))
        if any(x != 0 for x in val[dims.dim_g :]):
            seen.add(component_bidegree(shape, "v"))
    if len(seen) == 1:
        return seen.pop()
    return None


def decompose_k0(c: Cochain):
    """Split a bidegree (n-1)|0 cochain of arity n into (f_g, f_rho, f_mu).

    f_g : wedge^(n-1) g tensor g -> g
    f_rho : wedge^(n-1) g tensor V -> V
    f_mu : wedge^(n-2) g tensor V tensor g -> V
    Entries outside these three shapes are rejected.
    """
    n = c.arity
    f_g = component(c, MixedShape(n - 1, 0, "g"), "g")
    f_rho = component(c, MixedShape(n - 1, 0, "v"), "v")
    f_mu = component(c, MixedShape(n - 2, 1, "g"), "v")
    if lift(f_g) + lift(f_rho) + lift(f_mu) != c:
        raise ValueError("cochain has parts outside bidegree (n-1)|0")
    return f_g, f_rho, f_mu


def theta_component(c: Cochain) -> MixedMap:
    """The n|-1 part of an arity-n cochain: wedge^(n-1) g tensor g -> V."""
    n = c.arity
    return component(c, MixedShape(n - 1, 0, "g"), "v")


def basis_cochains(dims: SplitDims, arity: int):
    """Canonical basis of the full cochain space, lexicographic keys."""
    total = dims.total
    for wedge, tail in wedge_tail_basis(total, arity):
        for tgt in range(total):
            val = [0] * total
            val[tgt] = 1
            yield Cochain(dims, arity, {(wedge, tail): val})
