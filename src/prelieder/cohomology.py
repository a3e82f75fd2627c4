"""The coboundary operators and cohomology dimensions.

Five complexes share this module:

  coeffs   C^n = Hom(wedge^(n-1) g tensor g, V), differential d_coeff
           (the four-sum coboundary of the coefficient complex),
  prelie   C^n = Hom(.., g) + Hom(.., V) + Hom(.., V) triples with
           differential partial (the bracket with the structure maps,
           up to sign),
  pair     C^n = prelie C^n + coeffs C^{n-1}, differential
           huaD(f, theta) = (partial f, d_coeff theta + delta f),
  regular  C^n = Hom(wedge^(n-1) g tensor g, g) + Hom(wedge^(n-2) g
           tensor g, g) for derivations of g into itself,
           huaD_reg(f, theta) = (d f, d theta + omega f),
  rep      the same two-slot shape with values in a module V carrying
           (K, rho_t, mu_t), differential huaD_rep.

Explicit formulas are authoritative here; the equivalent bracket-path
operators live next to them (suffix _bracket) and the test suite pins
the two paths together exactly. Sign factors like (-1)^(n-2) are
applied literally at n=1, where they equal -1.

Each formula is written once, as a generator of terms: for one output
basis key it lists which input value is read (block, arguments, tail)
and the linear map applied to it. Every entry of a differential is a
sum of signs times one structure constant each, so it is linear in the
constants. The generators read the constants times L, the lcm of their
denominators, as ints. A map a term applies whole (L_x, R_x, rho(x),
mu(x), D, K, and x -> rho(x) u or mu(x) u) is read as its flat entries,
the nonzero (column, row, entry) triples, and a term is yielded only
when its map is nonzero; a single column (a product e_i.e_j, rho(x) u,
D x) is read as its nonzero (index, entry) pairs. Neither L nor the int
tables are computed here: each leaf of the structure data (the
PreLieAlgebra and every Matrix: rho, mu, D, K) keeps an IntView, built
on its first use, with its nonzero constants and their own L, and the
int tables read off them (_Algebra for the algebra, the columns and the
flat entries of a matrix) for each scale asked for. A complex's L
(_scale) is the lcm of its leaves' L's, and its tables come from the
leaves' views at that L, rescaled from the nonzeros alone where it
differs from a leaf's own; every complex over one structure shares
them. Only the maps x -> act(x) u cross leaves (_Action). Those and the
term generators are built by the first Complex over a structure and
kept on it (_kept_terms): on the DerPair for coeffs, prelie and pair,
on the RegularPair for regular, and on the module for rep, tagged with
the base pair they were built over and built again over any other.
A later Complex looks them up. One engine reads the generators:
_assemble scatters the terms' entries into columns, which gives L
times a differential in a single pass as sparse integer columns
{row: int}, in plain int arithmetic. Ranks, and so cohomology_dim, come from the forward phase
of the elimination kernel on those columns, which a nonzero factor does
not change. It gives rank d_n and an echelon basis of B^(n+1), kept per
degree; once the basis of B^n is kept, rank d_n eliminates only the
columns of d_n outside its leading coordinates, which span a complement
of B^n, on which d_n vanishes. So the ranks are exact only where
d² = 0: for complexes over a valid pair, regular pair and module, as
the CLI checks before it ranks anything. Every other reader takes the
rows, transposed from the columns in one place (_transpose): cocycle
bases come from the kernel's reduced rows, preimages solve against the
right-hand side times L, and coboundaries, the cochain-level operators
(huaD and the pieces partial, delta, omega, d_coeff) and the LES maps
are sparse products, divided by L where the value itself is returned.
A dense Matrix of d_n is built only when asked for
(differential_matrix).

The component shapes with a negative wedge size are zero spaces, which
makes the degree-1 special cases of every complex come out of the
uniform formulas.

The table COMPLEXES is the one place a complex is defined: per id it
holds the dimensions read from the structure data, the block layout of
C^n and the term generators of d. Complex, space_dimension and
differential_matrix read it, and Complex.coboundary, preimage and
cocycle_basis take and return cochains as lists of blocks, so no other
module handles coordinates.

The coordinates of one block, its basis keys in enumerate_basis order
and the offset of each key, depend on (dims, shape, target) alone. _block
builds them once per process, and _assemble, _flatten and _unflatten
read them from there. The whole of C^n is laid out once per process
too, as a degree plan keyed by (complex id, dim g, dim V, n)
(_degree_plan): its specs, each block's first coordinate and layout,
and dim C^n, read by Complex.specs, dim and _cols, by _assemble's
index and by space_dimension. Neither cache holds structure data, so
the blocks and degrees that complexes of one dims share are laid out
once. A block with no coordinates is laid out empty without reaching
_block, and a degree outside 1..dim g + 2, where every C^n is zero,
without reaching either cache, so they do not grow with the degrees
asked for. No
differential, rank or result is kept between Complex objects.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import isqrt, lcm
from operator import add, attrgetter, sub
from typing import Callable, NamedTuple

from .cochain import (
    MixedMap,
    MixedShape,
    SplitDims,
    component,
    lift,
    mixed_space_dim,
    theta_component,
)
from .exact_linalg import Matrix, sparse_echelon, sparse_kernel, sparse_matvec, sparse_solve, zero_vec
from .linfty import LElement
from .mn_bracket import mn_bracket
from .prelie import (
    DerPair,
    PreLieAlgebra,
    RegularPair,
    derivation_cochain,
    structure_cochain,
)
from .spaces import normalize_wedge


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _drop(t, i):
    return t[:i] + t[i + 1 :]


def _scale(mats, a: PreLieAlgebra | None = None) -> int:
    """L, the lcm of the denominators of the entries of mats and of the
    structure constants of a: the least factor that makes them all ints.
    It is the lcm of the L's of their views."""
    views = [m.int_view() for m in mats]
    if a is not None:
        views.append(a.int_view())
    return lcm(*(v.scale for v in views))


def _columns(m: Matrix, scale: int) -> tuple:
    """The columns of scale * m, each as its nonzero (row, int) pairs;
    scale must be a multiple of the L of m. The form read where a term
    reads one column. Kept on the view of m."""
    return m.int_view().table(scale)


def _flat(columns) -> tuple:
    """The map with the given columns as its flat entries: the nonzero
    (a, r, y), where column a has entry y in row r. The form of every map
    a term applies whole; empty when the map is zero."""
    return tuple((a, r, y) for a, col in enumerate(columns) for r, y in col)


def _flat_map(m: Matrix, scale: int) -> tuple:
    """scale * m as its flat entries (_flat); scale must be a multiple of
    the L of m. Kept on the view of m."""
    return m.int_view().table(scale, _flat)


def _difference(x, y) -> tuple:
    """The nonzero (index, entry) pairs of x - y, given as such pairs."""
    out = dict(x)
    for k, c in y:
        out[k] = out.get(k, 0) - c
    return tuple(sorted((k, c) for k, c in out.items() if c))


class _Algebra:
    """Structure constants of g, times a scale, in the forms the term
    generators read.

    Built from the nonzero products alone, as (index, int) pairs, given
    row-major (e_i.e_j is products[i * dim + j]). Single products are read
    as such pairs: dot[i][j] is e_i.e_j and bracket[i][j] is [e_i, e_j].
    Whole maps are read as their flat entries (_flat): left[i] is L_(e_i),
    whose column u is e_i.e_u, and right[i] is R_(e_i), whose column u is
    e_u.e_i.
    """

    def __init__(self, products: tuple):
        dim = isqrt(len(products))
        r = range(dim)
        self.dot = p = [products[i * dim : (i + 1) * dim] for i in r]
        self.left = [_flat(p[i]) for i in r]
        self.right = [_flat([p[u][i] for u in r]) for i in r]
        self.bracket = [[_difference(p[i][j], p[j][i]) for j in r] for i in r]


def _algebra(a: PreLieAlgebra, scale: int) -> _Algebra:
    """The _Algebra of a times scale; scale must be a multiple of the L of
    a. Built once per scale and kept on the view of a."""
    return a.int_view().table(scale, _Algebra)


class _Action:
    """An action x -> act[x] of g on V, times scale, in the forms the term
    generators read.

    cols[x][w] is act[x] e_w as its nonzero (index, int) pairs, read where
    a term reads one column. flat[x] is act[x] and at[u] is the map
    x -> act[x] e_u (its column x is act[x] e_u), each as its flat
    entries (_flat). cols and flat are kept on the views of the matrices;
    at crosses them, so it is built here, once per structure: by the
    first Complex over it, and kept with its term generators
    (_kept_terms).
    """

    def __init__(self, mats, dim_v: int, scale: int):
        self.cols = cols = [_columns(m, scale) for m in mats]
        self.flat = [_flat_map(m, scale) for m in mats]
        self.at = [_flat([c[u] for c in cols]) for u in range(dim_v)]


# ---------------------------------------------------------------------------
# the term engine
#
# A term is (src, g_args, v_args, tail, c, cols): read input block src at
# (g_args; v_args; tail), with alternating signs, and add c times the
# value to the output, after mapping it through cols when cols is not
# None. cols is a map of structure constants as its flat entries (_flat):
# entry (a, r, y) sends the a-th target coordinate of the value, times y,
# to output coordinate r. A generator yields such a term only when its
# map is nonzero. Either c is a sign and cols holds structure constants,
# or cols is None and c is a sign times one constant: each term is
# linear in the constants, so constants scaled by L give L times the
# map. The generators read the constants as ints.


@cache
def _block(dims: SplitDims, shape: MixedShape, target: str):
    """The coordinate layout of the block (shape, target) over dims:
    (keys, offsets, target_dim), with keys its basis keys in
    enumerate_basis order and offsets[key] the offset of key's first
    coordinate in the block, its index times target_dim.

    A layout depends on dims, shape and target alone, never on structure
    constants, so one is built per process and shared by every complex,
    assembly, _flatten and _unflatten over those dims. The cache holds
    only these keys and ints; offsets is shared and never written. A
    block with no coordinates is laid out by _layout, not here."""
    m = MixedMap(dims, shape, target)
    keys = tuple(m.basis_keys())
    tdim = m.target_dim
    return keys, {key: i * tdim for i, key in enumerate(keys)}, tdim


def _layout(dims: SplitDims, shape: MixedShape, target: str):
    """The layout of the block (shape, target) over dims, as _block gives
    it; a block with no coordinates gets an empty one without reaching
    _block, so its cache does not grow with the degrees asked for."""
    if mixed_space_dim(dims, shape, target):
        return _block(dims, shape, target)
    return (), {}, dims.dim_g if target == "g" else dims.dim_v


class _Plan(NamedTuple):
    """The coordinates of a space of cochains given as blocks: specs, its
    (shape, target) blocks in order; blocks, per block (its first
    coordinate, keys, offsets, target dim), the layout of _layout placed
    after the blocks before it; and dim, the number of coordinates."""

    specs: tuple
    blocks: tuple
    dim: int


def _lay_out(dims: SplitDims, specs) -> _Plan:
    """The _Plan of the blocks specs over dims."""
    blocks, first = [], 0
    for shape, target in specs:
        keys, offsets, tdim = _layout(dims, shape, target)
        blocks.append((first, keys, offsets, tdim))
        first += len(keys) * tdim
    return _Plan(tuple(specs), tuple(blocks), first)


def _apply(name: str, dims: SplitDims, maps, specs, scale: int, terms) -> list:
    """The output blocks, laid out as specs, of the term generators
    terms (one per block, reading the constants times scale) at the
    input maps, which must be over the structure's dims: their assembled
    rows times the coordinates of the maps, divided by scale."""
    if any(m.dims != dims for m in maps):
        raise ValueError(f"{name} cochain blocks are not over {dims}")
    source = _lay_out(dims, [(m.shape, m.target) for m in maps])
    rows = _transpose(*_assemble(source, _lay_out(dims, specs), terms))
    return _unflatten(dims, specs, _unscale(sparse_matvec(rows, _flatten(maps)), scale))


def _unscale(vec, scale: int):
    """vec over scale, the value of a map from its rows times scale."""
    return vec if scale == 1 else [x / scale for x in vec]


def _assemble(source: _Plan, target: _Plan, terms):
    """Sparse columns of a term-defined linear map, built in one pass.

    source and target are the _Plans of the input and output blocks, and
    terms holds one term generator per output block. Each term of each
    output key scatters its contribution into the columns of the input
    basis elements it reads: a term without a map into one column per
    target coordinate, a term with a map one entry per flat entry of the
    map, so the cost is rows times the terms' entries, not that times the
    number of columns. Returns (columns, nrows) with each column a
    {row: int} dict when the terms read int constants, as every generator
    here does; entries that cancel are dropped. Ranks read the columns as
    they are (Complex._image); every other reader takes the rows
    (_transpose).

    The output keys, and each input key's column (its block's first
    column plus its offset), come from the plans, whose layouts _block
    keeps per process, holding no structure data. The signs and sorted
    tuples of the wedge arguments the terms read are looked up in a dict
    built per call.

    A term with a map must have a sign for c: any other c would make the
    entry quadratic in the constants, which scaling them by L would scale
    by L^2, so the rows of L d would be wrong and so every rank read off
    them. Every such term is checked, and a RuntimeError raised.
    """
    index = source.blocks  # per input block: (its first column, keys, offsets, target dim)
    # (g_args, v_args) -> (sign, sorted g_args, sorted v_args); the same
    # argument tuples recur across output keys and terms
    normal = {}
    columns = [{} for _ in range(source.dim)]
    i = 0  # the row of the output key's first target coordinate
    for (_, keys, _, tdim), gen in zip(target.blocks, terms):
        for key in keys:
            for src, g_args, v_args, tail, c, cols in gen(key):
                if cols is not None and c != 1 and c != -1:
                    raise RuntimeError(f"a term with a column map has coefficient {c}, not a sign")
                base, _, offsets, sdim = index[src]
                if not offsets:  # zero space
                    continue
                args = (g_args, v_args)
                norm = normal.get(args)
                if norm is None:
                    sg, gt = normalize_wedge(g_args)
                    sv, vt = normalize_wedge(v_args)
                    norm = normal[args] = (sg * sv, gt, vt)
                sign, gt, vt = norm
                if sign == 0:
                    continue
                if sign < 0:
                    c = -c
                j0 = base + offsets[(gt, vt, tail)]
                if cols is None:
                    for a in range(sdim):
                        _scatter(columns[j0 + a], i + a, c)
                elif c == 1:
                    for a, r, y in cols:
                        _scatter(columns[j0 + a], i + r, y)
                else:
                    for a, r, y in cols:
                        _scatter(columns[j0 + a], i + r, -y)
            i += tdim
    return columns, i


def _scatter(vec: dict, k: int, x) -> None:
    """vec[k] += x on a sparse vector, dropping the entry if it cancels."""
    y = vec.get(k)
    if y is None:
        vec[k] = x
    else:
        y += x
        if y:
            vec[k] = y
        else:
            del vec[k]


def _transpose(vectors, length: int) -> list:
    """The sparse vectors as the rows of the transpose of their matrix:
    length dicts, the k-th holding entry x at j where vectors[j][k] = x.
    The one place a differential changes between columns and rows."""
    out = [{} for _ in range(length)]
    for j, vec in enumerate(vectors):
        for k, x in vec.items():
            out[k][j] = x
    return out


def _sum_terms(*gens):
    return lambda key: chain.from_iterable(g(key) for g in gens)


# ---------------------------------------------------------------------------
# coefficient-complex coboundary (three instantiations: (rho,mu) on V,
# (L,R) on g, (rho_t,mu_t) on V)


def _d_coeff_terms(alg: _Algebra, lmaps, rmaps, src: int):
    """Four-sum coboundary of block src; lmaps[x], rmaps[x] are act_l[x],
    act_r[x] as flat entries."""
    prod, brk = alg.dot, alg.bracket

    def terms(key):
        xs, _, t = key
        m = len(xs)
        rt = rmaps[t]
        for i in range(m):
            s = _sign(i)  # (-1)^(i+1) for 1-based i
            xi = xs[i]
            rest = _drop(xs, i)
            if lmaps[xi]:
                yield src, rest, (), t, s, lmaps[xi]
            if rt:
                yield src, rest, (), xi, s, rt
            for k, c in prod[xi][t]:
                yield src, rest, (), k, -s * c, None
        for i in range(m):
            for j in range(i + 1, m):
                s = _sign(i + j)  # (-1)^(i+j): the two 1-based shifts cancel
                rest = _drop(_drop(xs, j), i)
                for k, c in brk[xs[i]][xs[j]]:
                    yield src, (k,) + rest, (), t, s * c, None

    return terms


def d_coeff(a: PreLieAlgebra, act_l, act_r, f: MixedMap) -> MixedMap:
    """Four-sum coboundary on Hom(wedge^(m-1) g tensor g, T).

    act_l[i], act_r[i] are the action matrices of e_i on the target
    space T; f has shape (m-1, 0, 'g'). Output has shape (m, 0, 'g').
    """
    dims = SplitDims(a.dim, act_l[0].rows if act_l else f.dims.dim_v)
    t = dims.dim_g if f.target == "g" else dims.dim_v
    if not len(act_l) == len(act_r) == a.dim or any(m.rows != t or m.cols != t for m in (*act_l, *act_r)):
        raise ValueError(f"d_coeff needs {a.dim} action matrices of size {t} x {t} on each side")
    scale = _scale([*act_l, *act_r], a)
    lmaps, rmaps = ([_flat_map(x, scale) for x in act] for act in (act_l, act_r))
    return _d_coeff(dims, scale, _algebra(a, scale), lmaps, rmaps, f)


def _d_coeff(dims: SplitDims, scale: int, alg: _Algebra, lmaps, rmaps, f: MixedMap) -> MixedMap:
    if not (f.shape.v_wedge == 0 or f.shape.degenerate) or f.shape.tail != "g":
        raise ValueError(f"d_coeff takes Hom(wedge g tensor g, T), got shape {f.shape}")
    shape = MixedShape(f.shape.g_wedge + 1, 0, "g")
    terms = [_d_coeff_terms(alg, lmaps, rmaps, 0)]
    return _apply("d_coeff", dims, [f], [(shape, f.target)], scale, terms)[0]


def d_prelie(a: PreLieAlgebra, rep, f: MixedMap) -> MixedMap:
    """Coboundary of the coefficient complex with values in (V; rho, mu)."""
    return d_coeff(a, rep.rho, rep.mu, f)


def d_regular(a: PreLieAlgebra, f: MixedMap) -> MixedMap:
    """Coboundary with regular coefficients (L, R) on g itself."""
    scale = _scale([], a)
    alg = _algebra(a, scale)
    return _d_coeff(SplitDims(a.dim, a.dim), scale, alg, alg.left, alg.right, f)


# ---------------------------------------------------------------------------
# partial: the degree map on triples (f_g, f_rho, f_mu), blocks 0, 1, 2


def _partial_rho_terms(alg: _Algebra, rho: _Action):
    brk = alg.bracket

    def terms(key):
        xs, _, u = key
        n = len(xs)
        at = rho.at[u]
        for i in range(n):
            s = _sign(i)
            xi = xs[i]
            rest = _drop(xs, i)
            # rho(f_g(.., x_i)) u
            if at:
                yield 0, rest, (), xi, s, at
            # rho(x_i) f_rho(.., u)
            if rho.flat[xi]:
                yield 1, rest, (), u, s, rho.flat[xi]
            # - f_rho(.., rho(x_i) u)
            for w, c in rho.cols[xi][u]:
                yield 1, rest, (), w, -s * c, None
        for i in range(n):
            for j in range(i + 1, n):
                s = _sign(i + j)
                rest = _drop(_drop(xs, j), i)
                for k, c in brk[xs[i]][xs[j]]:
                    yield 1, (k,) + rest, (), u, s * c, None

    return terms


def _partial_mu_terms(alg: _Algebra, rho: _Action, mu: _Action):
    prod, brk = alg.dot, alg.bracket

    def terms(key):
        xs, (u,), t = key  # x_1 .. x_{n-1}; t is x_n
        n = len(xs) + 1
        lead_sign = _sign(n - 1)
        at, mu_t = mu.at[u], mu.flat[t]
        # (-1)^(n-1) (mu(f_g(x_1..x_n)) u + mu(x_n) f_rho(.., u) - f_rho(.., mu(x_n) u))
        if at:
            yield 0, xs, (), t, lead_sign, at
        if mu_t:
            yield 1, xs, (), u, lead_sign, mu_t
        for w, c in mu.cols[t][u]:
            yield 1, xs, (), w, -lead_sign * c, None
        for i in range(n - 1):
            s = _sign(i)
            xi = xs[i]
            rest = _drop(xs, i)
            # - f_mu(.., u, x_i . x_n)
            for k, c in prod[xi][t]:
                yield 2, rest, (u,), k, -s * c, None
            # + rho(x_i) f_mu(.., u, x_n)
            if rho.flat[xi]:
                yield 2, rest, (u,), t, s, rho.flat[xi]
            # - f_mu(.., rho(x_i) u, x_n)
            for w, c in rho.cols[xi][u]:
                yield 2, rest, (w,), t, -s * c, None
            # + mu(x_n) f_mu(.., u, x_i)
            if mu_t:
                yield 2, rest, (u,), xi, s, mu_t
            # + f_mu(.., mu(x_i) u, x_n)  (note: plus, unlike the rho term)
            for w, c in mu.cols[xi][u]:
                yield 2, rest, (w,), t, s * c, None
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                s = _sign(i + j)
                rest = _drop(_drop(xs, j), i)
                for k, c in brk[xs[i]][xs[j]]:
                    yield 2, (k,) + rest, (u,), t, s * c, None

    return terms


def partial(a: PreLieAlgebra, rep, f_g: MixedMap, f_rho: MixedMap, f_mu: MixedMap):
    """Explicit component formulas for the triple-complex coboundary."""
    n = f_g.shape.arity
    dims = SplitDims(a.dim, rep.dim_v)
    maps = [f_g, f_rho, f_mu]
    return tuple(_apply("partial", dims, maps, _prelie_specs(n + 1), *_prelie_terms(a, rep)))


def partial_bracket(p: DerPair, f_g, f_rho, f_mu):
    """Oracle path: (-1)^(n-1) [pi+rho+mu, f]^MN, decomposed."""
    n = f_g.shape.arity
    m = structure_cochain(p)
    f = lift(f_g) + lift(f_rho) + lift(f_mu)
    br = mn_bracket(m, f).scale(_sign(n - 1))
    dims = p.dims
    return (
        component(br, MixedShape(n, 0, "g"), "g"),
        component(br, MixedShape(n, 0, "v"), "v"),
        component(br, MixedShape(n - 1, 1, "g"), "v"),
    )


# ---------------------------------------------------------------------------
# delta and omega


def _delta_terms(dcols, dflat):
    """delta reads the triple blocks f_g, f_rho, f_mu = 0, 1, 2; dcols
    are the columns of D and dflat its flat entries."""

    def terms(key):
        xs, _, t = key
        n = len(xs) + 1
        tail_sign = _sign(n - 2)
        for i in range(n - 1):
            s = _sign(i)
            rest = _drop(xs, i)
            for k, c in dcols[xs[i]]:
                yield 2, rest, (k,), t, s * c, None
        for k, c in dcols[t]:
            yield 1, xs, (), k, tail_sign * c, None
        if dflat:
            yield 0, xs, (), t, -tail_sign, dflat

    return terms


def delta(D: Matrix, f_g: MixedMap, f_rho: MixedMap, f_mu: MixedMap) -> MixedMap:
    """The mixing map triple -> Hom(wedge^(n-1) g tensor g, V).

    (delta f)(x_1..x_n) = sum_i (-1)^(i+1) f_mu(.., D(x_i), x_n)
      + (-1)^(n-2) (f_rho(x_1..x_{n-1}, D(x_n)) - D(f_g(x_1..x_n))).
    """
    shape = MixedShape(f_g.shape.arity - 1, 0, "g")
    dims = SplitDims(D.cols, D.rows)
    scale = _scale([D])
    terms = [_delta_terms(_columns(D, scale), _flat_map(D, scale))]
    return _apply("delta", dims, [f_g, f_rho, f_mu], [(shape, "v")], scale, terms)[0]


def delta_bracket(p: DerPair, f_g, f_rho, f_mu) -> MixedMap:
    """Oracle path: (-1)^(n-2) [f, D]^MN, which lands in the theta shapes."""
    n = f_g.shape.arity
    f = lift(f_g) + lift(f_rho) + lift(f_mu)
    br = mn_bracket(f, derivation_cochain(p)).scale(_sign(n - 2))
    return theta_component(br)


def _omega_terms(dcols, kflat, src: int):
    """omega of block src; dcols are the columns of D and kflat the flat
    entries of K."""

    def terms(key):
        xs, _, t = key
        s_n = _sign(len(xs) - 1)  # (-1)^(n-2) with n = len(xs) + 1
        for i in range(len(xs)):
            for k, c in dcols[xs[i]]:
                yield src, xs[:i] + (k,) + xs[i + 1 :], (), t, s_n * c, None
        for k, c in dcols[t]:
            yield src, xs, (), k, s_n * c, None
        if kflat:
            yield src, xs, (), t, -s_n, kflat

    return terms


def omega(D: Matrix, K: Matrix, f: MixedMap) -> MixedMap:
    """(-1)^(n-2) (sum_i f(.., D(x_i), ..) - K(f(x_1..x_n))).

    D acts on the g arguments, K on the value; for the regular complex
    K = D, for the module-coefficient complex K is the coefficient map.
    Output has the same shape as f.
    """
    dims = SplitDims(D.cols, K.rows)
    scale = _scale([D, K])
    terms = [_omega_terms(_columns(D, scale), _flat_map(K, scale), 0)]
    return _apply("omega", dims, [f], [(f.shape, f.target)], scale, terms)[0]


# ---------------------------------------------------------------------------
# cochain containers and the full differentials


def _check_layout(name: str, dims: SplitDims, n: int, blocks, specs) -> None:
    """ValueError unless n >= 1 and the blocks are over dims with the degree-n layout specs."""
    if n < 1:
        raise ValueError(f"{name} cochain degree must be at least 1, got {n}")
    got = [(m.shape, m.target) for m in blocks]
    if got != specs:
        raise ValueError(f"{name} cochain blocks {got} do not have the degree-{n} layout {specs}")
    if any(m.dims != dims for m in blocks):
        raise ValueError(f"{name} cochain blocks are not over {dims}")


def _zero_blocks(complex_id: str, dims: SplitDims, n: int) -> list:
    """The blocks of the zero cochain of C^n."""
    return [MixedMap(dims, *spec) for spec in COMPLEXES[complex_id].specs(n)]


def _slot(i: int):
    return property(lambda self: self._blocks[i])


class _BlockCochain:
    """A cochain in C^n of the complex complex_id, held as its blocks.

    The blocks are checked against the degree-n layout of COMPLEXES and
    against dims. Equality compares the complex, dims, n and blocks, not
    the class; +, - and scale act blockwise and return the class of the
    left operand. Subclasses give the constructors and the slot names.
    """

    def __init__(self, complex_id: str, dims: SplitDims, n: int, blocks):
        _check_layout(complex_id, dims, n, blocks, COMPLEXES[complex_id].specs(n))
        self.complex_id = complex_id
        self.dims = dims
        self.n = n
        self._blocks = list(blocks)

    def blocks(self) -> list:
        return list(self._blocks)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self._blocks)

    def _space(self) -> tuple:
        return self.complex_id, self.dims, self.n

    def __eq__(self, other):
        return (
            isinstance(other, _BlockCochain)
            and self._space() == other._space()
            and self._blocks == other._blocks
        )

    def _blockwise(self, op, *others):
        """A copy of self with blocks op(own block, the others' blocks)."""
        if any(not isinstance(o, _BlockCochain) or o._space() != self._space() for o in others):
            raise ValueError("cannot combine cochains of different complexes, dimensions or degrees")
        blocks = [op(*ms) for ms in zip(self._blocks, *(o._blocks for o in others))]
        out = object.__new__(type(self))
        out.__dict__.update(vars(self), _blocks=blocks)
        return out

    def __add__(self, other):
        return self._blockwise(add, other)

    def __sub__(self, other):
        return self._blockwise(sub, other)

    def scale(self, c):
        return self._blockwise(lambda m: m.scale(c))


class DerPairCochain(_BlockCochain):
    """Element of the pair complex: (f_g, f_rho, f_mu, theta) at degree n.

    At n = 1 the f_mu and theta slots are the zero space (negative wedge
    size) and the element is just (Hom(g,g), Hom(V,V)). The slots are
    the blocks of the "pair" entry of COMPLEXES, in that order.
    """

    f_g, f_rho, f_mu, theta = map(_slot, range(4))

    def __init__(self, dims: SplitDims, n: int, f_g, f_rho, f_mu, theta):
        super().__init__("pair", dims, n, [f_g, f_rho, f_mu, theta])

    @staticmethod
    def zero(dims: SplitDims, n: int) -> "DerPairCochain":
        return DerPairCochain(dims, n, *_zero_blocks("pair", dims, n))

    def lelement(self) -> LElement:
        """(s^{-1}(f_g+f_rho+f_mu), theta), an element of degree n - 2."""
        shifted = lift(self.f_g) + lift(self.f_rho) + lift(self.f_mu)
        return LElement(self.dims, self.n - 2, shifted, self.theta)


def huaD(p: DerPair, c: DerPairCochain) -> DerPairCochain:
    """(partial f, d_coeff theta + delta f), one degree up."""
    cx = Complex("pair", p)
    return DerPairCochain(cx.dims, c.n + 1, *cx.coboundary(c.n, c.blocks()))


def _two_slot_id(target: str) -> str:
    """The complex of the two-slot cochains with values in target."""
    if target not in ("g", "v"):
        raise ValueError(f"target must be 'g' or 'v', got {target!r}")
    return "regular" if target == "g" else "rep"


class TwoSlotCochain(_BlockCochain):
    """(f, theta) element of the regular or module-coefficient complex.

    f has shape (n-1, 0, 'g'), theta (n-2, 0, 'g'), both valued in the
    same target: 'g' for the regular complex, 'v' for the rep complex
    (coefficients in a module).
    """

    f, theta = map(_slot, range(2))
    target = property(lambda self: self.f.target)

    def __init__(self, dims: SplitDims, n: int, target: str, f, theta):
        super().__init__(_two_slot_id(target), dims, n, [f, theta])

    @staticmethod
    def zero(dims: SplitDims, n: int, target: str) -> "TwoSlotCochain":
        return TwoSlotCochain(dims, n, target, *_zero_blocks(_two_slot_id(target), dims, n))


def huaD_reg(p: RegularPair, c: TwoSlotCochain) -> TwoSlotCochain:
    """(d f, d theta + omega f) with regular coefficients."""
    cx = Complex("regular", p)
    return TwoSlotCochain(cx.dims, c.n + 1, "g", *cx.coboundary(c.n, c.blocks()))


def huaD_rep(p: RegularPair, rep5, c) -> TwoSlotCochain:
    """(d f, d theta + omega f) with coefficients in (V, K, rho_t, mu_t);
    c is any rep cochain, an ExtensionCocycle included."""
    cx = Complex("rep", (p, rep5))
    return TwoSlotCochain(cx.dims, c.n + 1, "v", *cx.coboundary(c.n, c.blocks()))


# ---------------------------------------------------------------------------
# embedding of the regular complex into the pair complex


def _check_square(dims: SplitDims) -> None:
    if dims.dim_g != dims.dim_v:
        raise ValueError(f"needs dim g == dim V, got {dims.dim_g} and {dims.dim_v}")


def i_embed(c: TwoSlotCochain) -> DerPairCochain:
    """i(f, theta) = (f, f, f, theta) into the pair complex over V = g.

    The f_mu slot places the V argument in the last wedge position of f;
    the alternating sign from re-sorting is produced by eval_local.
    """
    if c.complex_id != "regular":
        raise ValueError(f"only regular cochains embed, got a {c.complex_id} cochain")
    _check_square(c.dims)
    dims, n = c.dims, c.n
    f = c.f
    f_rho = MixedMap(dims, MixedShape(n - 1, 0, "v"), "v", dict(f.coeffs))
    mu_shape = MixedShape(n - 2, 1, "g")
    coeffs = {}
    for gt, vt, t in MixedMap(dims, mu_shape, "v").basis_keys():
        (u,) = vt
        val = f.eval_local(gt + (u,), (), t)
        if any(x != 0 for x in val):
            coeffs[(gt, vt, t)] = val
    f_mu = MixedMap(dims, mu_shape, "v", coeffs)
    theta = MixedMap(dims, c.theta.shape, "v", dict(c.theta.coeffs))
    return DerPairCochain(dims, n, f, f_rho, f_mu, theta)


def p_project(c: DerPairCochain) -> TwoSlotCochain:
    """p(f_g, f_rho, f_mu, theta) = (f_g, theta) with g-valued theta."""
    _check_square(c.dims)
    theta = MixedMap(c.dims, c.theta.shape, "g", dict(c.theta.coeffs))
    return TwoSlotCochain(c.dims, c.n, "g", c.f_g, theta)


# ---------------------------------------------------------------------------
# the table of complexes: the one place a complex id is given a meaning


class _ComplexKind(NamedTuple):
    dims: Callable  # structure data -> SplitDims
    specs: Callable  # n -> (shape, target) coordinate blocks of C^n
    # structure data -> (L, one term generator per block of C^(n+1)), the
    # generators reading the constants times L as ints
    terms: Callable
    # structure data -> (the structure the terms are kept on, the base
    # pair they are kept for, or None)
    holder: Callable


def _coeffs_specs(n: int):
    return [(MixedShape(n - 1, 0, "g"), "v")]


def _prelie_specs(n: int):
    return [
        (MixedShape(n - 1, 0, "g"), "g"),
        (MixedShape(n - 1, 0, "v"), "v"),
        (MixedShape(n - 2, 1, "g"), "v"),
    ]


def _two_slot_specs(target: str, n: int):
    return [(MixedShape(n - 1, 0, "g"), target), (MixedShape(n - 2, 0, "g"), target)]


def _coeffs_terms(p: DerPair):
    rho, mu = p.rep.rho, p.rep.mu
    scale = _scale([*rho, *mu], p.algebra)
    lmaps, rmaps = ([_flat_map(m, scale) for m in mats] for mats in (rho, mu))
    return scale, [_d_coeff_terms(_algebra(p.algebra, scale), lmaps, rmaps, 0)]


def _prelie_terms(a: PreLieAlgebra, rep, D: Matrix | None = None):
    """(L, the generators of partial's three blocks); given D, also that
    of the theta block of huaD."""
    scale = _scale([*rep.rho, *rep.mu, *([] if D is None else [D])], a)
    alg = _algebra(a, scale)
    rho, mu = _Action(rep.rho, rep.dim_v, scale), _Action(rep.mu, rep.dim_v, scale)
    terms = [
        _d_coeff_terms(alg, alg.left, alg.right, 0),
        _partial_rho_terms(alg, rho),
        _partial_mu_terms(alg, rho, mu),
    ]
    if D is not None:
        theta = _d_coeff_terms(alg, rho.flat, mu.flat, 3)
        terms.append(_sum_terms(theta, _delta_terms(_columns(D, scale), _flat_map(D, scale))))
    return scale, terms


def _two_slot_terms(alg: _Algebra, lmaps, rmaps, dcols, kflat):
    return [
        _d_coeff_terms(alg, lmaps, rmaps, 0),
        _sum_terms(_d_coeff_terms(alg, lmaps, rmaps, 1), _omega_terms(dcols, kflat, 0)),
    ]


def _regular_terms(rp: RegularPair):
    scale = _scale([rp.D], rp.algebra)
    alg = _algebra(rp.algebra, scale)
    return scale, _two_slot_terms(alg, alg.left, alg.right, _columns(rp.D, scale), _flat_map(rp.D, scale))


def _rep_dims(data) -> SplitDims:
    rp, rep5 = data
    if rep5.dim_g != rp.algebra.dim:
        raise ValueError(f"module over dim g = {rep5.dim_g}, base pair has dim g = {rp.algebra.dim}")
    return SplitDims(rp.algebra.dim, rep5.dim_v)


def _rep_terms(data):
    rp, rep5 = data
    scale = _scale([*rep5.rho_t, *rep5.mu_t, rp.D, rep5.K], rp.algebra)
    lmaps, rmaps = ([_flat_map(m, scale) for m in mats] for mats in (rep5.rho_t, rep5.mu_t))
    alg = _algebra(rp.algebra, scale)
    return scale, _two_slot_terms(alg, lmaps, rmaps, _columns(rp.D, scale), _flat_map(rep5.K, scale))


_pair_dims = attrgetter("dims")


def _itself(data):
    return data, None


COMPLEXES = {
    "coeffs": _ComplexKind(_pair_dims, _coeffs_specs, _coeffs_terms, _itself),
    "prelie": _ComplexKind(
        _pair_dims, _prelie_specs, lambda p: _prelie_terms(p.algebra, p.rep), _itself
    ),
    "pair": _ComplexKind(
        _pair_dims,
        lambda n: _prelie_specs(n) + _coeffs_specs(n - 1),
        lambda p: _prelie_terms(p.algebra, p.rep, p.D),
        _itself,
    ),
    "regular": _ComplexKind(
        lambda rp: SplitDims(rp.algebra.dim, rp.algebra.dim),
        lambda n: _two_slot_specs("g", n),
        _regular_terms,
        _itself,
    ),
    "rep": _ComplexKind(
        _rep_dims,
        lambda n: _two_slot_specs("v", n),
        _rep_terms,
        lambda data: (data[1], data[0]),
    ),
}


def _kind(complex_id: str) -> _ComplexKind:
    try:
        return COMPLEXES[complex_id]
    except KeyError:
        raise ValueError(f"unknown complex {complex_id!r}") from None


def _kept_terms(complex_id: str, data):
    """(L, term generators) of the complex complex_id over data, built on
    the first call and kept on the structure (_ComplexKind.holder): on
    the pair for coeffs, prelie and pair, on the regular pair for
    regular, and on the module for rep, tagged with its base pair and
    built again over any other base pair. The structure's _terms slot
    is None until then; it holds a dict of (base, (L, generators)) per
    complex id."""
    kind = COMPLEXES[complex_id]
    holder, base = kind.holder(data)
    kept = holder._terms
    if kept is None:
        kept = {}
        object.__setattr__(holder, "_terms", kept)
    entry = kept.get(complex_id)
    if entry is None or entry[0] is not base:
        entry = kept[complex_id] = base, kind.terms(data)
    return entry[1]


@cache
def _degree_plan(complex_id: str, dim_g: int, dim_v: int, n: int) -> _Plan:
    """The _Plan of C^n of complex_id over SplitDims(dim_g, dim_v): its
    specs, the layouts of its blocks and dim C^n. Keyed by ints and
    strings alone, it holds no structure data, and it is reached only for
    1 <= n <= dim g + 2 (_plan), so the cache holds at most dim g + 2
    plans per complex and dims."""
    return _lay_out(SplitDims(dim_g, dim_v), COMPLEXES[complex_id].specs(n))


def _plan(complex_id: str, dims: SplitDims, n: int) -> _Plan:
    """The _Plan of C^n of complex_id over dims. The g arguments of every
    block of every complex are wedge^(n-a) g with a = 1 or 2, so C^n is
    zero outside 1 <= n <= dim g + 2; such a degree is laid out empty
    here and reaches neither _degree_plan nor _block."""
    if 1 <= n <= dims.dim_g + 2:
        return _degree_plan(complex_id, dims.dim_g, dims.dim_v, n)
    specs = tuple(COMPLEXES[complex_id].specs(n))
    return _Plan(specs, ((0, (), {}, 0),) * len(specs), 0)


def space_dimension(complex_id: str, n: int, data) -> int:
    kind = _kind(complex_id)
    return _plan(complex_id, kind.dims(data), n).dim


def _flatten(maps) -> list:
    coords = []
    for m in maps:
        keys, _, tdim = _layout(m.dims, m.shape, m.target)
        get, zero = m.coeffs.get, zero_vec(tdim)
        for key in keys:
            coords.extend(get(key, zero))
    return coords


def _unflatten(dims: SplitDims, specs, vec):
    layout = [_layout(dims, shape, target) for shape, target in specs]
    total = sum(len(keys) * tdim for keys, _, tdim in layout)
    if len(vec) != total:
        raise RuntimeError(f"{len(vec)} coordinates for a layout of {total}")
    maps = []
    pos = 0
    for (shape, target), (keys, _, tdim) in zip(specs, layout):
        coeffs = {}
        for key in keys:
            chunk = tuple(vec[pos : pos + tdim])
            pos += tdim
            if any(x != 0 for x in chunk):
                coeffs[key] = chunk
        maps.append(MixedMap(dims, shape, target, coeffs))
    return maps


class Complex:
    """One cochain complex (complex id, structure data), memoized by degree.

    It reads the layout of each C^n from the process-wide degree plan
    (_plan) and assembles each d_n at most once, as the sparse integer
    columns of L d_n, and transposes them to rows at most once, for the
    readers that need rows. L (_scale) is the lcm of the denominators of
    the structure constants the complex reads, taken from the views kept
    on the algebra and matrices of its structure data, as are the int
    tables its term generators read. L and the generators, with the maps
    x -> act(x) u that cross the matrices of an action (_Action), are
    kept on the structure by the first Complex over it (_kept_terms), so
    a second Complex over the same structure builds none of them; it
    still checks the dims of its data, and keeps its differentials and
    ranks to itself. Each rank d_n is read off the forward phase of the kernel
    on the columns, which gives an echelon basis of B^(n+1), kept per
    degree (_image); once the basis of B^n is kept, only the columns of
    d_n outside its leading coordinates are eliminated. That cut is exact
    only where d² = 0, as it is for every valid pair, regular pair and
    module. Cocycle bases come off the reduced rows of both phases, and
    preimages off those of the rows augmented by L times the right-hand
    side. Coboundaries are sparse products over L. C^n is the zero space
    for n < 1. Cochains go in and out as lists of blocks in the layout
    order, so callers never handle coordinates.
    """

    def __init__(self, complex_id: str, data):
        self._id = complex_id
        self.dims = _kind(complex_id).dims(data)
        self._scale, self._terms = _kept_terms(complex_id, data)
        self._sparse = {}
        self._transposed = {}
        self._images = {}

    def _plan(self, n: int) -> _Plan:
        return _plan(self._id, self.dims, n)

    def specs(self, n: int) -> list:
        return list(self._plan(n).specs)

    def dim(self, n: int) -> int:
        return self._plan(n).dim

    def _cols(self, n: int):
        """(columns, nrows) of L d: C^n -> C^(n+1), columns as {row: int}."""
        if n not in self._sparse:
            self._sparse[n] = _assemble(self._plan(n), self._plan(n + 1), self._terms)
        return self._sparse[n]

    def _rows(self, n: int):
        """(rows, ncols) of L d: C^n -> C^(n+1), rows as {column: int}."""
        if n not in self._transposed:
            columns, nrows = self._cols(n)
            self._transposed[n] = _transpose(columns, nrows), len(columns)
        return self._transposed[n]

    def _coords(self, n: int, blocks) -> list:
        """Coordinates of the cochain with the given blocks, checked to lie in C^n."""
        _check_layout(self._id, self.dims, n, blocks, self.specs(n))
        return _flatten(blocks)

    def d(self, n: int) -> Matrix:
        """Matrix of d: C^n -> C^(n+1) in enumerate_basis coordinates, built
        on each call."""
        rows, ncols = self._rows(n)
        L = self._scale
        return Matrix.from_sparse(len(rows), ncols, [{k: Fraction(x, L) for k, x in r.items()} for r in rows])

    def coboundary(self, n: int, blocks) -> list:
        """The blocks of d_n x, for x given by its blocks in C^n."""
        y = sparse_matvec(self._rows(n)[0], self._coords(n, blocks))
        return _unflatten(self.dims, self.specs(n + 1), _unscale(y, self._scale))

    def preimage(self, n: int, blocks):
        """Blocks of some x in C^(n-1) with d_(n-1) x = y, for y given by its
        blocks in C^n; None when y is not in B^n. The rows are those of
        L d_(n-1), so x solves them against L y."""
        y = [self._scale * c for c in self._coords(n, blocks)]
        x = sparse_solve(*self._rows(n - 1), y)
        return None if x is None else _unflatten(self.dims, self.specs(n - 1), x)

    def _image(self, n: int):
        """(P, basis): an echelon basis of B^(n+1), the image of d_n, with
        leading coordinates P, from the forward phase of the kernel on the
        columns of L d_n (the rows of its transpose), kept per degree.

        When the basis of B^n is kept, only the columns of d_n outside its
        leading coordinates are eliminated. Those coordinates span a
        complement of B^n, and d_n vanishes on B^n because d_n d_(n-1) = 0,
        so they have the same image. The cut is exact only where d² = 0.
        """
        if n < 1:
            return (), ()
        out = self._images.get(n)
        if out is None:
            columns, nrows = self._cols(n)
            below = self._images.get(n - 1)
            if below:
                cut = set(below[0])
                columns = [col for j, col in enumerate(columns) if j not in cut]
            out = self._images[n] = sparse_echelon(columns, nrows)
        return out

    def rank(self, n: int) -> int:
        """rank d_n, read off the kept basis of B^(n+1) (_image); exact
        only where d² = 0, as the cut by B^n assumes it."""
        return len(self._image(n)[0])

    def cocycle_basis(self, n: int) -> list:
        """A basis of Z^n, each cocycle as its blocks; L d_n has the same
        kernel and the same reduced rows as d_n."""
        if n < 1:
            return []
        return [_unflatten(self.dims, self.specs(n), v) for v in sparse_kernel(*self._rows(n))]

    def cohomology_dim(self, n: int):
        """(z, b, h) at degree n. rank d_(n-1) comes first, so that
        rank d_n is cut by the basis of B^n; exact only where d² = 0."""
        b = self.rank(n - 1)
        z = self.dim(n) - self.rank(n)
        return z, b, z - b


def differential_matrix(complex_id: str, n: int, data) -> Matrix:
    """Matrix of d: C^n -> C^(n+1) in enumerate_basis coordinates."""
    return Complex(complex_id, data).d(n)


def cohomology_dim(complex_id: str, n: int, data):
    """(z, b, h): cocycle, coboundary and cohomology dimensions at degree n.

    Exact only where d² = 0, that is for valid structure data: rank d_n
    is cut by the basis of B^n (Complex.rank)."""
    if n < 1:
        raise ValueError(f"cohomology degree must be at least 1, got {n}")
    return Complex(complex_id, data).cohomology_dim(n)


def cohomology_dims(complex_id: str, data, n_max: int) -> list:
    """[(z, b, h) at n for n = 1 .. n_max], read off one Complex walked
    upward: each d_k is assembled and eliminated once, and rank d_k is
    cut by the basis of B^k kept from the degree below. Exact only where
    d² = 0, as cohomology_dim."""
    if n_max < 1:
        raise ValueError(f"cohomology degree must be at least 1, got {n_max}")
    cx = Complex(complex_id, data)
    return [cx.cohomology_dim(n) for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# long exact sequence


def _induced_rank(cx: Complex, n: int, images) -> int:
    """Rank of the map a set of n-cocycles spans in H^n(cx).

    That is dim(span(images) + B^n) - dim B^n, one forward elimination
    of the images together with the kept echelon basis of B^n
    (Complex._image). images may come with any nonzero factor: the rank
    is the same.
    """
    b = cx.rank(n - 1)
    basis = cx._image(n - 1)[1]
    return len(sparse_echelon([*basis, *(dict(enumerate(v)) for v in images)], cx.dim(n))[0]) - b


def les_check(p: DerPair, n_max: int) -> dict:
    """Exactness of H^{n-1}(coeffs) -> H^n(pair) -> H^n(prelie) -> H^n(coeffs) -> ...

    For each node: the composite of the incoming and outgoing induced
    maps must vanish on cohomology, and rank(incoming) must equal
    dim H(node) - rank(outgoing). Returns a structured report.

    The inclusion theta -> (0, 0, 0, theta) fills the last block of the
    pair complex and the projection (f, theta) -> f keeps the leading
    prelie blocks, so both act on coordinates as index slices. delta_n
    is the block of d_n(pair) from the prelie columns to the theta rows,
    so it is read off the pair's rows rather than assembled again. Those
    rows are L d_n with the pair's L, so delta_n here is L times the
    map; it only enters ranks of induced maps and zero tests in H^n,
    where a nonzero factor changes nothing (_induced_rank).
    """
    pair, prelie, coeffs = Complex("pair", p), Complex("prelie", p), Complex("coeffs", p)

    def iota(n, v):  # coeffs C^(n-1) -> pair C^n
        return (Fraction(0),) * (pair.dim(n) - len(v)) + tuple(v)

    def proj(n, v):  # pair C^n -> prelie C^n
        return tuple(v[: prelie.dim(n)])

    def vanishes(cx, n, composite):  # composite lands in B^n(cx)
        return _induced_rank(cx, n, composite) == 0

    nodes = []
    all_exact = True

    def node(n, name, cx, rank_in, rank_out, comp_zero):
        nonlocal all_exact
        h = cx.cohomology_dim(n)[2]
        exact = comp_zero and (rank_in == h - rank_out)
        nodes.append(
            {
                "degree": n,
                "node": name,
                "h": h,
                "rank_in": rank_in,
                "rank_out": rank_out,
                "composite_zero": comp_zero,
                "exact": exact,
            }
        )
        all_exact = all_exact and exact

    z_coeffs = []  # Z^0(coeffs): C^0 is the zero space
    for n in range(1, n_max + 1):
        rows, cut = pair._rows(n)[0], prelie.dim(n)
        theta_rows = rows[len(rows) - coeffs.dim(n) :]
        delta_n = [{j: x for j, x in row.items() if j < cut} for row in theta_rows]
        z_coeffs_prev = z_coeffs
        z_pair, z_prelie, z_coeffs = (sparse_kernel(*cx._rows(n)) for cx in (pair, prelie, coeffs))

        # node H^n(pair): incoming iota from H^{n-1}(coeffs), outgoing p
        rank_in = _induced_rank(pair, n, [iota(n, v) for v in z_coeffs_prev])
        rank_out = _induced_rank(prelie, n, [proj(n, v) for v in z_pair])
        composite = [proj(n, iota(n, v)) for v in z_coeffs_prev]
        node(n, "pair", pair, rank_in, rank_out, vanishes(prelie, n, composite))

        # node H^n(prelie): incoming p, outgoing delta to H^n(coeffs)
        delta_z_prelie = [sparse_matvec(delta_n, v) for v in z_prelie]
        rank_out_d = _induced_rank(coeffs, n, delta_z_prelie)
        composite = [sparse_matvec(delta_n, proj(n, v)) for v in z_pair]
        node(n, "prelie", prelie, rank_out, rank_out_d, vanishes(coeffs, n, composite))

        # node H^n(coeffs): incoming delta, outgoing iota into H^{n+1}(pair)
        rank_out_i = _induced_rank(pair, n + 1, [iota(n + 1, v) for v in z_coeffs])
        composite = [iota(n + 1, v) for v in delta_z_prelie]
        node(n, "coeffs", coeffs, rank_out_d, rank_out_i, vanishes(pair, n + 1, composite))

    return {"max_degree": n_max, "nodes": nodes, "all_exact": all_exact}
