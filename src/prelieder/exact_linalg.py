"""Exact linear algebra over the rationals: sparse rows, dense on request.

Entries are ints and fractions.Fraction; no floats ever enter, so ranks
and kernels are exact and the row echelon form is the unique reduced
one (leading ones, zeros above and below each pivot).

The working form of a matrix is a list of sparse rows, {column: entry}
with zeros absent; differential matrices are mostly zeros. There is
one elimination kernel on such rows, and it is fraction-free: its entry
copy (_copy) turns each row into a primitive integer row (denominators
cleared, content divided out; the rows of a differential come as ints
and only lose their content), and every step combines two integer
rows and divides the content out again, so coefficients stay as small
as the rows' own proportions allow and no Fraction arithmetic runs. It
has two phases: _forward picks the pivots and clears below them, _back
clears above them. Ranks and echelon bases need only the forward phase
(`sparse_rank`, `sparse_echelon`);
kernels and particular solutions (`sparse_kernel`, `sparse_solve`) and
the R of `rref` are read off the reduced rows of both phases, the only
place Fractions are built: each entry over its row's pivot entry.
`sparse_matvec` applies the rows to a vector.

A Matrix is dense, immutable and row-major; it holds structure data and
small maps. Its `rank`, `rref`, `kernel_basis` and `solve` copy its
nonzero cells into sparse rows and run the same kernel. The zero cells
of matrices built from sparse rows (`Matrix.from_sparse`: the dense view
of a differential and every rref) are one shared Fraction(0), which the
copy back into sparse rows skips by an identity test.

A Matrix, like a pre-Lie algebra's product table, is a leaf of the
structure data the complexes read. Each leaf builds its IntView on
first use and keeps it: its nonzero entries, their L (the lcm of their
denominators) and the int tables made from them, one per scale and
form asked for. Every complex over the leaf reads that one view.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)
_FRACTION = frozenset([Fraction])
_INT = frozenset([int])


def frac(x) -> Fraction:
    """Coerce int / str / Fraction to Fraction. Floats are rejected."""
    if isinstance(x, float):
        raise TypeError("float entries are not allowed, use int, str or Fraction")
    return Fraction(x)


def _fraction_row(row) -> tuple:
    """row as a tuple of Fractions; entries that already are pass unchanged."""
    row = tuple(row)
    if _FRACTION.issuperset(map(type, row)):  # the common case, checked in C
        return row
    return tuple(x if type(x) is Fraction else frac(x) for x in row)


def nonzero_parts(vecs) -> tuple:
    """Each vector of Fractions as its nonzero (index, entry) pairs."""
    return tuple(tuple(compress(enumerate(v), v)) for v in vecs)


class IntView:
    """The nonzero entries of a leaf of structure data, as ints, and the
    tables read off them.

    Built from parts, sparse vectors of (index, Fraction) pairs with no
    zero entry. scale is L, the lcm of their denominators (1 when there
    are none), the least factor that makes them all ints, and ints holds
    the parts times L. table builds a table from the parts times a scale
    once per scale and builder.
    """

    __slots__ = ("scale", "ints", "_tables")

    def __init__(self, parts: tuple):
        self.scale = L = lcm(*{x.denominator for part in parts for _, x in part})
        self.ints = tuple(tuple((k, x.numerator * (L // x.denominator)) for k, x in part) for part in parts)
        self._tables = {}

    def table(self, scale: int, build=None):
        """build(the parts times scale, as ints), or those ints themselves
        when build is None, made on the first call for this scale and
        build and kept; scale must be a multiple of L. Only the nonzeros
        are rescaled, from the ints at L."""
        key = scale, build
        out = self._tables.get(key)
        if out is None:
            f, out = scale // self.scale, self.ints
            if f != 1:
                out = tuple(tuple((k, f * x) for k, x in part) for part in out)
            if build is not None:
                out = build(out)
            self._tables[key] = out
        return out


class Frozen:
    """Base of the immutable classes: __init__ sets each field once,
    through object.__setattr__, and every later write is refused."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Matrix(Frozen):
    """Immutable dense rational matrix, row-major.

    Its IntView, whose parts are its columns, is built on first use
    (int_view) and kept in a slot that is None until then.
    """

    __slots__ = ("rows", "cols", "entries", "_view")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative matrix shape {rows}x{cols}")
        ent = tuple(map(_fraction_row, entries))
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise ValueError(f"entries do not form a {rows}x{cols} matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "_view", None)

    def int_view(self) -> IntView:
        """The IntView of the columns, built on the first call and kept."""
        view = self._view
        if view is None:
            view = IntView(self.column_parts())
            object.__setattr__(self, "_view", view)
        return view

    def column_parts(self) -> tuple:
        """Each column as its nonzero (row, entry) pairs."""
        return nonzero_parts(zip(*self.entries)) if self.rows else ((),) * self.cols

    @staticmethod
    def from_sparse(rows: int, cols: int, sparse_rows) -> "Matrix":
        """Matrix from rows given as {column: entry}; absent entries are zero.

        Zero entries are dropped and every zero cell is the shared Fraction(0).
        """
        dense = []
        for r in sparse_rows:
            row = [_ZERO] * cols
            for k, x in r.items():
                if x:
                    row[k] = x
            dense.append(row)
        return Matrix(rows, cols, dense)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols} matrices"
            )
        return Matrix(
            self.rows,
            self.cols,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(
            self.rows, self.cols, [[c * x for x in row] for row in self.entries]
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # accumulate over the nonzero entries of both factors only
        ot = [[(j, y) for j, y in enumerate(row) if y] for row in other.entries]
        out = []
        for ra in self.entries:
            acc = [Fraction(0)] * other.cols
            for k, x in enumerate(ra):
                if x:
                    for j, y in ot[k]:
                        acc[j] += x * y
            out.append(acc)
        return Matrix(self.rows, other.cols, out)

    def matvec(self, v) -> tuple:
        """Product with a column vector; zero entries of v are skipped."""
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} for a matrix with {self.cols} columns")
        nz = [(j, x) for j, x in enumerate(map(frac, v)) if x]
        return tuple(sum((row[j] * x for j, x in nz), Fraction(0)) for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns (R, rank, pivots) where pivots is the tuple of pivot column
    indices. R is unique, with unit pivots and zeros above and below.
    Both phases of the kernel run: _forward, then _back.
    """
    pivots, reduced = _reduce(_copy(_sparse_rows(m)), m.cols)
    rk = len(pivots)
    R = [{k: Fraction(x, row[c]) for k, x in row.items()} for c, row in zip(pivots, reduced)]
    return Matrix.from_sparse(m.rows, m.cols, R + [{}] * (m.rows - rk)), rk, tuple(pivots)


def _sparse_rows(m: Matrix) -> list:
    """The rows of m as {column: entry}, zeros absent, one per row of m."""
    # the identity test passes over the shared zero without calling
    # Fraction.__bool__, which costs more than the rest of the scan
    return [{j: x for j, x in enumerate(row) if x is not _ZERO and x} for row in m.entries]


def _copy(rows) -> list:
    """Primitive integer copies of the rows, empty ones left out.

    Entries may be int or Fraction, zeros included. A row of ints, as
    the differentials are assembled, is only divided by its content:
    copied whole when it holds no zero, as an assembled differential
    never does; any other row is first cleared of its denominators
    (times their lcm).
    Neither changes its span or its nonzero pattern.
    """
    out = []
    for row in rows:
        if not row:
            continue
        values = row.values()
        if _INT.issuperset(map(type, values)):  # both checked in C
            row = dict(row) if 0 not in values else {k: x for k, x in row.items() if x}
        else:
            ratios = [x.as_integer_ratio() for x in row.values()]
            den = lcm(*[d for _, d in ratios])
            row = {k: n * (den // d) for k, (n, d) in zip(row, ratios) if n}
        if row:
            _divide_content(row)
            out.append(row)
    return out


def _divide_content(row: dict) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for k, x in row.items():
            row[k] = x // g


def _eliminate(row: dict, c: int, piv: dict) -> None:
    """Clear column c of an integer row against the pivot row piv, in place.

    With a = row[c], p = piv[c] and g = gcd(a, p) of the sign of p,
    row := (p/g) row - (a/g) piv, which cancels column c and drops any
    other entry that cancels; then the row's content is divided out.
    The sign makes p/g positive, so the row is not scaled at all when p
    divides a.
    """
    p = piv[c]
    g = gcd(row[c], p)
    if p < 0:
        g = -g
    s, t = p // g, row[c] // g
    if s != 1:
        for k, x in row.items():
            row[k] = x * s
    for k, x in piv.items():
        y = row.get(k)
        if y is None:
            row[k] = -t * x
        else:
            y -= t * x
            if y:
                row[k] = y
            else:
                del row[k]
    _divide_content(row)


def _forward(todo: list, cols: int):
    """Forward phase of fraction-free Gauss-Jordan on integer rows, which it
    consumes.

    Rows must hold nonzero int entries only (see _copy). They wait in
    buckets by their lowest column. For each column in turn, the rows of
    its bucket are the rows with an entry there: the shortest becomes the
    pivot row (it spreads the least fill-in), the column is cleared from
    the others by _eliminate, and each goes to the bucket of its new
    lowest column. Returns (pivots, reduced): reduced[i] is the i-th
    pivot row, its pivot entry at pivots[i] not scaled to one, still
    holding entries in later pivot columns.
    """
    lead = {}
    for row in todo:
        lead.setdefault(min(row), []).append(row)
    pivots, reduced = [], []
    for c in range(cols):
        hits = lead.pop(c, None)
        if hits is None:
            continue
        piv = min(hits, key=len)
        for row in hits:
            if row is not piv:
                _eliminate(row, c, piv)
                if row:
                    lead.setdefault(min(row), []).append(row)
        pivots.append(c)
        reduced.append(piv)
        if not lead:
            break
    return pivots, reduced


def _back(pivots: list, reduced: list) -> None:
    """Back phase: clear each pivot column above its pivot, in place.

    Each pivot row, last first, is reduced once against the rows after
    it, which are already reduced. Row i then is a multiple of the i-th
    row of the reduced row echelon form: that row is row i over its
    pivot entry.
    """
    where = {c: i for i, c in enumerate(pivots)}
    for own, row in zip(reversed(pivots), reversed(reduced)):
        for c in [c for c in row if c != own and c in where]:
            _eliminate(row, c, reduced[where[c]])


def _reduce(todo: list, cols: int):
    """(pivots, reduced rows) of the reduced row echelon form up to a
    factor per row; consumes todo."""
    pivots, reduced = _forward(todo, cols)
    _back(pivots, reduced)
    return pivots, reduced


def rank(m: Matrix) -> int:
    """Rank of m, from the forward phase alone."""
    return sparse_rank(_sparse_rows(m), m.cols)


def sparse_echelon(rows, cols: int):
    """(pivots, reduced) of the forward phase (_forward) on the matrix with
    the given {column: entry} rows and cols columns: the reduced rows are
    an echelon basis of the row space, reduced[i] with leading column
    pivots[i] and integer entries. The rows are copied, not consumed;
    zero entries may be present.
    """
    return _forward(_copy(rows), cols)


def sparse_rank(rows, cols: int) -> int:
    """Rank of the matrix with the given {column: entry} rows and cols columns.

    The rows are copied, not consumed; zero entries may be present.
    """
    return len(sparse_echelon(rows, cols)[0])


def sparse_kernel(rows, cols: int) -> list:
    """Basis of {v : A v = 0} for the matrix A with the given sparse rows.

    One vector per free column j of the reduced form R, in increasing j:
    v[j] = 1 and v[pivot column of row r] = -R[r][j]. The rows are
    copied, not consumed.
    """
    pivots, reduced = _reduce(_copy(rows), cols)
    pivset = set(pivots)
    basis = {j: [_ZERO] * cols for j in range(cols) if j not in pivset}
    for pc, row in zip(pivots, reduced):
        p = row[pc]
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = Fraction(-x, p)
    for j, v in basis.items():
        v[j] = _ONE
    return [tuple(v) for v in basis.values()]


def kernel_basis(m: Matrix) -> list:
    """Basis of the right null space {v : m v = 0}; see sparse_kernel."""
    return sparse_kernel(_sparse_rows(m), m.cols)


def sparse_solve(rows, cols: int, b) -> tuple | None:
    """One exact solution of A x = b for the matrix A with the given sparse
    rows (one per entry of b), or None when inconsistent.

    Free variables are set to zero, so the answer is the rref particular
    solution, read off the reduced rows of A augmented by b. Callers
    wanting the full affine set combine with sparse_kernel.
    """
    b = [frac(x) for x in b]
    if len(b) != len(rows):
        raise ValueError(f"right-hand side of length {len(b)} for a matrix with {len(rows)} rows")
    pivots, reduced = _reduce(_copy({**row, cols: x} for row, x in zip(rows, b)), cols + 1)
    if cols in pivots:
        return None
    x = [_ZERO] * cols
    for pc, row in zip(pivots, reduced):
        if cols in row:
            x[pc] = Fraction(row[cols], row[pc])
    return tuple(x)


def solve(m: Matrix, b) -> tuple | None:
    """One exact solution of m x = b, or None; see sparse_solve."""
    return sparse_solve(_sparse_rows(m), m.cols, b)


def sparse_matvec(rows, v) -> tuple:
    """Product of the matrix with the given sparse rows and the vector v."""
    return tuple(sum([x * v[k] for k, x in row.items() if v[k]], _ZERO) for row in rows)


def columns_matrix(vectors, dim: int) -> Matrix:
    """Matrix whose columns are the given length-dim vectors."""
    vectors = [tuple(frac(x) for x in v) for v in vectors]
    if any(len(v) != dim for v in vectors):
        raise ValueError(f"columns must all have length {dim}")
    return Matrix(dim, len(vectors), [[v[i] for v in vectors] for i in range(dim)])


def combination(coeffs, mats, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix sum of c * m over the nonzero coefficients c of coeffs."""
    out = Matrix.zeros(rows, cols)
    for c, m in zip(coeffs, mats, strict=True):
        if c != 0:
            out = out + m.scale(c)
    return out


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    c = frac(c)
    return tuple(c * x for x in v)


def zero_vec(n: int):
    return (Fraction(0),) * n
