"""Exact linear algebra over the rationals: sparse rows, dense on request.

Everything here works with fractions.Fraction entries; no floats ever
enter, so ranks and kernels are exact and the row echelon form is the
unique reduced one (leading ones, zeros above and below each pivot).

The working form of a matrix is a list of sparse rows, {column: entry}
with zeros absent; differential matrices are mostly zeros. There is
one elimination kernel on such rows, in two phases: _forward picks the
pivots and clears below them, _back clears above them. Ranks need only
the forward phase (`sparse_rank`); kernels and particular solutions
(`sparse_kernel`, `sparse_solve`) are read straight off the reduced rows
of both phases, and `sparse_matvec` applies the rows to a vector.

A Matrix is dense, immutable and row-major; it holds structure data and
small maps. Its `rank`, `rref`, `kernel_basis` and `solve` copy its
nonzero cells into sparse rows and run the same kernel. The zero cells
of matrices built from sparse rows (`Matrix.from_sparse`: the dense view
of a differential and every rref) are one shared Fraction(0), which the
copy back into sparse rows skips by an identity test.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)
_FRACTION = frozenset([Fraction])


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


class Matrix:
    """Immutable dense rational matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative matrix shape {rows}x{cols}")
        ent = tuple(map(_fraction_row, entries))
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise ValueError(f"entries do not form a {rows}x{cols} matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

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
    pivots, reduced = _reduce(_sparse_rows(m), m.cols)
    rk = len(pivots)
    R = Matrix.from_sparse(m.rows, m.cols, reduced + [{}] * (m.rows - rk))
    return R, rk, tuple(pivots)


def _sparse_rows(m: Matrix) -> list:
    """The rows of m as {column: entry}, zeros absent, one per row of m."""
    # the identity test passes over the shared zero without calling
    # Fraction.__bool__, which costs more than the rest of the scan
    return [{j: x for j, x in enumerate(row) if x is not _ZERO and x} for row in m.entries]


def _copy(rows) -> list:
    """Copies of the rows with their zero entries dropped, empty ones left out."""
    return [r for r in ({k: x for k, x in row.items() if x} for row in rows) if r]


def _forward(todo: list, cols: int):
    """Forward phase of Gauss-Jordan on sparse rows, which it consumes.

    For each column in turn, the shortest remaining row with an entry
    there becomes the pivot row (it spreads the least fill-in), is
    scaled to a unit pivot and the column is cleared from the other
    remaining rows. Rows must hold no zero entries. Returns (pivots,
    reduced): reduced[i] is the i-th pivot row without its unit entry
    at pivots[i], still holding entries in later pivot columns.
    """
    pivots, reduced = [], []
    for c in range(cols):
        hits = [r for r in todo if c in r]
        if not hits:
            continue
        piv = min(hits, key=len)
        inv = _ONE / piv.pop(c)
        for k in piv:
            piv[k] *= inv
        for row in hits:
            if row is not piv:
                _subtract(row, row.pop(c), piv)
        todo = [r for r in todo if r and r is not piv]
        pivots.append(c)
        reduced.append(piv)
        if not todo:
            break
    return pivots, reduced


def _back(pivots: list, reduced: list) -> None:
    """Back phase: clear each pivot column above its pivot, in place.

    Each pivot row, last first, is reduced once against the rows after
    it, which are already reduced; then the unit pivots are put back.
    """
    where = {c: i for i, c in enumerate(pivots)}
    for row in reversed(reduced):
        for c in [c for c in row if c in where]:
            _subtract(row, row.pop(c), reduced[where[c]])
    for c, row in zip(pivots, reduced):
        row[c] = _ONE


def _reduce(todo: list, cols: int):
    """(pivots, reduced rows) of the reduced row echelon form; consumes todo."""
    pivots, reduced = _forward(todo, cols)
    _back(pivots, reduced)
    return pivots, reduced


def _subtract(row: dict, f: Fraction, piv: dict) -> None:
    """row -= f * piv on sparse rows, dropping entries that cancel."""
    for k, x in piv.items():
        y = row.get(k)
        if y is None:
            row[k] = -f * x
        else:
            y -= f * x
            if y:
                row[k] = y
            else:
                del row[k]


def rank(m: Matrix) -> int:
    """Rank of m, from the forward phase alone."""
    return len(_forward(_sparse_rows(m), m.cols)[0])


def sparse_rank(rows, cols: int) -> int:
    """Rank of the matrix with the given {column: entry} rows and cols columns.

    The rows are copied, not consumed; zero entries may be present.
    """
    return len(_forward(_copy(rows), cols)[0])


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
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
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
        x[pc] = row.get(cols, _ZERO)
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


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    c = frac(c)
    return tuple(c * x for x in v)


def zero_vec(n: int):
    return (Fraction(0),) * n
