"""Dense matrices over a coefficient domain and exact linear algebra.

One elimination kernel, ``_echelon``, does every unimodular reduction in
the library.  It builds the Hermite normal form of a list of vectors by
adding them one at a time to a fully reduced basis (Kannan and Bachem,
1979): pivots are canonical associates and every entry in a pivot
column is reduced modulo its pivot, so intermediate entries stay as
small as the Hermite forms they pass through.  It repeats its row
operations on a transform only when the caller passes one.

On top of it, ``snf`` alternates the kernel on rows and columns until
the matrix is diagonal and returns the full witness (U, D, V) with
U*A*V == D, a divisibility chain on the diagonal, and canonical
divisors; ``elementary_divisors`` and ``rank`` take the same path
without building U or V.  Solving, kernel and image bases and inverses
read their answer off one echelon form and its transform; the
exactness test ``is_exact_at`` reads elementary divisors alone.  Products
and row operations run on the ring's kernels (``Ring.product``,
``submul`` and ``combine``), which skip zero entries and, over F_p[x],
reduce mod p once per output entry, not once per term.  Matrices
with zero rows or columns are first-class throughout; empty complexes
and vanishing truncations depend on them.  Determinants use Bareiss
fraction-free elimination so the unimodularity check never divides
inexactly.

The constructions above this module ask the same elimination questions
of the same matrices again and again, so ``elementary_divisors`` and
the private ``_column_form`` each sit behind an LRU cache of
``MEMO_SIZE`` (128) entries.  ``solve``, ``kernel_basis`` and
``image_basis`` all read ``_column_form``, so a matrix is eliminated
once for every right-hand side and every question about it.  The cache
is keyed by matrix value, ring included: equal matrices share an entry
however they were built, and the same entries over two rings never do.
It keeps up to ``MEMO_SIZE`` inputs and results of each function
alive.  Results are tuples, so sharing them is safe, and exceptions
are never cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Iterable, Optional, Sequence

from .errors import DimensionError, DomainMismatchError, NotAComplexError
from .rings import Ring

# Entries kept by the LRU cache of each memoized elimination function.
MEMO_SIZE = 128


class Matrix:
    """Immutable row-major matrix over a fixed ring.

    Its hash is computed on first use and kept in ``_hash``.
    """

    __slots__ = ("ring", "rows", "cols", "entries", "_hash")

    def __init__(self, ring: Ring, rows: Sequence[Sequence]):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        data = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionError("ragged rows")
            data.append(tuple(ring.validate(x) for x in row))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", nrows)
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _raw(cls, ring: Ring, rows: int, cols: int, entries) -> "Matrix":
        m = object.__new__(cls)
        object.__setattr__(m, "ring", ring)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", tuple(tuple(r) for r in entries))
        return m

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        z = ring.zero
        return cls._raw(ring, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        return cls._raw(ring, n, n, _identity_rows(ring, n))

    @classmethod
    def diagonal(cls, ring: Ring, diag: Sequence, rows: int | None = None, cols: int | None = None) -> "Matrix":
        n = len(diag)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        if n > min(rows, cols):
            raise DimensionError(f"a diagonal of length {n} does not fit in {rows}x{cols}")
        z = ring.zero
        data = [[z] * cols for _ in range(rows)]
        for i, d in enumerate(diag):
            data[i][i] = ring.validate(d)
        return cls._raw(ring, rows, cols, data)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.ring.token, self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"Matrix({self.ring.token}, {self.rows}x{self.cols}, {list(map(list, self.entries))})"

    def is_zero(self) -> bool:
        is_zero = self.ring.is_zero
        return all(is_zero(x) for row in self.entries for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        return Matrix._raw(self.ring, self.cols, self.rows, zip(*self.entries)) if self.rows and self.cols else Matrix.zeros(self.ring, self.cols, self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring:
            raise DomainMismatchError("matrix product across different rings")
        if self.cols != other.rows:
            raise DimensionError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        return Matrix._raw(self.ring, self.rows, other.cols,
                           self.ring.product(self.entries, other.entries, other.cols))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        add = self.ring.add
        return Matrix._raw(self.ring, self.rows, self.cols,
                           [[add(x, y) for x, y in zip(r, s)] for r, s in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        sub = self.ring.sub
        return Matrix._raw(self.ring, self.rows, self.cols,
                           [[sub(x, y) for x, y in zip(r, s)] for r, s in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        neg = self.ring.neg
        return Matrix._raw(self.ring, self.rows, self.cols, [[neg(x) for x in r] for r in self.entries])

    def scale(self, c) -> "Matrix":
        mul = self.ring.mul
        c = self.ring.validate(c)
        return Matrix._raw(self.ring, self.rows, self.cols, [[mul(c, x) for x in r] for r in self.entries])

    def _same_shape(self, other: "Matrix"):
        if self.ring != other.ring:
            raise DomainMismatchError("mixed-ring matrix arithmetic")
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape mismatch")

    def take_cols(self, indices: Iterable[int]) -> "Matrix":
        idx = list(indices)
        return Matrix._raw(self.ring, self.rows, len(idx), [[row[j] for j in idx] for row in self.entries])

    def take_rows(self, indices: Iterable[int]) -> "Matrix":
        idx = list(indices)
        return Matrix._raw(self.ring, len(idx), self.cols, [self.entries[i] for i in idx])


def hstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    ring = mats[0].ring
    rows = mats[0].rows
    if any(m.rows != rows or m.ring != ring for m in mats):
        raise DimensionError("hstack shape mismatch")
    data = [sum((list(m.entries[i]) for m in mats), []) for i in range(rows)]
    return Matrix._raw(ring, rows, sum(m.cols for m in mats), data)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    ring = mats[0].ring
    cols = mats[0].cols
    if any(m.cols != cols or m.ring != ring for m in mats):
        raise DimensionError("vstack shape mismatch")
    data = [row for m in mats for row in m.entries]
    return Matrix._raw(ring, sum(m.rows for m in mats), cols, data)


def block(ring: Ring, grid: Sequence[Sequence[Optional[Matrix]]], row_sizes: Sequence[int], col_sizes: Sequence[int]) -> Matrix:
    """Assemble a block matrix; ``None`` cells are zero blocks."""
    rows = []
    for bi, brow in enumerate(grid):
        cells = []
        for bj, cell in enumerate(brow):
            if cell is None:
                cell = Matrix.zeros(ring, row_sizes[bi], col_sizes[bj])
            elif cell.rows != row_sizes[bi] or cell.cols != col_sizes[bj]:
                raise DimensionError("block shape mismatch")
            cells.append(cell)
        rows.append(hstack(cells) if cells else Matrix.zeros(ring, row_sizes[bi], 0))
    return vstack(rows) if rows else Matrix.zeros(ring, 0, sum(col_sizes))


def _kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: block (i, k) is a[i][k] * b.

    Under row-major vectorization vec(a * X * b^T) == _kron(a, b) * vec(X).
    """
    mul, zero = a.ring.mul, a.ring.zero
    return Matrix._raw(a.ring, a.rows * b.rows, a.cols * b.cols,
                       [[mul(x, y) if x and y else zero for x in arow for y in brow]
                        for arow in a.entries for brow in b.entries])


def block_diag(ring: Ring, mats: Sequence[Matrix]) -> Matrix:
    row_sizes = [m.rows for m in mats]
    col_sizes = [m.cols for m in mats]
    grid = [[m if i == j else None for j in range(len(mats))] for i, m in enumerate(mats)]
    if not mats:
        return Matrix.zeros(ring, 0, 0)
    return block(ring, grid, row_sizes, col_sizes)


@dataclass(frozen=True)
class SnfCertificate:
    """Diagonalization witness: U*A*V == D with unimodular U, V.

    ``divisors`` lists the nonzero diagonal of D as canonical associates
    forming a divisibility chain d1 | d2 | ... | dr.
    """

    U: Matrix
    D: Matrix
    V: Matrix
    divisors: tuple

    @property
    def rank(self) -> int:
        return len(self.divisors)

    def verify(self, source: Matrix) -> bool:
        """Whether this certifies ``source``; False for a source of
        another ring or shape."""
        ring = source.ring
        if ring != self.D.ring or (source.rows, source.cols) != (self.D.rows, self.D.cols):
            return False
        if self.U * source * self.V != self.D:
            return False
        if not (is_unimodular(self.U) and is_unimodular(self.V)):
            return False
        for i, row in enumerate(self.D.entries):
            for j, x in enumerate(row):
                if i != j and not ring.is_zero(x):
                    return False
        diag = [self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols))]
        if tuple(diag[: len(self.divisors)]) != self.divisors:
            return False
        if any(not ring.is_zero(d) for d in diag[len(self.divisors):]):
            return False
        for d in self.divisors:
            if ring.is_zero(d) or ring.normalize(d)[1] != d:
                return False
        for a, b in zip(self.divisors, self.divisors[1:]):
            if not ring.divides(a, b):
                return False
        return True


def _memoized(fn):
    """``fn`` behind an LRU cache of ``MEMO_SIZE`` entries keyed by its arguments.

    The result stays a plain function (``inspect.isfunction`` holds, as
    it does not for an ``lru_cache`` object), so code that wraps the
    module's public functions still finds it; ``cache_info`` and
    ``cache_clear`` are those of the cache.
    """
    cached = lru_cache(maxsize=MEMO_SIZE)(fn)

    @wraps(fn)
    def memoized(*args, **kwargs):
        return cached(*args, **kwargs)

    memoized.cache_info = cached.cache_info
    memoized.cache_clear = cached.cache_clear
    return memoized


def _identity_rows(ring: Ring, n: int) -> list:
    z, o = ring.zero, ring.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def _columns(mat: Matrix) -> list:
    if not mat.rows:
        return [[] for _ in range(mat.cols)]
    return [list(col) for col in zip(*mat.entries)]


def _from_columns(ring: Ring, height: int, cols: list) -> Matrix:
    if not cols:
        return Matrix.zeros(ring, height, 0)
    return Matrix._raw(ring, height, len(cols), zip(*cols))


# The elimination kernel.  Elements of both rings are falsy exactly when
# they are zero (0 and the empty tuple), which the loops below use as
# their zero test; row arithmetic goes through the ring's row kernels.


def _reduce(ring: Ring, row: list, pivots: list, basis: list, first: int = 0,
            trans: Optional[list] = None, btrans: Optional[list] = None):
    """Reduce ``row`` modulo the echelon rows ``basis[first:]``.

    Afterwards each entry of ``row`` in one of their pivot columns is a
    remainder of division by that pivot; ``trans`` follows along.
    """
    divmod_, submul = ring.divmod, ring.submul
    for k in range(first, len(pivots)):
        c = pivots[k]
        x = row[c]
        if x:
            q = divmod_(x, basis[k][c])[0]
            if q:
                submul(row, q, basis[k], c)
                if trans is not None:
                    submul(trans, q, btrans[k])


def _echelon(ring: Ring, rows: list, width: int, trans: Optional[list] = None):
    """Hermite normal form of the lattice spanned by ``rows``.

    The one elimination routine of the library.  Rows enter one at a
    time into a basis that is kept fully reduced, as in Kannan and
    Bachem (1979): pivots are canonical associates and every entry in a
    pivot column is reduced modulo its pivot, which is what keeps
    intermediate entries polynomially bounded instead of compounding
    from one step to the next.  A new row is cleared pivot by pivot, by
    an exact multiple of the basis row when the pivot divides its entry
    and by a 2x2 gcd transform otherwise.

    ``rows`` is consumed.  ``trans``, when given, holds one row per
    input row (identity rows, or a transform built so far) and every
    row operation is repeated on it; without it no transform work is
    done.  Returns ``(pivots, basis, basis_trans, null_trans)``: the
    pivot columns in increasing order, the echelon rows, their
    transform rows, and the transform rows of the input rows that
    became zero, which for identity ``trans`` are a basis of the left
    kernel.
    """
    tracking = trans is not None
    divmod_, neg, submul, combine = ring.divmod, ring.neg, ring.submul, ring.combine
    pivots, basis, btrans, null = [], [], [], []

    def settle(k):
        # basis[k] is new or has a new pivot: restore full reduction.
        row = basis[k]
        _reduce(ring, row, pivots, basis, k + 1, btrans[k] if tracking else None, btrans)
        c = pivots[k]
        p = row[c]
        for j in range(k):
            x = basis[j][c]
            if x:
                q = divmod_(x, p)[0]
                if q:
                    submul(basis[j], q, row, c)
                    if tracking:
                        submul(btrans[j], q, btrans[k])
                    _reduce(ring, basis[j], pivots, basis, k + 1, btrans[j] if tracking else None, btrans)

    for i, row in enumerate(rows):
        t = trans[i] if tracking else None
        c = k = 0
        while True:
            while c < width and not row[c]:
                c += 1
            if c == width:
                if tracking:
                    null.append(t)
                break
            while k < len(pivots) and pivots[k] < c:
                k += 1
            if k == len(pivots) or pivots[k] != c:
                unit = ring.normalize(row[c])[0]
                if unit != ring.one:
                    inv = ring.unit_inverse(unit)
                    row = [ring.mul(inv, x) for x in row]
                    if tracking:
                        t = [ring.mul(inv, x) for x in t]
                pivots.insert(k, c)
                basis.insert(k, row)
                if tracking:
                    btrans.insert(k, t)
                settle(k)
                break
            h = basis[k]
            p, x = h[c], row[c]
            q, rem = divmod_(x, p)
            if not rem:
                submul(row, q, h, c)
                if tracking:
                    submul(t, q, btrans[k])
            else:
                g, s, u = ring.ext_gcd(p, x)
                a, b = neg(divmod_(p, g)[0]), divmod_(x, g)[0]
                basis[k], row = combine(s, h, u, row), combine(b, h, a, row)
                if tracking:
                    bt = btrans[k]
                    btrans[k], t = combine(s, bt, u, t), combine(b, bt, a, t)
                settle(k)
            c += 1
            k += 1
    return pivots, basis, (btrans if tracking else None), null


def _is_diagonal(vecs: list) -> bool:
    return all(not x for k, vec in enumerate(vecs) for j, x in enumerate(vec) if j != k)


def _diagonal_form(mat: Matrix, track: bool):
    """Diagonalize by the kernel on rows, then columns, and so on.

    After the first row pass the nonzero rows form an r x n echelon
    block of full rank; after the first column pass it is an r x r
    triangular block, and every further pass works on that block only.
    Each pass either keeps the first unsettled diagonal entry, in which
    case its row and column are already clear, or replaces it by a
    proper divisor, so the alternation ends.

    Returns ``(diagonal, u, v)`` with U*A*V == D for U the rows ``u`` and
    V the columns ``v``, both None unless ``track``.
    """
    ring = mat.ring
    u = _identity_rows(ring, mat.rows) if track else None
    v = _identity_rows(ring, mat.cols) if track else None
    pivots, vecs, u, u_null = _echelon(ring, [list(row) for row in mat.entries], mat.cols, u)
    r = len(pivots)
    v_null = []
    width, on_rows = mat.cols, True
    while not _is_diagonal(vecs):
        vecs = [[vec[j] for vec in vecs] for j in range(width)]
        if on_rows:
            _, vecs, v, null = _echelon(ring, vecs, r, v)
            v_null += null
        else:
            _, vecs, u, _ = _echelon(ring, vecs, r, u)
        width, on_rows = r, not on_rows
    diagonal = [vecs[k][k] for k in range(r)]
    if track:
        u, v = u + u_null, v + v_null
    return diagonal, u, v


def _chain(ring: Ring, diagonal: list, u: Optional[list] = None, v: Optional[list] = None):
    """Make a diagonal of canonical associates a divisibility chain.

    Each pair d_i, d_j (i < j) with d_i not dividing d_j becomes
    gcd, lcm by a 2x2 unimodular transform on rows i, j of U and
    columns i, j of V; pairs already in order are left alone, so a
    diagonal that is a chain costs no transform work.
    """
    mul, sub, combine = ring.mul, ring.sub, ring.combine
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            if ring.divides(a, b):
                continue
            g, s, t = ring.ext_gcd(a, b)
            aq, bq = ring.div_exact(a, g), ring.div_exact(b, g)
            diagonal[i], diagonal[j] = g, mul(aq, b)
            if u is None:
                continue
            # rows (i, j) := [[1, 1], [-q, 1 - q]] (i, j) with q = t*bq, that
            # is rows i += j, then row j -= q * row i;
            # columns (i, j) *= [[s, -bq], [t, aq]]
            q, one = mul(t, bq), ring.one
            u[i], u[j] = (combine(one, u[i], one, u[j]),
                          combine(ring.neg(q), u[i], sub(one, q), u[j]))
            v[i], v[j] = (combine(s, v[i], t, v[j]),
                          combine(ring.neg(bq), v[i], aq, v[j]))


def snf(mat: Matrix) -> SnfCertificate:
    """Smith normal form with transform certificate.

    The kernel alternates on rows and columns until the matrix is
    diagonal; the diagonal is then made a divisibility chain.  U and V
    accumulate only the kernel's transforms and one 2x2 transform per
    divisor pair that is out of order.
    """
    ring = mat.ring
    diagonal, u, v = _diagonal_form(mat, track=True)
    _chain(ring, diagonal, u, v)
    return SnfCertificate(
        U=Matrix._raw(ring, mat.rows, mat.rows, u),
        D=Matrix.diagonal(ring, diagonal, mat.rows, mat.cols),
        V=_from_columns(ring, mat.cols, v),
        divisors=tuple(diagonal),
    )


@_memoized
def elementary_divisors(mat: Matrix) -> tuple:
    """The divisors of ``snf(mat)``, computed without U or V."""
    diagonal, _, _ = _diagonal_form(mat, track=False)
    _chain(mat.ring, diagonal)
    return tuple(diagonal)


def rank(mat: Matrix) -> int:
    return len(_echelon(mat.ring, [list(row) for row in mat.entries], mat.cols)[0])


def det(mat: Matrix):
    """Determinant by Bareiss fraction-free elimination (exact division only)."""
    if not mat.is_square():
        raise DimensionError("determinant of a non-square matrix")
    ring = mat.ring
    n = mat.rows
    if n == 0:
        return ring.one
    a = [list(row) for row in mat.entries]
    is_zero = ring.is_zero
    sign = False
    prev = ring.one
    for k in range(n - 1):
        if is_zero(a[k][k]):
            swap = next((i for i in range(k + 1, n) if not is_zero(a[i][k])), None)
            if swap is None:
                return ring.zero
            a[k], a[swap] = a[swap], a[k]
            sign = not sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = ring.sub(ring.mul(a[i][j], a[k][k]), ring.mul(a[i][k], a[k][j]))
                a[i][j] = ring.div_exact(num, prev)
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return ring.neg(d) if sign else d


def is_unimodular(mat: Matrix) -> bool:
    return mat.is_square() and mat.ring.is_unit(det(mat))


@_memoized
def _column_form(mat: Matrix) -> tuple:
    """The column echelon form that ``solve``, ``kernel_basis`` and
    ``image_basis`` read: ``(pivots, cols, trans, kernel_pivots, kernel)``,
    the echelon columns of ``mat`` with their pivots and transform rows,
    then the Hermite basis of its kernel lattice with its pivots."""
    ring, n = mat.ring, mat.cols
    pivots, cols, trans, null = _echelon(ring, _columns(mat), mat.rows, _identity_rows(ring, n))
    kernel_pivots, kernel, _, _ = _echelon(ring, null, n)
    return (tuple(pivots), tuple(map(tuple, cols)), tuple(map(tuple, trans)),
            tuple(kernel_pivots), tuple(map(tuple, kernel)))


def solve(mat: Matrix, rhs: Matrix) -> Optional[Matrix]:
    """Solve mat * X == rhs exactly; None iff no solution exists.

    Forward substitution along the pivots of the column echelon form of
    ``mat`` either divides exactly at every step and ends on a zero
    residual, or there is no solution over the ring.  The solution is
    reduced modulo the Hermite basis of the kernel lattice, so it is the
    same for every way of writing the same system.
    """
    if mat.ring != rhs.ring:
        raise DomainMismatchError("mixed-ring solve")
    if mat.rows != rhs.rows:
        raise DimensionError("right-hand side has wrong height")
    ring = mat.ring
    n = mat.cols
    pivots, cols, trans, kernel_pivots, kernel = _column_form(mat)
    solution = []
    for residual in _columns(rhs):
        x = [ring.zero] * n
        for c, col, t in zip(pivots, cols, trans):
            if residual[c]:
                q = ring.div_exact(residual[c], col[c])
                if q is None:
                    return None
                ring.submul(residual, q, col, c)
                ring.submul(x, ring.neg(q), t)
        if any(residual):
            return None
        _reduce(ring, x, kernel_pivots, kernel)
        solution.append(x)
    return _from_columns(ring, n, solution) if solution else Matrix.zeros(ring, n, 0)


def inverse(mat: Matrix) -> Matrix:
    """Exact inverse of a unimodular matrix.

    The Hermite form of a unimodular matrix is the identity, so the row
    transform that produces it is the inverse.
    """
    if not mat.is_square():
        raise DimensionError("inverse of a non-square matrix")
    ring = mat.ring
    n = mat.rows
    pivots, basis, trans, _ = _echelon(ring, [list(row) for row in mat.entries], n, _identity_rows(ring, n))
    if len(pivots) != n or any(basis[k][k] != ring.one for k in range(n)):
        raise DimensionError("matrix is not unimodular")
    return Matrix._raw(ring, n, n, trans)


def kernel_basis(mat: Matrix) -> Matrix:
    """Basis of {x : mat*x == 0}; free and saturated over a PID, and in
    column Hermite form so cascaded constructions do not compound
    transform entries."""
    return _from_columns(mat.ring, mat.cols, _column_form(mat)[4])


def image_basis(mat: Matrix) -> Matrix:
    """Basis of the column-span lattice, in column Hermite form.

    An injective matrix is returned unchanged, so constructions that
    corestrict an injective map keep their coordinates on the nose.
    """
    cols = _column_form(mat)[1]
    return mat if len(cols) == mat.cols else _from_columns(mat.ring, mat.rows, cols)


def is_exact_at(first: Matrix, second: Matrix) -> bool:
    """Whether image(first) == kernel(second) as submodules.

    Requires second*first == 0 (raises otherwise), so image(first) lies
    in kernel(second).  The answer is read off the elementary divisors
    of the two maps; no kernel basis is built and nothing is solved.
    Over a PID the kernel of ``second`` is a direct summand (its image
    is free), so it is saturated: it is the saturation of any submodule
    of the same rank inside it.  The two submodules are therefore equal
    exactly when rank first + rank second == first.rows and the image
    of ``first`` is saturated, that is, when every elementary divisor of
    ``first`` is a unit.
    """
    if second.cols != first.rows:
        raise DimensionError("maps do not compose")
    if not (second * first).is_zero():
        raise NotAComplexError("composite of the two maps is nonzero")
    divisors = elementary_divisors(first)
    if len(divisors) + len(elementary_divisors(second)) != first.rows:
        return False
    return all(map(first.ring.is_unit, divisors))
