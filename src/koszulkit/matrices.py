"""Dense matrices over a coefficient domain and exact linear algebra.

One elimination kernel, ``_echelon``, does every unimodular reduction in
the library.  It builds the Hermite normal form of a list of vectors by
adding them one at a time to a fully reduced basis (Kannan and Bachem,
1979): pivots are canonical associates and every entry in a pivot
column is reduced modulo its pivot, so intermediate entries stay as
small as the Hermite forms they pass through.  It does transform work
only when the caller passes a transform, whose rows it joins to the
ends of their rows, so each row operation is one kernel call.

On top of it, ``_smith`` alternates the kernel on rows and columns
until the matrix is diagonal and returns the full witness (U, D, V)
with U*A*V == D, a divisibility chain on the diagonal, and canonical
divisors; ``snf`` returns it as an ``SnfCertificate``, a checked value
(``_Checked``, the base of every value that checks itself) that proves
its law when it is built.  ``elementary_divisors`` and ``rank`` take
the same path without building U or V.  Solving, kernel and image bases
and inverses read their answer off one echelon form and its transform;
the exactness test ``is_exact_at`` reads elementary divisors alone.  Products
and row operations run on the ring's kernels (``Ring.product``,
``submul`` and ``combine``), which skip zero entries and, over F_p[x],
reduce mod p once per output entry, not once per term.  Matrices
with zero rows or columns are first-class throughout; empty complexes
and vanishing truncations depend on them.  Determinants use Bareiss
fraction-free elimination, one row kernel call per row and step, so
the unimodularity check never divides inexactly; the certificate
checks U*A*V == D on work rows, with no matrix formed.

A matrix keeps its rows in the work form of its ring (``Ring.work``):
over F_p[x] each entry is one int that packs its coefficients (over
F_2[x] bit i is the coefficient of x^i, for odd p a slot of bits per
coefficient), over Z the integer itself.  Every routine here computes
on the work ring, so over F_2[x] additions are XORs and row operations
XOR shifted rows, and for odd p a product of two entries is one int
product and one slot-parallel reduction mod p.  Elements are converted one at a time,
only where they cross the public boundary: ``Matrix(...)``,
``Matrix._raw``, ``diagonal`` and ``scale`` pack the public elements
they are given, and ``entries`` (a view of tuples built on first read
and kept), the divisors, ``snf``'s D and the value of ``det`` are
unpacked.  Packing is a bijection, so hash and equality, taken on the
work rows with the ring token in the key, mean what they mean on the
public entries.

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

``Matrix.zeros``, ``Matrix.identity`` and the private ``_selection``
return one shared instance per key ((ring, shape), or ring, height and
positions), each from an LRU cache of ``MEMO_SIZE`` entries, since the
constructions above build the same zero, identity and coordinate
blocks over and over.  A matrix is immutable, so sharing is safe; a
shared block keeps its hash, and equality returns at once on the same
instance.  Each cache keeps up to ``MEMO_SIZE`` blocks alive.  For the
same reason a matrix remembers its negation and its transpose once
asked for them.  The link goes one way only, from a matrix to its
result, so it makes no reference cycle and a dropped matrix is freed at
once, without the cyclic collector.

``block`` is the one assembler: ``hstack``, ``vstack`` and
``block_diag`` call it.  It writes each output row once from the work
rows of its cells, with one shared tuple of zeros for an empty cell,
and builds the result with a single ``Matrix._from_work``.  Every
matrix the module computes goes through that constructor.
"""

from __future__ import annotations

from functools import lru_cache, reduce, wraps
from itertools import chain, repeat
from operator import add, eq
from typing import Iterable, Optional, Sequence

from .errors import DimensionError, DomainMismatchError, InvalidInputError, NotAComplexError, WitnessError
from .rings import Ring

# Entries kept by the LRU cache of each memoized elimination function.
MEMO_SIZE = 128


class Matrix:
    """Immutable row-major matrix over a fixed ring.

    The rows are kept in ``_work``, in the work form of the ring
    (``ring.work``); ``entries`` is their public view as tuples of ring
    elements, built on first read and kept in ``_view`` when the two
    forms differ.  The hash is computed on first use and kept in
    ``_hash``; the negation and the transpose in ``_neg`` and ``_t``.
    Those two links go from a matrix to its result only, never back, so
    they make no reference cycle.
    """

    __slots__ = ("ring", "rows", "cols", "_work", "_view", "_hash", "_neg", "_t")

    def __init__(self, ring: Ring, rows: Sequence[Sequence]):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        pack = ring.pack
        data = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionError("ragged rows")
            row = tuple(ring.validate(x) for x in row)
            data.append(row if pack is None else tuple(map(pack, row)))
        _set_ring(self, ring)
        _set_rows(self, nrows)
        _set_cols(self, ncols)
        _set_work(self, tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # copy and pickle would restore the slots by assignment, which is refused
        return Matrix._from_work, (self.ring, self.rows, self.cols, self._work)

    @classmethod
    def _raw(cls, ring: Ring, rows: int, cols: int, entries) -> "Matrix":
        """A matrix of public ring elements, taken without validation."""
        pack = ring.pack
        if pack is not None:
            entries = [tuple(map(pack, row)) for row in entries]
        return cls._from_work(ring, rows, cols, entries)

    @classmethod
    def _from_work(cls, ring: Ring, rows: int, cols: int, work) -> "Matrix":
        """A matrix of rows already in the work form of ``ring``."""
        m = _new(cls)
        _set_ring(m, ring)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_work(m, tuple(map(tuple, work)))
        return m

    @property
    def entries(self) -> tuple:
        """The rows as tuples of public ring elements."""
        unpack = self.ring.unpack
        if unpack is None:
            return self._work
        try:
            return self._view
        except AttributeError:
            view = tuple(tuple(map(unpack, row)) for row in self._work)
            _set_view(self, view)
            return view

    @staticmethod
    @lru_cache(maxsize=MEMO_SIZE)
    def zeros(ring: Ring, rows: int, cols: int) -> "Matrix":
        """The rows x cols zero matrix, one shared instance per key."""
        return Matrix._from_work(ring, rows, cols, [(ring.work.zero,) * cols] * rows)

    @staticmethod
    @lru_cache(maxsize=MEMO_SIZE)
    def identity(ring: Ring, n: int) -> "Matrix":
        """The n x n identity matrix, one shared instance per key."""
        return Matrix._from_work(ring, n, n, _identity_rows(ring.work, n))

    @classmethod
    def diagonal(cls, ring: Ring, diag: Sequence) -> "Matrix":
        """The square matrix with ``diag`` on its diagonal."""
        diag = [ring.validate(d) for d in diag]
        return _diagonal(ring, diag if ring.pack is None else list(map(ring.pack, diag)), len(diag), len(diag))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self._work == other._work
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.ring.token, self.rows, self.cols, self._work))
            _set_hash(self, h)
            return h

    def __repr__(self):
        return f"Matrix({self.ring.token}, {self.rows}x{self.cols}, {list(map(list, self.entries))})"

    def is_zero(self) -> bool:
        return not any(map(any, self._work))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        if not (self.rows and self.cols):
            # Not kept: the shared zero blocks would link to each other.
            return Matrix.zeros(self.ring, self.cols, self.rows)
        try:
            return self._t
        except AttributeError:
            t = Matrix._from_work(self.ring, self.cols, self.rows, zip(*self._work))
            _set_t(self, t)
            return t

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix._from_work(self.ring, self.rows, other.cols, _product_rows(self, other))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        add = self.ring.work.add
        return Matrix._from_work(self.ring, self.rows, self.cols,
                                 [list(map(add, r, s)) for r, s in zip(self._work, other._work)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        sub = self.ring.work.sub
        return Matrix._from_work(self.ring, self.rows, self.cols,
                                 [list(map(sub, r, s)) for r, s in zip(self._work, other._work)])

    def __neg__(self) -> "Matrix":
        try:
            return self._neg
        except AttributeError:
            pass
        work = self.ring.work
        if work.neg(work.one) == work.one:
            return self  # characteristic 2: negation is the identity, and matrices are immutable
        neg = work.neg
        n = Matrix._from_work(self.ring, self.rows, self.cols, [tuple(map(neg, r)) for r in self._work])
        _set_neg(self, n)
        return n

    def scale(self, c) -> "Matrix":
        ring = self.ring
        c = ring.validate(c)
        if ring.pack is not None:
            c = ring.pack(c)
        mul = ring.work.mul
        return Matrix._from_work(ring, self.rows, self.cols, [[mul(c, x) for x in r] for r in self._work])

    def _same_shape(self, other: "Matrix"):
        if self.ring != other.ring:
            raise DomainMismatchError("mixed-ring matrix arithmetic")
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape mismatch")

    def take_cols(self, indices: Iterable[int]) -> "Matrix":
        idx = list(indices)
        return Matrix._from_work(self.ring, self.rows, len(idx), [[row[j] for j in idx] for row in self._work])

    def take_rows(self, indices: Iterable[int]) -> "Matrix":
        idx = list(indices)
        return Matrix._from_work(self.ring, len(idx), self.cols, [self._work[i] for i in idx])


# The slot setters, bound once: ``_from_work`` runs for every matrix the
# library computes, and these skip the lookups of ``object.__setattr__``
# (``Matrix.__setattr__`` refuses every assignment).
_new = object.__new__
_set_ring, _set_rows, _set_cols, _set_work, _set_view, _set_hash, _set_neg, _set_t = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__)


# Work rows without a matrix: the law checks of ``complexes`` compare
# products and sums of blocks as the rows these return, which are equal
# exactly when the matrices are, and build no matrix to do so.


def _product_rows(a: Optional[Matrix], b: Optional[Matrix]) -> Optional[list]:
    """The work rows of a * b, as lists, with no matrix built; None (a
    zero block) when either factor is None.  The factors are checked as
    ``Matrix.__mul__`` checks them."""
    if a is None or b is None:
        return None
    if a.ring != b.ring:
        raise DomainMismatchError("matrix product across different rings")
    if a.cols != b.rows:
        raise DimensionError(f"cannot compose {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    return a.ring.work.product(a._work, b._work, b.cols)


def _same_rows(a, b) -> bool:
    """Whether two blocks of work rows of one shape, lists or tuples, are equal."""
    return all(map(eq, chain.from_iterable(a), chain.from_iterable(b)))


def _row_sum(plus, blocks) -> Optional[list]:
    """The sum of the blocks of work rows, None for an absent block, by
    the work ring's addition ``plus``; None when every block is absent."""
    total = None
    for rows in blocks:
        if rows is not None:
            total = rows if total is None else [list(map(plus, r, s)) for r, s in zip(total, rows)]
    return total


def _rows_agree(ring: Ring, left, right) -> bool:
    """Whether the blocks of work rows in ``left`` and in ``right`` have
    equal sums.

    None stands for an absent, hence zero, block and adds nothing; a
    side with no blocks at all is zero, so the other side must be zero.
    """
    plus = ring.work.add
    a, b = _row_sum(plus, left), _row_sum(plus, right)
    if a is None:
        return b is None or not any(map(any, b))
    if b is None:
        return not any(map(any, a))
    return _same_rows(a, b)


def _product_sum(pairs) -> Optional[Matrix]:
    """The sum of a * b over the pairs (a, b) whose factors are both
    present, built as one matrix; None when no pair is."""
    present = [(a, b) for a, b in pairs if a is not None and b is not None]
    if not present:
        return None
    a, b = present[0]
    return Matrix._from_work(a.ring, a.rows, b.cols,
                             _row_sum(a.ring.work.add, [_product_rows(*ab) for ab in present]))


def hstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise InvalidInputError("hstack of no matrices")
    return block(mats[0].ring, [mats], [mats[0].rows], [m.cols for m in mats])


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise InvalidInputError("vstack of no matrices")
    return block(mats[0].ring, [[m] for m in mats], [m.rows for m in mats], [mats[0].cols])


def block(ring: Ring, grid: Sequence[Sequence[Optional[Matrix]]], row_sizes: Sequence[int], col_sizes: Sequence[int]) -> Matrix:
    """Assemble a block matrix; ``None`` cells are zero blocks.

    Every output row is written once, from the work rows of the cells
    beside it; a zero cell contributes one shared tuple of zeros.
    """
    if len(grid) != len(row_sizes):
        raise DimensionError("block grid does not match its sizes")
    zero = ring.work.zero
    data = []
    for brow, height in zip(grid, row_sizes):
        if len(brow) != len(col_sizes):
            raise DimensionError("block grid does not match its sizes")
        pieces = []
        for cell, cols in zip(brow, col_sizes):
            if cell is None:
                if cols:
                    pieces.append(repeat((zero,) * cols, height))
                continue
            if cell.ring is not ring and cell.ring != ring:
                raise DomainMismatchError("block cell over another ring")
            if cell.rows != height or cell.cols != cols:
                raise DimensionError("block shape mismatch")
            if cols:
                pieces.append(cell._work)
        if len(pieces) == 1:
            data.extend(pieces[0])
        elif len(pieces) == 2:
            data.extend(map(add, *pieces))
        elif pieces:
            data.extend(tuple(chain.from_iterable(parts)) for parts in zip(*pieces))
        else:
            data.extend(repeat((), height))
    return Matrix._from_work(ring, sum(row_sizes), sum(col_sizes), data)


def _selection(ring: Ring, height: int, positions: Iterable[int]) -> Matrix:
    """The height x len(positions) matrix whose column j is the unit
    vector at ``positions[j]``: the inclusion of those coordinates.  Its
    transpose is the matching projection.  One shared instance per key."""
    return _shared_selection(ring, height, tuple(positions))


@lru_cache(maxsize=MEMO_SIZE)
def _shared_selection(ring: Ring, height: int, positions: tuple) -> Matrix:
    work = ring.work
    rows = [[work.zero] * len(positions) for _ in range(height)]
    for j, i in enumerate(positions):
        rows[i][j] = work.one
    return Matrix._from_work(ring, height, len(positions), rows)


def block_diag(ring: Ring, mats: Sequence[Matrix]) -> Matrix:
    row_sizes = [m.rows for m in mats]
    col_sizes = [m.cols for m in mats]
    grid = [[m if i == j else None for j in range(len(mats))] for i, m in enumerate(mats)]
    return block(ring, grid, row_sizes, col_sizes)


class _Checked:
    """Immutable value that checks itself: ``__init__`` and ``_trusted``
    both set the fields with ``_store``, which runs the class's
    ``_normalize`` (shapes, rings, normalization) and stores what it
    returns, each degree table of ``complexes`` already a read-only
    ``_Table``; ``__init__`` then checks the law.

    The fields are the ``__slots__`` of the class and its bases, in
    declaration order.  From them every subclass gets equality and
    hashing by value, a ``Name(field=value, ...)`` repr, and
    ``_replace``, which builds a checked copy with some fields changed.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())
        # Bound once: ``_store`` runs for every value built, and the slot
        # setters skip the lookups of ``object.__setattr__``.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    @classmethod
    def _trusted(cls, *args):
        out = object.__new__(cls)
        out._store(*args)
        return out

    def _normalize(self, *values) -> tuple:
        return values

    def _store(self, *values):
        for set_field, value in zip(self._setters, self._normalize(*values), strict=True):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle would restore the fields by assignment, which is refused
        return type(self), self._values()

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class SnfCertificate(_Checked):
    """Diagonalization witness of ``source``, A: U*A*V == D with U, V
    unimodular and D diagonal, its nonzero diagonal ``divisors`` a
    divisibility chain d1 | d2 | ... | dr of canonical associates.

    The law is checked at construction, else ``WitnessError``: the rings
    and shapes of U, D, V and the divisors first, then U*A*V == D exactly
    on work rows (two ``product`` calls, no matrix built), the divisor
    chain and D's diagonal.  As det U * det A * det V == det D, when A is
    square and D has full rank, U and V are both unimodular exactly when
    det D, the product of the divisors, and det A are associates, so one
    determinant of A proves it; otherwise det U and det V are taken.
    """

    __slots__ = ("source", "U", "D", "V", "divisors")

    def __init__(self, source: Matrix, U: Matrix, D: Matrix, V: Matrix, divisors: tuple):
        self._store(source, U, D, V, divisors)
        ring, m, n = source.ring, source.rows, source.cols
        if [(x.ring, x.rows, x.cols) for x in (U, D, V)] != [(ring, m, m), (ring, m, n), (ring, n, n)]:
            raise WitnessError("U, D or V is of another ring or shape than the source requires")
        work, d_rows = ring.work, D._work
        if not _same_rows(work.product(work.product(U._work, source._work, n), V._work, n), d_rows):
            raise WitnessError("U*A*V != D")
        packed = _divisor_chain(ring, divisors)
        r = len(packed)
        diag = [d_rows[i][i] for i in range(min(m, n))]
        if not _is_diagonal(d_rows) or diag[:r] != packed or any(diag[r:]):
            raise WitnessError("D is not diagonal with the divisors on its diagonal")
        if m == n and r == m:
            det_a = det(source) if ring.pack is None else ring.pack(det(source))
            unimodular = work.normalize(reduce(work.mul, packed, work.one))[1] == work.normalize(det_a)[1]
        else:
            unimodular = is_unimodular(U) and is_unimodular(V)
        if not unimodular:
            raise WitnessError("U or V is not unimodular")

    @property
    def rank(self) -> int:
        return len(self.divisors)


def _divisor_chain(ring: Ring, divisors) -> list:
    """The work forms of ``divisors``, checked to be elements of ``ring``
    that form a divisibility chain of nonzero canonical associates; else
    ``WitnessError``."""
    try:
        packed = [ring.validate(d) for d in divisors]
    except DomainMismatchError:
        raise WitnessError("a divisor is not an element of the ring") from None
    if ring.pack is not None:
        packed = list(map(ring.pack, packed))
    work = ring.work
    if not all(packed) or any(work.normalize(d)[1] != d for d in packed) \
            or not all(map(work.divides, packed, packed[1:])):
        raise WitnessError("the divisors are not a chain of nonzero canonical associates")
    return packed


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


def _identity_rows(work: Ring, n: int) -> list:
    """Identity rows over the work ring ``work``."""
    z, o = work.zero, work.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def _diagonal(ring: Ring, diag: list, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix with the work-form elements ``diag`` on
    its diagonal."""
    z = ring.work.zero
    data = [[z] * cols for _ in range(rows)]
    for i, d in enumerate(diag):
        data[i][i] = d
    return Matrix._from_work(ring, rows, cols, data)


def _unpacked(ring: Ring, elements) -> tuple:
    """Work-form elements as a tuple of public ones."""
    return tuple(elements) if ring.unpack is None else tuple(map(ring.unpack, elements))


def _columns(mat: Matrix) -> list:
    if not mat.rows:
        return [[] for _ in range(mat.cols)]
    return [list(col) for col in zip(*mat._work)]


def _from_columns(ring: Ring, height: int, cols: list) -> Matrix:
    """The matrix over ``ring`` with the work-form columns ``cols``."""
    if not cols:
        return Matrix.zeros(ring, height, 0)
    return Matrix._from_work(ring, height, len(cols), zip(*cols))


# The elimination kernel, on rows in the work form and with the work
# ring passed as ``ring``.  Elements of every work ring are falsy exactly
# when they are zero (0 and the empty tuple), which the loops below use
# as their zero test; row arithmetic goes through the ring's row kernels.


def _reduce(ring: Ring, row: list, pivots: list, basis: list, first: int = 0):
    """Reduce ``row`` modulo the echelon rows ``basis[first:]``.

    Afterwards each entry of ``row`` in one of their pivot columns is a
    remainder of division by that pivot.
    """
    divmod_, submul = ring.divmod, ring.submul
    for k in range(first, len(pivots)):
        c = pivots[k]
        x = row[c]
        if x:
            q = divmod_(x, basis[k][c])[0]
            if q:
                submul(row, q, basis[k], c)


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

    ``rows`` is consumed, and each row has ``width`` entries.
    ``trans``, when given, holds one row per input row (identity rows,
    or a transform built so far): each transform row is joined to the
    end of its row, pivots are sought in the first ``width`` entries
    only, and so every row operation (``submul``, ``combine``, the unit
    scaling) is one kernel call on the joined row.  At the end the
    joined rows are split again.  Without ``trans`` no transform work
    is done.  Returns ``(pivots, basis, basis_trans, null_trans)``: the
    pivot columns in increasing order, the echelon rows, their
    transform rows, and the transform rows of the input rows that
    became zero, which for identity ``trans`` are a basis of the left
    kernel.
    """
    tracking = trans is not None
    if tracking:
        for row, t in zip(rows, trans):
            row.extend(t)
    divmod_, neg, submul, combine = ring.divmod, ring.neg, ring.submul, ring.combine
    pivots, basis, null = [], [], []

    def settle(k):
        # basis[k] is new or has a new pivot: restore full reduction.
        row = basis[k]
        _reduce(ring, row, pivots, basis, k + 1)
        c = pivots[k]
        p = row[c]
        for j in range(k):
            x = basis[j][c]
            if x:
                q = divmod_(x, p)[0]
                if q:
                    submul(basis[j], q, row, c)
                    _reduce(ring, basis[j], pivots, basis, k + 1)

    for row in rows:
        c = k = 0
        while True:
            while c < width and not row[c]:
                c += 1
            if c == width:
                if tracking:
                    null.append(row[width:])
                break
            while k < len(pivots) and pivots[k] < c:
                k += 1
            if k == len(pivots) or pivots[k] != c:
                unit = ring.normalize(row[c])[0]
                if unit != ring.one:
                    inv = ring.unit_inverse(unit)
                    row = [ring.mul(inv, x) for x in row]
                pivots.insert(k, c)
                basis.insert(k, row)
                settle(k)
                break
            h = basis[k]
            p, x = h[c], row[c]
            q, rem = divmod_(x, p)
            if not rem:
                submul(row, q, h, c)
            else:
                g, s, u = ring.ext_gcd(p, x)
                a, b = neg(divmod_(p, g)[0]), divmod_(x, g)[0]
                basis[k], row = combine(s, h, u, row), combine(b, h, a, row)
                settle(k)
            c += 1
            k += 1
    if tracking:
        return pivots, [row[:width] for row in basis], [row[width:] for row in basis], null
    return pivots, basis, None, null


def _is_diagonal(vecs: list) -> bool:
    return not any(any(vec[:k]) or any(vec[k + 1:]) for k, vec in enumerate(vecs))


def _diagonal_form(mat: Matrix, track: bool):
    """Diagonalize by the kernel on rows, then columns, and so on.

    After the first row pass the nonzero rows form an r x n echelon
    block of full rank; after the first column pass it is an r x r
    triangular block, and every further pass works on that block only.
    Each pass either keeps the first unsettled diagonal entry, in which
    case its row and column are already clear, or replaces it by a
    proper divisor, so the alternation ends.

    Returns ``(diagonal, u, v)`` with U*A*V == D for U the rows ``u`` and
    V the columns ``v``, both None unless ``track``, all in the work
    form.
    """
    ring = mat.ring.work
    u = _identity_rows(ring, mat.rows) if track else None
    v = _identity_rows(ring, mat.cols) if track else None
    pivots, vecs, u, u_null = _echelon(ring, [list(row) for row in mat._work], mat.cols, u)
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
    divides, mul = ring.divides, ring.mul
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            if divides(a, b):
                continue
            g, s, t = ring.ext_gcd(a, b)
            aq, bq = ring.div_exact(a, g), ring.div_exact(b, g)
            diagonal[i], diagonal[j] = g, mul(aq, b)
            if u is None:
                continue
            # rows (i, j) := [[1, 1], [-q, 1 - q]] (i, j) with q = t*bq, that
            # is rows i += j, then row j -= q * row i;
            # columns (i, j) *= [[s, -bq], [t, aq]]
            q, one, combine = mul(t, bq), ring.one, ring.combine
            u[i], u[j] = (combine(one, u[i], one, u[j]),
                          combine(ring.neg(q), u[i], ring.sub(one, q), u[j]))
            v[i], v[j] = (combine(s, v[i], t, v[j]),
                          combine(ring.neg(bq), v[i], aq, v[j]))


def snf(mat: Matrix) -> SnfCertificate:
    """Smith normal form of ``mat`` with its checked transform certificate."""
    return SnfCertificate(mat, *_smith(mat))


def _smith(mat: Matrix) -> tuple:
    """(U, D, V, divisors) of the Smith normal form of ``mat``, unchecked:
    ``complexes._smith_stage`` calls it, since the values built on the
    stage prove what they use of it.

    The kernel alternates on rows and columns until the matrix is
    diagonal; the diagonal is then made a divisibility chain.  U and V
    accumulate only the kernel's transforms and one 2x2 transform per
    divisor pair that is out of order.
    """
    ring = mat.ring
    diagonal, u, v = _diagonal_form(mat, track=True)
    _chain(ring.work, diagonal, u, v)
    return (Matrix._from_work(ring, mat.rows, mat.rows, u), _diagonal(ring, diagonal, mat.rows, mat.cols),
            _from_columns(ring, mat.cols, v), _unpacked(ring, diagonal))


@_memoized
def elementary_divisors(mat: Matrix) -> tuple:
    """The divisors of ``snf(mat)``, computed without U or V."""
    diagonal, _, _ = _diagonal_form(mat, track=False)
    _chain(mat.ring.work, diagonal)
    return _unpacked(mat.ring, diagonal)


def rank(mat: Matrix) -> int:
    return len(_echelon(mat.ring.work, [list(row) for row in mat._work], mat.cols)[0])


def det(mat: Matrix):
    """Determinant by Bareiss fraction-free elimination (exact division
    only), on the work rows: each step is ``_bareiss_step``, and only the
    value is unpacked."""
    if not mat.is_square():
        raise DimensionError("determinant of a non-square matrix")
    ring = mat.ring
    work = ring.work
    if not mat.rows:
        return ring.one
    rows = [list(row) for row in mat._work]
    sign = False
    prev = work.one
    while len(rows) > 1:
        if not rows[0][0]:
            swap = next((i for i, row in enumerate(rows) if row[0]), None)
            if swap is None:
                return ring.zero
            rows[0], rows[swap] = rows[swap], rows[0]
            sign = not sign
        pivot = rows[0][0]
        rows = _bareiss_step(work, rows, prev)
        prev = pivot
    d = work.neg(rows[0][0]) if sign else rows[0][0]
    return d if ring.unpack is None else ring.unpack(d)


def _bareiss_step(work: Ring, rows: list, prev) -> list:
    """One Bareiss step on the work rows of the active block, whose first
    row is the pivot row: every later row becomes
    (p * row - row[0] * pivot) / prev on the entries after the first,
    for p the pivot and ``prev`` the pivot of the step before.  Each row
    is one ``combine`` call, then an exact division by ``prev`` entry by
    entry.  Over a domain that division is exact (Sylvester's
    identity), so a remainder raises ``AssertionError``."""
    pivot = rows[0]
    p, tail = pivot[0], pivot[1:]
    out = []
    combine, divmod_, neg, one = work.combine, work.divmod, work.neg, work.one
    for row in rows[1:]:
        new = combine(p, row[1:], neg(row[0]), tail)
        if prev != one:
            for j, v in enumerate(new):
                if v:
                    q, r = divmod_(v, prev)
                    if r:
                        raise AssertionError("Bareiss step: the previous pivot does not divide")
                    new[j] = q
        out.append(new)
    return out


def is_unimodular(mat: Matrix) -> bool:
    return mat.is_square() and mat.ring.is_unit(det(mat))


@_memoized
def _column_form(mat: Matrix) -> tuple:
    """The column echelon form that ``solve``, ``kernel_basis`` and
    ``image_basis`` read: ``(pivots, cols, trans, kernel_pivots, kernel)``,
    the echelon columns of ``mat`` with their pivots and transform rows,
    then the Hermite basis of its kernel lattice with its pivots, all in
    the work form."""
    ring, n = mat.ring.work, mat.cols
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
    ring = mat.ring.work
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
    return _from_columns(mat.ring, n, solution)


def inverse(mat: Matrix) -> Matrix:
    """Exact inverse of a unimodular matrix.

    The Hermite form of a unimodular matrix is the identity, so the row
    transform that produces it is the inverse.
    """
    if not mat.is_square():
        raise DimensionError("inverse of a non-square matrix")
    ring = mat.ring.work
    n = mat.rows
    pivots, basis, trans, _ = _echelon(ring, [list(row) for row in mat._work], n, _identity_rows(ring, n))
    if len(pivots) != n or any(basis[k][k] != ring.one for k in range(n)):
        raise DimensionError("matrix is not unimodular")
    return Matrix._from_work(mat.ring, n, n, trans)


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
    # A factor with no rows or columns makes the composite zero.
    if first.rows and first.cols and second.rows and not (second * first).is_zero():
        raise NotAComplexError("composite of the two maps is nonzero")
    divisors = elementary_divisors(first)
    if len(divisors) + len(elementary_divisors(second)) != first.rows:
        return False
    return all(map(first.ring.is_unit, divisors))
