"""Property and scale tests for the elimination kernel behind snf, solve,
kernel_basis, image_basis, inverse, rank and elementary_divisors, over
Z, F_2[x] and F_3[x] (both packed into ints inside matrices); over
F_2[x], F_3[x] and F_101[x] the public results must be those of the
same kernel run on tuples."""

import functools
import random
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from koszulkit.fgmodules import cokernel  # noqa: E402
from koszulkit.matrices import (  # noqa: E402
    Matrix,
    _echelon,
    _identity_rows,
    elementary_divisors,
    hstack,
    image_basis,
    inverse,
    is_unimodular,
    kernel_basis,
    rank,
    snf,
    solve,
)
from koszulkit.rings import ZZ, PrimeFieldPolynomialRing, fpx  # noqa: E402

F2, F3 = fpx(2), fpx(3)


def int_entries(bound):
    return st.integers(-bound, bound)


def poly_entries(ring, degree):
    return st.lists(st.integers(0, ring.p - 1), max_size=degree + 1).map(ring.poly)


@st.composite
def matrices(draw, max_dim=12):
    ring = draw(st.sampled_from([ZZ, F2, F3]))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entry = int_entries(9) if ring is ZZ else poly_entries(ring, 2)
    # A zero-heavy mix keeps small ranks and repeated pivots in play.
    entry = st.one_of(st.just(ring.zero), entry)
    entries = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return Matrix(ring, entries) if rows else Matrix.zeros(ring, 0, cols)


def _solvable(cert, rhs) -> bool:
    """Oracle from a verified certificate: A x = b iff D y = U b."""
    ring = rhs.ring
    ub = cert.U * rhs
    for i, row in enumerate(ub.entries):
        for x in row:
            if i < cert.rank:
                if ring.div_exact(x, cert.divisors[i]) is None:
                    return False
            elif not ring.is_zero(x):
                return False
    return True


PROPERTY = settings(max_examples=60, deadline=None, database=None)


def at_the_largest_shape(max_dim):
    """Add an ``@example`` of the largest matrices that ``matrices(max_dim)``
    draws: square, every entry drawn from the full range, over each ring."""
    def mark(test):
        rng = random.Random(max_dim)
        for ring in (ZZ, F2, F3):
            entry = (lambda: rng.randint(-9, 9)) if ring is ZZ else (
                lambda: ring.poly([rng.randrange(ring.p) for _ in range(3)]))
            test = example(Matrix(ring, [[entry() for _ in range(max_dim)] for _ in range(max_dim)]))(test)
        return test
    return mark


@PROPERTY
@given(matrices())
@at_the_largest_shape(12)
def test_certificate_and_divisors_only_path(a):
    cert = snf(a)
    assert cert.source is a
    assert elementary_divisors(a) == cert.divisors
    assert rank(a) == cert.rank
    assert cokernel(a).free_rank == a.rows - cert.rank


@PROPERTY
@given(matrices())
@at_the_largest_shape(12)
def test_kernel_basis_is_annihilated_and_saturated(a):
    k = kernel_basis(a)
    assert k.rows == a.cols
    assert k.cols == a.cols - rank(a)
    assert (a * k).is_zero()
    assert all(a.ring.is_unit(d) for d in elementary_divisors(k))
    # k is in column Hermite form: doubling its columns makes it
    # non-injective, so image_basis eliminates them and must give k back.
    assert image_basis(hstack([k, k])) == k


@PROPERTY
@given(matrices(max_dim=8), st.data())
def test_solve_returns_none_exactly_when_unsolvable(a, data):
    ring = a.ring
    entry = int_entries(9) if ring is ZZ else poly_entries(ring, 2)
    width = data.draw(st.integers(1, 2))
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                                min_size=a.cols, max_size=a.cols))
        rhs = a * (Matrix(ring, x0) if a.cols else Matrix.zeros(ring, 0, width))
    else:
        b = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                               min_size=a.rows, max_size=a.rows))
        rhs = Matrix(ring, b) if a.rows else Matrix.zeros(ring, 0, width)
    cert = snf(a)
    x = solve(a, rhs)
    assert (x is not None) == _solvable(cert, rhs)
    if x is not None:
        assert a * x == rhs


@PROPERTY
@given(matrices(max_dim=8))
@at_the_largest_shape(8)
def test_image_basis_spans_the_column_lattice(a):
    b = image_basis(a)
    assert b.cols == rank(a)
    assert solve(b, a) is not None
    assert solve(a, b) is not None


@PROPERTY
@given(matrices(max_dim=8))
@at_the_largest_shape(8)
def test_inverse_of_the_certificate_transforms(a):
    cert = snf(a)
    for u in (cert.U, cert.V):
        assert inverse(u) * u == Matrix.identity(a.ring, u.rows)


@PROPERTY
@given(matrices())
@at_the_largest_shape(12)
def test_transform_rows_ride_on_their_rows(a):
    """With identity transform rows joined to them, the kernel finds the
    pivots and basis of the untracked call; the transform rows times the
    input are the basis, row by row, and the rows - rank null rows
    annihilate the input.  Together they are a unimodular transform."""
    work = a.ring.work
    pivots, basis, none, _ = _echelon(work, [list(row) for row in a._work], a.cols)
    assert none is None
    t_pivots, t_basis, trans, null = _echelon(work, [list(row) for row in a._work], a.cols,
                                              _identity_rows(work, a.rows))
    assert t_pivots == pivots and t_basis == basis
    assert len(trans) == len(basis) and len(null) == a.rows - len(pivots)
    assert all(len(t) == a.rows for t in trans + null)
    assert work.product(trans, a._work, a.cols) == basis
    assert not any(map(any, work.product(null, a._work, a.cols)))
    if a.rows:
        assert is_unimodular(Matrix._from_work(a.ring, a.rows, a.rows, trans + null))


class _TupleRing(PrimeFieldPolynomialRing):
    """F_p[x] that computes on its tuples: a matrix over it runs
    ``_echelon`` and ``_chain`` on row kernels written with the scalar
    ``add``, ``sub`` and ``mul`` of fpx(p), and takes every other scalar
    operation from fpx(p) too.  Its own token keeps it out of every
    cache that fpx(p) matrices use."""

    def __init__(self, p):
        super().__init__(p)
        self.token, self.work, self.pack, self.unpack = f"fpx:{p}:tuples", self, None, None
        public = fpx(p)
        for name in ("add", "sub", "neg", "mul", "divmod", "normalize", "unit_inverse", "ext_gcd"):
            setattr(self, name, getattr(public, name))

    def product(self, left, right, width):
        return [[functools.reduce(self.add, map(self.mul, row, col), self.zero)
                 for col in zip(*right)] if right else [self.zero] * width for row in left]

    def submul(self, row, q, other, start=0):
        for j in range(start, len(other)):
            row[j] = self.sub(row[j], self.mul(q, other[j]))

    def combine(self, a, x, b, y):
        return [self.add(self.mul(a, xi), self.mul(b, yi)) for xi, yi in zip(x, y)]


@st.composite
def systems(draw, ring):
    """Entries of an F_p[x] matrix A (rows x cols), of a right-hand side
    B and of a solution X0, both of width 1 or 2."""
    rows, cols, width = draw(st.integers(0, 8)), draw(st.integers(0, 8)), draw(st.integers(1, 2))
    entry = st.one_of(st.just(()), poly_entries(ring, 3))

    def grid(n, m):
        return draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))

    return (grid(rows, cols), cols), (grid(rows, width), width), (grid(cols, width), width)


def _over(ring, entries):
    rows, cols = entries
    return Matrix(ring, rows) if rows else Matrix.zeros(ring, 0, cols)


def _matches_the_tuple_kernels(ring, system):
    """Certificate, divisors, kernel and solutions over ``ring`` equal
    those of its tuple twin, entry for entry."""
    tuples = _TupleRing(ring.p)
    a, b, x0 = system
    packed, plain = _over(ring, a), _over(tuples, a)
    assert packed.entries == plain.entries
    got, want = snf(packed), snf(plain)
    for m in ("U", "D", "V"):
        assert getattr(got, m).entries == getattr(want, m).entries
    assert got.divisors == want.divisors
    assert got.source is packed
    assert elementary_divisors(packed) == elementary_divisors(plain) == got.divisors
    assert kernel_basis(packed).entries == kernel_basis(plain).entries
    # An arbitrary right-hand side, then one that has a solution.
    for p_rhs, t_rhs in ((_over(ring, b), _over(tuples, b)),
                         (packed * _over(ring, x0), plain * _over(tuples, x0))):
        assert p_rhs.entries == t_rhs.entries
        x, y = solve(packed, p_rhs), solve(plain, t_rhs)
        assert (x is None) == (y is None)
        if x is not None:
            assert x.entries == y.entries


@PROPERTY
@given(systems(F2))
def test_packed_f2_matches_the_tuple_kernels(system):
    _matches_the_tuple_kernels(F2, system)


@PROPERTY
@given(st.sampled_from([F3, fpx(101)]).flatmap(lambda ring: st.tuples(st.just(ring), systems(ring))))
def test_packed_fp_matches_the_tuple_kernels(ring_system):
    _matches_the_tuple_kernels(*ring_system)


def _dense_int(rng, rows, cols, bound=9):
    return Matrix(ZZ, [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def test_dense_12x12_integer_certificate_is_fast():
    rng = random.Random(12)
    for _ in range(5):
        a = _dense_int(rng, 12, 12)
        started = time.perf_counter()
        cert = snf(a)
        elapsed = time.perf_counter() - started
        assert cert.source is a
        assert elapsed < 0.1, f"12x12 snf took {elapsed:.3f}s"


def test_dense_32x32_integer_certificate_verifies():
    a = _dense_int(random.Random(32), 32, 32)
    cert = snf(a)
    assert cert.source is a
    assert cert.rank == 32


def test_dense_12x12_polynomial_certificate_verifies():
    rng = random.Random(3)
    a = Matrix(F3, [[F3.poly([rng.randrange(3) for _ in range(3)]) for _ in range(12)]
                    for _ in range(12)])
    cert = snf(a)
    assert cert.source is a
    assert elementary_divisors(a) == cert.divisors
