"""Property and scale tests for the elimination kernel behind snf, solve,
kernel_basis, image_basis, inverse, rank and elementary_divisors."""

import random
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from koszulkit.fgmodules import cokernel  # noqa: E402
from koszulkit.matrices import (  # noqa: E402
    Matrix,
    elementary_divisors,
    hstack,
    image_basis,
    inverse,
    kernel_basis,
    rank,
    snf,
    solve,
)
from koszulkit.rings import ZZ, fpx  # noqa: E402

F3 = fpx(3)


def int_entries(bound):
    return st.integers(-bound, bound)


def poly_entries(ring, degree):
    return st.lists(st.integers(0, ring.p - 1), max_size=degree + 1).map(ring.poly)


@st.composite
def matrices(draw, max_dim=12):
    ring = draw(st.sampled_from([ZZ, F3]))
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


@PROPERTY
@given(matrices())
def test_certificate_and_divisors_only_path(a):
    cert = snf(a)
    assert cert.verify(a)
    assert elementary_divisors(a) == cert.divisors
    assert rank(a) == cert.rank
    assert cokernel(a).free_rank == a.rows - cert.rank


@PROPERTY
@given(matrices())
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
def test_image_basis_spans_the_column_lattice(a):
    b = image_basis(a)
    assert b.cols == rank(a)
    assert solve(b, a) is not None
    assert solve(a, b) is not None


@PROPERTY
@given(matrices(max_dim=8))
def test_inverse_of_the_certificate_transforms(a):
    cert = snf(a)
    for u in (cert.U, cert.V):
        assert inverse(u) * u == Matrix.identity(a.ring, u.rows)


def _dense_int(rng, rows, cols, bound=9):
    return Matrix(ZZ, [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def test_dense_12x12_integer_certificate_is_fast():
    rng = random.Random(12)
    for _ in range(5):
        a = _dense_int(rng, 12, 12)
        started = time.perf_counter()
        cert = snf(a)
        elapsed = time.perf_counter() - started
        assert cert.verify(a)
        assert elapsed < 0.1, f"12x12 snf took {elapsed:.3f}s"


def test_dense_32x32_integer_certificate_verifies():
    a = _dense_int(random.Random(32), 32, 32)
    cert = snf(a)
    assert cert.verify(a)
    assert cert.rank == 32


def test_dense_12x12_polynomial_certificate_verifies():
    rng = random.Random(3)
    a = Matrix(F3, [[F3.poly([rng.randrange(3) for _ in range(3)]) for _ in range(12)]
                    for _ in range(12)])
    cert = snf(a)
    assert cert.verify(a)
    assert elementary_divisors(a) == cert.divisors
