"""The LRU caches behind elementary_divisors and the column form that
solve, kernel_basis and image_basis share: results equal an uncached
recomputation, equal matrices share an entry however they were built,
entries never cross rings, the size stays bounded, exceptions are not
cached, the public names stay plain functions, a matrix is eliminated
once for every question about it, and a homology table diagonalizes
each differential once."""

import inspect
import random

import pytest

from koszulkit import matrices
from koszulkit.complexes import ChainComplex, ChainMap, Homotopy, homology_table
from koszulkit.errors import DimensionError
from koszulkit.generators import rand_matrix
from koszulkit.matrices import (
    MEMO_SIZE,
    Matrix,
    _column_form,
    elementary_divisors,
    image_basis,
    kernel_basis,
    solve,
)
from koszulkit.rings import ZZ, fpx

MEMOIZED = (_column_form, elementary_divisors)
PUBLIC = (solve, kernel_basis, image_basis)
F2, F3 = fpx(2), fpx(3)


def clear_all():
    for fn in MEMOIZED:
        fn.cache_clear()


def uncached(fn, *args):
    clear_all()
    return fn(*args)


def questions(m, rhs):
    """Every cached question about ``m``, through the public names and
    the column form itself."""
    return [(kernel_basis, (m,)), (image_basis, (m,)), (elementary_divisors, (m,)),
            (_column_form, (m,)), (solve, (m, rhs))]


def calls_for(rng, ring, count):
    """Seeded calls of every memoized question, some on repeated inputs."""
    calls = []
    for _ in range(count):
        m = rand_matrix(rng, ring, rng.randint(0, 4), rng.randint(0, 4), 4)
        x = rand_matrix(rng, ring, m.cols, rng.randint(0, 2), 4)
        other = rand_matrix(rng, ring, m.rows, x.cols, 4)
        calls += questions(m, m * x) + [(solve, (m, other))]
    rng.shuffle(calls)
    return calls + calls[: len(calls) // 2]


@pytest.mark.parametrize("ring", [ZZ, F2, F3], ids=["Z", "F2x", "F3x"])
def test_results_equal_uncached_recomputation(ring):
    calls = calls_for(random.Random(f"memo/{ring.token}"), ring, 40)
    expected = [uncached(fn, *args) for fn, args in calls]
    clear_all()
    for (fn, args), want in zip(calls, expected):
        # Rebuild the arguments so hits come from equal, not identical, inputs.
        copies = tuple(Matrix._raw(a.ring, a.rows, a.cols, a.entries) for a in args)
        got = fn(*copies)
        assert got == want
        if isinstance(got, Matrix):
            assert got.ring == ring
    assert sum(fn.cache_info().hits for fn in MEMOIZED) >= len(calls) // 3


@pytest.mark.parametrize("ring", [ZZ, F2, F3], ids=["Z", "F2x", "F3x"])
def test_equal_matrices_share_one_entry(ring):
    rng = random.Random(f"memo-paths/{ring.token}")
    m = rand_matrix(rng, ring, 4, 5, 4)
    rows = [list(row) for row in m.entries]
    built = [
        Matrix(ring, rows),
        Matrix._raw(ring, 4, 5, rows),
        m.transpose().transpose(),
        Matrix.identity(ring, 4) * m,
    ]
    assert len({id(b) for b in built}) == len(built)
    rhs = rand_matrix(rng, ring, 4, 2, 4)
    for fn, args in questions(m, rhs):
        cache = elementary_divisors if fn is elementary_divisors else _column_form
        clear_all()
        results = [fn(b, *args[1:]) for b in built]
        info = cache.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(built) - 1, 1)
        assert all(r == results[0] for r in results)
        if fn in MEMOIZED:
            assert all(r is results[0] for r in results)


def test_rings_never_share_an_entry():
    # x+1 and x^2+1: over F_2 the second is the square of the first,
    # over F_3 they are coprime, so the answers differ between the rings.
    rows = [[(1, 1), (), (1,)], [(), (1, 0, 1), (0, 1)]]
    calls = {}
    for ring in (F2, F3):
        m = Matrix(ring, rows)
        rhs = Matrix(ring, [[(1,)], [(1, 1)]])
        calls[ring] = [(fn, args, uncached(fn, *args)) for fn, args in questions(m, rhs)]
    assert calls[F2][2][2] != calls[F3][2][2]
    assert calls[F2][3][2] != calls[F3][3][2]
    for order in ((F2, F3), (F3, F2)):
        clear_all()
        for ring in order:
            for fn, args, want in calls[ring]:
                got = fn(*args)
                assert got == want
                if isinstance(got, Matrix):
                    assert got.ring == ring
        # Within one ring every question after the first is a hit.
        assert elementary_divisors.cache_info().misses == 2
        assert _column_form.cache_info().misses == 2


def test_cache_stays_within_its_size():
    clear_all()
    for k in range(MEMO_SIZE + 20):
        m = Matrix(ZZ, [[k + 1, 2], [3, 4]])
        for fn, args in questions(m, m):
            fn(*args)
    for fn in MEMOIZED:
        info = fn.cache_info()
        assert info.maxsize == MEMO_SIZE
        assert info.currsize == MEMO_SIZE


def test_exceptions_are_not_cached(monkeypatch):
    clear_all()
    m = Matrix(ZZ, [[1, 2]])
    for _ in range(2):
        with pytest.raises(DimensionError):
            solve(m, Matrix(ZZ, [[1], [2]]))
    # The shape check raises before the cache is asked.
    assert _column_form.cache_info()[:4] == (0, 0, MEMO_SIZE, 0)

    def broken(*args, **kwargs):
        raise RuntimeError("elimination failed")

    real = matrices._echelon
    monkeypatch.setattr(matrices, "_echelon", broken)
    for fn in (kernel_basis, elementary_divisors):
        with pytest.raises(RuntimeError):
            fn(m)
    assert all(fn.cache_info().currsize == 0 for fn in MEMOIZED)
    monkeypatch.setattr(matrices, "_echelon", real)
    assert kernel_basis(m) == Matrix(ZZ, [[2], [-1]])
    assert elementary_divisors(m) == (1,)


def test_memoized_names_stay_plain_functions():
    # Tracing tools wrap only the public names that inspect.isfunction
    # accepts; a bare lru_cache object would drop out of their spans.
    for fn in PUBLIC + MEMOIZED:
        assert inspect.isfunction(fn)
        assert fn.__module__ == matrices.__name__
        assert getattr(matrices, fn.__name__) is fn


def test_matrix_hash_is_computed_once_and_matches_equality():
    m = Matrix(F3, [[(1, 2), ()], [(2,), (0, 1)]])
    assert not hasattr(m, "_hash")
    same = Matrix._raw(F3, 2, 2, m.entries)
    assert hash(m) == hash(same) and m == same
    assert m._hash == hash(m)
    assert Matrix(F2, [[(1, 1)]]) != Matrix(F3, [[(1, 1)]])


def test_packed_f2_matrices_compare_by_value_and_show_tuples():
    rows = [[(1, 1), (), (1,)], [(), (1, 0, 1), (0, 1)]]
    built = Matrix(F2, rows)
    raw = Matrix._raw(F2, 2, 3, rows)
    assert built == raw and hash(built) == hash(raw)
    assert built.entries == raw.entries == tuple(map(tuple, rows))
    assert all(type(x) is tuple for row in built.entries for x in row)
    assert built.entries is built.entries  # the view is built once
    assert built == Matrix._raw(F2, 2, 3, built.entries)
    assert repr(built) == "Matrix(fpx:2, 2x3, [[(1, 1), (), (1,)], [(), (1, 0, 1), (0, 1)]])"
    assert Matrix.diagonal(F2, [(0, 1), ()]) == Matrix(F2, [[(0, 1), ()], [(), ()]])
    assert built.scale((1, 1)) == Matrix(F2, [[(1, 0, 1), (), (1, 1)], [(), (1, 1, 1, 1), (0, 1, 1)]])
    # Equal public entries over F_3[x] are a different matrix, however built.
    for other in (Matrix(F3, rows), Matrix._raw(F3, 2, 3, rows)):
        assert other != built and built != other
        assert other.entries == built.entries
    for shape in ((0, 0), (2, 2)):
        assert Matrix.zeros(F2, *shape) != Matrix.zeros(F3, *shape)
    assert Matrix.identity(F2, 2) != Matrix.identity(F3, 2)


def test_one_column_elimination_answers_every_question(monkeypatch):
    # Rank 2 with a kernel of rank 2: the kernel elimination has work to do.
    m = Matrix(ZZ, [[2, 4, 1, 3], [0, 6, 3, 9], [2, 10, 4, 12]])
    columns = matrices._columns(m)
    seen = []
    real = matrices._echelon

    def counting(ring, rows, width, trans=None):
        seen.append([list(r) for r in rows])
        return real(ring, rows, width, trans)

    monkeypatch.setattr(matrices, "_echelon", counting)
    clear_all()
    x = solve(m, m * Matrix(ZZ, [[1], [2], [0], [1]]))
    assert x is not None
    assert solve(m, Matrix(ZZ, [[1], [0], [2]])) is None
    k = kernel_basis(m)
    assert k.cols == 2 and (m * k).is_zero()
    assert image_basis(m).cols == 2
    assert seen.count(columns) == 1
    assert len(seen) == 2  # the columns, then the kernel lattice
    info = _column_form.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    image_basis(Matrix(ZZ, [list(row) for row in m.entries]))
    assert _column_form.cache_info().hits == 4
    assert len(seen) == 2


def test_homology_table_diagonalizes_each_differential_once():
    # Z --[2, 0]^T--> Z^2 --[[0, 3], [0, 0]]--> Z^2 --[0, 5]--> Z in degrees 3..0
    complex_ = ChainComplex(ZZ, {3: 1, 2: 2, 1: 2, 0: 1}, {
        3: Matrix(ZZ, [[2], [0]]),
        2: Matrix(ZZ, [[0, 3], [0, 0]]),
        1: Matrix(ZZ, [[0, 5]]),
    })
    clear_all()
    table = homology_table(complex_)
    assert {n: (h.free_rank, h.torsion) for n, h in table.items()} == {
        3: (0, ()), 2: (0, (2,)), 1: (0, (3,)), 0: (0, (5,))}
    m = len(complex_.diffs)
    assert elementary_divisors.cache_info().misses == m
    assert elementary_divisors.cache_info().hits == m
    info = _column_form.cache_info()
    assert info.hits + info.misses == 0


def test_zeros_and_identity_are_shared_per_ring_and_shape():
    assert Matrix.zeros(ZZ, 2, 3) is Matrix.zeros(ZZ, 2, 3)
    assert Matrix.identity(F3, 2) is Matrix.identity(F3, 2)
    assert Matrix.zeros(ZZ, 2, 3) is not Matrix.zeros(ZZ, 3, 2)
    assert Matrix.zeros(ZZ, 2, 3) == Matrix(ZZ, [[0, 0, 0], [0, 0, 0]])
    assert Matrix.identity(F3, 2) == Matrix(F3, [[(1,), ()], [(), (1,)]])
    # A shared instance keeps its hash.
    assert hash(Matrix.identity(ZZ, 3)) == Matrix.identity(ZZ, 3)._hash


@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (2, 3)])
def test_shared_zeros_and_identity_never_cross_rings(shape):
    # Over F_2[x] and F_3[x] these have equal entries; each keeps its ring.
    for build in (lambda ring: Matrix.zeros(ring, *shape), lambda ring: Matrix.identity(ring, shape[0])):
        over_f2, over_f3 = build(F2), build(F3)
        assert over_f2 is not over_f3 and over_f2 != over_f3
        assert over_f2.ring == F2 and over_f3.ring == F3
        assert build(F2) is over_f2 and build(F3) is over_f3


def test_shared_constructors_stay_within_the_cache_size():
    for n in range(MEMO_SIZE + 20):
        Matrix.zeros(ZZ, n, 1)
        Matrix.identity(ZZ, n)
    for cached in (Matrix.zeros, Matrix.identity):
        info = cached.cache_info()
        assert info.maxsize == MEMO_SIZE
        assert info.currsize == MEMO_SIZE


def test_absent_blocks_read_as_zeros_of_the_right_shape():
    # Ranks 2 and 3 with no differential; a map and a homotopy with no components.
    X = ChainComplex(ZZ, {1: 3, 0: 2}, {})
    f = ChainMap.zero(X, X)
    h = Homotopy(f, f, {})
    for got, shape in [(X.d(1), (2, 3)), (X.d(2), (3, 0)), (X.d(0), (0, 2)), (X.d(7), (0, 0)),
                       (f.at(1), (3, 3)), (f.at(0), (2, 2)), (f.at(5), (0, 0)),
                       (h.at(0), (3, 2)), (h.at(1), (0, 3)), (h.at(-1), (2, 0))]:
        assert (got.rows, got.cols) == shape
        assert got.ring == ZZ and got.is_zero()
        assert got is Matrix.zeros(ZZ, *shape)
