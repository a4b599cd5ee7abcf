import gc
import itertools
import random

import pytest

from koszulkit import matrices
from koszulkit.complexes import ChainMap, two_term
from koszulkit.errors import DimensionError, DomainMismatchError, InvalidInputError, NotAComplexError
from koszulkit.generators import rand_matrix
from koszulkit.koszul import cellular_factorization
from koszulkit.matrices import (
    MEMO_SIZE,
    Matrix,
    SnfCertificate,
    _selection,
    _shared_selection,
    block,
    block_diag,
    det,
    hstack,
    image_basis,
    inverse,
    is_exact_at,
    is_unimodular,
    kernel_basis,
    rank,
    snf,
    solve,
    vstack,
)
from koszulkit.rings import ZZ, fpx
from koszulkit.sfiltering import ed_decompose
from constructions import assert_refused

F2 = fpx(2)


def rand_int_matrix(rng, rows, cols, bound=20):
    return Matrix(ZZ, [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def rand_poly_matrix(rng, rows, cols, degree=3):
    def entry():
        return F2.poly([rng.randrange(2) for _ in range(rng.randint(0, degree + 1))])
    return Matrix._raw(F2, rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def rand_unimodular_int(rng, n):
    m = [list(row) for row in Matrix.identity(ZZ, n).entries]
    for _ in range(2 * n + 2):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return Matrix(ZZ, m)


def test_snf_diag_2_3():
    a = Matrix(ZZ, [[2, 0], [0, 3]])
    cert = snf(a)
    assert cert.divisors == (1, 6)
    assert cert.source is a


def test_snf_identity():
    a = Matrix.identity(ZZ, 4)
    cert = snf(a)
    assert cert.divisors == (1, 1, 1, 1)
    assert cert.D == a
    assert cert.source is a


def test_snf_zero_matrix():
    a = Matrix.zeros(ZZ, 3, 2)
    cert = snf(a)
    assert cert.divisors == ()
    assert cert.source is a


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_snf_empty_shapes(rows, cols):
    a = Matrix.zeros(ZZ, rows, cols)
    assert snf(a).source is a


def test_snf_random_certificates():
    rng = random.Random(11)
    for _ in range(150):
        a = rand_int_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        assert snf(a).source is a
    for _ in range(60):
        a = rand_poly_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        assert snf(a).source is a


def test_snf_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(23)
    shapes = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(60)]
    shapes += [(n, n) for n in range(6, 21)]
    shapes += [(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(25)]
    for rows, cols in shapes:
        a = rand_int_matrix(rng, rows, cols, bound=15)
        mine = [d for d in snf(a).divisors]
        theirs = [int(x) for x in invariant_factors(sympy.Matrix(list(map(list, a.entries)))) if int(x) != 0]
        assert mine == theirs, (rows, cols)


@pytest.mark.parametrize("p", [3, 101])
def test_fpx_snf_agrees_with_sympy(p):
    """An oracle outside koszulkit for elimination over F_p[x]: sympy's
    invariant factors over GF(p)[x], made monic with coefficients mod p,
    on seeded dense matrices of up to 6x6 with entries of degree <= 2.
    A third are (x + c) times a matrix of degree <= 1 and a third are
    products through an inner dimension below the size, so nonunit
    divisor chains and rank deficiency are in play."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    ring, x = fpx(p), sympy.Symbol("x")
    domain = sympy.GF(p)[x]
    rng = random.Random(p)

    def poly(degree):
        return ring.poly([rng.randrange(p) for _ in range(degree + 1)])

    def grid(rows, cols, degree):
        return Matrix(ring, [[poly(degree) for _ in range(cols)] for _ in range(rows)])

    def monic(expr):
        coeffs = [int(c) % p for c in reversed(sympy.Poly(expr, x).all_coeffs())]
        return ring.normalize(ring.poly(coeffs))[1]

    for trial in range(15):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 3 == 0:
            a = grid(rows, cols, 2)
        elif trial % 3 == 1:
            a = grid(rows, cols, 1).scale(ring.poly([rng.randrange(p), 1]))
        else:
            inner = rng.randint(1, min(rows, cols))
            a = grid(rows, inner, 1) * grid(inner, cols, 1)
        entries = sympy.Matrix([[sum(int(c) * x ** k for k, c in enumerate(e)) for e in row]
                                for row in a.entries])
        theirs = tuple(monic(d) for d in invariant_factors(entries, domain=domain) if d != 0)
        cert = snf(a)
        assert cert.divisors == matrices.elementary_divisors(a) == theirs, (p, trial)
        assert cert.source is a


def test_snf_invariant_under_unimodular_transport():
    rng = random.Random(31)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_int_matrix(rng, rows, cols, bound=9)
        u = rand_unimodular_int(rng, rows)
        v = rand_unimodular_int(rng, cols)
        assert snf(a).divisors == snf(u * a * v).divisors


def _brute_det(mat):
    n = mat.rows
    ring = mat.ring
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = ring.one
        for i in range(n):
            term = ring.mul(term, mat.entries[i][perm[i]])
        total = ring.add(total, term if sign == 1 else ring.neg(term))
    return total


def test_det_against_permanent_expansion():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(0, 4)
        a = rand_int_matrix(rng, n, n, bound=6)
        assert det(a) == _brute_det(a)
    for _ in range(20):
        n = rng.randint(0, 3)
        a = rand_poly_matrix(rng, n, n, degree=2)
        assert det(a) == _brute_det(a)
    # Up to 4 x 4 on both packed work rings, whose Bareiss steps run on ``combine``.
    for ring in (F2, fpx(3)):
        for _ in range(30):
            n = rng.randint(0, 4)
            a = Matrix(ring, [[ring.poly([rng.randrange(ring.p) for _ in range(rng.randint(0, 3))])
                               for _ in range(n)] for _ in range(n)])
            assert det(a) == _brute_det(a)


def test_det_against_sympy_on_wide_integer_entries():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(0, 8)
        # Zero-heavy rows and a repeated row bring pivot swaps and singular matrices in.
        rows = [[rng.choice([0, rng.randint(-2 ** 64, 2 ** 64)]) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            rows[-1] = list(rows[0])
        a = Matrix(ZZ, rows)
        assert det(a) == (sympy.Matrix(rows).det() if n else 1)


@pytest.mark.parametrize("ring, rows, prev", [
    # 2 * 1 - 1 * 1 = 1 is no multiple of 3.
    (ZZ, [[2, 1], [1, 1]], 3),
    # 1 * 1 - 0 * x = 1 is no multiple of x over F_3[x].
    (fpx(3), [[(1,), (0, 1)], [(), (1,)]], (0, 1)),
], ids=["Z", "F3x"])
def test_bareiss_step_refuses_an_inexact_division(ring, rows, prev):
    pack = ring.pack or (lambda x: x)
    work_rows = [[pack(x) for x in row] for row in rows]
    with pytest.raises(AssertionError, match="previous pivot"):
        matrices._bareiss_step(ring.work, work_rows, pack(prev))


def test_solve_examples():
    assert solve(Matrix(ZZ, [[2]]), Matrix(ZZ, [[4]])) == Matrix(ZZ, [[2]])
    assert solve(Matrix(ZZ, [[2]]), Matrix(ZZ, [[3]])) is None
    a = Matrix(ZZ, [[1, 0], [0, 6]])
    x = solve(a, Matrix(ZZ, [[5], [12]]))
    assert x == Matrix(ZZ, [[5], [2]])
    assert a * x == Matrix(ZZ, [[5], [12]])


def test_solve_random_systems():
    rng = random.Random(51)
    for _ in range(80):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_int_matrix(rng, rows, cols, bound=9)
        x0 = rand_int_matrix(rng, cols, 2, bound=9)
        b = a * x0
        x = solve(a, b)
        assert x is not None and a * x == b


# Operands over two rings or of shapes that do not fit, each with the
# error it raises.
REFUSALS = {
    "ragged-rows": (lambda: Matrix(ZZ, [[1, 2], [3]]), DimensionError),
    "assignment": (lambda: setattr(Matrix(ZZ, [[1]]), "rows", 2), AttributeError),
    "product-across-rings": (lambda: Matrix(ZZ, [[1]]) * Matrix(F2, [[F2.one]]), DomainMismatchError),
    "product-of-unfit-shapes": (lambda: Matrix(ZZ, [[1, 2]]) * Matrix(ZZ, [[1, 2]]), DimensionError),
    "sum-across-rings": (lambda: Matrix(ZZ, [[1]]) + Matrix(F2, [[F2.one]]), DomainMismatchError),
    "sum-of-unfit-shapes": (lambda: Matrix(ZZ, [[1]]) + Matrix(ZZ, [[1, 2]]), DimensionError),
    "vstack-of-unfit-widths": (lambda: vstack([Matrix(ZZ, [[1]]), Matrix(ZZ, [[1, 2]])]), DimensionError),
    "block-of-unfit-shape": (lambda: block(ZZ, [[Matrix(ZZ, [[1]])]], [2], [1]), DimensionError),
    "block-grid-of-unfit-height": (lambda: block(ZZ, [[None]], [1, 1], [1]), DimensionError),
    "block-row-of-unfit-width": (lambda: block(ZZ, [[None, None]], [1], [1]), DimensionError),
    "block-cell-across-rings": (lambda: block(ZZ, [[Matrix(fpx(3), [[(1,)]])]], [1], [1]), DomainMismatchError),
    "hstack-across-rings": (lambda: hstack([Matrix(ZZ, [[1]]), Matrix(F2, [[F2.one]])]), DomainMismatchError),
    "vstack-across-rings": (lambda: vstack([Matrix(ZZ, [[1]]), Matrix(F2, [[F2.one]])]), DomainMismatchError),
    "hstack-of-nothing": (lambda: hstack([]), InvalidInputError),
    "vstack-of-nothing": (lambda: vstack([]), InvalidInputError),
    "determinant-of-non-square": (lambda: det(Matrix(ZZ, [[1, 2]])), DimensionError),
    "solve-across-rings": (lambda: solve(Matrix(ZZ, [[1]]), Matrix(F2, [[F2.one]])), DomainMismatchError),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS)
def test_unfit_operands_are_refused(call, error):
    with pytest.raises(error):
        call()


def test_solve_shape_checks():
    with pytest.raises(DimensionError):
        solve(Matrix(ZZ, [[1, 2]]), Matrix(ZZ, [[1], [2]]))


def test_kernel_examples():
    assert kernel_basis(Matrix(ZZ, [[2]])).cols == 0
    assert kernel_basis(Matrix(ZZ, [[0]])) == Matrix(ZZ, [[1]])
    k = kernel_basis(Matrix(ZZ, [[2, 3]]))
    assert k == Matrix(ZZ, [[3], [-2]])


def test_kernel_saturated():
    rng = random.Random(61)
    for _ in range(60):
        a = rand_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), bound=9)
        k = kernel_basis(a)
        assert (a * k).is_zero()
        for d in snf(k).divisors:
            assert ZZ.is_unit(d)


def test_image_basis():
    injective = Matrix(ZZ, [[1, 0], [0, 2], [3, 5]])
    assert image_basis(injective) is injective
    rng = random.Random(71)
    for _ in range(50):
        a = rand_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), bound=9)
        b = image_basis(a)
        assert kernel_basis(b).cols == 0
        # same column lattice, both inclusions
        assert solve(b, a) is not None
        assert solve(a, b) is not None


def test_is_exact_at():
    two = Matrix(ZZ, [[2]])
    to_zero = Matrix.zeros(ZZ, 0, 1)
    assert is_exact_at(two, to_zero) is False
    assert is_exact_at(Matrix.identity(ZZ, 1), to_zero) is True
    from_zero = Matrix.zeros(ZZ, 1, 0)
    assert is_exact_at(from_zero, Matrix(ZZ, [[1]])) is True
    with pytest.raises(NotAComplexError):
        is_exact_at(Matrix(ZZ, [[1]]), Matrix(ZZ, [[1]]))


def test_is_exact_at_forms_no_composite_with_an_empty_factor(monkeypatch):
    def no_product(self, other):
        raise AssertionError("composite formed")

    monkeypatch.setattr(Matrix, "__mul__", no_product)
    two, one = Matrix(ZZ, [[2]]), Matrix(ZZ, [[1]])
    assert is_exact_at(two, Matrix.zeros(ZZ, 0, 1)) is False
    assert is_exact_at(one, Matrix.zeros(ZZ, 0, 1)) is True
    assert is_exact_at(Matrix.zeros(ZZ, 1, 0), one) is True
    assert is_exact_at(Matrix.zeros(ZZ, 0, 2), Matrix.zeros(ZZ, 3, 0)) is True
    with pytest.raises(DimensionError):
        is_exact_at(Matrix.zeros(ZZ, 2, 0), Matrix.zeros(ZZ, 0, 1))


def test_inverse():
    rng = random.Random(81)
    for _ in range(30):
        n = rng.randint(1, 4)
        u = rand_unimodular_int(rng, n)
        assert is_unimodular(u)
        assert inverse(u) * u == Matrix.identity(ZZ, n)
    with pytest.raises(DimensionError):
        inverse(Matrix(ZZ, [[2]]))


def test_rank_and_stacking():
    a = Matrix(ZZ, [[1, 2], [2, 4]])
    assert rank(a) == 1
    assert hstack([a, a]).cols == 4
    assert vstack([a, a]).rows == 4
    d = block_diag(ZZ, [Matrix(ZZ, [[2]]), Matrix(ZZ, [[3]])])
    assert d == Matrix(ZZ, [[2, 0], [0, 3]])
    assert block_diag(ZZ, []) == Matrix.zeros(ZZ, 0, 0)
    with pytest.raises(DimensionError):
        hstack([a, Matrix.identity(ZZ, 3)])


@pytest.mark.parametrize("ring", [ZZ, fpx(2), fpx(3)], ids=lambda r: r.token)
def test_negation(ring):
    a = 2 if ring == ZZ else ring.poly([1, 1])
    m = Matrix(ring, [[a, ring.one], [ring.zero, a]])
    assert -m + m == Matrix.zeros(ring, 2, 2)
    # In characteristic 2 negation is the identity, and the matrix itself is returned.
    assert (-m is m) == (ring == fpx(2))


def _cat_rows(ring, mats):
    rows = mats[0].rows
    if any(m.rows != rows or m.ring != ring for m in mats):
        raise DimensionError("hstack shape mismatch")
    return Matrix._from_work(ring, rows, sum(m.cols for m in mats),
                             [[x for m in mats for x in m._work[i]] for i in range(rows)])


def _cat_cols(ring, mats):
    cols = mats[0].cols
    if any(m.cols != cols or m.ring != ring for m in mats):
        raise DimensionError("vstack shape mismatch")
    return Matrix._from_work(ring, sum(m.rows for m in mats), cols, [row for m in mats for row in m._work])


def hstack_then_vstack(ring, grid, row_sizes, col_sizes):
    """The block assembly that ``block`` replaced: a zero matrix for each
    empty cell, each block row stacked side by side, then the rows stacked
    on top of each other."""
    rows = []
    for bi, brow in enumerate(grid):
        cells = []
        for bj, cell in enumerate(brow):
            if cell is None:
                cell = Matrix.zeros(ring, row_sizes[bi], col_sizes[bj])
            elif cell.rows != row_sizes[bi] or cell.cols != col_sizes[bj]:
                raise DimensionError("block shape mismatch")
            cells.append(cell)
        rows.append(_cat_rows(ring, cells) if cells else Matrix.zeros(ring, row_sizes[bi], 0))
    return _cat_cols(ring, rows) if rows else Matrix.zeros(ring, 0, sum(col_sizes))


def _random_grid(rng, ring):
    row_sizes = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    col_sizes = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    grid = [[None if rng.random() < 0.3 else rand_matrix(rng, ring, r, c, 3) for c in col_sizes]
            for r in row_sizes]
    return grid, row_sizes, col_sizes


@pytest.mark.parametrize("ring", [ZZ, fpx(2), fpx(3)], ids=lambda r: r.token)
def test_block_equals_hstack_then_vstack(ring):
    rng = random.Random(f"block/{ring.token}")
    for _ in range(300):
        grid, row_sizes, col_sizes = _random_grid(rng, ring)
        got = block(ring, grid, row_sizes, col_sizes)
        assert got == hstack_then_vstack(ring, grid, row_sizes, col_sizes)
        assert (got.rows, got.cols) == (sum(row_sizes), sum(col_sizes))
        # A cell of the wrong shape is refused by both.
        cells = [(i, j) for i, brow in enumerate(grid) for j, cell in enumerate(brow)]
        i, j = rng.choice(cells)
        grown = [list(brow) for brow in grid]
        grown[i][j] = rand_matrix(rng, ring, row_sizes[i] + rng.randint(0, 1), col_sizes[j] + 1, 3)
        if rng.random() < 0.5:
            grown[i][j] = grown[i][j].transpose()
        if (grown[i][j].rows, grown[i][j].cols) == (row_sizes[i], col_sizes[j]):
            continue
        for assemble in (block, hstack_then_vstack):
            with pytest.raises(DimensionError):
                assemble(ring, grown, row_sizes, col_sizes)


def test_stacks_equal_their_reference():
    rng = random.Random("stacks")
    for ring in (ZZ, fpx(2), fpx(3)):
        for _ in range(50):
            height, width = rng.randint(0, 3), rng.randint(0, 3)
            side = [rand_matrix(rng, ring, height, rng.randint(0, 3), 3) for _ in range(rng.randint(1, 3))]
            assert hstack(side) == _cat_rows(ring, side)
            tall = [rand_matrix(rng, ring, rng.randint(0, 3), width, 3) for _ in range(rng.randint(1, 3))]
            assert vstack(tall) == _cat_cols(ring, tall)


def _negated_afresh(m):
    return Matrix._raw(m.ring, m.rows, m.cols, [[m.ring.neg(x) for x in row] for row in m.entries])


def _transposed_afresh(m):
    return Matrix._raw(m.ring, m.cols, m.rows, [[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)])


@pytest.mark.parametrize("ring", [ZZ, fpx(2), fpx(3)], ids=lambda r: r.token)
def test_negation_and_transpose_are_remembered(ring):
    rng = random.Random(f"remembered/{ring.token}")
    for _ in range(40):
        m = rand_matrix(rng, ring, rng.randint(0, 4), rng.randint(0, 4), 5)
        neg, t = -m, m.transpose()
        assert neg == _negated_afresh(m) and t == _transposed_afresh(m)
        assert -m is neg and m.transpose() is t
        assert (neg is m) == (ring == fpx(2))
        # One way only: the result does not point back at the matrix.
        assert -neg == m and (-neg is not m or ring == fpx(2))
        assert t.transpose() == m and t.transpose() is not m


def test_remembered_results_make_no_cycles():
    rng = random.Random("no-cycles")
    rows = [[[rng.randint(-9, 9) for _ in range(3)] for _ in range(2)] for _ in range(50)]
    gc.collect()
    gc.disable()
    try:
        for entries in rows:
            m = Matrix(ZZ, entries)
            neg, t = -m, m.transpose()
            -neg, t.transpose(), neg.transpose(), -t, hash(m), m.entries
            for shared in (_selection(ZZ, 3, [2, 0]), Matrix.identity(ZZ, 2), Matrix.zeros(ZZ, 2, 0)):
                -shared, shared.transpose()
        del m, neg, t, shared
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("ring", [ZZ, fpx(3)], ids=lambda r: r.token)
def test_selection_is_shared_per_key(ring):
    sel = _selection(ring, 5, [0, 3, 1])
    assert _selection(ring, 5, (0, 3, 1)) is sel
    assert _selection(ring, 4, range(1, 3)) is _selection(ring, 4, [1, 2])
    assert sel.transpose() is _selection(ring, 5, [0, 3, 1]).transpose()
    assert _selection(ring, 6, [0, 3, 1]) is not sel
    for height in range(MEMO_SIZE + 20):
        _selection(ring, height, range(height))
    info = _shared_selection.cache_info()
    assert info.maxsize == MEMO_SIZE and info.currsize == MEMO_SIZE


@pytest.mark.parametrize("ring", [ZZ, fpx(3)], ids=lambda r: r.token)
def test_selection(ring):
    o, z = ring.one, ring.zero
    assert _selection(ring, 3, []) == Matrix.zeros(ring, 3, 0)
    assert _selection(ring, 0, []) == Matrix.zeros(ring, 0, 0)
    assert _selection(ring, 0, []).transpose() == Matrix.zeros(ring, 0, 0)
    assert _selection(ring, 3, range(3)) == Matrix.identity(ring, 3)
    # non-contiguous and out of order, as for the summands a, c of a + b + c + d
    sel = _selection(ring, 5, [0, 3, 1])
    assert sel == Matrix._raw(ring, 5, 3, [[o, z, z], [z, z, o], [z, z, z], [z, o, z], [z, z, z]])
    assert sel.transpose() * sel == Matrix.identity(ring, 3)
    for height, positions in ((4, range(1, 3)), (6, [1, 2, 4, 5]), (2, [])):
        sel = _selection(ring, height, positions)
        assert sel.transpose() * sel == Matrix.identity(ring, len(positions))


def test_polynomial_snf_example():
    # x and x+1 are coprime in F2[x]: chain becomes (1, x^2+x)
    a = Matrix._raw(F2, 2, 2, [[F2.poly([0, 1]), F2.zero], [F2.zero, F2.poly([1, 1])]])
    cert = snf(a)
    assert cert.divisors == (F2.one, F2.poly([0, 1, 1]))
    assert cert.source is a


def test_product_with_a_non_matrix_is_a_type_error():
    with pytest.raises(TypeError):
        Matrix(ZZ, [[1, 2]]) * 3
    with pytest.raises(TypeError):
        3 * Matrix(ZZ, [[1, 2]])


def test_diagonal_must_fit_the_shape():
    with pytest.raises(DimensionError):
        Matrix.diagonal(ZZ, [1, 2], 1, 1)
    with pytest.raises(DimensionError):
        Matrix.diagonal(ZZ, [1, 2], 3, 1)
    assert Matrix.diagonal(ZZ, [1, 2], 2, 3) == Matrix(ZZ, [[1, 0, 0], [0, 2, 0]])
    assert Matrix.diagonal(ZZ, [], 0, 2) == Matrix.zeros(ZZ, 0, 2)


def test_verify_refuses_a_foreign_source():
    a = Matrix(ZZ, [[2, 4], [6, 8]])
    cert = snf(a)
    assert cert.source is a
    for source in (Matrix(ZZ, [[2, 4, 1], [6, 8, 1]]), Matrix(ZZ, [[2, 4]]),
                   Matrix(F2, [[F2.one, F2.zero], [F2.zero, F2.one]])):
        assert_refused(cert, source=source)


@pytest.mark.parametrize("case", ["product", "off-diagonal", "divisors", "dropped-divisor",
                                  "non-canonical", "chain", "U-shape", "V-ring", "float-divisor"])
def test_verify_rejects_a_forged_certificate(case):
    a = Matrix(ZZ, [[2, 4], [6, 8]])
    cert = snf(a)
    eye = Matrix.identity(ZZ, 2)
    diag = lambda *d: Matrix.diagonal(ZZ, d)
    changes = {
        "product": dict(D=diag(2, 8)),
        "off-diagonal": dict(U=eye, V=eye, D=a),
        "divisors": dict(divisors=(1, 8)),
        "dropped-divisor": dict(divisors=cert.divisors[:1]),
        "non-canonical": dict(source=diag(-2, 4), U=eye, V=eye, D=diag(-2, 4), divisors=(-2, 4)),
        "chain": dict(source=diag(2, 3), U=eye, V=eye, D=diag(2, 3), divisors=(2, 3)),
        "U-shape": dict(U=Matrix.identity(ZZ, 3)),
        "V-ring": dict(V=Matrix.identity(fpx(3), 2)),
        # 2.0 == 2, but a float is no element of Z.
        "float-divisor": dict(divisors=(2.0, 4)),
    }[case]
    assert cert.source is a
    assert_refused(cert, **changes)


# An SnfCertificate must refuse a U or V that is not unimodular even
# when U*A*V == D holds and D is a valid Smith form.  Each case is
# (source, U, D, V) over a ring where ``s`` is a nonunit scalar.
F3 = fpx(3)


def _non_unimodular_certificates(ring, s):
    one, zero = ring.one, ring.zero
    diag = lambda *d: Matrix.diagonal(ring, d)
    eye = lambda n: Matrix.identity(ring, n)
    return {
        # square nonsingular A: one determinant (of A) decides
        "nonsingular-U": (eye(2), diag(one, s), diag(one, s), eye(2)),
        "nonsingular-V": (eye(2), eye(2), diag(one, s), diag(one, s)),
        # nonsingular A, singular D: det U and det V decide
        "singular-D": (eye(2), diag(one, zero), diag(one, zero), eye(2)),
        # singular square A: det U and det V decide
        "singular-U": (diag(one, zero), diag(one, s), diag(one, zero), eye(2)),
        "singular-V": (diag(one, zero), eye(2), diag(one, zero), diag(one, s)),
        # non-square A
        "wide-U": (Matrix.diagonal(ring, [one, one], 2, 3), diag(one, s),
                   Matrix.diagonal(ring, [one, s], 2, 3), eye(3)),
        "wide-V": (Matrix.diagonal(ring, [one], 1, 2), eye(1),
                   Matrix.diagonal(ring, [one], 1, 2), diag(one, s)),
        "tall-U": (Matrix.diagonal(ring, [one], 2, 1), diag(one, s),
                   Matrix.diagonal(ring, [one], 2, 1), eye(1)),
    }


@pytest.mark.parametrize("ring, s", [(ZZ, 2), (F3, F3.poly([0, 1]))], ids=["Z", "F3x"])
@pytest.mark.parametrize("case", list(_non_unimodular_certificates(ZZ, 2)))
def test_verify_rejects_a_non_unimodular_transform(ring, s, case):
    a, u, d, v = _non_unimodular_certificates(ring, s)[case]
    assert u * a * v == d
    divisors = tuple(x for x in (d.entries[i][i] for i in range(min(d.rows, d.cols))) if not ring.is_zero(x))
    assert_refused(snf(a), U=u, D=d, V=v, divisors=divisors)


def test_only_snf_builds_a_certificate(call_log):
    """The elementary-divisor split and the cellular factorization take
    the Smith form unchecked, since their own bundles check what they use."""
    built = call_log(SnfCertificate, "__init__")
    a = Matrix(ZZ, [[2, 4], [6, 8]])
    ed_decompose(two_term(a))
    assert len(cellular_factorization(ChainMap.zero(two_term(Matrix(ZZ, [[2]])), two_term(a))).stages) == 2
    assert built == []
    snf(a)
    assert len(built) == 1


def test_verify_accepts_a_unit_ratio_of_determinants():
    # det D / det A = 1/2 = 2 is a unit of F_3[x]: U = diag(2, 1) is unimodular.
    two = F3.poly([2])
    a = Matrix.diagonal(F3, [two, F3.one])
    u = Matrix.diagonal(F3, [two, F3.one])
    eye = Matrix.identity(F3, 2)
    assert SnfCertificate(a, u, eye, eye, (F3.one, F3.one)).source is a


def test_verify_takes_one_determinant_on_a_square_nonsingular_source(call_log):
    rng = random.Random(18)
    a = rand_int_matrix(rng, 5, 5)
    while det(a) == 0:
        a = rand_int_matrix(rng, 5, 5)
    seen = call_log(matrices, "det")
    cert = snf(a)
    assert seen == [(a,)]
    assert cert._replace() == cert
    assert seen == [(a,), (a,)]
