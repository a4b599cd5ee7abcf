"""Property oracles for the divisors-only homology, exactness and
injectivity tests and the splitting proof of short exactness, on
complexes of up to three differentials of up to 12x12 over Z and
F_3[x], and for the truncation splitting on generated torsion-homology
complexes with differentials of up to 12x12.

Each answer is compared with the kernel-basis path (a saturated kernel
basis, the image solved inside it, the cokernel of that) and, over Z,
with the homology computed by sympy alone.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp  # noqa: E402

from koszulkit.complexes import (  # noqa: E402
    ChainComplex,
    _is_short_exact,
    homology,
    homology_table,
    truncation_splitting,
)
from koszulkit.errors import DimensionError, NotAComplexError  # noqa: E402
from koszulkit.fgmodules import cokernel  # noqa: E402
from koszulkit.generators import GenParams, gen_a_object  # noqa: E402
from koszulkit.matrices import Matrix, elementary_divisors, is_exact_at, kernel_basis, solve  # noqa: E402
from koszulkit.rings import ZZ, fpx  # noqa: E402

F3 = fpx(3)
MAX_DIM = 12
PROPERTY = settings(max_examples=60, deadline=None, database=None)


def entries(ring):
    if ring is ZZ:
        nonzero = st.integers(-9, 9)
    else:
        nonzero = st.lists(st.integers(0, 2), max_size=3).map(ring.poly)
    # A zero-heavy mix keeps small ranks, free homology and torsion in play.
    return st.one_of(st.just(ring.zero), nonzero)


def draw_matrix(draw, ring, rows, cols):
    data = draw(st.lists(st.lists(entries(ring), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Matrix(ring, data) if rows else Matrix.zeros(ring, 0, cols)


def draw_low_rank(draw, ring, rows, cols):
    """A product through a random inner dimension, so that the rank is
    often below both sides and the next differential has room."""
    inner = draw(st.integers(min(1, rows, cols), min(rows, cols)))
    return draw_matrix(draw, ring, rows, inner) * draw_matrix(draw, ring, inner, cols)


def left_kernel(mat: Matrix) -> Matrix:
    """Rows spanning {y : y * mat == 0}."""
    return kernel_basis(mat.transpose()).transpose()


@st.composite
def complexes(draw, rings=(ZZ, F3)):
    """Up to three differentials, each built to vanish on the one above."""
    ring = draw(st.sampled_from(rings))
    m = draw(st.integers(1, 3))
    low = draw(st.integers(-2, 2))
    ranks = [draw(st.integers(0, MAX_DIM)) for _ in range(m + 1)]
    diffs = {}
    above = None
    for k in range(m, 0, -1):
        rows, cols = ranks[k - 1], ranks[k]
        if above is None:
            mat = draw_low_rank(draw, ring, rows, cols)
        else:
            # Combinations of rows from the left kernel of d_{k+1}, so
            # d_k . d_{k+1} == 0; the combinations add torsion.
            killer = left_kernel(above)
            mat = draw_low_rank(draw, ring, rows, killer.rows) * killer
        diffs[low + k] = mat
        above = mat
    return ChainComplex(ring, {low + k: r for k, r in enumerate(ranks)}, diffs)


def reference_homology(complex_: ChainComplex, n: int):
    """The kernel-basis path: the image of d_{n+1} solved inside a
    saturated kernel basis of d_n, then the cokernel of that."""
    inside = solve(kernel_basis(complex_.d(n)), complex_.d(n + 1))
    assert inside is not None
    return cokernel(inside)


def sympy_homology(complex_: ChainComplex, n: int):
    """(free rank, torsion) of H_n over Z from sympy alone.

    With S * d_n * T == D in Smith form of rank r, the last columns of the
    unimodular T from r on are a basis of the kernel of d_n, and the
    image of d_{n+1} has coordinates T^-1 * d_{n+1} in it (rows from r
    on; the first r rows vanish because d_n * d_{n+1} == 0).
    """
    dn = sympy.Matrix(complex_.rank(n - 1), complex_.rank(n), lambda i, j: complex_.d(n).entries[i][j])
    up = sympy.Matrix(complex_.rank(n), complex_.rank(n + 1), lambda i, j: complex_.d(n + 1).entries[i][j])
    diag, _, t = smith_normal_decomp(dn, domain=sympy.ZZ)
    r = sum(1 for k in range(min(diag.shape)) if diag[k, k] != 0)
    coords = t.inv() * up if t.rows else up
    assert all(x == 0 for x in coords[:r, :])
    quotient = coords[r:, :]
    factors = [abs(int(x)) for x in invariant_factors(quotient)] if quotient.rows and quotient.cols else []
    nonzero = [x for x in factors if x]
    return complex_.rank(n) - r - len(nonzero), tuple(x for x in nonzero if x != 1)


@PROPERTY
@given(complexes())
def test_homology_matches_the_kernel_basis_path(complex_):
    table = homology_table(complex_)
    for n in complex_.degree_range():
        assert table[n] == homology(complex_, n) == reference_homology(complex_, n)


@PROPERTY
@given(complexes(rings=(ZZ,)))
def test_homology_over_z_matches_sympy(complex_):
    for n in complex_.degree_range():
        h = homology(complex_, n)
        assert (h.free_rank, h.torsion) == sympy_homology(complex_, n)


# ---------------------------------------------------------------------------
# Exactness and injectivity.


@st.composite
def composable_pairs(draw):
    """(first, second) with second * first == 0, image of first often
    unsaturated, of lower rank, or zero-width."""
    ring = draw(st.sampled_from([ZZ, F3]))
    rows, middle = draw(st.integers(0, MAX_DIM)), draw(st.integers(0, MAX_DIM))
    second = draw_matrix(draw, ring, rows, middle)
    kernel = kernel_basis(second)
    shape = draw(st.sampled_from(["basis", "scaled", "mixed", "zero-width"]))
    if shape == "basis":
        first = kernel
    elif shape == "scaled":
        first = kernel.scale(2 if ring is ZZ else F3.poly([0, 1]))
    elif shape == "mixed":
        mix = draw_matrix(draw, ring, kernel.cols, draw(st.integers(0, MAX_DIM)))
        first = kernel * mix if kernel.cols else Matrix.zeros(ring, middle, mix.cols)
    else:
        first = Matrix.zeros(ring, middle, 0)
    return first, second


def reference_failure(first: Matrix, second: Matrix):
    if kernel_basis(first).cols:
        return "inclusion is not injective"
    if not cokernel(second).is_zero():
        return "projection is not surjective"
    if solve(first, kernel_basis(second)) is None:
        return "sequence is not exact"
    return None


@PROPERTY
@given(composable_pairs())
def test_is_exact_at_matches_solving_for_the_kernel(pair):
    first, second = pair
    assert is_exact_at(first, second) == (solve(first, kernel_basis(second)) is not None)
    assert _is_short_exact(first, second) == (reference_failure(first, second) is None)


@st.composite
def matrices(draw):
    ring = draw(st.sampled_from([ZZ, F3]))
    return draw_matrix(draw, ring, draw(st.integers(0, MAX_DIM)), draw(st.integers(0, MAX_DIM)))


@PROPERTY
@given(matrices())
def test_injectivity_matches_an_empty_kernel(mat):
    assert (len(elementary_divisors(mat)) == mat.cols) == (kernel_basis(mat).cols == 0)


def test_exactness_keeps_its_shape_and_composite_checks():
    with pytest.raises(DimensionError):
        is_exact_at(Matrix(ZZ, [[1, 0]]), Matrix(ZZ, [[1, 0]]))
    with pytest.raises(NotAComplexError):
        is_exact_at(Matrix(ZZ, [[1], [1]]), Matrix(ZZ, [[1, 0]]))
    with pytest.raises(NotAComplexError):
        is_exact_at(Matrix(F3, [[F3.one]]), Matrix(F3, [[F3.one]]))


# ---------------------------------------------------------------------------
# Truncation splitting.


@st.composite
def a_objects(draw):
    """Scrambled sums of up to 12 blocks [R -> aR] with a nonzero a, over
    a drawn support window: torsion homology, differentials up to 12x12."""
    ring = draw(st.sampled_from([ZZ, F3]))
    params = GenParams(ring=ring, seed=draw(st.integers(0, 2 ** 16)), max_rank=draw(st.integers(1, 11)),
                       support_width=draw(st.integers(2, 5)))
    return gen_a_object(params, draw(st.integers(0, 2 ** 16))).complex


def oracle_homology(complex_: ChainComplex, n: int):
    """(free rank, torsion) of H_n: sympy alone over Z, the kernel-basis
    path over F_3[x]."""
    if not complex_.rank(n):
        return 0, ()
    if complex_.ring is ZZ:
        return sympy_homology(complex_, n)
    h = reference_homology(complex_, n)
    return h.free_rank, h.torsion


@PROPERTY
@given(a_objects())
def test_truncation_splitting_keeps_the_homology(complex_):
    degrees = range(min(complex_.ranks) - 1, max(complex_.ranks) + 2)
    expected = {m: oracle_homology(complex_, m) for m in degrees}
    for n in degrees:
        split = truncation_splitting(complex_, n)
        for m in degrees:
            assert oracle_homology(split.triple.left, m) == (expected[m] if m > n else (0, ())), (n, m)
            assert oracle_homology(split.triple.right, m) == (expected[m] if m <= n else (0, ())), (n, m)
