"""Oracle test for the ring kernels ``product``, ``submul`` and
``combine``: each must equal the same expression written with the
scalar ``add``, ``sub`` and ``mul``, with hypothesis shrinking.  Needs
the ``test`` extra; the module skips without it."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from koszulkit.rings import ZZ, fpx  # noqa: E402

RINGS = [ZZ, fpx(2), fpx(3), fpx(101)]


def nonzero_elements(ring, max_degree=10):
    """Polynomials have degree up to ``max_degree``, so an unreduced sum
    collects many terms per coefficient."""
    if ring is ZZ:
        return st.integers().filter(bool)
    return st.builds(lambda low, lead: tuple(low) + (lead,),
                     st.lists(st.integers(0, ring.p - 1), max_size=max_degree), st.integers(1, ring.p - 1))


def elements(ring):
    """Two draws in three are zero."""
    return st.one_of(st.just(ring.zero), st.just(ring.zero), nonzero_elements(ring))


def scalar_product(ring, left, right, width):
    """left * right by the triple loop over scalar ``add`` and ``mul``."""
    out = []
    for row in left:
        new = []
        for j in range(width):
            entry = ring.zero
            for a, r in zip(row, right):
                entry = ring.add(entry, ring.mul(a, r[j]))
            new.append(entry)
        out.append(new)
    return out


@st.composite
def kernel_cases(draw, ring):
    """Two rows of one length in 0..12, two scalars, and a start index."""
    n = draw(st.integers(0, 12))
    row = st.lists(elements(ring), min_size=n, max_size=n)
    return (draw(row), draw(row), draw(elements(ring)), draw(elements(ring)),
            draw(st.integers(0, n)))


@st.composite
def product_cases(draw, ring):
    """left (n x m) and right (m x width), n, m, width in 0..12.  Each left
    row draws its own share of zeros, so rows fall on both sides of the
    half-density switch over Z; ``one`` is drawn often.  Degrees stay
    at most 4 to keep the scalar triple loop cheap; a sum still collects
    up to 12 terms per coefficient."""
    n, m, width = (draw(st.integers(0, 12)) for _ in range(3))
    one, zero, nonzero = st.just(ring.one), st.just(ring.zero), nonzero_elements(ring, 4)
    sparse = st.one_of(zero, zero, one, nonzero)
    dense = st.one_of(zero, one, nonzero, nonzero)
    left = [draw(st.lists(draw(st.sampled_from([sparse, dense])), min_size=m, max_size=m))
            for _ in range(n)]
    right = draw(st.lists(st.lists(sparse, min_size=width, max_size=width), min_size=m, max_size=m))
    return left, right, width


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.token)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernels_match_scalar_ops(ring, data):
    x, y, a, b, start = data.draw(kernel_cases(ring))
    add, sub, mul = ring.add, ring.sub, ring.mul

    expected = [add(mul(a, xi), mul(b, yi)) for xi, yi in zip(x, y)]
    assert ring.combine(a, x, b, y) == expected

    other = [ring.zero] * start + y[start:]
    expected = [sub(xi, mul(a, yi)) for xi, yi in zip(x, other)]
    row = list(x)
    assert ring.submul(row, a, other, start) is None
    assert row == expected

    # Exact cancellation: every entry must come out trimmed to zero.
    zeros = [ring.zero] * len(x)
    assert ring.combine(a, x, ring.neg(a), x) == zeros
    row = list(x)
    ring.submul(row, ring.one, x)
    assert row == zeros


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.token)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_product_matches_triple_loop(ring, data):
    left, right, width = data.draw(product_cases(ring))
    frozen = [tuple(r) for r in right]
    got = ring.product(left, frozen, width)
    assert all(type(row) is list for row in got)
    assert got == scalar_product(ring, left, frozen, width)

    # Exact cancellation: [L | L] times [R ; -R] is zero, entries trimmed.
    doubled = [row + row for row in left]
    negated = frozen + [tuple(ring.neg(x) for x in r) for r in frozen]
    assert ring.product(doubled, negated, width) == [[ring.zero] * width for _ in left]


def _lift(ring, rows):
    """Small integers as ring elements: constants over F_p[x]."""
    if ring is ZZ:
        return [tuple(r) for r in rows]
    return [tuple(ring.poly([x]) for x in r) for r in rows]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.token)
@pytest.mark.parametrize("left,right,width", [
    ([[0, 0, 0, 0]], [[1, 2], [3, 4], [5, 6], [7, 8]], 2),            # all-zero row
    ([[1, 0, 2, 0]], [[1, 2], [3, 4], [5, 6], [7, 8]], 2),            # half nonzero: combination of rows
    ([[1, 3, 2, 0]], [[1, 2], [3, 4], [5, 6], [7, 8]], 2),            # more than half: dot products
    ([[0, 1, 0], [1, 1, 1]], [[9, 8], [7, 6], [5, 4]], 2),            # coefficient 1, both sides
    ([[1, 2], [0, 5]], [[], []], 0),                                   # width 0
    ([[], []], [], 3),                                                 # inner dimension 0
    ([[1, 1], [2, 0]], [[1, -1], [-1, 1]], 2),                         # exact cancellation
    ([[1, 1, 0], [2, 1, 0]], [[5, 7], [0, 3], [4, 6]], 2),             # lone 1*b; 1*b, then a second term
], ids=["zero-row", "half", "dense", "one", "width0", "inner0", "cancel", "lone-one"])
def test_product_edges(ring, left, right, width):
    left, right = _lift(ring, left), _lift(ring, right)
    assert ring.product(left, right, width) == scalar_product(ring, left, right, width)
