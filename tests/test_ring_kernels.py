"""Oracle test for the ring kernels ``product``, ``submul`` and
``combine``: each must equal the same expression written with the
scalar ``add``, ``sub`` and ``mul``, with hypothesis shrinking.  The
packed work ring of F_2[x] must agree with the tuple ring on every
operation, through ``pack`` and ``unpack``.  Needs the ``test`` extra;
the module skips without it."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from koszulkit.errors import InvalidInputError  # noqa: E402
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


# The packed work ring of F_2[x] against the tuple ring F2, which stays
# the reference.

F2 = fpx(2)
PACKED, pack, unpack = F2.work, F2.pack, F2.unpack


def test_only_f2_packs():
    assert PACKED is not F2 and PACKED != F2
    for ring in (ZZ, fpx(3), fpx(101)):
        assert ring.work is ring and ring.pack is None and ring.unpack is None


def test_pack_round_trips_every_element_up_to_degree_12():
    assert pack(()) == 0 and unpack(0) == ()
    assert pack((1,)) == 1 and unpack(1) == (1,)
    assert pack((0, 1)) == 2 and unpack(6) == (0, 1, 1)
    for n in range(1 << 13):
        a = unpack(n)
        assert F2.validate(a) == a and len(a) == n.bit_length()
        assert pack(a) == n


def packed_rows(rows):
    return [[pack(x) for x in row] for row in rows]


def unpacked_rows(rows):
    return [[unpack(x) for x in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(elements(F2), elements(F2))
def test_packed_scalar_ops_match_tuple_ring(a, b):
    pa, pb = pack(a), pack(b)
    assert unpack(pa) == a
    for op in ("add", "sub", "mul"):
        assert unpack(getattr(PACKED, op)(pa, pb)) == getattr(F2, op)(a, b)
    assert unpack(PACKED.neg(pa)) == F2.neg(a)
    assert PACKED.is_zero(pa) == F2.is_zero(a)
    assert tuple(map(unpack, PACKED.normalize(pa))) == F2.normalize(a)
    if b:
        assert tuple(map(unpack, PACKED.divmod(pa, pb))) == F2.divmod(a, b)
    else:
        with pytest.raises(ZeroDivisionError):
            PACKED.divmod(pa, pb)
    assert tuple(map(unpack, PACKED.ext_gcd(pa, pb))) == F2.ext_gcd(a, b)
    exact = PACKED.div_exact(pa, pb)
    assert (None if exact is None else unpack(exact)) == F2.div_exact(a, b)
    if F2.is_unit(a):
        assert unpack(PACKED.unit_inverse(pa)) == F2.unit_inverse(a)
    else:
        for ring, x in ((PACKED, pa), (F2, a)):
            with pytest.raises(InvalidInputError):
                ring.unit_inverse(x)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_packed_kernels_match_tuple_ring(data):
    x, y, a, b, start = data.draw(kernel_cases(F2))
    px, py, pa, pb = [pack(e) for e in x], [pack(e) for e in y], pack(a), pack(b)
    assert [unpack(e) for e in PACKED.combine(pa, px, pb, py)] == F2.combine(a, x, b, y)

    other = [F2.zero] * start + y[start:]
    row, prow = list(x), list(px)
    F2.submul(row, a, other, start)
    assert PACKED.submul(prow, pa, [pack(e) for e in other], start) is None
    assert [unpack(e) for e in prow] == row

    left, right, width = data.draw(product_cases(F2))
    got = PACKED.product(packed_rows(left), [tuple(r) for r in packed_rows(right)], width)
    assert all(type(row) is list for row in got)
    assert unpacked_rows(got) == F2.product(left, right, width)
