"""Oracle tests for the ring kernels ``product``, ``submul`` and
``combine``, which run on each ring's work ring: through ``pack`` and
``unpack`` each must equal the same expression written with the public
ring's scalar ``add``, ``sub`` and ``mul``, with hypothesis shrinking.
The scalar operations of F_p[x] -- the packed work rings, also with the
slot headroom cut to 1 or 2 bits so that the early reductions and
chunked products all run, and the public rings that
compute on them -- must agree with a tuple ring built on sympy's
``galoistools``, which shares no code with koszulkit.  Needs the
``test`` extra; the module skips without it."""

import itertools
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

galoistools = pytest.importorskip("sympy.polys.galoistools")
from sympy.polys.domains import ZZ as SYMPY_ZZ  # noqa: E402

from koszulkit import rings  # noqa: E402
from koszulkit.errors import InvalidInputError  # noqa: E402
from koszulkit.matrices import Matrix, snf  # noqa: E402
from koszulkit.rings import ZZ, PrimeFieldPolynomialRing, fpx  # noqa: E402

RINGS = [ZZ, fpx(2), fpx(3), fpx(101)]
# Odd characteristics of the packed F_p[x] rings under test.  127 and
# 2^89 - 1 sit just below a power of two, where a product of two
# coefficients nearly fills the 2L bits the overflow invariant gives it,
# so one term too many in a slot breaks the bound.
ODD_PRIMES = [3, 5, 101, 127, 2 ** 64 + 13, 2 ** 89 - 1]
# The conversion hook of a ring that computes on its own elements.
SAME = lambda a: a  # noqa: E731


def nonzero_elements(ring, max_degree=10):
    """Polynomials have degree up to ``max_degree``, so an unreduced sum
    collects many terms per coefficient."""
    if ring is ZZ:
        return st.integers().filter(bool)
    return st.builds(lambda low, lead: tuple(low) + (lead,),
                     st.lists(st.integers(0, ring.p - 1), max_size=max_degree), st.integers(1, ring.p - 1))


def elements(ring, max_degree=10):
    """Two draws in three are zero."""
    return st.one_of(st.just(ring.zero), st.just(ring.zero), nonzero_elements(ring, max_degree))


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


def work_form(ring):
    """(work ring, pack, unpack) of ``ring``, identity hooks where it
    computes on its own elements."""
    return ring.work, ring.pack or SAME, ring.unpack or SAME


@st.composite
def kernel_cases(draw, ring, max_degree=10):
    """Two rows of one length in 0..12, two scalars, and a start index."""
    n = draw(st.integers(0, 12))
    row = st.lists(elements(ring, max_degree), min_size=n, max_size=n)
    return (draw(row), draw(row), draw(elements(ring, max_degree)), draw(elements(ring, max_degree)),
            draw(st.integers(0, n)))


@st.composite
def product_cases(draw, ring, max_dim=12):
    """left (n x m) and right (m x width), n, m, width in 0..max_dim.
    Each left row draws its own share of zeros, so rows fall on both
    sides of the half-density switch over Z; ``one`` is drawn often.
    Degrees stay at most 4 to keep the scalar triple loop cheap; a sum
    still collects up to 12 terms per coefficient."""
    n, m, width = (draw(st.integers(0, max_dim)) for _ in range(3))
    one, zero, nonzero = st.just(ring.one), st.just(ring.zero), nonzero_elements(ring, 4)
    sparse = st.one_of(zero, zero, one, nonzero)
    dense = st.one_of(zero, one, nonzero, nonzero)
    left = [draw(st.lists(draw(st.sampled_from([sparse, dense])), min_size=m, max_size=m))
            for _ in range(n)]
    right = draw(st.lists(st.lists(sparse, min_size=width, max_size=width), min_size=m, max_size=m))
    return left, right, width


def check_kernels(ring, work, pack, unpack, case):
    """``combine`` and ``submul`` of ``work`` against the scalar ops of
    ``ring``, on public elements converted by ``pack``/``unpack``."""
    x, y, a, b, start = case
    add, sub, mul = ring.add, ring.sub, ring.mul
    px, py, pa, pb = list(map(pack, x)), list(map(pack, y)), pack(a), pack(b)

    expected = [add(mul(a, xi), mul(b, yi)) for xi, yi in zip(x, y)]
    assert list(map(unpack, work.combine(pa, px, pb, py))) == expected

    other = [ring.zero] * start + y[start:]
    expected = [sub(xi, mul(a, yi)) for xi, yi in zip(x, other)]
    row = list(px)
    assert work.submul(row, pa, list(map(pack, other)), start) is None
    assert list(map(unpack, row)) == expected

    # Exact cancellation: every entry must come out as zero.
    zeros = [work.zero] * len(x)
    assert work.combine(pa, px, work.neg(pa), px) == zeros
    row = list(px)
    work.submul(row, work.one, px)
    assert row == zeros


def check_product(ring, work, pack, unpack, case):
    left, right, width = case
    wleft = [list(map(pack, row)) for row in left]
    wright = [tuple(map(pack, row)) for row in right]
    got = work.product(wleft, wright, width)
    assert all(type(row) is list for row in got)
    assert [list(map(unpack, row)) for row in got] == scalar_product(ring, left, right, width)

    # Exact cancellation: [L | L] times [R ; -R] is zero.
    doubled = [row + row for row in wleft]
    negated = wright + [tuple(map(work.neg, r)) for r in wright]
    assert work.product(doubled, negated, width) == [[work.zero] * width for _ in left]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.token)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernels_match_scalar_ops(ring, data):
    check_kernels(ring, *work_form(ring), data.draw(kernel_cases(ring)))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.token)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_product_matches_triple_loop(ring, data):
    check_product(ring, *work_form(ring), data.draw(product_cases(ring)))


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
    work, pack, unpack = work_form(ring)
    got = work.product([list(map(pack, r)) for r in left], [tuple(map(pack, r)) for r in right], width)
    assert [list(map(unpack, row)) for row in got] == scalar_product(ring, left, right, width)


def test_every_fpx_packs():
    assert ZZ.work is ZZ and ZZ.pack is None and ZZ.unpack is None
    for ring in (fpx(2), fpx(3), fpx(101), fpx(2 ** 64 + 13)):
        assert ring.work is not ring and ring.work != ring
        assert ring.pack is not None and ring.unpack is not None
        assert ring.work.token == ring.token + ":packed"
    # F_2[x] keeps its XOR ring: addition is XOR of the bit-packed ints.
    assert fpx(2).work is rings._F2_PACKED
    assert fpx(2).work.add(0b110, 0b011) == 0b101
    assert type(fpx(3).work) is rings._PackedFpRing


class GfTuples:
    """F_p[x] on little-endian coefficient tuples, every operation taken
    from sympy's ``galoistools`` (big-endian coefficient lists over ZZ):
    the reference for the scalar operations of koszulkit's F_p[x]."""

    zero = ()

    def __init__(self, p):
        self.p = p

    @staticmethod
    def _gf(a):
        return [SYMPY_ZZ(c) for c in reversed(a)]

    @staticmethod
    def _tuple(f):
        return tuple(int(c) for c in reversed(f))

    def _call(self, name, *args):
        return getattr(galoistools, name)(*map(self._gf, args), self.p, SYMPY_ZZ)

    def add(self, a, b):
        return self._tuple(self._call("gf_add", a, b))

    def sub(self, a, b):
        return self._tuple(self._call("gf_sub", a, b))

    def neg(self, a):
        return self._tuple(self._call("gf_neg", a))

    def mul(self, a, b):
        return self._tuple(self._call("gf_mul", a, b))

    def divmod(self, a, b):
        return tuple(map(self._tuple, self._call("gf_div", a, b)))

    def normalize(self, a):
        """(unit, monic), with (1, 0) for 0 as in koszulkit."""
        if not a:
            return (1,), ()
        lead, monic = self._call("gf_monic", a)
        return (int(lead),), self._tuple(monic)

    def ext_gcd(self, a, b):
        s, t, g = map(self._tuple, self._call("gf_gcdex", a, b))
        return g, s, t


# The packed work ring of F_2[x], and fpx(2) itself, against the
# galoistools reference; its kernels are checked with every ring's above.

F2 = fpx(2)
PACKED, pack, unpack = F2.work, F2.pack, F2.unpack


def test_pack_round_trips_every_element_up_to_degree_12():
    assert pack(()) == 0 and unpack(0) == ()
    assert pack((1,)) == 1 and unpack(1) == (1,)
    assert pack((0, 1)) == 2 and unpack(6) == (0, 1, 1)
    for n in range(1 << 13):
        a = unpack(n)
        assert F2.validate(a) == a and len(a) == n.bit_length()
        assert pack(a) == n


def check_scalar_ops(ref, work, pack, unpack, a, b):
    """Every primitive of ``work`` against the galoistools ring ``ref``."""
    pa, pb = pack(a), pack(b)
    assert unpack(pa) == a and unpack(pb) == b
    for op in ("add", "sub", "mul"):
        assert unpack(getattr(work, op)(pa, pb)) == getattr(ref, op)(a, b)
    assert unpack(work.neg(pa)) == ref.neg(a)
    assert work.is_zero(pa) == (not a)
    assert tuple(map(unpack, work.normalize(pa))) == ref.normalize(a)
    if b:
        q, r = ref.divmod(a, b)
        assert tuple(map(unpack, work.divmod(pa, pb))) == (q, r)
        want_exact = None if r else q
    else:
        with pytest.raises(ZeroDivisionError):
            work.divmod(pa, pb)
        want_exact = None if a else ()
    assert tuple(map(unpack, work.ext_gcd(pa, pb))) == ref.ext_gcd(a, b)
    exact = work.div_exact(pa, pb)
    assert (None if exact is None else unpack(exact)) == want_exact
    if len(a) == 1:
        assert unpack(work.unit_inverse(pa)) == ref.divmod((1,), a)[0]
    else:
        with pytest.raises(InvalidInputError):
            work.unit_inverse(pa)


@settings(max_examples=300, deadline=None)
@given(elements(F2), elements(F2))
def test_packed_scalar_ops_match_tuple_ring(a, b):
    for work, to_work, from_work in ((PACKED, pack, unpack), (F2, SAME, SAME)):
        check_scalar_ops(GfTuples(2), work, to_work, from_work, a, b)


# The packed work rings of odd characteristic, as twins that check the
# overflow invariant on every value they reduce: one with the default
# slot headroom, and two with 1 or 2 bits of it.  In those a sum of two
# or four products fills a slot, so the products, kernels and long
# division must reduce early and split long factors into chunks.  Each
# twin starts from a one-slot reduction mask, as every work ring does,
# and grows it with the longest value it has reduced.


class _CheckedPackedRing(rings._PackedFpRing):
    def _reduce(self, x):
        bound, slot, w, rest = 1 << (self._w - 1) // 2, self._slot, self._w, x
        while rest:
            assert rest & slot < bound, "a slot reached 2^b"
            rest >>= w
        return super()._reduce(x)


def _checked_ring(p, headroom=None):
    with pytest.MonkeyPatch.context() as patch:
        if headroom is not None:
            patch.setattr(rings, "_SLOT_HEADROOM", headroom)
        return _CheckedPackedRing(p)


CHECKED = {(p, h): _checked_ring(p, h) for p in ODD_PRIMES for h in (None, 1, 2)}


def odd_work_rings(p):
    """Twins of the work ring of fpx(p): default headroom, then 1 and 2 bits."""
    return [CHECKED[p, None], CHECKED[p, 1], CHECKED[p, 2]]


def test_checked_twins_are_the_work_ring():
    for p in ODD_PRIMES:
        work, twin = fpx(p).work, CHECKED[p, None]
        assert (twin._w, twin._k, twin._m, twin._cap) == (work._w, work._k, work._m, work._cap)
        assert CHECKED[p, 1]._cap == 2 and CHECKED[p, 2]._cap == 4


@pytest.mark.parametrize("p", ODD_PRIMES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_packed_fp_scalar_ops_match_tuple_ring(p, data):
    ring, ref = fpx(p), GfTuples(p)
    a, b = data.draw(elements(ring, 12)), data.draw(elements(ring, 12))
    for work in odd_work_rings(p):
        assert work.is_unit(work.encode(a)) == ring.is_unit(a)
        check_scalar_ops(ref, work, work.encode, work.decode, a, b)
    check_scalar_ops(ref, ring, SAME, SAME, a, b)


@pytest.mark.parametrize("p", ODD_PRIMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_packed_fp_kernels_match_scalar_reference(p, data):
    ring, ref = fpx(p), GfTuples(p)
    case, product = data.draw(kernel_cases(ring, 6)), data.draw(product_cases(ring, 6))
    for work in odd_work_rings(p):
        check_kernels(ref, work, work.encode, work.decode, case)
        check_product(ref, work, work.encode, work.decode, product)


@pytest.mark.parametrize("p", [3, 101])
def test_packed_fp_is_exact_on_long_inputs(p):
    """Factors of more than 2^H slots, which every ring multiplies in
    chunks, and products whose slots sum hundreds of products."""
    ring, ref, rng = fpx(p), GfTuples(p), random.Random(p)
    degree = (1 << rings._SLOT_HEADROOM) + 40
    a, b = (ring.poly([rng.randrange(p) for _ in range(degree)] + [1]) for _ in range(2))
    c = ring.poly([rng.randrange(p) for _ in range(40)] + [2])
    for work in odd_work_rings(p):
        pa, pb, pc = work.encode(a), work.encode(b), work.encode(c)
        ab = work.mul(pa, pb)
        assert work.decode(ab) == ref.mul(a, b)
        assert tuple(map(work.decode, work.divmod(ab, pc))) == ref.divmod(ref.mul(a, b), c)
        assert work.decode(work.sub(ab, work.mul(pb, pa))) == ()
        row = work.product([[pa, pb]], [(pb, pc), (pa, pa)], 2)[0]
        assert list(map(work.decode, row)) == [ref.add(ref.mul(a, b), ref.mul(b, a)),
                                               ref.add(ref.mul(a, c), ref.mul(b, a))]


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_packed_fp_is_exact_at_the_slot_bound(p):
    """Every coefficient p - 1, so every product is the largest a slot
    can get: ``combine`` on every pair of factor lengths, the other
    kernels with 12 products per entry and factors of one to seven
    slots, and long division on the same inputs.  For p = 127 and
    2^89 - 1 one product more than the count allows breaks the bound."""
    ref = GfTuples(p)
    tops = [(p - 1,) * n for n in (1, 2, 3, 5)]
    wide = tops[-1]
    for a, b in itertools.product(tops, repeat=2):
        want = ref.add(ref.mul(a, wide), ref.mul(b, wide))
        for work in odd_work_rings(p):
            pa, pb, pl = work.encode(a), work.encode(b), work.encode(wide)
            assert list(map(work.decode, work.combine(pa, [pl] * 3, pb, [pl] * 3))) == [want] * 3
    for degree in (0, 1, 3, 6):
        top = (p - 1,) * (degree + 1)
        ones = (1,) * (degree + 1)  # its negation has coefficients p - 1
        left, right = [[top] * 12] * 2, [(top, top)] * 12
        want_product = scalar_product(ref, left, right, 2)
        want_combine = ref.add(ref.mul(top, top), ref.mul(top, top))
        want_submul = ref.sub(top, ref.mul(ones, top))
        big = ref.mul(ref.mul(top, top), ref.mul(top, top))
        want_divmod = ref.divmod(big, top + (1,))
        for work in odd_work_rings(p):
            enc, dec = work.encode, work.decode
            t = enc(top)
            got = work.product([[t] * 12] * 2, [(t, t)] * 12, 2)
            assert [list(map(dec, row)) for row in got] == want_product
            assert list(map(dec, work.combine(t, [t] * 12, t, [t] * 12))) == [want_combine] * 12
            row = [t] * 12
            work.submul(row, enc(ones), [t] * 12)
            assert list(map(dec, row)) == [want_submul] * 12
            assert tuple(map(dec, work.divmod(enc(big), enc(top + (1,))))) == want_divmod


@pytest.mark.parametrize("p", [3, 101])
def test_tiny_headroom_elimination_matches(p):
    """``snf`` on an F_p[x] twin whose work ring has 1 bit of headroom
    returns the certificate of fpx(p), entry for entry."""
    ring, tiny = fpx(p), CHECKED[p, 1]
    twin = PrimeFieldPolynomialRing(p)
    twin.token, twin.work, twin.pack, twin.unpack = f"fpx:{p}:tiny", tiny, tiny.encode, tiny.decode
    rng = random.Random(p)
    for n in (3, 5):
        rows = [[ring.poly([rng.randrange(p) for _ in range(4)]) for _ in range(n)] for _ in range(n)]
        got, want = snf(Matrix(twin, rows)), snf(Matrix(ring, rows))
        assert got.divisors == want.divisors
        for m in ("U", "D", "V"):
            assert getattr(got, m).entries == getattr(want, m).entries
