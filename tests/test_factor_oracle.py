"""Oracle tests: factor and is_prime against sympy, with hypothesis
shrinking.  Needs the ``test`` extra; the module skips without it."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from koszulkit.rings import _TRIAL_PRIMES, ZZ, _strong_lucas, fpx, is_prime  # noqa: E402

F2 = fpx(2)
F3 = fpx(3)
F101 = fpx(101)
X = sympy.symbols("x")


# Composites that fool weak tests: Carmichael numbers 561 and 41041, a
# strong pseudoprime to the bases 2, 3, 5, 7, and one to every prime base
# up to 23.
PSEUDOPRIMES = (561, 41041, 3215031751, 3825123056546413051)


def test_trial_primes_are_the_primes_below_1000():
    assert _TRIAL_PRIMES == tuple(sympy.primerange(2, 1000))


primes_to_40_bits = st.integers(2, 40).flatmap(
    lambda bits: st.integers(2 ** (bits - 1) + 1, 2 ** bits)).map(sympy.prevprime)


@st.composite
def factored_integers(draw):
    factors = draw(st.dictionaries(primes_to_40_bits, st.integers(1, 3), min_size=1, max_size=4))
    return draw(st.sampled_from((1, -1))) * math.prod(p ** m for p, m in factors.items())


@settings(max_examples=40, deadline=None)
@given(factored_integers())
@example(PSEUDOPRIMES[0])
@example(PSEUDOPRIMES[1])
@example(PSEUDOPRIMES[2])
@example(-PSEUDOPRIMES[3])
@example((10 ** 24 + 7) ** 3)
@example((2 ** 89 - 1) ** 2 * 3)
@example(-(10 ** 12 + 39) ** 4 * (2 ** 31 - 1))
@example(1099511627689 * 1099510579177)  # two primes of 40 bits: rho's slowest draw
def test_integer_factor_matches_sympy(n):
    expected = {p: m for p, m in sympy.factorint(n).items() if p != -1}
    factors = ZZ.factor(n)
    assert factors == expected and list(factors) == sorted(factors)
    for value in (abs(n), *factors):
        assert is_prime(value) == sympy.isprime(value)


@pytest.mark.parametrize("n", [
    -7, 0, 1,
    *PSEUDOPRIMES,
    10 ** 24 + 7,
    3317044064679887385961981,            # the bound itself: a strong pseudoprime
    2 ** 89 - 1, 2 ** 127 - 1,            # primes past the bound: BPSW
    (2 ** 61 - 1) * (2 ** 67 - 1),        # composites past the bound
    (10 ** 12 + 39) * (10 ** 13 + 37),
])
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_strong_lucas_pseudoprimes():
    # Odd composites below 2 * 10**5 with no prime factor below 1000 that
    # pass the strong Lucas test (OEIS A217255); below the proof bound the
    # strong-base test already rejects them, above it they would need to
    # pass both.
    liars = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
             58519, 75077, 97439, 100127, 113573, 115639, 130139, 155819,
             158399, 161027, 162133, 176399, 176471, 189419, 192509, 197801}
    for n in range(1009, 2 * 10 ** 5, 2):
        if math.isqrt(n) ** 2 != n:
            assert _strong_lucas(n) == (sympy.isprime(n) or n in liars), n
    # No D has Jacobi symbol -1 modulo a square, so squares are refused first.
    assert not _strong_lucas(1009 ** 2)


def sympy_factors(ring, f):
    poly = sympy.Poly(list(reversed(f)), X, modulus=ring.p)
    out = {}
    for q, m in poly.factor_list()[1]:
        out[ring.normalize(ring.poly([int(c) for c in reversed(q.all_coeffs())]))[1]] = m
    return out


@st.composite
def polynomial_products(draw):
    ring = draw(st.sampled_from([F2, F3, F101]))
    parts = draw(st.lists(
        st.tuples(st.lists(st.integers(0, ring.p - 1), min_size=2, max_size=6)
                  .map(ring.poly).filter(lambda g: len(g) > 1),
                  st.integers(1, 4)),
        min_size=1, max_size=4))
    f = draw(st.integers(1, ring.p - 1).map(lambda c: (c,)))
    for part, mult in parts:
        for _ in range(mult):
            f = ring.mul(f, part)
    return ring, f


@settings(max_examples=150, deadline=None)
@given(polynomial_products())
# (x^3 + x + 1)(x^3 + x^2 + 1): two cubics for the F_2 trace-map split.
@example((F2, F2.mul(F2.poly([1, 1, 0, 1]), F2.poly([1, 0, 1, 1]))))
def test_polynomial_factor_matches_sympy(case):
    ring, f = case
    factors = ring.factor(f)
    assert factors == sympy_factors(ring, f) and list(factors) == sorted(factors)
    product = ring.normalize(f)[0]
    for q, m in factors.items():
        assert ring.is_canonical_prime(q)
        for _ in range(m):
            product = ring.mul(product, q)
    assert product == f
