import hashlib
import itertools
import random

import pytest

from koszulkit import rings
from koszulkit.errors import DomainMismatchError, InvalidInputError, NotFactorableError
from koszulkit.rings import (
    ZZ,
    IntegerRing,
    PrimeFieldPolynomialRing,
    Ring,
    _F2_PACKED,
    _pack_f2,
    fpx,
    is_prime,
    ring_from_token,
)

F2 = fpx(2)
F3 = fpx(3)
F101 = fpx(101)


def test_ext_gcd_integers():
    g, s, t = ZZ.ext_gcd(6, 4)
    assert g == 2
    assert s * 6 + t * 4 == 2


def test_ext_gcd_absorbing_zero():
    for a in (5, -5, 0):
        g, s, t = ZZ.ext_gcd(a, 0)
        assert g == abs(a)
        assert t == 0
        assert s * a == g


def test_ext_gcd_f2_polynomials():
    x2p1 = F2.poly([1, 0, 1])
    xp1 = F2.poly([1, 1])
    g, s, t = F2.ext_gcd(x2p1, xp1)
    assert g == xp1
    # Bezout identity and divisibility, checked by re-multiplication.
    assert F2.add(F2.mul(s, x2p1), F2.mul(t, xp1)) == g
    assert F2.mul(g, F2.div_exact(x2p1, g)) == x2p1
    assert F2.mul(g, F2.div_exact(xp1, g)) == xp1


@pytest.mark.parametrize("ring,seed", [(ZZ, 1), (F2, 2), (F3, 3)])
def test_ext_gcd_properties(ring, seed):
    rng = random.Random(seed)
    for _ in range(200):
        if ring is ZZ:
            a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        else:
            a = ring.poly([rng.randrange(ring.p) for _ in range(rng.randint(0, 4))])
            b = ring.poly([rng.randrange(ring.p) for _ in range(rng.randint(0, 4))])
        g, s, t = ring.ext_gcd(a, b)
        assert ring.add(ring.mul(s, a), ring.mul(t, b)) == g
        assert ring.divides(g, a) and ring.divides(g, b)
        # canonical associate
        assert ring.normalize(g)[1] == g


def _poly_grid(ring, seed):
    """Zero, units, x^6, six seeded polynomials of degree 1 to 3 and
    their pairwise products (degree up to 6, so gcds are nontrivial)."""
    rng = random.Random(seed)
    p = ring.p
    low = [ring.poly([rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
           for d in (1, 1, 2, 2, 3, 3)]
    products = [ring.mul(a, b) for a, b in itertools.combinations(low, 2)]
    return [ring.zero, ring.one, (p - 1,), ring.poly([0, 0, 0, 0, 0, 0, 1])] + low + products


# SHA-256 of every (g, s, t) on the grids below.  The cofactors feed every
# U and V that ``snf`` returns, so this pins them, not only Bezout.
EXT_GCD_PIN = "8965926eab146454ae0d8362a1d7b360b0f8be22d2f56ec93a76c089905a681e"


def test_ext_gcd_cofactors_pinned():
    z_grid = list(range(-12, 13)) + [35, -48, 2 ** 70 + 1, -(3 ** 40)]
    grids = [(ZZ, z_grid)] + [(fpx(p), _poly_grid(fpx(p), p)) for p in (2, 3, 5, 101)]
    grids.append((_F2_PACKED, [_pack_f2(a) for a in _poly_grid(F2, 2)]))
    lines = [f"{ring.token} {a!r} {b!r} -> {ring.ext_gcd(a, b)!r}\n"
             for ring, grid in grids for a, b in itertools.product(grid, repeat=2)]
    assert len(lines) == 3966
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == EXT_GCD_PIN


def test_normalize_examples():
    assert ZZ.normalize(-6) == (-1, 6)
    assert ZZ.normalize(0) == (1, 0)
    unit, canon = F3.normalize(F3.poly([2, 2]))
    assert canon == F3.poly([1, 1])
    assert F3.mul(unit, canon) == F3.poly([2, 2])


@pytest.mark.parametrize("ring", [ZZ, F2, F3])
def test_normalize_idempotent(ring):
    rng = random.Random(17)
    for _ in range(100):
        if ring is ZZ:
            a = rng.randint(-50, 50)
        else:
            a = ring.poly([rng.randrange(ring.p) for _ in range(rng.randint(0, 4))])
        _, canon = ring.normalize(a)
        assert ring.normalize(canon) == (ring.one, canon)


def test_factor_examples():
    assert ZZ.factor(12) == {2: 2, 3: 1}
    assert ZZ.factor(7) == {7: 1}
    assert F2.factor(F2.poly([0, 1, 1])) == {F2.poly([0, 1]): 1, F2.poly([1, 1]): 1}


@pytest.mark.parametrize("ring,seed", [(ZZ, 5), (F2, 6), (F3, 7), (F101, 8)])
def test_factor_remultiplies(ring, seed):
    rng = random.Random(seed)
    for _ in range(60):
        if ring is ZZ:
            a = rng.randint(2, 10 ** rng.choice((4, 12, 18))) * rng.choice((1, -1))
        else:
            a = ring.poly([rng.randrange(ring.p) for _ in range(rng.randint(2, 10))])
            if ring.is_zero(a) or ring.is_unit(a):
                continue
        unit, _ = ring.normalize(a)
        product = unit
        factors = ring.factor(a)
        assert list(factors) == sorted(factors)
        for p, mult in factors.items():
            assert ring.is_canonical_prime(p)
            for _ in range(mult):
                product = ring.mul(product, p)
        assert product == a


def test_factor_gates(cpu_time_limit, call_log):
    # The semiprime is split by one rho run whose gcds are batched: a few
    # hundred gcds, not one per step (about 3*10^4 steps).
    semiprime = (10 ** 9 + 7) * (10 ** 9 + 9)
    rho, gcds = call_log(rings, "_pollard_brent"), call_log(rings.math, "gcd")
    with cpu_time_limit(1.0):
        assert ZZ.factor(semiprime) == {10 ** 9 + 7: 1, 10 ** 9 + 9: 1}
    assert rho == [(semiprime,)] and len(gcds) <= 300
    # A 25-digit characteristic is proved prime by one test, not factored.
    tested, factored = call_log(rings, "is_prime"), call_log(IntegerRing, "factor")
    with cpu_time_limit(0.05):
        assert fpx.__wrapped__(10 ** 24 + 7).p == 10 ** 24 + 7
    assert tested == [(10 ** 24 + 7,)] and factored == []
    # Seeded random monic polynomials of degree 200 over F_3 and F_2,
    # whose factoring runs hundreds of gcds and modular powers.
    polys = []
    for ring in (F3, F2):
        rng = random.Random(1)
        polys.append((ring, ring.poly([rng.randrange(ring.p) for _ in range(200)] + [1])))
    ddf, edf = call_log(PrimeFieldPolynomialRing, "_distinct_degree"), call_log(PrimeFieldPolynomialRing, "_equal_degree")
    powmods, euclids = call_log(PrimeFieldPolynomialRing, "_powmod"), call_log(Ring, "ext_gcd")
    with cpu_time_limit(0.5):
        factored = [ring.factor(f) for ring, f in polys]
    for (ring, f), factors in zip(polys, factored):
        product = ring.one
        for q, mult in factors.items():
            for _ in range(mult):
                product = ring.mul(product, q)
        assert product == f and len(factors) > 1
    # One distinct-degree split per square-free part, one equal-degree
    # split per degree found in it; x^(p^d) is taken for d up to half the
    # degree, plus a few random splits; every gcd runs Euclid on the
    # packed work ring, none on tuples.
    assert len(ddf) == sum(len(set(factors.values())) for factors in factored)
    assert len(edf) == sum(len({(len(q), m) for q, m in factors.items()}) for factors in factored)
    assert len(powmods) <= 200
    assert euclids and all(isinstance(args[0], (rings._PackedFpRing, rings._PackedF2Ring)) for args in euclids)


def test_packed_ring_builds_a_reduction_mask_once(call_log):
    """At a 200-digit p a slot is 2 665 bits wide, so the product of two
    degree-23 remainders fills 47 slots.  Repeated products and divisions
    of such operands build one reduction mask, not one per reduction."""
    p = 10 ** 199 + 12819  # the first prime above 10^199 + 12345
    assert is_prime(p)
    work, rng = rings._PackedFpRing(p), random.Random(1)
    modulus = work.encode(tuple(rng.randrange(p) for _ in range(24)) + (1,))
    a, b = (work.encode(tuple(rng.randrange(p) for _ in range(24))) for _ in range(2))
    builds = call_log(work, "_quotient_mask")
    for _ in range(20):
        a = work.divmod(work.mul(a, b), modulus)[1]
        assert work._slots(a) == 24
    assert len(builds) <= 1


def test_factor_rejects_zero_and_units():
    with pytest.raises(NotFactorableError):
        ZZ.factor(0)
    with pytest.raises(NotFactorableError):
        ZZ.factor(-1)
    with pytest.raises(NotFactorableError):
        F2.factor(F2.one)


def test_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        ZZ.ext_gcd(6, (1,))
    with pytest.raises(DomainMismatchError):
        F3.ext_gcd((1, 2), 5)
    with pytest.raises(DomainMismatchError):
        F3.validate((1, 5))
    with pytest.raises(DomainMismatchError):
        F3.validate((1, 0))
    with pytest.raises(DomainMismatchError):
        ZZ.validate(True)


def test_prime_field_requires_prime():
    for n in (4, 561, 3215031751):
        with pytest.raises(InvalidInputError):
            fpx(n)
    assert is_prime(2) and is_prime(97) and not is_prime(91)


def test_unit_inverse_refuses_a_non_unit():
    with pytest.raises(InvalidInputError):
        ZZ.unit_inverse(2)


def test_ring_tokens():
    assert ring_from_token("Z") is ZZ
    assert ring_from_token("fpx:5").p == 5
    with pytest.raises(InvalidInputError):
        ring_from_token("fpx:abc")
    with pytest.raises(InvalidInputError):
        ring_from_token("Q")


def test_polynomial_division():
    a = F3.poly([1, 0, 2, 1])
    b = F3.poly([2, 1])
    q, r = F3.divmod(a, b)
    assert F3.add(F3.mul(q, b), r) == a
    assert len(r) < len(b)


@pytest.mark.parametrize("a", [(), (1,), (2, 0, 1), (0, 0, 0, 2)])
@pytest.mark.parametrize("b", [(1,), (2,)])
def test_polynomial_division_by_a_unit(a, b):
    q, r = F3.divmod(a, b)
    assert r == ()
    assert F3.mul(q, b) == a
    F3.validate(q)


def test_polynomial_division_of_zero():
    assert F3.divmod((), (1, 2)) == ((), ())
