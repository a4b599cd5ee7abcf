"""Property tests for ``FgModule.make``: arbitrary divisor lists become the
invariant-factor chain without factoring."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from koszulkit.fgmodules import FgModule  # noqa: E402
from koszulkit.rings import ZZ, fpx  # noqa: E402

F3 = fpx(3)

# A small pool makes units, negatives and repeats common; the wide range
# brings in large prime factors.
int_divisors = st.lists(
    st.one_of(st.sampled_from([-12, -6, -4, -2, -1, 1, 2, 3, 4, 6, 9]),
              st.integers(-10 ** 6, 10 ** 6).filter(bool)),
    max_size=8,
)

poly_divisors = st.lists(
    st.lists(st.integers(0, 2), min_size=1, max_size=5).map(F3.poly).filter(bool),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(int_divisors, st.integers(0, 3))
def test_make_over_z_matches_sympy_invariant_factors(divisors, free_rank):
    made = FgModule.make(ZZ, free_rank, divisors)
    factors = invariant_factors(sympy.diag(*divisors))
    expected = tuple(int(x) for x in factors if abs(int(x)) != 1)
    assert made.free_rank == free_rank
    assert made.torsion == expected


def prime_exponents(ring, divisors):
    """Prime -> sorted exponent list over the non-unit divisors."""
    out: dict = {}
    for d in divisors:
        if not ring.is_unit(d):
            for p, e in ring.factor(d).items():
                out.setdefault(p, []).append(e)
    return {p: sorted(es) for p, es in out.items()}


@settings(max_examples=200, deadline=None)
@given(poly_divisors)
def test_make_over_f3x_is_canonical_chain_with_same_prime_powers(divisors):
    torsion = FgModule.make(F3, 0, divisors).torsion
    for t in torsion:
        assert F3.normalize(t)[1] == t
        assert not F3.is_unit(t)
    for a, b in zip(torsion, torsion[1:]):
        assert F3.divides(a, b)
    assert prime_exponents(F3, torsion) == prime_exponents(F3, divisors)
