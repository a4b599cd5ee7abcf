"""Oracle test for the row kernels ``dot``, ``submul`` and ``combine``:
each must equal the same expression written with the scalar ``add``,
``sub`` and ``mul``, with hypothesis shrinking.  Needs the ``test``
extra; the module skips without it."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from koszulkit.rings import ZZ, fpx  # noqa: E402


def elements(ring):
    """Two draws in three are zero; polynomials have degree up to 10, so
    an unreduced sum collects many terms per coefficient."""
    if ring is ZZ:
        nonzero = st.integers().filter(bool)
    else:
        nonzero = st.builds(lambda low, lead: tuple(low) + (lead,),
                            st.lists(st.integers(0, ring.p - 1), max_size=10), st.integers(1, ring.p - 1))
    return st.one_of(st.just(ring.zero), st.just(ring.zero), nonzero)


@st.composite
def kernel_cases(draw, ring):
    """Two rows of one length in 0..12, two scalars, and a start index."""
    n = draw(st.integers(0, 12))
    row = st.lists(elements(ring), min_size=n, max_size=n)
    return (draw(row), draw(row), draw(elements(ring)), draw(elements(ring)),
            draw(st.integers(0, n)))


@pytest.mark.parametrize("ring", [ZZ, fpx(2), fpx(3), fpx(101)], ids=lambda r: r.token)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernels_match_scalar_ops(ring, data):
    x, y, a, b, start = data.draw(kernel_cases(ring))
    add, sub, mul = ring.add, ring.sub, ring.mul

    expected = ring.zero
    for xi, yi in zip(x, y):
        expected = add(expected, mul(xi, yi))
    assert ring.dot(x, y) == expected

    expected = [add(mul(a, xi), mul(b, yi)) for xi, yi in zip(x, y)]
    assert ring.combine(a, x, b, y) == expected

    other = [ring.zero] * start + y[start:]
    expected = [sub(xi, mul(a, yi)) for xi, yi in zip(x, other)]
    row = list(x)
    assert ring.submul(row, a, other, start) is None
    assert row == expected

    # Exact cancellation: every entry must come out trimmed to zero.
    zeros = [ring.zero] * len(x)
    assert ring.dot(x + x, y + [ring.neg(yi) for yi in y]) == ring.zero
    assert ring.combine(a, x, ring.neg(a), x) == zeros
    row = list(x)
    ring.submul(row, ring.one, x)
    assert row == zeros
