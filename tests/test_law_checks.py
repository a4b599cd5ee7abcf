"""The law checks of ``ChainComplex`` (d.d == 0), ``ChainMap``,
``Homotopy`` and ``ComplexSes`` (the composite, and given retractions
and sections) against a dense reference: random complexes, maps and
sequences over Z and F_3[x] lose random blocks or have one replaced,
and each checked constructor must accept exactly when the
degree-by-degree check on full zero-filled blocks accepts; the checks
compare work rows, the references whole matrices.  Needs the ``test``
extra; the module skips without it."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from koszulkit.complexes import ChainComplex, ChainMap, ComplexSes, Homotopy  # noqa: E402
from koszulkit.errors import InvalidInputError, NotAComplexError  # noqa: E402
from koszulkit.generators import GenParams, gen_admissible_ses, scramble_complex  # noqa: E402
from koszulkit.matrices import Matrix  # noqa: E402
from koszulkit.rings import ZZ, fpx  # noqa: E402

F3 = fpx(3)
DEGREES = range(4)


def zero_filled(blocks, n, rows, cols, ring):
    got = blocks.get(n)
    return got if got is not None else Matrix.zeros(ring, rows, cols)


def dense_chain_map_law(X, Y, comps) -> bool:
    """d_Y(n) f_n == f_{n-1} d_X(n) at every degree, zero blocks included."""
    def f(n):
        return zero_filled(comps, n, Y.rank(n), X.rank(n), X.ring)
    return all(Y.d(n) * f(n) == f(n - 1) * X.d(n) for n in set(X.ranks) | set(Y.ranks))


def dense_homotopy_law(lhs, rhs, comps) -> bool:
    """lhs_n - rhs_n == d_Y(n+1) H_n + H_{n-1} d_X(n) at every degree."""
    X, Y = lhs.source, lhs.target

    def h(n):
        return zero_filled(comps, n, Y.rank(n + 1), X.rank(n), X.ring)
    return all(lhs.at(n) - rhs.at(n) == Y.d(n + 1) * h(n) + h(n - 1) * X.d(n)
               for n in set(X.ranks) | set(Y.ranks))


def dense_dd_law(ring, ranks, diffs) -> bool:
    """d(n) d(n+1) == 0 at every degree, zero blocks included."""
    def d(n):
        return zero_filled(diffs, n, ranks.get(n - 1, 0), ranks.get(n, 0), ring)
    return all((d(n) * d(n + 1)).is_zero() for n in range(min(DEGREES), max(DEGREES) + 1))


def dense_ses_outcome(mono, epi, retractions, sections) -> str:
    """"composite" if e_n m_n != 0 at a degree, else "witness" if a given
    retraction r_n m_n == id or section e_n s_n == id fails (or is
    missing) where its split side is nonzero, else "exact"; every block
    zero-filled."""
    A, B, C = mono.source, mono.target, epi.target
    ring = A.ring
    if not all((epi.at(n) * mono.at(n)).is_zero() for n in set(A.ranks) | set(B.ranks) | set(C.ranks)):
        return "composite"
    eye = Matrix.identity
    if all(n in retractions and retractions[n] * mono.at(n) == eye(ring, r) for n, r in A.ranks.items()) and all(
            n in sections and epi.at(n) * sections[n] == eye(ring, r) for n, r in C.ranks.items()):
        return "exact"
    return "witness"


def accepts(build) -> bool:
    try:
        build()
    except InvalidInputError:
        return False
    return True


def outcome(build) -> str:
    """``dense_ses_outcome``'s name for what ``build`` raises, if anything."""
    try:
        build()
    except NotAComplexError:
        return "composite"
    except InvalidInputError:
        return "witness"
    return "exact"


def entries(ring):
    """One draw in four is zero; the rest are units and non-units."""
    values = [1, -1, 2, 0] if ring is ZZ else [(1,), (2,), (1, 1), (0, 2), ()]
    return st.sampled_from(values)


def matrices(draw, ring, rows, cols):
    drawn = draw(st.lists(st.lists(entries(ring), min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    return Matrix(ring, drawn) if rows else Matrix.zeros(ring, 0, cols)


def dropped(draw, blocks: dict) -> dict:
    """``blocks`` without a random subset of its degrees."""
    keep = draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    return {n: m for (n, m), k in zip(blocks.items(), keep) if k}


def complexes(draw, ring):
    """A sum of free summands and pieces [R --a--> R] in degrees 0..3, in
    coordinates scrambled by unimodular changes of basis, so d.d == 0;
    then random d_n are dropped."""
    pieces = {n: draw(entries(ring)) for n in DEGREES[1:]}  # a == 0: no piece
    free = {n: draw(st.integers(0, 1)) for n in DEGREES}
    ranks = {n: free[n] + bool(pieces.get(n)) + bool(pieces.get(n + 1)) for n in DEGREES}
    # In degree n: the free summand, the source of piece n, the target of piece n + 1.
    diffs = {}
    for n, a in pieces.items():
        if a:
            rows = [[ring.zero] * ranks[n] for _ in range(ranks[n - 1])]
            rows[free[n - 1] + bool(pieces.get(n - 1))][free[n]] = a
            diffs[n] = Matrix(ring, rows)
    rng = random.Random(draw(st.integers(0, 2**32)))
    scrambled = scramble_complex(rng, ChainComplex(ring, ranks, diffs))[0]
    return ChainComplex(ring, scrambled.ranks, dropped(draw, scrambled.diffs))


def homotopy_shaped(draw, X, Y) -> dict:
    """Random H_n : X_n -> Y_{n+1}."""
    return {n: matrices(draw, X.ring, Y.rank(n + 1), X.rank(n)) for n in DEGREES}


def boundary(X, Y, h) -> dict:
    """The chain map dH + Hd, degree by degree on zero-filled blocks."""
    def at(n):
        return zero_filled(h, n, Y.rank(n + 1), X.rank(n), X.ring)
    return {n: Y.d(n + 1) * at(n) + at(n - 1) * X.d(n) for n in DEGREES}


def perturbed(draw, ring, comps: dict, shape) -> dict:
    """``comps`` with random degrees dropped and, sometimes, one block
    replaced by a random one."""
    comps = dropped(draw, comps)
    if draw(st.booleans()):
        n = draw(st.sampled_from(DEGREES))
        comps[n] = matrices(draw, ring, *shape(n))
    return comps


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chain_map_check_matches_the_dense_reference(data):
    draw = data.draw
    ring = draw(st.sampled_from([ZZ, F3]))
    X, Y = complexes(draw, ring), complexes(draw, ring)
    # A map of the form dH + Hd commutes; dropping and replacing blocks may break it.
    comps = boundary(X, Y, homotopy_shaped(draw, X, Y))
    comps = perturbed(draw, ring, comps, lambda n: (Y.rank(n), X.rank(n)))
    assert accepts(lambda: ChainMap(X, Y, comps)) == dense_chain_map_law(X, Y, comps)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_homotopy_check_matches_the_dense_reference(data):
    draw = data.draw
    ring = draw(st.sampled_from([ZZ, F3]))
    X, Y = complexes(draw, ring), complexes(draw, ring)
    h1, h2 = homotopy_shaped(draw, X, Y), homotopy_shaped(draw, X, Y)
    # H1 - H2 is a homotopy from dH1 + H1d to dH2 + H2d; a zero lhs
    # leaves rhs alone on one side of the law.
    lhs = ChainMap(X, Y, boundary(X, Y, h1) if draw(st.booleans()) else {})
    rhs = ChainMap(X, Y, boundary(X, Y, h2))
    comps = {n: h1[n] - h2[n] for n in DEGREES}
    comps = perturbed(draw, ring, comps, lambda n: (Y.rank(n + 1), X.rank(n)))
    assert accepts(lambda: Homotopy(lhs, rhs, comps)) == dense_homotopy_law(lhs, rhs, comps)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_complex_check_matches_the_dense_reference(data):
    draw = data.draw
    ring = draw(st.sampled_from([ZZ, F3]))
    if draw(st.booleans()):
        # d.d == 0 holds; a replaced differential may break it.
        X = complexes(draw, ring)
        ranks = dict(X.ranks)
        diffs = perturbed(draw, ring, dict(X.diffs), lambda n: (X.rank(n - 1), X.rank(n)))
    else:
        # Random blocks: d.d is mostly nonzero, at times in one entry only.
        ranks = {n: draw(st.integers(0, 3)) for n in DEGREES}
        diffs = {n: matrices(draw, ring, ranks[n - 1], ranks[n]) for n in DEGREES[1:]}
    try:
        ChainComplex(ring, ranks, diffs)
        built = True
    except NotAComplexError:
        built = False
    assert built == dense_dd_law(ring, ranks, diffs)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sequence_checks_match_the_dense_reference(data):
    draw = data.draw
    ring = draw(st.sampled_from([ZZ, F3]))
    params = GenParams(ring=ring, seed=draw(st.integers(0, 2**16)), max_entry=9 if ring is ZZ else 3)
    seq = gen_admissible_ses(params, draw(st.integers(0, 63))).sequence
    A, B, C = seq.left, seq.middle, seq.right
    mono, epi = seq.mono, seq.epi
    # Adding a map dH + Hd keeps a chain map, and may break the composite
    # and the given witnesses.
    if draw(st.integers(0, 3)) == 0:
        mono = mono + ChainMap(A, B, boundary(A, B, homotopy_shaped(draw, A, B)))
    if draw(st.integers(0, 3)) == 0:
        epi = epi + ChainMap(B, C, boundary(B, C, homotopy_shaped(draw, B, C)))
    retractions, sections = dict(seq.retractions), dict(seq.sections)
    if draw(st.booleans()):
        retractions = perturbed(draw, ring, retractions, lambda n: (A.rank(n), B.rank(n)))
    if draw(st.booleans()):
        sections = perturbed(draw, ring, sections, lambda n: (B.rank(n), C.rank(n)))
    assert outcome(lambda: ComplexSes(mono, epi, retractions, sections)) == dense_ses_outcome(
        mono, epi, retractions, sections)
