"""Every construction that skips its law check passes the full check.

Shifts, cones, cylinders, direct sums and composites build their result
without re-verifying d.d == 0, the chain-map law or relations into
relations, because those laws follow from verified inputs by block
algebra.  Here each such output is rebuilt through the public checked
constructor on seeded instances over Z and F_3[x], so the sign
conventions stay covered by the full check.  A wrong sign can still
pass a law check, so each block construction is also compared with the
dense block formula of the ``complexes`` docstring, built here from
zero-filled blocks.
"""

from functools import partial

import pytest

from koszulkit.complexes import (
    ChainComplex,
    ChainMap,
    cone,
    cyl_functorial,
    cylinder,
    direct_sum,
    shift,
    shift_map,
    structure_maps,
    two_term,
)
from koszulkit.generators import (
    GenParams,
    gen_a_object,
    gen_c_object,
    gen_chain_map,
    gen_koszul,
    gen_ses_morphism,
    rand_matrix,
    trial_rng,
)
from koszulkit.koszul import e_functor, h0_augmentation, resolve_in_kos1
from koszulkit.matrices import Matrix, block, hstack, vstack
from koszulkit.presented import PresentedMap, pullback, pushout
from koszulkit.rings import ZZ, fpx
from constructions import zero_complex

PARAMS = [GenParams(ring=ZZ, seed=7), GenParams(ring=fpx(3), seed=7, max_entry=3)]
TRIALS = 6


def recheck(obj):
    """Rebuild ``obj`` (and the complexes it maps between) with the full check."""
    if isinstance(obj, ChainComplex):
        again = ChainComplex(obj.ring, obj.ranks, obj.diffs)
    elif isinstance(obj, ChainMap):
        again = ChainMap(recheck(obj.source), recheck(obj.target), obj.components)
    else:
        return PresentedMap(obj.source, obj.target, obj.matrix)
    assert again == obj
    return again


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.ring.token)
def test_complex_constructions_pass_the_full_check(params):
    ring = params.ring
    for trial in range(TRIALS):
        rng = trial_rng(params, trial)
        X = gen_a_object(params, trial, rng=rng).complex
        Y = gen_a_object(params, trial + 50, rng=rng).complex
        Z = gen_a_object(params, trial + 100, rng=rng).complex
        f = gen_chain_map(rng, X, Y)
        g = gen_chain_map(rng, X, Y)
        b = gen_chain_map(rng, Y, Z)
        outputs = [
            two_term(rand_matrix(rng, ring, 2, 3, params.max_entry)),
            ChainMap.identity(X),
            ChainMap.zero(X, Y),
            b.compose(f),
            f + g,
            f - g,
            -f,
            cylinder(f),
            cyl_functorial(f, b.compose(f), ChainMap.identity(X), b),
        ]
        for k in (-1, 1, 2):
            outputs += [shift(X, k), shift_map(f, k)]
        mapping_cone = cone(f)
        outputs += [mapping_cone.complex, mapping_cone.inclusion, mapping_cone.projection]
        smaps = structure_maps(f)
        outputs += [smaps.cylinder, smaps.j1, smaps.j2, smaps.p]
        total = direct_sum(X, Y, Z)
        outputs += [total.complex, *total.inclusions, *total.projections]
        for obj in outputs:
            recheck(obj)


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.ring.token)
def test_presented_constructions_pass_the_full_check(params):
    for trial in range(TRIALS):
        diagram = gen_ses_morphism(params, trial)
        _, leg_a, leg_b = pushout(diagram.left, diagram.top_mono)
        _, incl, pull_a, pull_b = pullback(diagram.bottom_epi, diagram.right)
        _, kernel_incl = diagram.middle.kernel()
        _, image_incl, image_epi = diagram.middle.image()
        x = gen_c_object(params, trial).object
        resolution = resolve_in_kos1(x)
        triple = e_functor(x)
        ses = triple
        koszul = gen_koszul(params, trial).complex
        outputs = [
            leg_a, leg_b, incl, pull_a, pull_b, kernel_incl, image_incl, image_epi,
            resolution.e1, resolution.e0,
            triple.left.d, triple.right.d,
            ses.mono.degree1, ses.mono.degree0, ses.epi.degree1, ses.epi.degree0,
            h0_augmentation(koszul).degree0,
        ]
        for obj in outputs:
            recheck(obj)


# ---------------------------------------------------------------------------
# Dense references: every block is written out, zero blocks included.


def dense_cone(f):
    """Degree n is X_{n-1} (+) Y_n, d = [[-dX, 0], [-f, dY]]."""
    X, Y = f.source, f.target
    ring = X.ring
    degrees = {n + 1 for n in X.ranks} | set(Y.ranks)
    ranks = {n: X.rank(n - 1) + Y.rank(n) for n in degrees}
    diffs = {n: vstack([hstack([-X.d(n - 1), Matrix.zeros(ring, X.rank(n - 2), Y.rank(n))]),
                        hstack([-f.at(n - 1), Y.d(n)])])
             for n in degrees | {n + 1 for n in degrees}}
    c = ChainComplex(ring, ranks, diffs)
    incl = ChainMap(Y, c, {n: vstack([Matrix.zeros(ring, X.rank(n - 1), Y.rank(n)), Matrix.identity(ring, Y.rank(n))])
                           for n in Y.ranks})
    proj = ChainMap(c, shift(X, -1), {n: hstack([Matrix.identity(ring, X.rank(n - 1)),
                                                 Matrix.zeros(ring, X.rank(n - 1), Y.rank(n))])
                                      for n in degrees})
    return c, incl, proj


def dense_cylinder(f):
    """Degree n is X_n (+) X_{n-1} (+) Y_n, d = [[dX, id, 0], [0, -dX, 0], [0, -f, dY]]."""
    X, Y = f.source, f.target
    ring = X.ring
    degrees = set(X.ranks) | {n + 1 for n in X.ranks} | set(Y.ranks)
    ranks = {n: X.rank(n) + X.rank(n - 1) + Y.rank(n) for n in degrees}
    zero = partial(Matrix.zeros, ring)
    diffs = {}
    for n in degrees | {n + 1 for n in degrees}:
        diffs[n] = block(ring, [
            [X.d(n), Matrix.identity(ring, X.rank(n - 1)), zero(X.rank(n - 1), Y.rank(n))],
            [zero(X.rank(n - 2), X.rank(n)), -X.d(n - 1), zero(X.rank(n - 2), Y.rank(n))],
            [zero(Y.rank(n - 1), X.rank(n)), -f.at(n - 1), Y.d(n)],
        ], [X.rank(n - 1), X.rank(n - 2), Y.rank(n - 1)], [X.rank(n), X.rank(n - 1), Y.rank(n)])
    return ChainComplex(ring, ranks, diffs)


def dense_structure_maps(f):
    """j1 = [id; 0; 0], j2 = [0; 0; id] and p = [f, 0, id] on the cylinder."""
    X, Y = f.source, f.target
    ring = X.ring
    cyl = dense_cylinder(f)
    j1 = ChainMap(X, cyl, {n: vstack([Matrix.identity(ring, X.rank(n)),
                                      Matrix.zeros(ring, X.rank(n - 1) + Y.rank(n), X.rank(n))])
                           for n in X.ranks})
    j2 = ChainMap(Y, cyl, {n: vstack([Matrix.zeros(ring, X.rank(n) + X.rank(n - 1), Y.rank(n)),
                                      Matrix.identity(ring, Y.rank(n))])
                           for n in Y.ranks})
    p = ChainMap(cyl, Y, {n: hstack([f.at(n), Matrix.zeros(ring, Y.rank(n), X.rank(n - 1)),
                                     Matrix.identity(ring, Y.rank(n))])
                          for n in cyl.ranks})
    return cyl, j1, j2, p


def dense_cyl_functorial(f, g, a, b):
    """The block diagonal diag(a_n, a_{n-1}, b_n) from Cyl(f) to Cyl(g)."""
    ring = f.source.ring
    src, tgt = dense_cylinder(f), dense_cylinder(g)
    comps = {}
    for n in src.ranks:
        mats = [a.at(n), a.at(n - 1), b.at(n)]
        comps[n] = block(ring, [[m if i == j else Matrix.zeros(ring, mi.rows, m.cols) for j, m in enumerate(mats)]
                                for i, mi in enumerate(mats)],
                         [m.rows for m in mats], [m.cols for m in mats])
    return ChainMap(src, tgt, comps)


def dense_direct_sum(parts):
    """Block-diagonal differentials; inclusion i is [0; id; 0], projection i its transpose."""
    ring = parts[0].ring
    degrees = set().union(*(p.ranks for p in parts))
    ranks = {n: sum(p.rank(n) for p in parts) for n in degrees}
    diffs = {}
    for n in degrees | {n + 1 for n in degrees}:
        grid = [[p.d(n) if i == j else Matrix.zeros(ring, p.rank(n - 1), q.rank(n)) for j, q in enumerate(parts)]
                for i, p in enumerate(parts)]
        diffs[n] = block(ring, grid, [p.rank(n - 1) for p in parts], [p.rank(n) for p in parts])
    total = ChainComplex(ring, ranks, diffs)
    inclusions, projections = [], []
    for i, part in enumerate(parts):
        comps = {n: vstack([Matrix.zeros(ring, sum(p.rank(n) for p in parts[:i]), r),
                            Matrix.identity(ring, r),
                            Matrix.zeros(ring, sum(p.rank(n) for p in parts[i + 1:]), r)])
                 for n, r in part.ranks.items()}
        inclusions.append(ChainMap(part, total, comps))
        projections.append(ChainMap(total, part, {n: m.transpose() for n, m in comps.items()}))
    return total, inclusions, projections


def assert_same(built, dense):
    """Equal, and the complexes list their degrees in the same order."""
    assert built == dense
    if isinstance(built, ChainComplex):
        assert list(built.ranks) == list(dense.ranks)
    else:
        assert list(built.source.ranks) == list(dense.source.ranks)
        assert list(built.target.ranks) == list(dense.target.ranks)


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.ring.token)
def test_block_constructions_match_the_dense_formulas(params):
    for trial in range(TRIALS):
        rng = trial_rng(params, trial)
        X = gen_a_object(params, trial, rng=rng).complex
        Y = gen_a_object(params, trial + 50, rng=rng).complex
        Z = gen_a_object(params, trial + 100, rng=rng).complex
        b = gen_chain_map(rng, Y, Z)
        # shifting down by 3 moves the supports into negative degrees
        for f in (gen_chain_map(rng, X, Y), shift_map(gen_chain_map(rng, X, Y), 3), ChainMap.zero(X, Y)):
            built = cone(f)
            for mine, theirs in zip((built.complex, built.inclusion, built.projection), dense_cone(f)):
                assert_same(mine, theirs)
            assert_same(cylinder(f), dense_cylinder(f))
            smaps = structure_maps(f)
            for mine, theirs in zip((smaps.cylinder, smaps.j1, smaps.j2, smaps.p), dense_structure_maps(f)):
                assert_same(mine, theirs)
        f = gen_chain_map(rng, X, Y)
        square = (f, b.compose(f), ChainMap.identity(X), b)
        assert_same(cyl_functorial(*square), dense_cyl_functorial(*square))
        for parts in ((X, Y, Z), (Z,), (X, shift(Y, 3), zero_complex(params.ring), X)):
            total = direct_sum(*parts)
            dense_total, dense_incl, dense_proj = dense_direct_sum(parts)
            assert_same(total.complex, dense_total)
            for mine, theirs in zip(total.inclusions + total.projections, dense_incl + dense_proj):
                assert_same(mine, theirs)
