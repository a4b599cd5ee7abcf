import math
import random

import pytest

from koszulkit import generators
from koszulkit.complexes import ChainComplex, homology_table, is_acyclic, quasi_iso_degree
from koszulkit.fgmodules import module_iso
from koszulkit.generators import (
    AObjectSample,
    CObjectSample,
    GenParams,
    KoszulSample,
    gen_a_object,
    gen_admissible_mono,
    gen_admissible_ses,
    gen_c_object,
    gen_chain_map,
    gen_idempotent,
    gen_koszul,
    gen_module_ses,
    gen_quasi_iso_pair,
    gen_ses_of_complexes,
    gen_ses_morphism,
    gen_three_by_three,
    rand_element,
    rand_matrix,
    rand_unimodular,
    rand_nonunit,
    rand_unit,
    trial_rng,
    _ADD,
    _SCALE,
    _SWAP,
    _below,
    _draw_unimodular,
    _index_pair,
    _conjugate,
    _shear_auto,
)
from koszulkit.koszul import h0, in_A, in_A_n, in_kos1
from koszulkit.matrices import Matrix, is_unimodular
from koszulkit.presented import is_short_exact
from koszulkit.rings import ZZ, fpx
from pinning import digest
from constructions import expected_h0, expected_homology, gen_matrix

PARAMS = GenParams(ring=ZZ, seed=42)
POLY_PARAMS = GenParams(ring=fpx(2), seed=42, max_entry=3)
POLY_F5_PARAMS = GenParams(ring=fpx(5), seed=42, max_entry=3)


def test_determinism():
    assert gen_koszul(PARAMS, 9).complex == gen_koszul(PARAMS, 9).complex
    assert gen_matrix(PARAMS, 4) == gen_matrix(PARAMS, 4)
    first = gen_three_by_three(PARAMS, 2)
    second = gen_three_by_three(PARAMS, 2)
    assert first.rows[1][0].matrix == second.rows[1][0].matrix


def test_seed_changes_output():
    assert gen_koszul(PARAMS, 1).complex != gen_koszul(PARAMS._replace(seed=43), 1).complex


# SHA-256 of the value-only JSON of each generator's outputs (see
# _pinned_outputs): same random draws, same instances.  A change to what
# a generator draws or returns moves its hash.
PINNED = {
    "gen_koszul":
        "2ab9c147e7e2899cd83e432178b94aa5bb372bb121013ab72585eb2e9cc343f6",
    "gen_a_object":
        "dc8369247160bbe2fdc00f92b99531e8bfbbc3cfdf19ed2db71087b31b0cc4be",
    "gen_admissible_ses":
        "764cd3990e1d1f9d575924b75dbbcf2ff28ec43e4762810c6274ba620fb7069e",
    "gen_ses_of_complexes":
        "9fd8ddc6c7dae863371b256d75ed2b2cfcfff578aa8885fdf46bc28da8b8c506",
    "gen_quasi_iso_pair":
        "1e95b47ccbc27a95ad8036d756f9a0392cfe0501dbfc83e8ff8088cd0a966372",
    "gen_c_object":
        "a10aa341611434b717d6e53758fa795fa9413d28ced2e1d67ba97ba3926b11a1",
    "gen_idempotent":
        "182fa3d8bccf19dfaaf5df673a07b37aabb745fbb8ad594728266cb9f6b3779a",
    "gen_module_ses":
        "4ca2aa35f758721f208b2c1329a889eea74d30b4a9d79ad1884fcc4f29d40543",
    "gen_ses_morphism":
        "dd3fab2a456783da757bde8d6c6d52d89c86a00a2957c728b5325971e1aab3ad",
    "gen_three_by_three":
        "9e99aac45ee2965f96331c08b3b5241fa18923f6835ad7bc50441210849abdd4",
}

# The expected modules of each sample type, under the names they are pinned by.
EXPECTED_MODULES = {KoszulSample: {"expected_h0": expected_h0}, CObjectSample: {"expected_h0": expected_h0},
                    AObjectSample: {"expected_homology": expected_homology}}


def _pinned_outputs(name: str) -> str:
    generate = getattr(generators, name)
    outputs = [generate(GenParams(ring=ring, seed=seed, max_entry=bound), trial)
               for ring, bound in ((ZZ, 9), (fpx(2), 3), (fpx(5), 3))
               for seed in (0, 1) for trial in range(4)]
    return digest([[out, {name: build(out) for name, build in EXPECTED_MODULES.get(type(out), {}).items()}]
                   for out in outputs])


@pytest.mark.parametrize("name", sorted(PINNED))
def test_generated_instances_are_pinned(name):
    assert _pinned_outputs(name) == PINNED[name]


def test_rand_unimodular():
    # Over F_5[x] the units 2 and 3 are each other's inverses, so an
    # inverse that scales by u instead of u^-1 shows.
    for ring, params in ((ZZ, PARAMS), (fpx(2), POLY_PARAMS), (fpx(5), POLY_F5_PARAMS)):
        rng = trial_rng(params, 0)
        for n in range(4):
            fwd, bwd = rand_unimodular(rng, ring, n)
            assert is_unimodular(fwd) or n == 0
            assert fwd * bwd == Matrix.identity(ring, n)
            assert bwd * fwd == Matrix.identity(ring, n)


def test_index_pair_draws_as_sample():
    """``_index_pair`` gives ``rng.sample(range(n), 2)`` and leaves the
    generator in the same state, below and above the pool size 21 where
    ``sample`` switches to a set."""
    for n in range(2, 41):
        for seed in range(60):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert list(_index_pair(ours, n)) == theirs.sample(range(n), 2), (n, seed)
            assert ours.getstate() == theirs.getstate(), (n, seed)


def test_below_draws_as_randrange():
    """``_below(rng, n)`` gives ``rng.randrange(n)`` and leaves the
    generator in the same state."""
    for n in range(1, 65):
        for seed in range(40):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert [_below(ours, n) for _ in range(3)] == [theirs.randrange(n) for _ in range(3)], (n, seed)
            assert ours.getstate() == theirs.getstate(), (n, seed)
    with pytest.raises(ValueError):
        _below(random.Random(0), 0)


# The element draws as written with ``randint``, ``randrange`` and ``choice``.


def _reference_element(rng, ring, bound, nonzero=False):
    if ring is ZZ:
        while True:
            value = rng.randint(-bound, bound)
            if value or not nonzero:
                return value
    while True:
        degree = rng.randint(0, max(1, min(bound, 3)))
        value = ring.poly([rng.randrange(ring.p) for _ in range(degree + 1)])
        if value or not nonzero:
            return value


def _reference_unit(rng, ring):
    return rng.choice((1, -1)) if ring is ZZ else (rng.randrange(1, ring.p),)


def _reference_nonunit(rng, ring):
    if ring is ZZ:
        return rng.choice((1, -1)) * rng.randint(2, 9)
    degree = rng.randint(1, 2)
    return ring.poly([rng.randrange(ring.p) for _ in range(degree)] + [rng.randrange(1, ring.p)])


def _reference_moves(rng, ring, n):
    """``_draw_unimodular`` from ``rng.randrange``, ``_index_pair`` and the
    reference element draws."""
    pack = ring.pack or (lambda a: a)
    moves = []
    for _ in range(2 * n + 2 if n > 1 else 0):
        op = rng.randrange(3)
        i, j = _index_pair(rng, n)
        if op == _ADD:
            moves.append((_ADD, i, j, pack(_reference_element(rng, ring, 2, nonzero=True))))
        elif op == _SWAP:
            moves.append((_SWAP, i, j, None))
        else:
            u = pack(_reference_unit(rng, ring))
            moves.append((_SCALE, i, i, (u, ring.work.unit_inverse(u))))
    if n == 1 and rng.randrange(2):
        u = pack(_reference_unit(rng, ring))
        moves.append((_SCALE, 0, 0, (u, ring.work.unit_inverse(u))))
    return moves


DRAW_RINGS = (ZZ, fpx(2), fpx(3))


def test_element_draws_match_the_reference():
    for ring in DRAW_RINGS:
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            for bound in (1, 2, 3, 9):
                assert rand_element(ours, ring, bound) == _reference_element(theirs, ring, bound)
                assert rand_element(ours, ring, bound, True) == _reference_element(theirs, ring, bound, True)
            assert rand_unit(ours, ring) == _reference_unit(theirs, ring)
            assert rand_nonunit(ours, ring) == _reference_nonunit(theirs, ring)
            assert ours.getstate() == theirs.getstate(), (ring, seed)


def test_draw_unimodular_matches_the_reference():
    """Same moves and same generator state for n = 1..25, across the
    n > 21 switch of ``_index_pair`` to ``rng.sample``."""
    for ring in DRAW_RINGS:
        for n in range(1, 26):
            for seed in range(6):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert _draw_unimodular(ours, ring, n) == _reference_moves(theirs, ring, n), (ring, n, seed)
                assert ours.getstate() == theirs.getstate(), (ring, n, seed)


def test_unimodular_moves_act_as_their_product():
    """E . M and M . E^-1 by row and column moves agree with the products
    by the matrices that ``rand_unimodular`` returns for the same draws."""
    ring = fpx(5)
    scaled_by_non_involution = False
    for trial in range(6):
        rng = trial_rng(POLY_F5_PARAMS, trial)
        for n in range(1, 5):
            state = rng.getstate()
            moves = _draw_unimodular(rng, ring, n)
            rng.setstate(state)
            fwd, bwd = rand_unimodular(rng, ring, n)
            scaled_by_non_involution |= any(
                op == _SCALE and ring.work.mul(c[0], c[0]) != ring.work.one for op, _, _, c in moves)
            tall = rand_matrix(rng, ring, n, 3, 3)
            wide = rand_matrix(rng, ring, 2, n, 3)
            assert _conjugate(moves, tall, ()) == fwd * tall
            assert _conjugate((), wide, moves) == wide * bwd
            assert _conjugate(moves, Matrix.identity(ring, n), moves) == Matrix.identity(ring, n)
            assert _conjugate(moves, tall * tall.transpose(), moves) == fwd * tall * tall.transpose() * bwd
    assert scaled_by_non_involution

    # The twist of an atom sum: scale every atom, then at most one shear,
    # so E = S . D with D = diag(u) and S = I + c e_ij.
    for ring, params in ((ZZ, PARAMS), (fpx(5), POLY_F5_PARAMS)):
        shapes = set()
        for trial in range(8):
            rng = trial_rng(params, trial)
            for moduli in ([rand_nonunit(rng, ring)], [ring.zero, rand_nonunit(rng, ring)],
                           [rand_nonunit(rng, ring), rand_nonunit(rng, ring), ring.zero]):
                n = len(moduli)
                moves = _shear_auto(rng, ring, moduli)
                # Move scalars are in the work form; the matrices below take public elements.
                public = ring.unpack or (lambda a: a)
                units = [public(c[0]) for _, _, _, c in moves[:n]]
                assert [m[:3] for m in moves[:n]] == [(_SCALE, k, k) for k in range(n)]
                assert len(moves) in (n, n + 1)
                shapes.add((n, len(moves) - n))
                shear = [[ring.one if a == b else ring.zero for b in range(n)] for a in range(n)]
                unshear = [row[:] for row in shear]
                if len(moves) > n:
                    op, i, j, c = moves[n]
                    assert op == _ADD and i != j
                    shear[i][j], unshear[i][j] = public(c), ring.neg(public(c))
                fwd = Matrix(ring, shear) * Matrix.diagonal(ring, units)
                bwd = Matrix.diagonal(ring, [ring.unit_inverse(u) for u in units]) * Matrix(ring, unshear)
                tall = rand_matrix(rng, ring, n, 3, 3)
                wide = rand_matrix(rng, ring, 2, n, 3)
                assert _conjugate(moves, tall, ()) == fwd * tall
                assert _conjugate((), wide, moves) == wide * bwd
        assert {(1, 0), (2, 0), (2, 1), (3, 1)} <= shapes


def test_gen_koszul_bookkeeping():
    for params in (PARAMS, POLY_PARAMS):
        for trial in range(20):
            sample = gen_koszul(params, trial)
            assert in_kos1(sample.complex)
            assert module_iso(h0(sample.complex), expected_h0(sample))
        acyclic = gen_koszul(params, 3, acyclic=True)
        assert is_acyclic(acyclic.complex)


def test_gen_a_object_homology():
    for trial in range(15):
        sample = gen_a_object(PARAMS, trial)
        assert in_A(sample.complex)
        table = homology_table(sample.complex)
        for n, expected in expected_homology(sample).items():
            assert module_iso(table[n], expected)


def test_gen_a_object_spherical():
    for trial in range(10):
        sample = gen_a_object(PARAMS, trial, spherical=1)
        assert in_A_n(sample.complex, 1)


def test_gen_chain_map_valid():
    rng = trial_rng(PARAMS, 0)
    for trial in range(10):
        x = gen_a_object(PARAMS, trial, rng=rng).complex
        y = gen_a_object(PARAMS, trial + 77, rng=rng).complex
        gen_chain_map(rng, x, y)  # constructor validates the chain law


def test_gen_admissible_structures():
    for trial in range(10):
        ses = gen_admissible_ses(PARAMS, trial)
        assert ses.sequence.retractions
        mono_sample = gen_admissible_mono(PARAMS, trial)
        assert is_acyclic(mono_sample.sequence.left)


def test_gen_quasi_iso_pair():
    for trial in range(10):
        pair = gen_quasi_iso_pair(PARAMS, trial)
        assert quasi_iso_degree(pair.map) == math.inf


@pytest.mark.parametrize("params", [PARAMS, POLY_PARAMS], ids=["Z", "F2x"])
def test_extensions_square_to_zero(params):
    # The extensions are laid out without the d.d check; rebuilding runs it.
    for trial in range(20):
        for middle in (gen_admissible_ses(params, trial).sequence.middle,
                       gen_ses_of_complexes(params, trial).sequence.middle,
                       gen_quasi_iso_pair(params, trial).map.target):
            assert ChainComplex(middle.ring, middle.ranks, middle.diffs) == middle


def test_gen_c_object():
    for params in (PARAMS, POLY_PARAMS):
        for trial in range(8):
            sample = gen_c_object(params, trial)
            assert module_iso(sample.object.h0().canonical_form(), expected_h0(sample))


def test_gen_idempotent():
    for trial in range(6):
        complex_, endo = gen_idempotent(PARAMS, trial)
        assert endo.compose(endo) == endo
        assert is_acyclic(complex_)


def test_gen_module_diagrams():
    for trial in range(10):
        mono, epi = gen_module_ses(PARAMS, trial)
        assert is_short_exact(mono, epi)
        gen_ses_morphism(PARAMS, trial)  # the diagrams check their laws when built
        gen_three_by_three(PARAMS, trial)


def test_gen_module_ses_torsion_only():
    for trial in range(10):
        mono, epi = gen_module_ses(PARAMS, trial, torsion_only=True)
        assert mono.source.canonical_form().is_torsion()
        assert epi.target.canonical_form().is_torsion()
