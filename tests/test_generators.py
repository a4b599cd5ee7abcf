import dataclasses
import hashlib
import json
import math

import pytest

from koszulkit import generators, jsonio
from koszulkit.complexes import ChainComplex, ChainMap, homology_table, is_acyclic, quasi_iso_degree
from koszulkit.fgmodules import FgModule, module_iso
from koszulkit.generators import (
    GenParams,
    gen_a_object,
    gen_admissible_mono,
    gen_admissible_ses,
    gen_c_object,
    gen_chain_map,
    gen_idempotent,
    gen_koszul,
    gen_matrix,
    gen_module_ses,
    gen_quasi_iso_pair,
    gen_ses_morphism,
    gen_three_by_three,
    rand_matrix,
    rand_unimodular,
    rand_nonunit,
    trial_rng,
    _ADD,
    _SCALE,
    _draw_unimodular,
    _shear_auto,
    _times,
    _times_inverse,
)
from koszulkit.koszul import AdmissibleSes, PresentedKoszul, h0, in_A, in_A_n, in_kos1
from koszulkit.matrices import Matrix, is_unimodular
from koszulkit.presented import PresentedMap, is_short_exact
from koszulkit.rings import ZZ, fpx

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
    assert gen_koszul(PARAMS, 1).complex != gen_koszul(PARAMS.with_seed(43), 1).complex


# SHA-256 of the JSON of each generator's outputs (see _pinned_outputs):
# same random draws, same instances.  A change to what a generator draws
# or returns moves its hash.
PINNED = {
    "gen_koszul":
        "267c801dff822f3b68ccd62ce1591a30b39db205e88704331eb366e61abf3704",
    "gen_a_object":
        "7c3782207b9e2798fa767969e117e109a2a6c6429e0046ada499f729ec427675",
    "gen_admissible_ses":
        "08ad46778734592a605759b8b9b19ba43253f2cd120997d7bf1fc6c28eff273f",
    "gen_ses_of_complexes":
        "51011d3e98630f132c0a290c7d39565ce0d0724651abbe5901784890bf82db91",
    "gen_quasi_iso_pair":
        "f225e7cb21de5cc67e6eb64f6fc26214b04804daf6b9592d0784f77ebf91079a",
    "gen_c_object":
        "30a71d23dd70dfdae453d8ee79e6220d716b3236b2d5984e7c3c22e000046eca",
    "gen_idempotent":
        "da8a5436465e86f16f7b371497e1411aab565b685ca1645dddbeb5336f6cd978",
    "gen_module_ses":
        "4dbe268c2de4fd8bf0ee99bed67230aaaafb1a08225d61103d869dd890c79362",
    "gen_ses_morphism":
        "0d092bfd96744c7ac5b931257b6c63a5a7d30b214a01afa743f6df79e2b2059f",
    "gen_three_by_three":
        "d1b50d96431e79542b85cc045b063e0e7c9e7c831da57880daa00eb2e45be4b2",
}


# Samples that keep the divisors of their expected modules and build the
# modules when read: they are pinned by the modules, under the field
# names they once had, so the hashes above stay those of the same JSON.
EXPECTED_MODULE_FIELDS = {
    generators.KoszulSample: ("complex", "block_divisors", "expected_h0"),
    generators.AObjectSample: ("complex", "expected_homology"),
    generators.CObjectSample: ("object", "expected_h0"),
}


def _plain(value):
    """A JSON-ready form of a generator output; dictionaries (ranks and
    components included) keep their insertion order."""
    if isinstance(value, ChainComplex):
        return [jsonio.complex_to_json(value), list(value.ranks)]
    if isinstance(value, ChainMap):
        return [_plain(value.source), _plain(value.target), _plain(value.components)]
    if isinstance(value, Matrix):
        return jsonio.matrix_to_json(value)
    if isinstance(value, FgModule):
        return jsonio.fg_module_to_json(value)
    if isinstance(value, PresentedKoszul):
        return jsonio.presented_koszul_to_json(value)
    if isinstance(value, PresentedMap):
        return jsonio.presented_map_to_json(value)
    if isinstance(value, AdmissibleSes):
        return [_plain(value.mono), _plain(value.epi), _plain(value.retractions), _plain(value.sections)]
    if type(value) in EXPECTED_MODULE_FIELDS:
        return {name: _plain(getattr(value, name)) for name in EXPECTED_MODULE_FIELDS[type(value)]}
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [[str(k), _plain(v)] for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _pinned_outputs(name: str) -> str:
    generate = getattr(generators, name)
    outputs = [_plain(generate(GenParams(ring=ring, seed=seed, max_entry=bound), trial))
               for ring, bound in ((ZZ, 9), (fpx(2), 3), (fpx(5), 3))
               for seed in (0, 1) for trial in range(4)]
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


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
            assert _times(moves, tall) == fwd * tall
            assert _times_inverse(wide, moves) == wide * bwd
            assert _times(moves, _times_inverse(Matrix.identity(ring, n), moves)) == Matrix.identity(ring, n)
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
                assert _times(moves, tall) == fwd * tall
                assert _times_inverse(wide, moves) == wide * bwd
        assert {(1, 0), (2, 0), (2, 1), (3, 1)} <= shapes


def test_gen_koszul_bookkeeping():
    for params in (PARAMS, POLY_PARAMS):
        for trial in range(20):
            sample = gen_koszul(params, trial)
            assert in_kos1(sample.complex)
            assert module_iso(h0(sample.complex), sample.expected_h0)
        acyclic = gen_koszul(params, 3, acyclic=True)
        assert is_acyclic(acyclic.complex)


def test_gen_a_object_homology():
    for trial in range(15):
        sample = gen_a_object(PARAMS, trial)
        assert in_A(sample.complex)
        table = homology_table(sample.complex)
        for n, expected in sample.expected_homology.items():
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


def test_gen_c_object():
    for params in (PARAMS, POLY_PARAMS):
        for trial in range(8):
            sample = gen_c_object(params, trial)
            assert module_iso(sample.object.h0().canonical_form(), sample.expected_h0)


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
