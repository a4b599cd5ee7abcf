"""Every construction that skips its law check passes the full check.

Shifts, cones, cylinders, direct sums and composites build their result
without re-verifying d.d == 0, the chain-map law or relations into
relations, because those laws follow from verified inputs by block
algebra.  Here each such output is rebuilt through the public checked
constructor on seeded instances over Z and F_3[x], so the sign
conventions stay covered by the full check.
"""

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
    zero_complex,
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
from koszulkit.koszul import PresentedKoszul, e_functor, h0_augmentation, resolve_in_kos1
from koszulkit.presented import PresentedMap, pullback, pushout
from koszulkit.rings import ZZ, fpx

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
            zero_complex(ring),
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
        ses = triple.sequence
        koszul = gen_koszul(params, trial).complex
        outputs = [
            leg_a, leg_b, incl, pull_a, pull_b, kernel_incl, image_incl, image_epi,
            resolution.e1, resolution.e0,
            triple.left.d, triple.right.d,
            ses.mono.degree1, ses.mono.degree0, ses.epi.degree1, ses.epi.degree0,
            h0_augmentation(koszul).degree0, PresentedKoszul.from_free(koszul).d,
        ]
        for obj in outputs:
            recheck(obj)
