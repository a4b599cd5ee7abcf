import math
import sys

import pytest

from koszulkit import complexes, koszul, matrices
from koszulkit.complexes import (
    ChainComplex,
    ChainMap,
    ComplexSes,
    cone,
    direct_sum,
    homology,
    is_acyclic,
    quasi_iso_degree,
    two_term,
)
from koszulkit.errors import InvalidInputError, NotAComplexError, WitnessError
from koszulkit.fgmodules import FgModule, cokernel, module_iso
from koszulkit.generators import (
    GenParams,
    gen_a_object,
    gen_admissible_ses,
    gen_c_object,
    gen_chain_map,
    gen_koszul,
    gen_ses_of_complexes,
    trial_rng,
)
from koszulkit.koszul import (
    Kos1Membership,
    PresentedKoszul,
    PresentedKoszulMap,
    PresentedSes,
    cellular_factorization,
    e_functor,
    factor_step,
    h0,
    h0_additive,
    h0_augmentation,
    in_A,
    in_A_n,
    in_kos1,
    kappa,
    resolve_in_kos1,
    retraction_q,
    tau_maps_spherical_check,
)
from koszulkit.matrices import Matrix, elementary_divisors, is_exact_at
from koszulkit.presented import PresentedMap, PresentedModule, is_short_exact
from koszulkit.rings import ZZ, fpx
from constructions import assert_refused, h0_map, presented_from_free, zero_complex

Z2 = two_term(Matrix(ZZ, [[2]]))
Z6 = two_term(Matrix(ZZ, [[6]]))
PARAMS = GenParams(ring=ZZ, seed=5)
RINGS = {"Z": ZZ, "F2x": fpx(2), "F3x": fpx(3)}


def padded_0_spherical():
    # acyclic [Z ->1 Z] in degrees (2,1) on top of [Z ->2 Z] in degrees (1,0)
    return ChainComplex(ZZ, {2: 1, 1: 2, 0: 1},
                        {2: Matrix(ZZ, [[1], [0]]), 1: Matrix(ZZ, [[0, 2]])})


def test_in_kos1():
    assert in_kos1(Z2)
    verdict = in_kos1(two_term(Matrix.zeros(ZZ, 1, 1)))
    assert not verdict and not verdict.injective
    assert in_kos1(two_term(Matrix(ZZ, [[1, 0], [0, 6]])))
    wide = ChainComplex(ZZ, {2: 1, 1: 1}, {2: Matrix(ZZ, [[2]])})
    assert in_kos1(wide) == Kos1Membership(False, False, False, False)
    # Degenerate shapes: (ok, concentrated, injective, torsion_h0).
    shapes = [
        (ChainComplex(ZZ, {0: 2}, {}), (False, True, True, False)),  # no degree-1 part
        (ChainComplex(ZZ, {1: 2}, {}), (False, True, False, True)),  # no degree-0 part
        (ChainComplex(ZZ, {}, {}), (True, True, True, True)),  # neither
        (two_term(Matrix.zeros(ZZ, 2, 2)), (False, True, False, False)),  # zero boundary
        (two_term(Matrix(ZZ, [[2, 3]])), (False, True, False, True)),  # wide boundary
        (two_term(Matrix(ZZ, [[2], [3]])), (False, True, True, False)),  # tall boundary
    ]
    for complex_, fields in shapes:
        assert in_kos1(complex_) == Kos1Membership(*fields)


def test_in_A():
    assert in_A_n(Z2, 0)
    assert not in_A(two_term(Matrix.zeros(ZZ, 1, 1)))
    spherical1 = ChainComplex(ZZ, {2: 1, 1: 1}, {2: Matrix(ZZ, [[3]])})
    assert in_A_n(spherical1, 1)
    assert not in_A_n(spherical1, 0)
    acyclic = two_term(Matrix(ZZ, [[1]]))
    assert in_A_n(acyclic, 0) and in_A_n(acyclic, 5)


def test_h0():
    assert h0(Z6) == FgModule(ZZ, 0, (6,))
    assert h0(two_term(Matrix(ZZ, [[1]]))).is_zero()
    total = direct_sum(Z2, Z6).complex
    assert module_iso(h0(total), h0(Z2).direct_sum(h0(Z6)))


def test_h0_augmentation():
    augmentation = h0_augmentation(Z2)
    assert augmentation.degree0.matrix == Matrix.identity(ZZ, 1)
    assert augmentation.target.h0().canonical_form() == FgModule(ZZ, 0, (2,))
    acyclic = two_term(Matrix(ZZ, [[1]]))
    assert h0_augmentation(acyclic).target.h0().canonical_form().is_zero()


def test_h0_augmentation_naturality():
    rng = trial_rng(PARAMS, 1)
    for trial in range(10):
        x = gen_koszul(PARAMS, trial, rng=rng).complex
        y = gen_koszul(PARAMS, trial + 50, rng=rng).complex
        f = gen_chain_map(rng, x, y)
        left = h0_map(f).compose(
            PresentedMap(PresentedModule.free(ZZ, x.rank(0)),
                         h0_augmentation(x).degree0.target,
                         Matrix.identity(ZZ, x.rank(0))))
        right = h0_augmentation(y).degree0.compose(
            PresentedMap(PresentedModule.free(ZZ, x.rank(0)),
                         PresentedModule.free(ZZ, y.rank(0)), f.at(0)))
        assert left.matrix == right.matrix or left.target.contains(left.matrix - right.matrix)


def test_kappa_on_koszul_is_identity():
    result = kappa(Z2)
    assert result.kos == Z2
    assert result.u == ChainMap.identity(Z2)
    assert result.v == ChainMap.identity(Z2)


def test_kappa_on_padded_object():
    x = padded_0_spherical()
    result = kappa(x)
    assert in_kos1(result.kos)
    assert homology(result.kos, 0) == FgModule(ZZ, 0, (2,))
    assert quasi_iso_degree(result.u) == quasi_iso_degree(result.v) == math.inf


def test_kappa_random_certificates():
    for trial in range(25):
        rng = trial_rng(PARAMS, trial)
        x = gen_a_object(PARAMS, trial, spherical=0, window_bottom=rng.choice((-1, 0)),
                         rng=rng).complex
        result = kappa(x)
        assert in_kos1(result.kos)
        assert quasi_iso_degree(result.u) == quasi_iso_degree(result.v) == math.inf


def test_kappa_refuses_non_spherical():
    spherical1 = ChainComplex(ZZ, {2: 1, 1: 1}, {2: Matrix(ZZ, [[3]])})
    with pytest.raises(InvalidInputError):
        kappa(spherical1)


def test_forged_kappa_results_do_not_verify():
    """A comparison that is not a quasi-isomorphism, or that leaves
    another complex, is refused at construction and through ``_replace``."""
    result = kappa(padded_0_spherical())
    assert result._replace() == result
    u, v, kos = result.u, result.v, result.kos
    not_quasi_iso = ChainMap.zero(v.source, kos)  # H0(kos) is Z/2
    with pytest.raises(WitnessError, match="v is not a quasi-isomorphism"):
        type(result)(kos, u, not_quasi_iso)
    with pytest.raises(WitnessError, match="v is not a quasi-isomorphism"):
        result._replace(v=not_quasi_iso)
    with pytest.raises(WitnessError, match="u is not a quasi-isomorphism"):
        result._replace(u=ChainMap.zero(u.source, u.target))
    with pytest.raises(WitnessError, match="one complex"):
        result._replace(v=ChainMap.identity(kos))


def test_forged_factor_steps_do_not_verify():
    """A step whose h . g is not its map is refused at construction and
    through ``_replace``."""
    step = factor_step(ChainMap.identity(Z2), 5)
    assert step._replace() == step
    with pytest.raises(WitnessError, match="h . g is not the input map"):
        type(step)(ChainMap.zero(Z2, Z2), step.g, step.h, step.witness, step.upper)
    with pytest.raises(WitnessError, match="h . g is not the input map"):
        step._replace(g=step.g + step.g)
    with pytest.raises(WitnessError, match="h . g is not the input map"):
        step._replace(h=ChainMap.identity(Z6))


def test_factor_step_quasi_iso_above_support():
    ident = ChainMap.identity(Z2)
    step = factor_step(ident, 5)
    assert step.h.compose(step.g) == ident
    assert not step.upper.ranks
    # with nothing to truncate the intermediate complex is the target itself
    assert step.g.target == Z2


def test_factor_step_from_zero():
    f = ChainMap.zero(zero_complex(ZZ), Z2)
    step = factor_step(f, -1)
    built = cone(step.g).complex
    assert in_A_n(built, 0)
    assert module_iso(homology(built, 0), h0(Z2))


def test_factor_step_requires_vanishing():
    f = ChainMap.zero(zero_complex(ZZ), Z2)
    with pytest.raises(InvalidInputError):
        factor_step(f, 0)  # cone homology at 0 is Z/2


def test_factor_step_cone_comparison():
    # the cone of the second factor reproduces the truncated cone's homology
    target = ChainComplex(ZZ, {2: 1, 1: 2, 0: 1},
                          {2: Matrix(ZZ, [[3], [0]]), 1: Matrix(ZZ, [[0, 2]])})
    f = ChainMap.zero(zero_complex(ZZ), target)
    step = factor_step(f, quasi_iso_degree(f))
    built = cone(step.h).complex
    for n in set(built.degree_range()) | set(step.upper.degree_range()):
        assert module_iso(homology(built, n), homology(step.upper, n))


def test_factor_step_random_postconditions():
    params = GenParams(ring=ZZ, seed=31, max_rank=2, support_width=3)
    for trial in range(8):
        rng = trial_rng(params, trial)
        x = gen_a_object(params, trial, rng=rng).complex
        y = gen_a_object(params, trial + 500, rng=rng).complex
        f = gen_chain_map(rng, x, y, terms=1)
        n = quasi_iso_degree(f)
        if n == math.inf:
            continue
        step = factor_step(f, n)
        assert step.h.compose(step.g) == f
        assert in_A_n(cone(step.g).complex, n + 1)
        built = cone(step.h).complex
        for k in set(built.degree_range()) | set(step.upper.degree_range()):
            assert module_iso(homology(built, k), homology(step.upper, k))


def test_cellular_factorization_of_quasi_iso():
    ident = ChainMap.identity(Z6)
    factorization = cellular_factorization(ident)
    assert factorization.stages == ()
    assert factorization.final == ident


def test_cellular_factorization_example():
    f = ChainMap.zero(zero_complex(ZZ), Z2)
    factorization = cellular_factorization(f)
    assert len(factorization.stages) == 1
    assert factorization.spherical_degrees == (0,)
    quotient = factorization.subquotients[0]
    assert in_A_n(quotient, 0)
    assert module_iso(homology(quotient, 0), FgModule(ZZ, 0, (2,)))
    assert factorization.map == f
    assert quasi_iso_degree(factorization.final) == math.inf


def test_forged_cellular_factorizations_do_not_verify():
    """The law is checked at construction: the final map after the stages
    is the input map."""
    f = ChainMap.zero(Z2, Z6)
    factorization = cellular_factorization(f)
    assert len(factorization.stages) == 2 and factorization._replace() == factorization
    forgeries = [
        {"map": ChainMap.identity(Z2)},
        {"map": ChainMap.zero(Z2, Z2)},
        # the stages in the wrong order do not compose
        {"stages": factorization.stages[::-1]},
    ]
    for changes in forgeries:
        with pytest.raises(WitnessError):
            factorization._replace(**changes)


def test_a_stage_that_is_not_a_first_summand_inclusion_is_refused():
    """The last stage negated is a chain map, and the negated final map
    keeps the composite equal to the input map, but the stage is no
    longer the first-summand selection that its subquotient is read off."""
    factorization = cellular_factorization(ChainMap.zero(Z2, Z6))
    first, last = factorization.stages
    assert_refused(factorization, stages=(first, -last), final=-factorization.final)
    # A stage into a complex too small to hold its source.
    nothing = zero_complex(ZZ)
    assert_refused(factorization, map=ChainMap.zero(Z2, Z6), stages=(ChainMap.zero(Z2, nothing),),
                   final=ChainMap.zero(nothing, Z6))


def test_cellular_factorization_stores_only_what_its_law_proves():
    """The subquotients, their spherical degrees and the retractions of
    the stages are read off the stages, so none of them can be forged."""
    factorization = cellular_factorization(ChainMap.zero(Z2, Z6))
    assert type(factorization)._fields == ("map", "stages", "final")
    assert factorization.spherical_degrees == (0, 1)
    assert factorization.subquotients == (Z6, two_term(Matrix(ZZ, [[2]]), 2))
    for field, value in (("subquotients", (Z2, Z2)), ("spherical_degrees", (7, 7)), ("retractions", ({}, {}))):
        with pytest.raises(TypeError):
            factorization._replace(**{field: value})


def test_cellular_factorization_random():
    params = GenParams(ring=ZZ, seed=8, max_rank=2, support_width=3)
    for trial in range(10):
        rng = trial_rng(params, trial)
        x = gen_a_object(params, trial, rng=rng).complex
        y = gen_a_object(params, trial, rng=rng).complex
        f = gen_chain_map(rng, x, y, terms=1)
        factorization = cellular_factorization(f)
        assert factorization.map == f
        assert quasi_iso_degree(factorization.final) == math.inf
        for quotient, degree in zip(factorization.subquotients, factorization.spherical_degrees):
            assert in_A_n(quotient, degree)


def test_cellular_factorization_builds_one_cone_per_degree_evaluation(call_log):
    """Each cone-vanishing degree is read off a cone layout built for it
    alone, and the stage attaches its cells from that same cone, so no
    other cone layout is built."""
    layouts, evaluations = call_log(complexes._Layout, "__init__"), call_log(koszul, "_vanishing_degree")
    params = GenParams(ring=ZZ, seed=8, max_rank=2, support_width=3)
    total_stages = 0
    for trial in range(6):
        rng = trial_rng(params, trial)
        x = gen_a_object(params, trial, rng=rng).complex
        y = gen_a_object(params, trial, rng=rng).complex
        f = gen_chain_map(rng, x, y, terms=1)
        layouts.clear()
        evaluations.clear()
        stages = len(cellular_factorization(f).stages)
        cones = [args for args in layouts if [s for _, s in args[1]] == [1, 0]]
        assert len(evaluations) == stages + 1
        assert len(cones) == len(evaluations)
        total_stages += stages
    assert total_stages > 0


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS)
def test_stage_subquotients_are_the_split_quotients(ring):
    """The subquotient read off each stage is the complex that
    ``_split_quotient`` finds by elimination on id - stage . retraction,
    with the transposed stage as the retraction."""
    params = GenParams(ring=ring, seed=8, max_rank=2, support_width=3, max_entry=3)
    checked = multi_stage = 0
    for trial in range(6):
        rng = trial_rng(params, trial)
        x = gen_a_object(params, trial, rng=rng).complex
        y = gen_a_object(params, trial, rng=rng).complex
        f = gen_chain_map(rng, x, y, terms=1)
        factorization = cellular_factorization(f)
        for stage, quotient in zip(factorization.stages, factorization.subquotients):
            transposes = {k: stage.at(k).transpose() for k in stage.source.ranks}
            assert quotient == complexes._split_quotient(stage, transposes)[0]
        checked += len(factorization.stages)
        multi_stage += len(factorization.stages) > 1
    assert checked and multi_stage


def _assert_size_bound(f, factorization):
    """At most width + 1 stages, and a final source of total rank at most
    3 rank X + 2 rank Y for f: X -> Y."""
    degrees = set(f.source.ranks) | set(f.target.ranks)
    width = (max(degrees) - min(degrees) + 1) if degrees else 0
    assert len(factorization.stages) <= width + 1
    total = sum(factorization.final.source.ranks.values())
    assert total <= 3 * sum(f.source.ranks.values()) + 2 * sum(f.target.ranks.values())


def test_cellular_factorization_of_the_m_families_is_linear(cpu_time_limit):
    """The sum of the copies k < m of [Z -2-> Z] in degrees k+1 and k has
    Z/2 in m degrees: each of the m stages attaches one pair of cells, so
    the final source has total rank 2m from the zero complex and 4m into
    it."""
    with cpu_time_limit(1):
        for m in range(1, 13):
            y = direct_sum(*(two_term(Matrix(ZZ, [[2]]), k + 1) for k in range(m))).complex
            for f, final_rank in ((ChainMap.zero(zero_complex(ZZ), y), 2 * m),
                                  (ChainMap.zero(y, zero_complex(ZZ)), 4 * m)):
                factorization = cellular_factorization(f)
                _assert_size_bound(f, factorization)
                assert len(factorization.stages) == m
                assert sum(factorization.final.source.ranks.values()) == final_rank


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS)
def test_cellular_factorization_size_bound_on_generated_maps(ring):
    stages = 0
    for width in range(1, 13):
        params = GenParams(ring=ring, seed=12, max_rank=8, support_width=width, max_entry=3)
        for trial in range(3):
            rng = trial_rng(params, trial)
            x = gen_a_object(params, trial, rng=rng).complex
            y = gen_a_object(params, trial, rng=rng).complex
            f = gen_chain_map(rng, x, y, terms=1)
            factorization = cellular_factorization(f)
            _assert_size_bound(f, factorization)
            stages = max(stages, len(factorization.stages))
    assert stages >= 5


def test_cellular_factorization_requires_torsion_homology():
    free_homology = ChainComplex(ZZ, {0: 1}, {})
    with pytest.raises(InvalidInputError):
        cellular_factorization(ChainMap.identity(free_homology))


def test_admissible_ses_and_h0_additivity():
    total = direct_sum(Z2, Z6)
    seq = ComplexSes(total.inclusions[0], total.projections[1])
    assert h0_additive(seq)
    assert seq.retractions and seq.sections


def _generated_sequences(ring):
    params = GenParams(ring=ring, seed=11)
    for trial in range(6):
        yield gen_admissible_ses(params, trial).sequence
        yield gen_ses_of_complexes(params, trial, acyclic_side=("left", "right", "none")[trial % 3]).sequence


def _accepted(mono, epi) -> bool:
    try:
        ComplexSes(mono, epi)
    except (InvalidInputError, NotAComplexError):
        return False
    return True


def _eliminated(mono, epi) -> bool:
    """Exactness by elimination in every degree: the inclusion has as
    many elementary divisors as columns, the projection has a zero
    cokernel, and the image is the kernel."""
    degrees = set(mono.source.ranks) | set(mono.target.ranks) | set(epi.target.ranks)
    return all(len(elementary_divisors(mono.at(n))) == mono.at(n).cols and cokernel(epi.at(n)).is_zero()
               and is_exact_at(mono.at(n), epi.at(n)) for n in degrees)


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS)
def test_witness_proof_accepts_exactly_what_elimination_accepts(ring):
    """Generated split sequences are accepted.  On them and on broken
    pairs of their maps, the witness proof of ``ComplexSes`` accepts
    exactly the pairs that elimination proves exact.  The last pair
    leaves the left term out, so only the rank count refuses it."""
    nonunit = 2 if ring == ZZ else ring.poly([0, 1])

    def scaled(f):
        return ChainMap(f.source, f.target, {n: m.scale(nonunit) for n, m in f.components.items()})

    refused = False
    for seq in _generated_sequences(ring):
        mono, epi = seq.mono, seq.epi
        pairs = [(mono, epi), (scaled(mono), epi), (mono, scaled(epi)),
                 (ChainMap.zero(mono.source, mono.target), epi), (mono, ChainMap.zero(epi.source, epi.target)),
                 (ChainMap.zero(zero_complex(ring), mono.target), epi)]
        verdicts = [_accepted(*pair) for pair in pairs]
        assert verdicts == [_eliminated(*pair) for pair in pairs]
        assert verdicts[0]
        refused |= not all(verdicts)
    assert refused


def test_witnesses_of_an_inexact_pair_are_refused():
    # Z2 >--> Z2 (+) Z6 (+) Z2 -->> Z6 with the summand inclusions and
    # projections as witnesses: the third summand is left over.
    total = direct_sum(Z2, Z6, Z2)
    mono, epi = total.inclusions[0], total.projections[1]
    with pytest.raises(InvalidInputError, match="not exact at degree"):
        ComplexSes(mono, epi, total.projections[0].components, total.inclusions[1].components)
    with pytest.raises(InvalidInputError, match="not exact at degree"):
        ComplexSes(mono, epi)


def test_pair_with_nonzero_composite_is_not_a_complex():
    total = direct_sum(Z2, Z6)
    mono, epi = total.inclusions[0], total.projections[0]
    with pytest.raises(NotAComplexError, match="composite"):
        ComplexSes(mono, epi, total.projections[0].components, total.inclusions[0].components)
    with pytest.raises(NotAComplexError, match="composite"):
        ComplexSes(mono, epi)


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS)
def test_witnesses_prove_exactness_without_elimination(monkeypatch, ring):
    sequences = list(_generated_sequences(ring))

    def eliminated(*args):
        raise AssertionError("an elimination ran")
    for name in ("elementary_divisors", "_column_form"):
        original = getattr(matrices, name)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("koszulkit") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, eliminated)
    for seq in sequences:
        again = ComplexSes(seq.mono, seq.epi, seq.retractions, seq.sections)
        assert (again.retractions, again.sections) == (seq.retractions, seq.sections)


def test_tau_maps_spherical_check():
    total = direct_sum(Z2, Z6)
    seq = ComplexSes(total.inclusions[0], total.projections[1])
    for k in (-1, 0, 1):
        assert tau_maps_spherical_check(seq, k, 0)


X2 = presented_from_free(Z2)
TRIPLE = e_functor(X2)
NOT_KOSZUL = two_term(Matrix.zeros(ZZ, 1, 1))

# Inputs outside each construction's category, and diagrams whose rows or
# squares fail (some forged from a valid triple with ``_replace``).
REFUSALS = {
    "h0-of-three-terms": lambda: h0(padded_0_spherical()),
    "augmentation-of-non-koszul": lambda: h0_augmentation(NOT_KOSZUL),
    "retraction-of-non-koszul": lambda: retraction_q(NOT_KOSZUL),
    "from-free-of-non-koszul": lambda: presented_from_free(NOT_KOSZUL),
    "boundary-endpoints": lambda: PresentedKoszul(X2.top, X2.bottom, PresentedMap.identity(PresentedModule.free(ZZ, 2))),
    "map-squares": lambda: PresentedKoszulMap(X2, X2, PresentedMap.identity(X2.top),
                                              PresentedMap.zero(X2.bottom, X2.bottom)),
    "degree-1-row": lambda: TRIPLE._replace(epi=PresentedKoszulMap(X2, X2, PresentedMap.identity(X2.top),
                                                                   PresentedMap.identity(X2.bottom))),
    "degree-0-row": lambda: TRIPLE._replace(epi=TRIPLE.epi._replace(degree0=PresentedMap.zero(
        X2.bottom, TRIPLE.right.bottom))),
    "component-from-another-module": lambda: PresentedKoszulMap(
        X2, X2, PresentedMap(PresentedModule.cyclic(ZZ, 3), X2.top, Matrix(ZZ, [[0]])),
        PresentedMap.zero(X2.bottom, X2.bottom)),
    "rows-not-consecutive": lambda: PresentedSes(
        TRIPLE.mono, e_functor(presented_from_free(two_term(Matrix(ZZ, [[-2]])))).epi),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS)
def test_refusals(call):
    with pytest.raises(InvalidInputError):
        call()


def test_tau_maps_spherical_check_fails_off_its_hypothesis():
    total = direct_sum(Z2, Z6)
    seq = ComplexSes(total.inclusions[0], total.projections[1])
    assert not tau_maps_spherical_check(seq, 0, 1)  # spherical in degree 0, not 1
    # [Z] in degree 0 >--> [Z =1= Z] -->> [Z] in degree 1: above 0 the
    # kernels Z -> 0 -> Z are not exact.
    point, line = ChainComplex(ZZ, {0: 1}, {}), two_term(Matrix(ZZ, [[1]]))
    seq = ComplexSes(ChainMap(point, line, {0: Matrix(ZZ, [[1]])}),
                        ChainMap(line, ChainComplex(ZZ, {1: 1}, {}), {1: Matrix(ZZ, [[1]])}))
    assert not tau_maps_spherical_check(seq, 1, 0)


def test_presented_koszul_validation():
    top = PresentedModule.free(ZZ, 1)
    bottom = PresentedModule.free(ZZ, 1)
    with pytest.raises(InvalidInputError):
        PresentedKoszul(top, bottom, PresentedMap.zero(top, bottom))  # not injective
    with pytest.raises(InvalidInputError):
        # identity boundary has zero cokernel, fine; a free cokernel is not
        PresentedKoszul(PresentedModule.free(ZZ, 0), bottom,
                        PresentedMap.zero(PresentedModule.free(ZZ, 0), bottom))


def test_resolve_in_kos1_example():
    zero_mod = PresentedModule.free(ZZ, 0)
    z2 = PresentedModule.cyclic(ZZ, 2)
    target = PresentedKoszul(zero_mod, z2, PresentedMap.zero(zero_mod, z2))
    res = resolve_in_kos1(target)
    assert res.cover == Z2
    assert in_kos1(res.kernel) and is_acyclic(res.kernel)
    assert res.e0.is_surjective() and res.e1.is_surjective()


def test_resolve_in_kos1_free_input():
    target = presented_from_free(Z6)
    res = resolve_in_kos1(target)
    assert in_kos1(res.cover)
    assert res.e0.is_surjective() and res.e1.is_surjective()
    assert in_kos1(res.kernel)


def test_resolve_zero_object():
    zero_mod = PresentedModule.free(ZZ, 0)
    target = PresentedKoszul(zero_mod, zero_mod, PresentedMap.zero(zero_mod, zero_mod))
    res = resolve_in_kos1(target)
    assert not res.cover.ranks
    assert not res.kernel.ranks


def test_e_functor_example():
    target = presented_from_free(Z2)
    triple = e_functor(target)
    assert triple.left.is_acyclic()
    assert triple.middle == target
    assert triple.right.h0().canonical_form() == FgModule(ZZ, 0, (2,))
    # degree-0 row is 0 -> Z -> Z -> Z/2 -> 0
    assert is_short_exact(triple.mono.degree0, triple.epi.degree0)


def test_e_functor_acyclic_input():
    target = presented_from_free(two_term(Matrix(ZZ, [[1]])))
    triple = e_functor(target)
    assert triple.right.h0().canonical_form().is_zero()


def test_e_functor_generated():
    for trial in range(8):
        sample = gen_c_object(PARAMS, trial)
        triple = e_functor(sample.object)
        assert triple.left.is_acyclic()
        assert module_iso(triple.right.h0().canonical_form(),
                          sample.object.h0().canonical_form())


def test_retraction_q():
    retract = retraction_q(Z2)
    assert retract.complex == two_term(Matrix.identity(ZZ, 1))
    assert not retract.comparison_is_iso
    # idempotent on objects
    again = retraction_q(retract.complex)
    assert again.complex == retract.complex
    # acyclic input: the comparison is an isomorphism
    unimod = two_term(Matrix(ZZ, [[1, 2], [0, -1]]))
    assert retraction_q(unimod).comparison_is_iso
