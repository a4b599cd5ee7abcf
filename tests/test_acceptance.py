"""Acceptance gate: one test per criterion, at the stated scale.

Every check is exact (integer/polynomial equality); the only tolerances
are the two wall-clock budgets, asserted where stated.  Each criterion
prints a single PASS line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

from koszulkit.complexes import (
    ChainMap,
    cone,
    cylinder,
    homotopy_between,
    shift,
    structure_maps,
    truncation_triple,
)
from koszulkit.generators import (
    GenParams,
    gen_a_object,
    gen_chain_map,
    trial_rng,
)
from koszulkit.matrices import snf
from koszulkit.rings import ZZ, fpx
from koszulkit.suites import (
    closure_trial,
    excision_trial,
    idempotent_trial,
    image_factorization_trial,
    k0_additivity_trial,
    k0_qis_pair_trial,
    run_suite,
)
from constructions import gen_matrix


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def _run_clean(trial_fn, params, trials):
    for trial in range(trials):
        trial_fn(params, trial)  # raises TrialFailure on violation


def test_criterion_01_snf_certificates():
    started = time.time()
    int_params = GenParams(ring=ZZ, seed=101, max_entry=50)
    for trial in range(1000):
        mat = gen_matrix(int_params, trial, max_dim=6)
        assert snf(mat).source is mat, f"integer certificate failed on trial {trial}"
    poly_params = GenParams(ring=fpx(2), seed=102, max_entry=3)
    for trial in range(300):
        mat = gen_matrix(poly_params, trial, max_dim=6)
        assert snf(mat).source is mat, f"polynomial certificate failed on trial {trial}"
    elapsed = time.time() - started
    assert elapsed < 10.0, f"certificate run took {elapsed:.1f}s, budget is 10s"
    _report(1, f"1300 diagonalization certificates verified in {elapsed:.1f}s")


def test_criterion_02_constructor_soundness():
    params = GenParams(ring=ZZ, seed=201, max_rank=2, support_width=3)
    applications = 0
    for trial in range(200):
        rng = trial_rng(params, trial)
        x = gen_a_object(params, trial, rng=rng).complex
        y = gen_a_object(params, trial + 10_000, rng=rng).complex
        f = gen_chain_map(rng, x, y, terms=1)
        # constructors validate d.d == 0 on every build
        shift(x, rng.randint(-2, 2))
        cone(f)
        cylinder(f)
        applications += 3
        for _ in range(2):
            n = rng.randint(x.degree_range().start - 1, x.degree_range().stop)
            # a ComplexSes: building it proves the sequence exact
            truncation_triple(x, n)
            applications += 1
    assert applications >= 1000
    _report(2, f"{applications} constructor applications sound; truncation triples exact")


def test_criterion_03_structure_map_identities():
    params = GenParams(ring=ZZ, seed=301, max_rank=2, support_width=2)
    for trial in range(200):
        rng = trial_rng(params, trial)
        x = gen_a_object(params, trial, rng=rng).complex
        y = gen_a_object(params, trial + 10_000, rng=rng).complex
        f = gen_chain_map(rng, x, y, terms=1)
        maps = structure_maps(f)
        assert maps.p.compose(maps.j2) == ChainMap.identity(y), f"p.j2 != id (trial {trial})"
        assert maps.p.compose(maps.j1) == f, f"p.j1 != f (trial {trial})"
        witness = homotopy_between(maps.j2.compose(maps.p), ChainMap.identity(maps.cylinder))
        assert witness is not None, f"no homotopy j2.p ~ id (trial {trial})"
    _report(3, "200 cylinders: end identities exact, homotopy solver certified j2.p ~ id")


def test_criterion_04_truncation_splitting():
    report = run_suite("remark3_2", GenParams(ring=ZZ, seed=401, trials=200))
    assert report.ok, report.failures[:2]
    _report(4, "200 complexes x all degrees: five splitting identities exact")


def test_criterion_05_cellular_factorization():
    started = time.time()
    report = run_suite("prop3_4", GenParams(ring=ZZ, seed=501, trials=100,
                                            max_rank=2, support_width=4))
    elapsed = time.time() - started
    assert report.ok, report.failures[:2]
    assert elapsed < 60.0, f"factorization run took {elapsed:.1f}s, budget is 60s"
    _report(5, f"100 morphisms factored and certified in {elapsed:.1f}s")


def test_criterion_06_kernel_image_sequences():
    report = run_suite("lemma3_6", GenParams(ring=ZZ, seed=601, trials=200))
    assert report.ok, report.failures[:2]
    _report(6, "200 sequences: kernel and image rows exact under the hypothesis")


def test_criterion_07_module_diagram_checks():
    report = run_suite("lemma2_4", GenParams(ring=ZZ, seed=701, trials=200))
    assert report.ok, report.failures[:2]
    report = run_suite("lemma2_5", GenParams(ring=ZZ, seed=702, trials=200))
    assert report.ok, report.failures[:2]
    _report(7, "200 pushout-criterion diagrams agree; 200 nine-term diagrams exact")


def test_criterion_08_two_sided_truncation_retraction():
    report = run_suite("cor3_8", GenParams(ring=ZZ, seed=801, trials=100))
    assert report.ok, report.failures[:2]
    _report(8, "100 retraction certificates: fixed on two-term input, comparisons quasi-isos")


def test_criterion_09_free_covers():
    report = run_suite("lemma4_2", GenParams(ring=ZZ, seed=901, trials=100))
    assert report.ok, report.failures[:2]
    _report(9, "100 presented complexes covered: surjective with free Koszul kernel")


def test_criterion_10_excision_machinery():
    params = GenParams(ring=ZZ, seed=1001)
    _run_clean(excision_trial, params, 200)
    _run_clean(idempotent_trial, GenParams(ring=ZZ, seed=1002), 100)
    _run_clean(closure_trial, GenParams(ring=ZZ, seed=1003), 500)
    _run_clean(image_factorization_trial, GenParams(ring=ZZ, seed=1004), 200)
    _report(10, "200 excision certificates, 100 idempotent splits, 500 closure checks, "
                "200 image factorizations")


def test_criterion_11_k0_shadows():
    _run_clean(k0_additivity_trial, GenParams(ring=ZZ, seed=1101), 500)
    _run_clean(k0_qis_pair_trial, GenParams(ring=ZZ, seed=1102), 100)
    _run_clean(k0_additivity_trial, GenParams(ring=fpx(2), seed=1103, max_entry=3), 60)
    _report(11, "500 sequences additive in both classes; 100 quasi-isomorphic pairs "
                "have equal torsion classes")
