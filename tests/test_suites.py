import json

import pytest

from koszulkit import jsonio, suites
from koszulkit.complexes import ChainMap, two_term
from koszulkit.errors import HypothesisNotMetError, InvalidInputError
from koszulkit.generators import (
    GenParams,
    gen_admissible_mono,
    gen_c_object,
    gen_module_ses,
    gen_ses_morphism,
)
from koszulkit.matrices import Matrix, inverse
from koszulkit.rings import ZZ, fpx
from koszulkit.suites import SUITES, TrialFailure, run_suite

EXPECTED_SUITES = {
    "lemma2_4", "lemma2_5", "remark3_2", "prop3_4", "prop3_5", "lemma3_6",
    "cor3_8", "lemma4_2", "lemma4_3", "appendix_a2", "k0_theorems",
}


def test_registry_names():
    assert set(SUITES) == EXPECTED_SUITES


@pytest.mark.parametrize("name", sorted(EXPECTED_SUITES))
def test_suite_passes_over_z(name):
    params = GenParams(ring=ZZ, seed=3, trials=8)
    if name == "prop3_4":
        params = GenParams(ring=ZZ, seed=3, trials=5, max_rank=2, support_width=3)
    report = run_suite(name, params)
    assert report.ok, report.failures[:1]
    assert report.trials == params.trials


@pytest.mark.parametrize("name", ["lemma2_4", "remark3_2", "appendix_a2", "k0_theorems"])
def test_suite_passes_over_f2(name):
    params = GenParams(ring=fpx(2), seed=3, trials=5, max_entry=3)
    report = run_suite(name, params)
    assert report.ok, report.failures[:1]


def test_unknown_suite():
    with pytest.raises(InvalidInputError):
        run_suite("nonsense", GenParams(ring=ZZ, seed=0, trials=1))


@pytest.mark.parametrize("bounds", [{"max_entry": 0}, {"max_entry": -2}, {"max_rank": 0}, {"trials": -1}],
                         ids=["zero-entry", "negative-entry", "zero-rank", "negative-trials"])
def test_bounds_that_cannot_be_drawn_from_are_refused(bounds):
    with pytest.raises(InvalidInputError, match="bounds"):
        GenParams(ring=ZZ, **bounds)


def test_report_determinism():
    params = GenParams(ring=ZZ, seed=11, trials=6)
    first = run_suite("cor3_8", params)
    second = run_suite("cor3_8", params)
    assert first.dumps() == second.dumps()


def test_report_payload_shape():
    params = GenParams(ring=ZZ, seed=11, trials=3)
    payload = run_suite("lemma2_4", params).to_json()
    assert payload["suite"] == "lemma2_4"
    assert payload["ring"] == "Z"
    assert payload["seed"] == 11
    assert payload["trials"] == 3
    assert payload["failures"] == []


def test_crashing_trial_is_recorded_with_type_and_stage(monkeypatch):
    def body(params, trial):
        if trial == 1:
            inverse(Matrix.zeros(params.ring, 2, 3))

    monkeypatch.setitem(SUITES, "lemma2_4", body)
    report = run_suite("lemma2_4", GenParams(ring=ZZ, seed=0, trials=3))
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure["seed"] == "Z/0/1"
    assert failure["crashed"] == {"error": "DimensionError", "stage": "matrices.inverse"}
    assert failure["assertion"].startswith("trial crashed in matrices.inverse: DimensionError")


@pytest.mark.parametrize("error", [InvalidInputError, HypothesisNotMetError])
def test_aborted_trial_is_recorded_without_an_instance(monkeypatch, error):
    def body(params, trial):
        if trial == 1:
            raise error("out of scope")

    monkeypatch.setitem(SUITES, "lemma2_4", body)
    report = run_suite("lemma2_4", GenParams(ring=ZZ, seed=0, trials=2))
    assert report.failures == [{"seed": "Z/0/1", "instance": None, "assertion": "trial aborted: out of scope"}]


def test_lemma3_6_fails_a_trial_whose_hypothesis_never_holds(monkeypatch):
    def never(seq, n):
        raise HypothesisNotMetError("no")

    monkeypatch.setattr(suites, "kernel_image_sequences", never)
    report = run_suite("lemma3_6", GenParams(ring=ZZ, seed=0, trials=1))
    assert [f["assertion"] for f in report.failures] == ["hypothesis never held"]


def test_failures_sort_by_numeric_trial_index(monkeypatch):
    def body(params, trial):
        if trial in (2, 10):
            raise TrialFailure(f"trial {trial}", None)

    monkeypatch.setitem(SUITES, "lemma2_4", body)
    report = run_suite("lemma2_4", GenParams(ring=ZZ, seed=0, trials=11))
    expected = ["Z/0/2", "Z/0/10"]
    assert [f["seed"] for f in report.failures] == expected
    assert [f["seed"] for f in report.to_json()["failures"]] == expected


def test_passing_trials_serialize_nothing(call_log):
    calls = {name: call_log(jsonio, name) for name in dir(jsonio) if name.endswith("_to_json")}
    for name in sorted(EXPECTED_SUITES):
        params = GenParams(ring=ZZ, seed=3, trials=2, max_rank=2, support_width=3)
        assert run_suite(name, params).ok, name
    assert calls and not any(calls.values())


# A check forced to fail, and the instance the trial serialized eagerly
# before its checks ran.
FORCED_FAILURES = {
    "lemma2_4": ("cobase_change_check", lambda *args: False, lambda params, trial: {
        "middle": jsonio.value_to_json(gen_ses_morphism(params, trial).middle),
        "right": jsonio.value_to_json(gen_ses_morphism(params, trial).right)}),
    "lemma4_3": ("module_iso", lambda *args: False, lambda params, trial:
                 jsonio.value_to_json(gen_c_object(params, trial).object)),
    "appendix_a2": ("extension_closure_check", lambda *args: False, lambda params, trial:
                    jsonio.value_to_json(gen_admissible_mono(params, trial).sequence.mono)),
    "k0_theorems": ("is_short_exact", lambda *args: False, lambda params, trial:
                    jsonio.value_to_json(gen_module_ses(params, trial, torsion_only=True)[0])),
}


@pytest.mark.parametrize("name", sorted(FORCED_FAILURES))
@pytest.mark.parametrize("ring", [ZZ, fpx(2)], ids=lambda ring: ring.token)
def test_failed_trial_records_its_instance(monkeypatch, name, ring):
    check, forced, instance = FORCED_FAILURES[name]
    monkeypatch.setattr(suites, check, forced)
    params = GenParams(ring=ring, seed=4, trials=2, max_entry=3)
    report = run_suite(name, params)
    assert [f["seed"] for f in report.failures] == [f"{ring.token}/4/0", f"{ring.token}/4/1"]
    for trial, failure in enumerate(report.failures):
        assert "crashed" not in failure
        assert failure["instance"] == instance(params, trial)
    assert report.dumps() == json.dumps(report.to_json(), indent=2, sort_keys=True)


NOT_KOSZUL = two_term(Matrix.zeros(ZZ, 1, 1))

# For each suite builder of a result bundle: the suite, a forged change
# to the bundle it returns (or the function of the bundle that gives it),
# and the failure that the refusal becomes.
REFUSED_BUNDLES = {
    "truncation_splitting": ("remark3_2", {"v": ChainMap.identity(NOT_KOSZUL)},
                             "splitting identities fail at -1: u and v do not split the truncation sequence"),
    "kappa": ("cor3_8", lambda bundle: {"v": ChainMap.zero(bundle.v.source, bundle.kos)},
              "comparisons fail: v is not a quasi-isomorphism"),
    "cellular_factorization": ("prop3_4", {"map": ChainMap.identity(NOT_KOSZUL)},
                               "factorization witnesses fail: stages do not compose back to the input"),
    "excision_epi": ("appendix_a2", {"mono": ChainMap.identity(NOT_KOSZUL)},
                     "excision certificate failed: q does not map the mono's target onto the certificate's target"),
    "idempotent_split": ("appendix_a2", {"image_part": NOT_KOSZUL},
                         "idempotent split failed: idempotent images do not recombine to the input"),
    "image_factorization": ("appendix_a2", {"mono": ChainMap.identity(NOT_KOSZUL)},
                            "image factorization certificate failed: image factorization does not compose to its map"),
}


@pytest.mark.parametrize("builder", sorted(REFUSED_BUNDLES))
def test_a_refused_bundle_fails_its_trial_with_its_instance(monkeypatch, builder):
    """Each bundle checks its law when it is built; a builder whose bundle
    is refused fails the trial with the check's message and keeps the
    instance it was given, the builder's first argument."""
    suite, changes, message = REFUSED_BUNDLES[builder]
    real, given = getattr(suites, builder), []

    def forging(*args):
        given.append(args[0])
        bundle = real(*args)
        return bundle._replace(**(changes(bundle) if callable(changes) else changes))

    monkeypatch.setattr(suites, builder, forging)
    report = run_suite(suite, GenParams(ring=ZZ, seed=0, trials=1))
    assert report.failures == [{"seed": "Z/0/0", "instance": jsonio.value_to_json(given[0]),
                                "assertion": message}]


# For each suite builder of a result bundle: the suite, an input that the
# builder refuses before any bundle is built, and the refusal.
REFUSED_INPUTS = {
    "truncation_splitting": ("remark3_2", (NOT_KOSZUL, 0), "homology at degree 0 is not torsion"),
    "kappa": ("cor3_8", (NOT_KOSZUL,), "input is not 0-spherical with torsion homology"),
    "cellular_factorization": ("prop3_4", (ChainMap.identity(NOT_KOSZUL),), "both ends must have torsion homology"),
    "excision_epi": ("appendix_a2", (ChainMap.identity(NOT_KOSZUL),), "both ends must be free Koszul complexes"),
    "idempotent_split": ("appendix_a2", (ChainMap.identity(NOT_KOSZUL),),
                         "idempotents split inside the acyclic subcategory"),
    "image_factorization": ("appendix_a2", (ChainMap.identity(NOT_KOSZUL),),
                            "both ends must be free Koszul complexes"),
}


@pytest.mark.parametrize("builder", sorted(REFUSED_INPUTS))
def test_a_refused_builder_input_aborts_the_trial(monkeypatch, builder):
    """Only a bundle's refusal of its own witnesses fails the trial as a
    witness failure; a builder that refuses its input aborts the trial,
    as any refused input does."""
    suite, forged, message = REFUSED_INPUTS[builder]
    real = getattr(suites, builder)
    monkeypatch.setattr(suites, builder, lambda *args: real(*forged))
    report = run_suite(suite, GenParams(ring=ZZ, seed=0, trials=1))
    assert report.failures == [{"seed": "Z/0/0", "instance": None, "assertion": f"trial aborted: {message}"}]


@pytest.mark.parametrize("ring", [ZZ, fpx(2)], ids=lambda ring: ring.token)
def test_every_report_dumps_the_text_of_json_dumps(ring):
    for name in sorted(EXPECTED_SUITES):
        report = run_suite(name, GenParams(ring=ring, seed=6, trials=1, max_rank=2, max_entry=3))
        assert report.dumps() == json.dumps(report.to_json(), indent=2, sort_keys=True), name
