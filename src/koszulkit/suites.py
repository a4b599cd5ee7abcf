"""Randomized property suites: each named suite replays one verified
statement over freshly generated instances and reports every violation.

Reports are deterministic in (params, seed): per-trial randomness comes
from the derived trial generator and failures are listed in trial order,
so two runs with the same parameters serialize identically.  A trial
that raises an unexpected exception is recorded as a ``crashed``
failure naming the exception type and the library function it came
from; the remaining trials still run.
"""

from __future__ import annotations

import math
import traceback
from typing import NamedTuple

from . import jsonio
from .complexes import (
    ChainMap,
    is_acyclic,
    kernel_image_sequences,
    quasi_iso_degree,
    truncation_splitting,
)
from .errors import HypothesisNotMetError, InvalidInputError
from .fgmodules import module_iso
from .generators import (
    GenParams,
    gen_a_object,
    gen_admissible_mono,
    gen_admissible_ses,
    gen_c_object,
    gen_chain_map,
    gen_idempotent,
    gen_koszul,
    gen_module_ses,
    gen_quasi_iso_pair,
    gen_ses_morphism,
    gen_ses_of_complexes,
    gen_three_by_three,
    trial_rng,
)
from .k0 import additivity_check, class_kos_isom, class_kos_qis, class_presented, class_torsion
from .koszul import (
    AdmissibleSes,
    cellular_factorization,
    e_functor,
    h0_additive,
    in_A_n,
    in_kos1,
    kappa,
    resolve_in_kos1,
    tau_maps_spherical_check,
)
from .matrices import Matrix, solve
from .presented import cobase_change_check, is_short_exact, nine_term_sequences
from .sfiltering import (
    excision_epi,
    extension_closure_check,
    idempotent_split,
    image_factorization,
)


class TrialFailure(Exception):
    def __init__(self, message: str, instance):
        super().__init__(message)
        self.instance = instance


def _require(condition: bool, message: str, instance):
    """Raise TrialFailure unless ``condition`` holds, with the offending
    ``instance`` encoded for the report; it is encoded only on failure."""
    if not condition:
        raise TrialFailure(message, jsonio.value_to_json(instance))


class SuiteReport(NamedTuple):
    suite: str
    ring: str
    seed: int
    trials: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return self._asdict()

    def dumps(self) -> str:
        return jsonio._dumps(self.to_json())


def _crash_stage(error: BaseException) -> str:
    """The innermost koszulkit function on the traceback, as module.function."""
    stage = "suites"
    for frame, _ in traceback.walk_tb(error.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("koszulkit."):
            stage = f"{module[len('koszulkit.'):]}.{frame.f_code.co_name}"
    return stage


# ---------------------------------------------------------------------------
# Trial bodies.  Each raises TrialFailure with the offending instance,
# encoded only when the trial fails.


def lemma_2_4_trial(params: GenParams, trial: int):
    diagram = gen_ses_morphism(params, trial)
    instance = {"middle": diagram.middle, "right": diagram.right}
    _require(cobase_change_check(diagram), "pushout criterion sides disagree", instance)


def lemma_2_5_trial(params: GenParams, trial: int):
    grid = gen_three_by_three(params, trial)
    instance = {"rows": [m for pair in grid.rows for m in pair]}
    first, second = nine_term_sequences(grid)
    _require(first, "pushout sequence is not short exact", instance)
    _require(second, "pullback sequence is not short exact", instance)


def remark_3_2_trial(params: GenParams, trial: int):
    sample = gen_a_object(params, trial)
    degrees = sample.complex.degree_range()
    for n in range(degrees.start - 1, degrees.stop + 1):
        splitting = truncation_splitting(sample.complex, n)
        _require(splitting.triple.degreewise_exact(),
                 f"truncation triple not exact at {n}", sample.complex)
        _require(splitting.identities_hold(),
                 f"splitting identities fail at {n}", sample.complex)


def prop_3_4_trial(params: GenParams, trial: int):
    rng = trial_rng(params, trial)
    source = gen_a_object(params, trial, rng=rng).complex
    target = gen_a_object(params, trial, rng=rng).complex
    f = gen_chain_map(rng, source, target, bound=2, terms=1)
    factorization = cellular_factorization(f)
    degrees = set(source.ranks) | set(target.ranks)
    width = (max(degrees) - min(degrees) + 1) if degrees else 0
    _require(len(factorization.stages) <= width + 1,
             "factorization used too many stages", f)
    _require(factorization.composite() == f,
             "stages do not compose back to the input", f)
    _require(quasi_iso_degree(factorization.final) == math.inf,
             "final map is not a quasi-isomorphism", f)
    ring = params.ring
    for stage, retr, quotient, degree in zip(
            factorization.stages, factorization.retractions,
            factorization.subquotients, factorization.spherical_degrees):
        for n, r in retr.items():
            _require(r * stage.at(n) == Matrix.identity(ring, stage.source.rank(n)),
                     "stage retraction fails", f)
        _require(in_A_n(quotient, degree),
                 f"subquotient is not {degree}-spherical", f)


def prop_3_5_trial(params: GenParams, trial: int):
    rng = trial_rng(params, trial)
    spherical = rng.randint(0, max(0, params.support_width - 2))
    sample = gen_ses_of_complexes(params, trial, acyclic_side="none",
                                  spherical=spherical, rng=rng)
    seq = sample.sequence
    degrees = seq.middle.degree_range()
    for k in range(degrees.start - 1, degrees.stop + 1):
        verdict = tau_maps_spherical_check(seq, k, spherical)
        _require(verdict, f"truncation at {k} broke the split sequence", seq.mono)


def lemma_3_6_trial(params: GenParams, trial: int):
    rng = trial_rng(params, trial)
    side = "left" if rng.random() < 0.5 else "right"
    sample = gen_ses_of_complexes(params, trial, acyclic_side=side, rng=rng)
    seq = sample.sequence
    degrees = seq.middle.degree_range()
    checked = 0
    for n in range(degrees.start, degrees.stop + 1):
        try:
            kernels, images = kernel_image_sequences(seq, n)
        except HypothesisNotMetError:
            continue
        checked += 1
        _require(kernels, f"kernel sequence not exact at {n}", seq.mono)
        _require(images, f"image sequence not exact at {n}", seq.mono)
    _require(checked > 0, "hypothesis never held", seq.mono)


def cor_3_8_trial(params: GenParams, trial: int):
    rng = trial_rng(params, trial)
    if rng.random() < 0.5:
        complex_ = gen_a_object(params, trial, spherical=0,
                                window_bottom=rng.choice((-1, 0)), rng=rng).complex
    else:
        complex_ = gen_koszul(params, trial, rng=rng).complex
    result = kappa(complex_)
    _require(bool(in_kos1(result.kos)), "retract left the category", complex_)
    _require(result.u_is_quasi_iso, "inclusion comparison is not a quasi-iso", complex_)
    _require(result.v_is_quasi_iso, "projection comparison is not a quasi-iso", complex_)
    if in_kos1(complex_):
        _require(result.kos == complex_, "retraction moved a two-term complex", complex_)
        _require(result.u == ChainMap.identity(complex_)
                 and result.v == ChainMap.identity(complex_),
                 "retraction of a two-term complex is not the identity", complex_)


def lemma_4_2_trial(params: GenParams, trial: int):
    sample = gen_c_object(params, trial)
    target = sample.object
    res = resolve_in_kos1(target)
    _require(bool(in_kos1(res.cover)), "cover is not a free Koszul complex", target)
    _require(res.e0.is_surjective(), "degree-0 component is not surjective", target)
    _require(res.e1.is_surjective(), "degree-1 component is not surjective", target)
    lifted = target.d.compose(res.e1)
    pushed = res.e0.matrix * res.cover.d(1)
    _require(target.bottom.contains(lifted.matrix - pushed),
             "cover map does not commute with boundaries", target)
    _require(bool(in_kos1(res.kernel)), "kernel is not a free Koszul complex", target)
    for degree, e_map in ((1, res.e1), (0, res.e0)):
        incl = res.kernel_inclusion.at(degree)
        _require(e_map.target.contains(e_map.matrix * incl),
                 f"kernel inclusion at degree {degree} does not die in the target", target)
        pre = e_map.preimage_of_relations()
        _require(solve(incl, pre) is not None,
                 f"kernel at degree {degree} misses part of the true kernel", target)


def lemma_4_3_trial(params: GenParams, trial: int):
    sample = gen_c_object(params, trial)
    triple = e_functor(sample.object)
    _require(triple.left.is_acyclic(), "left term is not acyclic", sample.object)
    _require(triple.middle == sample.object, "middle term is not the input", sample.object)
    _require(triple.right.top.canonical_form().is_zero(),
             "right term has a nonzero degree-1 part", sample.object)
    _require(module_iso(triple.right.h0().canonical_form(),
                        sample.object.h0().canonical_form()),
             "right term does not carry H0", sample.object)
    _require(additivity_check(triple, class_presented),
             "triple classes are not additive", sample.object)


def excision_trial(params: GenParams, trial: int):
    sample = gen_admissible_mono(params, trial)
    mono = sample.sequence.mono
    cert = excision_epi(mono, sample.sequence.retractions)
    _require(cert.verifies(), "excision certificate failed", mono)
    closure = AdmissibleSes(cert.kernel_inclusion, cert.q)
    _require(extension_closure_check(closure),
             "kernel sequence violates extension closure", mono)


def idempotent_trial(params: GenParams, trial: int):
    complex_, endo = gen_idempotent(params, trial)
    split = idempotent_split(endo)
    _require(split.rank_additive(), "split ranks do not add up", endo)
    for part in (split.image_part, split.complement_part):
        _require(bool(in_kos1(part)) and is_acyclic(part),
                 "split part left the acyclic subcategory", endo)


def closure_trial(params: GenParams, trial: int):
    sample = gen_admissible_ses(params, trial)
    _require(extension_closure_check(sample.sequence),
             "acyclicity closure disagreement", sample.sequence.mono)


def image_factorization_trial(params: GenParams, trial: int):
    rng = trial_rng(params, trial)
    source = gen_koszul(params, trial, acyclic=True, rng=rng).complex
    target = gen_koszul(params, trial, rng=rng).complex
    f = gen_chain_map(rng, source, target, bound=2, terms=1)
    factorization = image_factorization(f)
    _require(factorization.verifies(f), "image factorization certificate failed", f)


def appendix_a2_trial(params: GenParams, trial: int):
    excision_trial(params, trial)
    idempotent_trial(params, trial)
    closure_trial(params, trial)
    image_factorization_trial(params, trial)


def k0_additivity_trial(params: GenParams, trial: int):
    sample = gen_admissible_ses(params, trial)
    _require(additivity_check(sample.sequence, class_kos_isom),
             "isomorphism-level class is not additive", sample.sequence.mono)
    _require(h0_additive(sample.sequence), "H0 sequence is not exact", sample.sequence.mono)
    mono, epi = gen_module_ses(params, trial, torsion_only=True)
    _require(is_short_exact(mono, epi), "module sequence is not short exact", mono)
    left, middle, right = (class_torsion(module.canonical_form())
                           for module in (mono.source, mono.target, epi.target))
    _require(middle == left + right, "module torsion class is not additive", mono)


def k0_qis_pair_trial(params: GenParams, trial: int):
    pair = gen_quasi_iso_pair(params, trial)
    _require(quasi_iso_degree(pair.map) == math.inf,
             "generated pair is not a quasi-isomorphism", pair.map)
    _require(class_kos_qis(pair.map.source) == class_kos_qis(pair.map.target),
             "quasi-isomorphic pair has different classes", pair.map)


def k0_theorems_trial(params: GenParams, trial: int):
    k0_additivity_trial(params, trial)
    k0_qis_pair_trial(params, trial)


SUITES = {
    "lemma2_4": lemma_2_4_trial,
    "lemma2_5": lemma_2_5_trial,
    "remark3_2": remark_3_2_trial,
    "prop3_4": prop_3_4_trial,
    "prop3_5": prop_3_5_trial,
    "lemma3_6": lemma_3_6_trial,
    "cor3_8": cor_3_8_trial,
    "lemma4_2": lemma_4_2_trial,
    "lemma4_3": lemma_4_3_trial,
    "appendix_a2": appendix_a2_trial,
    "k0_theorems": k0_theorems_trial,
}


def run_suite(name: str, params: GenParams) -> SuiteReport:
    body = SUITES.get(name)
    if body is None:
        raise InvalidInputError(f"unknown suite {name!r}")
    report = SuiteReport(suite=name, ring=params.ring.token, seed=params.seed, trials=params.trials, failures=[])
    for trial in range(params.trials):
        seed_token = f"{params.ring.token}/{params.seed}/{trial}"
        try:
            body(params, trial)
        except TrialFailure as failure:
            report.failures.append({
                "seed": seed_token,
                "instance": failure.instance,
                "assertion": str(failure),
            })
        except (InvalidInputError, HypothesisNotMetError) as error:
            report.failures.append({
                "seed": seed_token,
                "instance": None,
                "assertion": f"trial aborted: {error}",
            })
        except Exception as error:
            stage = _crash_stage(error)
            report.failures.append({
                "seed": seed_token,
                "instance": None,
                "assertion": f"trial crashed in {stage}: {type(error).__name__}: {error}",
                "crashed": {"error": type(error).__name__, "stage": stage},
            })
    return report
