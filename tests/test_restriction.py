"""Subcomplexes, truncations, induced maps and split monos: pinned
outputs, the restriction and splitting helpers and what the
constructions build."""

from collections import namedtuple

import pytest

from koszulkit import complexes, koszul, matrices
from koszulkit.complexes import (
    ChainComplex,
    ChainMap,
    ComplexSes,
    direct_sum,
    kernel_image_sequences,
    quotient_by_split_mono,
    tau_ge_map,
    tau_le_map,
    truncate_le,
    truncation_splitting,
    two_term,
)
from koszulkit.errors import HypothesisNotMetError, InvalidInputError
from koszulkit.generators import (
    GenParams,
    gen_a_object,
    gen_admissible_mono,
    gen_c_object,
    gen_chain_map,
    gen_idempotent,
    gen_koszul,
    gen_ses_of_complexes,
    trial_rng,
)
from koszulkit.koszul import cellular_factorization, kappa, resolve_in_kos1
from koszulkit.matrices import Matrix, _column_form, elementary_divisors
from koszulkit.rings import ZZ, fpx
from koszulkit.sfiltering import (
    ed_decompose,
    excision_epi,
    idempotent_split,
    image_complex,
    image_factorization,
    kernel_complex,
)
from pinning import digest


def _around(complex_: ChainComplex) -> range:
    """Every degree of the complex and one on each side."""
    degrees = complex_.degree_range()
    return range(degrees.start - 1, degrees.stop + 1)


def _verdicts(seq: ComplexSes, n: int):
    try:
        return list(kernel_image_sequences(seq, n))
    except HypothesisNotMetError:
        return None


def _results(bundle):
    """The fields of ``bundle`` but its input ``map``: the pin covers what
    a construction returns, not what it was given."""
    names = [name for name in bundle._fields if name != "map"]
    return namedtuple(type(bundle).__name__, names)(*[getattr(bundle, name) for name in names])


# The bundles laid out as the records the pin was taken from: the
# truncation sequence as its four maps and complexes, the law of a kappa
# result as the two flags that held it, the cellular retractions as the
# transposes of the stages, and the excision decomposition as that of the
# quotient by the mono with the retractions the certificate was given.
_Triple = namedtuple("TruncationTriple", "upper lower incl proj")
_Splitting = namedtuple("TruncationSplitting", "triple u v")
_Kappa = namedtuple("KappaResult", "kos u v u_is_quasi_iso v_is_quasi_iso")
_Cellular = namedtuple("CellularFactorization", "stages retractions subquotients spherical_degrees final")
_Excision = namedtuple("ExcisionCertificate",
                       "mono retraction0 target q sections kernel kernel_inclusion decomposition")


def _splitting(bundle):
    seq = bundle.triple
    return _Splitting(_Triple(seq.left, seq.right, seq.mono, seq.epi), bundle.u, bundle.v)


def _kappa(bundle):
    return _Kappa(bundle.kos, bundle.u, bundle.v, True, True)


def _cellular(bundle):
    retractions = tuple({k: stage.at(k).transpose() for k in stage.source.ranks} for stage in bundle.stages)
    return _Cellular(bundle.stages, retractions, bundle.subquotients, bundle.spherical_degrees, bundle.final)


def _excision(bundle, retractions):
    quotient = quotient_by_split_mono(bundle.mono, retractions)[0]
    return _Excision(bundle.mono, bundle.retraction0, bundle.target, bundle.q, bundle.sections, bundle.kernel,
                     bundle.kernel_inclusion, ed_decompose(quotient))


def _outputs(params: GenParams, trial: int) -> dict:
    """Every subcomplex and induced-map construction on the instances of
    one trial, as the property suites draw them."""
    out = {}
    a_object = gen_a_object(params, trial).complex
    out["truncation_splitting"] = [_splitting(truncation_splitting(a_object, n)) for n in _around(a_object)]

    seq = gen_ses_of_complexes(params, trial, acyclic_side="none").sequence
    out["tau_maps"] = [[tau_ge_map(f, k), tau_le_map(f, k)]
                       for f in (seq.mono, seq.epi) for k in _around(seq.middle)]

    rng = trial_rng(params, trial)
    out["kappa"] = [_kappa(kappa(gen_a_object(params, trial, spherical=0, window_bottom=-1, rng=rng).complex)),
                    _kappa(kappa(gen_koszul(params, trial, rng=rng).complex))]

    rng = trial_rng(params, trial)
    source = gen_a_object(params, trial, rng=rng).complex
    target = gen_a_object(params, trial, rng=rng).complex
    f = gen_chain_map(rng, source, target, bound=2, terms=1)
    out["cellular_factorization"] = _cellular(cellular_factorization(f))

    sides = [gen_ses_of_complexes(params, trial, acyclic_side=side).sequence for side in ("left", "right")]
    out["kernel_image_sequences"] = [[_verdicts(ses, n) for n in _around(ses.middle)] for ses in sides]

    mono_sample = gen_admissible_mono(params, trial).sequence
    out["excision_epi"] = _excision(excision_epi(mono_sample.mono, mono_sample.retractions),
                                    mono_sample.retractions)
    out["quotient_by_split_mono"] = quotient_by_split_mono(mono_sample.mono)

    rng = trial_rng(params, trial)
    acyclic = gen_koszul(params, trial, acyclic=True, rng=rng).complex
    f = gen_chain_map(rng, acyclic, gen_koszul(params, trial, rng=rng).complex, bound=2, terms=1)
    out["image_complex"] = image_complex(f)
    out["kernel_complex"] = kernel_complex(f)
    out["image_factorization"] = _results(image_factorization(f))
    out["idempotent_split"] = idempotent_split(gen_idempotent(params, trial)[1])

    out["resolve_in_kos1"] = resolve_in_kos1(gen_c_object(params, trial).object)
    return out


# SHA-256 of the value-only JSON of ``_outputs`` over the instances
# below.  A change to a construction's result or its witnesses moves the
# hash.
PINNED = "3dfd74f3dbf57e5d9cd377222eca5e2c2832dd4efe4d674ea53e4e4ec2ad6e47"


def test_constructions_are_pinned(cpu_time_limit, call_log):
    elementary_divisors.cache_clear()
    _column_form.cache_clear()
    eliminations = call_log(matrices, "_echelon")
    with cpu_time_limit(5):
        outputs = [_outputs(GenParams(ring=ring, seed=seed, max_entry=bound), trial)
                   for ring, bound in ((ZZ, 9), (fpx(2), 3), (fpx(3), 3))
                   for seed, trial in ((0, 0), (0, 1), (1, 0), (1, 1))]
    assert digest(outputs) == PINNED
    # 2 090 from empty caches: one elimination per cache miss.  Without
    # the ``_column_form`` cache there are about 6 900.
    assert len(eliminations) <= 2600


# ---------------------------------------------------------------------------
# The two helpers.


def _column(*entries):
    return Matrix(ZZ, [[x] for x in entries])


TWO_TERM = ChainComplex(ZZ, {2: 1, 1: 2, 0: 1}, {2: _column(1, 0), 1: Matrix(ZZ, [[0, 3]])})


def test_whole_module_is_the_identity_without_a_solve(monkeypatch):
    monkeypatch.setattr(complexes, "solve", None)
    d = TWO_TERM.d(1)
    assert complexes._restrict(d) is d
    sub, incl = complexes._subcomplex(TWO_TERM, dict.fromkeys(TWO_TERM.ranks))
    assert sub == TWO_TERM
    assert incl == ChainMap.identity(TWO_TERM)


def test_restrict_solves_in_the_target_basis():
    assert complexes._restrict(Matrix(ZZ, [[2, 4]]), _column(1, 1), Matrix(ZZ, [[3]])) == Matrix(ZZ, [[2]])
    with pytest.raises(complexes.NotAComplexError):
        complexes._restrict(Matrix(ZZ, [[2, 4]]), _column(1, 0), Matrix(ZZ, [[3]]))


def test_zero_column_bases_are_dropped():
    for degrees in ((2, 1, 0), (0, 1, 2), (1, 2, 0)):
        bases = {2: Matrix.zeros(ZZ, 1, 0), 1: _column(1, 0), 0: None}
        sub, incl = complexes._subcomplex(TWO_TERM, {n: bases[n] for n in degrees})
        assert list(sub.ranks.items()) == [(0, 1), (1, 1)]
        assert list(incl.components) == [0, 1]
        assert sub.diffs == {}


def test_kernel_basis_gives_the_upper_truncation():
    sub, incl = complexes._subcomplex(TWO_TERM, {2: None, 1: _column(1, 0)})
    assert sub.d(2) == Matrix(ZZ, [[1]])
    assert incl.at(1) == _column(1, 0)
    assert sub == complexes.truncate_ge(TWO_TERM, 1)


def test_ranks_are_in_increasing_degree():
    for degrees in ((2, 1, 0), (0, 1, 2), (1, 2, 0)):
        sub, incl = complexes._subcomplex(TWO_TERM, dict.fromkeys(degrees))
        assert sub == TWO_TERM
        assert list(sub.ranks) == [0, 1, 2] and list(sub.diffs) == [1, 2]
        assert list(incl.components) == [0, 1, 2]


def test_a_basis_the_boundary_leaves_raises():
    x = ChainComplex(ZZ, {1: 1, 0: 2}, {1: _column(1, 0)})
    with pytest.raises(complexes.NotAComplexError):
        complexes._subcomplex(x, {1: None, 0: _column(0, 1)})


# ---------------------------------------------------------------------------
# What the constructions build.


def test_cellular_factorization_builds_no_lower_truncation(monkeypatch, call_log):
    calls = call_log(complexes, "_tau_le")
    monkeypatch.setattr(koszul, "_tau_le", complexes._tau_le)
    params = GenParams(ZZ, seed=8, max_rank=2, support_width=3)
    stages = 0
    for trial in range(6):
        rng = trial_rng(params, trial)
        source = gen_a_object(params, trial, rng=rng).complex
        target = gen_a_object(params, trial, rng=rng).complex
        stages += len(cellular_factorization(gen_chain_map(rng, source, target, bound=2, terms=1)).stages)
    assert stages > 0
    assert calls == []


def test_idempotent_split_checks_only_its_monos_and_iso(call_log):
    _, endo = gen_idempotent(GenParams(ZZ, seed=3), 0)
    built = call_log(ChainMap, "__init__")
    split = idempotent_split(endo)
    # The (source, target) of every checked chain map built.
    assert [args[1:3] for args in built] == [(split.image_part, endo.source), (split.complement_part, endo.source),
                                             (split.iso.source, endo.source)]


def test_lower_truncations_build_no_projection(call_log):
    f = gen_ses_of_complexes(GenParams(ZZ, seed=0), 0, acyclic_side="none").sequence.mono
    n = min(f.target.ranks)
    built = call_log(ChainMap, "__init__")
    lower = truncate_le(f.target, n)
    induced = tau_le_map(f, n)
    # One checked map, the induced one; no projection for either call.
    assert [args[1:3] for args in built] == [(induced.source, lower)]


# ---------------------------------------------------------------------------
# Split monos: every retraction is checked, and checked sequences are
# immutable.


Z_AT_0 = ChainComplex(ZZ, {0: 1}, {})


@pytest.mark.parametrize("retractions", [{0: Matrix(ZZ, [[2]])}, {}, {0: Matrix(ZZ, [[1, 0]])},
                                         {0: Matrix(fpx(2), [[(1,)]])}],
                         ids=["wrong", "missing", "misshaped", "other-ring"])
def test_quotient_by_split_mono_checks_given_retractions(retractions):
    with pytest.raises(InvalidInputError, match="stored retraction fails"):
        quotient_by_split_mono(ChainMap.identity(Z_AT_0), retractions)


@pytest.mark.parametrize("case", ["wrong", "missing"])
def test_excision_epi_checks_given_retractions_first(call_log, case):
    seq = gen_admissible_mono(GenParams(ZZ, seed=0), 1).sequence
    assert seq.left.rank(0) and seq.left.rank(1)
    if case == "wrong":
        retractions = {n: r + r for n, r in seq.retractions.items()}
    else:
        retractions = {n: r for n, r in seq.retractions.items() if n != 0}
    built = call_log(ChainMap, "__init__")
    with pytest.raises(InvalidInputError, match="stored retraction fails"):
        excision_epi(seq.mono, retractions)
    assert built == []


def test_checked_sequences_are_immutable():
    seq = gen_admissible_mono(GenParams(ZZ, seed=0), 1).sequence
    for name in ("mono", "epi", "retractions", "sections"):
        with pytest.raises(AttributeError):
            setattr(seq, name, getattr(seq, name))


Z2, Z6 = two_term(Matrix(ZZ, [[2]])), two_term(Matrix(ZZ, [[6]]))


def test_a_sequence_keeps_its_own_witnesses():
    """The caller's witness dict is not shared: changing it after the
    check leaves the sequence's witnesses as they were."""
    total = direct_sum(Z2, Z6)
    r = dict(total.projections[0].components)
    seq = ComplexSes(total.inclusions[0], total.projections[1], r)
    before = dict(seq.retractions)
    r[0] = Matrix(ZZ, [[5, 5]])
    assert seq.retractions is not r and seq.retractions == before


# Where the split side is zero at degree 1 (the source of the mono, the
# target of the epi), a witness there is a 0x1 or a 1x0 block.
SPLIT_SIDE_ZERO_AT_1 = {
    "retractions": direct_sum(Z_AT_0, Z6),  # Z >--> Z (+) [Z -6-> Z] -->> [Z -6-> Z]
    "sections": direct_sum(Z6, Z_AT_0),  # [Z -6-> Z] >--> [Z -6-> Z] (+) Z -->> Z
}
EXTRA = {
    "empty-where-the-split-side-is-zero": (1, Matrix.zeros(ZZ, 0, 1), True),
    "empty-outside-the-support": (7, Matrix.zeros(ZZ, 0, 0), True),
    "misshapen-empty-block": (1, Matrix.zeros(ZZ, 0, 2), False),
    "nonzero-outside-the-support": (7, Matrix(ZZ, [[9]]), False),
}


@pytest.mark.parametrize("degree, block, accepted", EXTRA.values(), ids=EXTRA)
@pytest.mark.parametrize("side", SPLIT_SIDE_ZERO_AT_1)
def test_a_witness_where_the_split_side_is_zero_must_be_empty(side, degree, block, accepted):
    """Only the checked degrees are stored; a witness given anywhere else
    must be the empty block of that degree's shape."""
    total = SPLIT_SIDE_ZERO_AT_1[side]
    mono, epi = total.inclusions[0], total.projections[1]
    checked = getattr(ComplexSes(mono, epi), side)
    given = dict(checked)
    given[degree] = block if side == "retractions" else block.transpose()
    if accepted:
        assert getattr(ComplexSes(mono, epi, **{side: given}), side) == checked
    else:
        with pytest.raises(InvalidInputError, match="where the split side is zero"):
            ComplexSes(mono, epi, **{side: given})


def test_an_unchecked_witness_is_refused():
    """A retraction at a degree outside every support is refused, not
    stored unchecked."""
    total = direct_sum(Z2, Z6)
    r = dict(total.projections[0].components)
    r[7] = Matrix(ZZ, [[9]])
    with pytest.raises(InvalidInputError, match="retraction at degree 7"):
        ComplexSes(total.inclusions[0], total.projections[1], r)


@pytest.mark.parametrize("degree", [0, 7], ids=["checked-degree", "other-degree"])
def test_a_witness_that_is_not_a_matrix_is_refused(degree):
    total = direct_sum(Z2, Z6)
    r = {**total.projections[0].components, degree: "not a matrix"}
    with pytest.raises(InvalidInputError):
        ComplexSes(total.inclusions[0], total.projections[1], r)
