import pytest

from koszulkit.complexes import (
    ChainMap,
    ComplexSes,
    direct_sum,
    homology,
    is_acyclic,
    two_term,
)
from koszulkit.errors import InvalidInputError, WitnessError
from koszulkit.fgmodules import module_iso
from koszulkit.generators import (
    GenParams,
    gen_admissible_mono,
    gen_admissible_ses,
    gen_chain_map,
    gen_idempotent,
    gen_koszul,
    rand_unimodular,
    trial_rng,
)
from koszulkit.koszul import in_kos1
from koszulkit.matrices import Matrix
from koszulkit.rings import ZZ
from koszulkit.sfiltering import (
    ed_decompose,
    excision_epi,
    extension_closure_check,
    idempotent_split,
    image_factorization,
    kernel_complex,
)
from constructions import assert_refused, zero_complex

PARAMS = GenParams(ring=ZZ, seed=12)
UNIT = two_term(Matrix(ZZ, [[1]]))
Z2 = two_term(Matrix(ZZ, [[2]]))


def test_image_factorization_zero_map():
    f = ChainMap.zero(UNIT, Z2)
    factorization = image_factorization(f)
    assert not factorization.image.ranks
    assert factorization.map == f


def test_image_factorization_identity():
    f = ChainMap.identity(UNIT)
    factorization = image_factorization(f)
    assert factorization.image == UNIT
    assert factorization.epi == ChainMap.identity(UNIT)
    assert factorization.map == f


def test_image_factorization_rank_one_example():
    target = two_term(Matrix(ZZ, [[1, 0], [0, 2]]))
    f = ChainMap(UNIT, target, {1: Matrix(ZZ, [[1], [0]]), 0: Matrix(ZZ, [[1], [0]])})
    factorization = image_factorization(f)
    assert factorization.image.ranks == {1: 1, 0: 1}
    assert is_acyclic(factorization.image)
    assert factorization.mono.compose(factorization.epi) == f
    # the kernel stays in the category and is acyclic
    assert in_kos1(factorization.kernel) and is_acyclic(factorization.kernel)


def test_image_factorization_requires_acyclic_source():
    f = ChainMap.zero(Z2, Z2)
    with pytest.raises(InvalidInputError):
        image_factorization(f)


def test_image_factorization_random():
    for trial in range(15):
        rng = trial_rng(PARAMS, trial)
        source = gen_koszul(PARAMS, trial, acyclic=True, rng=rng).complex
        target = gen_koszul(PARAMS, trial, rng=rng).complex
        f = gen_chain_map(rng, source, target, terms=1)
        assert image_factorization(f).map == f


def test_extension_closure_examples():
    both = direct_sum(UNIT, two_term(Matrix(ZZ, [[-1]])))
    seq = ComplexSes(both.inclusions[0], both.projections[1])
    assert is_acyclic(seq.middle)
    assert extension_closure_check(seq)
    mixed = direct_sum(UNIT, Z2)
    seq = ComplexSes(mixed.inclusions[0], mixed.projections[1])
    assert not is_acyclic(seq.middle)
    assert extension_closure_check(seq)


def test_extension_closure_random():
    for trial in range(50):
        sample = gen_admissible_ses(PARAMS, trial)
        assert extension_closure_check(sample.sequence)


def test_ed_decompose_acyclic():
    unimod = two_term(Matrix(ZZ, [[1, 2], [0, -1]]))
    decomposition = ed_decompose(unimod)
    assert not decomposition.nonunit_part.ranks
    assert decomposition.unit_part.ranks == {1: 2, 0: 2}
    assert decomposition.iso.is_chain_iso()


def test_ed_decompose_diag_1_2():
    w = two_term(Matrix(ZZ, [[1, 0], [0, 2]]))
    decomposition = ed_decompose(w)
    assert decomposition.unit_part.ranks == {1: 1, 0: 1}
    assert decomposition.nonunit_part == Z2
    assert decomposition.iso.is_chain_iso()


def test_ed_decompose_upper_triangular():
    w = two_term(Matrix(ZZ, [[2, 1], [0, 3]]))
    decomposition = ed_decompose(w)
    assert decomposition.nonunit_divisors == (6,)
    assert decomposition.unit_part.ranks == {1: 1, 0: 1}
    assert decomposition.iso.is_chain_iso()
    assert module_iso(homology(w, 0), homology(decomposition.nonunit_part, 0))
    assert is_acyclic(decomposition.unit_part)


def test_ed_decompose_stable_under_unimodular_precomposition():
    rng = trial_rng(PARAMS, 3)
    w = two_term(Matrix(ZZ, [[4, 1], [0, 6]]))
    baseline = ed_decompose(w).nonunit_divisors
    for _ in range(5):
        u, _ = rand_unimodular(rng, ZZ, 2)
        twisted = two_term(w.d(1) * u)
        assert ed_decompose(twisted).nonunit_divisors == baseline


def test_excision_projection_case():
    # Y = X (+) W with W purely non-unit: the target collapses to X
    total = direct_sum(UNIT, Z2)
    mono = total.inclusions[0]
    cert = excision_epi(mono)
    assert cert.target == UNIT
    # q is the X-projection up to the stored retraction
    assert cert.q.compose(mono) == ChainMap.identity(UNIT)


def test_excision_pipeline_example():
    target = two_term(Matrix(ZZ, [[1, 0], [0, 2]]))
    mono = ChainMap(UNIT, target, {1: Matrix(ZZ, [[1], [0]]), 0: Matrix(ZZ, [[1], [0]])})
    cert = excision_epi(mono)
    assert cert.target == UNIT  # the quotient [Z -> 2Z] has no unit part
    # the kernel is Koszul but NOT acyclic here: it carries H0 of the ambient complex
    assert in_kos1(cert.kernel)
    assert module_iso(homology(cert.kernel, 0), homology(target, 0))
    closure = ComplexSes(cert.kernel_inclusion, cert.q)
    assert extension_closure_check(closure)


def test_excision_from_the_zero_complex():
    # The zero source has no degree-0 retraction; the target is the unit part.
    ambient = two_term(Matrix(ZZ, [[1, 0], [0, 3]]))
    cert = excision_epi(ChainMap.zero(zero_complex(ZZ), ambient))
    assert cert.target == UNIT
    assert (cert.retraction0.rows, cert.retraction0.cols) == (0, 2)
    assert in_kos1(cert.kernel)
    assert module_iso(homology(cert.kernel, 0), homology(ambient, 0))


def test_excision_random():
    for trial in range(25):
        sample = gen_admissible_mono(PARAMS, trial)
        cert = excision_epi(sample.sequence.mono, sample.sequence.retractions)
        closure = ComplexSes(cert.kernel_inclusion, cert.q)
        assert extension_closure_check(closure)
        # kernel acyclicity tracks ambient acyclicity exactly
        assert is_acyclic(cert.kernel) == is_acyclic(sample.sequence.middle)


def test_excision_requires_acyclic_source():
    total = direct_sum(Z2, UNIT)
    with pytest.raises(InvalidInputError):
        excision_epi(total.inclusions[0])


def test_idempotent_trivial_splits():
    x = direct_sum(UNIT, two_term(Matrix(ZZ, [[-1]]))).complex
    ident = ChainMap.identity(x)
    split = idempotent_split(ident)
    assert not split.complement_part.ranks and split.image_part == x
    split = idempotent_split(ChainMap.zero(x, x))
    assert not split.image_part.ranks and split.complement_part == x


def test_idempotent_conjugated_projector():
    for trial in range(10):
        x, endo = gen_idempotent(PARAMS, trial)
        split = idempotent_split(endo)
        for part in (split.image_part, split.complement_part):
            assert in_kos1(part) and is_acyclic(part)
        assert split.iso.is_chain_iso()


def test_idempotent_split_rejects_bad_input():
    x = direct_sum(UNIT, UNIT).complex
    doubled = ChainMap(x, x, {n: Matrix.identity(ZZ, x.rank(n)).scale(2) for n in x.ranks})
    with pytest.raises(InvalidInputError):
        idempotent_split(doubled)
    with pytest.raises(InvalidInputError):
        idempotent_split(ChainMap.identity(Z2))  # not acyclic


NOT_KOSZUL = two_term(Matrix.zeros(ZZ, 1, 1))

# Inputs outside the category each construction works in.
REFUSALS = {
    "image-factorization-of-non-koszul": lambda: image_factorization(ChainMap.zero(NOT_KOSZUL, Z2)),
    "ed-decompose-of-non-koszul": lambda: ed_decompose(NOT_KOSZUL),
    "ed-decompose-outside-degrees-0-and-1": lambda: ed_decompose(two_term(Matrix(ZZ, [[2]]), 2)),
    "excision-into-non-koszul": lambda: excision_epi(ChainMap.zero(zero_complex(ZZ), NOT_KOSZUL)),
    "idempotent-of-non-endomorphism": lambda: idempotent_split(ChainMap.zero(UNIT, Z2)),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS)
def test_refusals(call):
    with pytest.raises(InvalidInputError):
        call()


def test_forged_image_factorizations_do_not_verify():
    target = two_term(Matrix(ZZ, [[1, 0], [0, 2]]))
    f = ChainMap(UNIT, target, {1: Matrix(ZZ, [[1], [0]]), 0: Matrix(ZZ, [[1], [0]])})
    factorization = image_factorization(f)
    assert factorization._replace() == factorization
    forgeries = [
        {"map": ChainMap.zero(UNIT, target)},
        {"image": Z2},
        # an acyclic Koszul complex that is not the target of the epi
        {"image": direct_sum(UNIT, UNIT).complex},
        # consistent maps of the zero map through Z/2, which is not acyclic
        {"map": ChainMap.zero(UNIT, target), "image": Z2, "epi": ChainMap.zero(UNIT, Z2),
         "mono": ChainMap.zero(Z2, target)},
        {"sections": {}},
        {"kernel": Z2},
    ]
    for changes in forgeries:
        with pytest.raises(WitnessError):
            factorization._replace(**changes)


def test_forged_excision_certificates_do_not_verify():
    cert = excision_epi(direct_sum(UNIT, Z2).inclusions[0])
    assert cert._replace() == cert
    one = Matrix.identity(ZZ, 1)
    forgeries = [
        {"mono": -cert.mono},
        {"sections": {}},
        {"kernel": NOT_KOSZUL},
        # all consistent, but the target Z/2 is not acyclic
        {"mono": ChainMap.identity(Z2), "target": Z2, "q": ChainMap.identity(Z2),
         "sections": {0: one, 1: one}, "kernel": UNIT},
        # q onto a target too small to hold the source
        {"target": zero_complex(ZZ), "q": ChainMap.zero(cert.q.source, zero_complex(ZZ))},
    ]
    for changes in forgeries:
        with pytest.raises(WitnessError):
            cert._replace(**changes)


def test_forged_ed_decompositions_do_not_verify():
    decomposition = ed_decompose(two_term(Matrix(ZZ, [[2, 1], [0, 3]])))
    assert decomposition._replace() == decomposition
    iso = decomposition.iso
    doubled = ChainMap(iso.source, iso.target, {n: m.scale(2) for n, m in iso.components.items()})
    forgeries = [
        # a chain map onto the sum that is not invertible
        {"iso": doubled},
        # the parts swapped: the iso no longer lands in their sum
        {"nonunit_part": decomposition.unit_part, "unit_part": decomposition.nonunit_part},
        {"source": UNIT},
    ]
    for changes in forgeries:
        with pytest.raises(WitnessError):
            decomposition._replace(**changes)


def test_an_excision_certificate_stores_no_unchecked_field():
    """The degree-0 retraction is read off q, whose restriction to the
    mono the law checks, and no decomposition is stored."""
    cert = excision_epi(direct_sum(UNIT, Z2).inclusions[0])
    assert "retraction0" not in cert._fields and "decomposition" not in cert._fields
    assert cert.retraction0 == cert.q.at(0).take_rows(range(1))
    assert cert.retraction0 * cert.mono.at(0) == Matrix.identity(ZZ, 1)
    for field in ("retraction0", "decomposition"):
        with pytest.raises(TypeError):
            cert._replace(**{field: None})


def test_a_negated_nonunit_part_is_refused():
    """Row 0 of the iso negated in degree 0 carries the source onto the sum
    with the nonunit part [Z -(-6)-> Z], whose divisor is no canonical
    associate."""
    decomposition = ed_decompose(two_term(Matrix(ZZ, [[2, 0], [0, 3]])))
    assert decomposition.nonunit_divisors == (6,)
    iso = decomposition.iso
    flip = Matrix(ZZ, [[-1, 0], [0, 1]])
    forged = ChainMap(iso.source, direct_sum(two_term(Matrix(ZZ, [[-6]])), UNIT).complex,
                      {1: iso.at(1), 0: flip * iso.at(0)})
    assert forged.is_chain_iso()
    assert_refused(decomposition, nonunit_part=two_term(Matrix(ZZ, [[-6]])), iso=forged)


def test_a_non_diagonal_nonunit_part_is_refused():
    """[Z^2 -> Z^2] with divisors 2, 4 is a chain iso onto itself plus an
    empty unit part, but it is not the diagonal of its divisors."""
    source = two_term(Matrix(ZZ, [[2, 2], [0, 4]]))
    decomposition = ed_decompose(source)
    assert decomposition.nonunit_divisors == (2, 4)
    assert_refused(decomposition, nonunit_part=source, iso=ChainMap.identity(source))


def test_a_unit_part_that_is_not_an_identity_is_refused():
    """[Z -(-1)-> Z] is acyclic, and the identity of the source carries it
    onto the sum, but the unit part must be an identity."""
    source = two_term(Matrix(ZZ, [[-1]]))
    decomposition = ed_decompose(source)
    assert decomposition.unit_part == UNIT
    assert_refused(decomposition, unit_part=source, iso=ChainMap.identity(source))


def test_forged_idempotent_splits_do_not_verify():
    x = direct_sum(UNIT, UNIT).complex
    split = idempotent_split(ChainMap.identity(x))
    assert split._replace() == split
    doubled = ChainMap(x, x, {n: Matrix.identity(ZZ, x.rank(n)).scale(2) for n in x.ranks})
    forgeries = [
        # a chain map of the right ends that is not invertible
        {"iso": doubled},
        # ranks that do not add up to X
        {"complement_part": UNIT},
    ]
    for changes in forgeries:
        with pytest.raises(WitnessError):
            split._replace(**changes)


def test_kernel_complex():
    f = ChainMap.zero(Z2, Z2)
    kernel, incl = kernel_complex(f)
    assert kernel == Z2
    assert incl == ChainMap.identity(Z2)
