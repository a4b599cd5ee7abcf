import pytest

from koszulkit.complexes import ComplexSes, direct_sum, two_term
from koszulkit.errors import InvalidInputError
from koszulkit.fgmodules import FgModule
from koszulkit.generators import GenParams, gen_admissible_ses, gen_module_ses, gen_quasi_iso_pair
from koszulkit.k0 import (
    K0KosClass,
    K0TorsionClass,
    additivity_check,
    class_kos_isom,
    class_kos_qis,
    class_presented,
    class_torsion,
)
from koszulkit.koszul import e_functor
from koszulkit.matrices import Matrix
from koszulkit.presented import is_short_exact
from koszulkit.rings import ZZ, IntegerRing, PrimeFieldPolynomialRing, fpx
from koszulkit.suites import run_suite
from constructions import presented_from_free, torsion_class

PARAMS = GenParams(ring=ZZ, seed=21)
Z6 = two_term(Matrix(ZZ, [[6]]))


def test_class_torsion_examples():
    assert class_torsion(FgModule.make(ZZ, 0, [12])).as_dict() == {2: 2, 3: 1}
    assert class_torsion(FgModule.make(ZZ, 0, [])).counts == ()
    assert class_torsion(FgModule.make(ZZ, 0, [2, 2])).as_dict() == {2: 2}
    with pytest.raises(InvalidInputError):
        class_torsion(FgModule.make(ZZ, 1, []))


def test_class_torsion_polynomials():
    F2 = fpx(2)
    x = F2.poly([0, 1])
    xp1 = F2.poly([1, 1])
    module = FgModule.make(F2, 0, [F2.mul(x, xp1)])
    assert class_torsion(module).as_dict() == {x: 1, xp1: 1}


def test_class_kos_qis():
    assert class_kos_qis(Z6).as_dict() == {2: 1, 3: 1}
    acyclic = two_term(Matrix(ZZ, [[1]]))
    assert class_kos_qis(acyclic).counts == ()
    padded = direct_sum(Z6, acyclic).complex
    assert class_kos_qis(padded) == class_kos_qis(Z6)


def test_class_kos_isom():
    cls = class_kos_isom(Z6)
    assert cls.rank == 1 and cls.torsion.as_dict() == {2: 1, 3: 1}
    acyclic3 = two_term(Matrix.identity(ZZ, 3))
    cls = class_kos_isom(acyclic3)
    assert cls.rank == 3 and cls.torsion.counts == ()
    both = direct_sum(Z6, acyclic3).complex
    assert class_kos_isom(both) == class_kos_isom(Z6) + class_kos_isom(acyclic3)


def test_additivity_on_split_sequences():
    total = direct_sum(Z6, two_term(Matrix(ZZ, [[2]])))
    seq = ComplexSes(total.inclusions[0], total.projections[1])
    assert additivity_check(seq, class_kos_isom)
    assert additivity_check(seq, class_kos_qis)


def test_e_functor_triple_additivity_example():
    target = presented_from_free(Z6)
    triple = e_functor(target)
    left = class_presented(triple.left)
    right = class_presented(triple.right)
    middle = class_presented(triple.middle)
    assert left == K0KosClass(1, K0TorsionClass(ZZ, 1, 1))
    assert right.rank == 0 and right.torsion.as_dict() == {2: 1, 3: 1}
    assert middle == left + right
    assert additivity_check(triple, class_presented)


def test_additivity_random():
    for trial in range(40):
        sample = gen_admissible_ses(PARAMS, trial)
        assert additivity_check(sample.sequence, class_kos_isom)
        assert additivity_check(sample.sequence, class_kos_qis)


def test_torsion_module_additivity():
    for trial in range(40):
        mono, epi = gen_module_ses(PARAMS, trial, torsion_only=True)
        assert is_short_exact(mono, epi)
        left, middle, right = (class_torsion(module.canonical_form())
                               for module in (mono.source, mono.target, epi.target))
        assert middle == left + right


def test_quasi_iso_invariance():
    for trial in range(20):
        pair = gen_quasi_iso_pair(PARAMS, trial)
        assert class_kos_qis(pair.map.source) == class_kos_qis(pair.map.target)


def test_classes_add_and_compare_without_factoring(monkeypatch):
    def refuse(self, a):
        raise AssertionError("factor called")
    monkeypatch.setattr(IntegerRing, "factor", refuse)
    monkeypatch.setattr(PrimeFieldPolynomialRing, "factor", refuse)
    hard = (10**24 + 7) ** 3 * (2**61 - 1) ** 5 * 12  # rho would need about 2^30 steps
    total = direct_sum(two_term(Matrix(ZZ, [[hard]])), Z6)
    seq = ComplexSes(total.inclusions[0], total.projections[1])
    assert class_torsion(FgModule.make(ZZ, 0, [hard, 6])) == class_kos_qis(total.complex)
    assert additivity_check(seq, class_kos_isom)
    for ring in (ZZ, fpx(2)):
        for suite in ("lemma4_3", "k0_theorems"):
            assert run_suite(suite, GenParams(ring=ring, seed=3, trials=1)).ok


def test_class_arithmetic():
    a = torsion_class(ZZ, {2: 1})
    b = torsion_class(ZZ, {2: -1, 3: 2})
    assert (a + b).as_dict() == {3: 2}
    with pytest.raises(InvalidInputError):
        a + torsion_class(fpx(2), {})


@pytest.mark.parametrize("constants, degree", [((11,), 12), ((3, 6), 6)],
                         ids=["degree-12-irreducible", "two-degree-6-irreducibles"])
def test_k0_class_over_f101_is_fast(cpu_time_limit, call_log, constants, degree):
    sympy = pytest.importorskip("sympy")
    F101 = fpx(101)
    x = sympy.symbols("x")
    primes = []
    for c in constants:  # x^degree + x + c
        assert sympy.Poly(x ** degree + x + c, x, modulus=101).is_irreducible
        primes.append(F101.poly([c, 1] + [0] * (degree - 2) + [1]))
    h0 = F101.one
    for prime in primes:
        h0 = F101.mul(h0, prime)
    complex_ = two_term(Matrix(F101, [[h0]]))
    factored = call_log(PrimeFieldPolynomialRing, "factor")
    with cpu_time_limit(1.0):
        cls = class_kos_isom(complex_)
    # The class is built without factoring; reading its primes factors H0 once.
    assert factored == []
    assert cls.rank == 1 and cls.torsion.as_dict() == {prime: 1 for prime in primes}
    assert factored == [(F101, h0)]
