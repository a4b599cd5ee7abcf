import pytest

from koszulkit import rings
from koszulkit.complexes import homology_table, two_term
from koszulkit.errors import InvalidInputError
from koszulkit.fgmodules import FgModule, cokernel, module_iso
from koszulkit.generators import GenParams, gen_a_object, gen_koszul
from koszulkit.koszul import in_A, in_kos1
from koszulkit.matrices import Matrix, elementary_divisors
from koszulkit.rings import ZZ, IntegerRing, PrimeFieldPolynomialRing, fpx
from constructions import gen_matrix, length_at

F2 = fpx(2)


@pytest.mark.parametrize("ring", [ZZ, F2, fpx(3)], ids=["Z", "F2x", "F3x"])
def test_elimination_chains_are_taken_as_the_module(call_log, ring):
    """Cokernels and homology take the divisor chain of elimination as
    it is: no ``FgModule.make``, and the same module it would give."""
    params = GenParams(ring=ring, seed=4)
    complexes = ([gen_a_object(params, trial).complex for trial in range(5)]
                 + [gen_koszul(params, trial).complex for trial in range(5)]
                 + [two_term(gen_matrix(params, trial, max_dim=4)) for trial in range(5)])
    make = FgModule.make
    calls = call_log(FgModule, "make")
    results = []
    for X in complexes:
        in_kos1(X)
        in_A(X)
        results.append((X, homology_table(X), {n: cokernel(d) for n, d in X.diffs.items()}))
    assert calls == []
    for X, table, cokernels in results:
        chains = {n: elementary_divisors(X.d(n)) for n in X.degree_range()}
        chains[max(X.degree_range()) + 1] = ()
        for n, module in table.items():
            top = chains[n + 1]
            assert module == make(ring, X.rank(n) - len(chains[n]) - len(top), top)
        for n, module in cokernels.items():
            assert module == make(ring, X.rank(n - 1) - len(chains[n]), chains[n])


def test_cokernel_examples():
    assert cokernel(Matrix(ZZ, [[6]])) == FgModule(ZZ, 0, (6,))
    assert cokernel(Matrix.identity(ZZ, 3)) == FgModule(ZZ, 0, ())
    a = Matrix(ZZ, [[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    assert cokernel(a) == FgModule(ZZ, 1, (2,))


def test_module_iso_examples():
    assert module_iso(FgModule.make(ZZ, 0, [2, 6]), FgModule.make(ZZ, 0, [2, 6]))
    assert module_iso(FgModule.make(ZZ, 0, [12]), FgModule.make(ZZ, 0, [3, 4]))
    assert not module_iso(FgModule.make(ZZ, 1, []), FgModule.make(ZZ, 0, [2]))


def test_canonicalization():
    assert FgModule.make(ZZ, 0, [4, 6]).torsion == (2, 12)
    assert FgModule.make(ZZ, 0, [-6]).torsion == (6,)
    assert FgModule.make(ZZ, 0, [1, 1]).torsion == ()
    assert FgModule.make(ZZ, 2, []).free_rank == 2
    assert FgModule.make(ZZ, 0, [12, 18, 5]).torsion == (6, 180)
    # (x)(x+1) and (x) regroup into a chain over F2[x]
    x = F2.poly([0, 1])
    xp1 = F2.poly([1, 1])
    made = FgModule.make(F2, 0, [F2.mul(x, xp1), x])
    assert made.torsion == (x, F2.mul(x, xp1))


def test_make_rejects_zero_divisor():
    with pytest.raises(InvalidInputError):
        FgModule.make(ZZ, 0, [0])


def test_direct_sum():
    a = FgModule.make(ZZ, 0, [2])
    assert a.direct_sum(a).torsion == (2, 2)
    b = FgModule.make(ZZ, 1, [4])
    total = a.direct_sum(b)
    assert total.free_rank == 1 and total.torsion == (2, 4)


# Arguments no module operation accepts: a negative rank, two rings, a
# unit where a prime is asked for.
REFUSALS = {
    "negative-free-rank": lambda: FgModule.make(ZZ, -1, []),
    "sum-across-rings": lambda: FgModule.make(ZZ, 1, []).direct_sum(FgModule.make(F2, 1, [])),
    "iso-across-rings": lambda: module_iso(FgModule.make(ZZ, 1, []), FgModule.make(F2, 1, [])),
    "length-at-a-unit": lambda: length_at(FgModule.make(ZZ, 0, [6]), 1),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS)
def test_refusals(call):
    with pytest.raises(InvalidInputError):
        call()


def test_repr():
    assert repr(FgModule.make(ZZ, 1, [6, 2])) == "FgModule(Z, free=1, torsion=[2, 6])"


def test_length_at():
    assert length_at(FgModule.make(ZZ, 0, [4, 3]), 2) == 2
    assert length_at(FgModule.make(ZZ, 0, []), 7) == 0
    assert length_at(FgModule.make(ZZ, 0, [6]), 5) == 0
    with pytest.raises(InvalidInputError):
        length_at(FgModule.make(ZZ, 1, []), 2)
    with pytest.raises(InvalidInputError):
        length_at(FgModule.make(ZZ, 0, [6]), 6)
    with pytest.raises(InvalidInputError):
        length_at(FgModule.make(ZZ, 0, [6]), -2)


def test_length_at_polynomials():
    x = F2.poly([0, 1])
    module = FgModule.make(F2, 0, [F2.mul(x, x)])
    assert length_at(module, x) == 2


def test_length_at_tests_primality_without_factoring(cpu_time_limit, call_log):
    prime = 10 ** 24 + 7
    F101 = fpx(101)
    factored = [call_log(IntegerRing, "factor"), call_log(PrimeFieldPolynomialRing, "factor")]
    tested = call_log(rings, "is_prime")
    with cpu_time_limit(0.05):
        assert length_at(FgModule.make(ZZ, 0, [prime]), prime) == 1
    assert tested == [(prime,)]
    # (x^3 + x + 1)(x^3 + x + 3): two irreducible cubics, so no root in F_101
    sextic = F101.mul(F101.poly([1, 1, 0, 1]), F101.poly([3, 1, 0, 1]))
    with pytest.raises(InvalidInputError):
        length_at(FgModule.make(F101, 0, [sextic]), sextic)
    assert factored == [[], []]
