import pytest

from koszulkit.errors import InvalidInputError
from koszulkit.fgmodules import FgModule, cokernel, length_at, module_iso
from koszulkit.matrices import Matrix
from koszulkit.rings import ZZ, fpx

F2 = fpx(2)


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


def test_length_at_tests_primality_without_factoring(wall_clock_limit):
    prime = 10 ** 24 + 7
    with wall_clock_limit(0.05):
        assert length_at(FgModule.make(ZZ, 0, [prime]), prime) == 1
    F101 = fpx(101)
    # (x^3 + x + 1)(x^3 + x + 3): two irreducible cubics, so no root in F_101
    sextic = F101.mul(F101.poly([1, 1, 0, 1]), F101.poly([3, 1, 0, 1]))
    with pytest.raises(InvalidInputError):
        length_at(FgModule.make(F101, 0, [sextic]), sextic)
