"""The record contract: every immutable result or value record of the
library refuses assignment, compares and hashes by value, and prints as
``Name(field=value, ...)`` in field order, and a copy, a deep copy or a
pickle round trip of it is an equal value.

The records are NamedTuples or values that check themselves (subclasses
of ``matrices._Checked``, which ``complexes`` imports); both list their field names in ``_fields``.
Value semantics hold for copies built separately from equal inputs, not
only for copies built from the very same field objects.  A checked value
holds its degree tables as read-only tables, which refuse item
assignment, deletion, a second ``__init__`` and the dict methods that
change a dict, so every checked value can be hashed.  The ten result
bundles (``SnfCertificate``, ``SmithDecomposition``,
``TruncationSplitting``, ``KappaResult``, ``FactorStep``,
``CellularFactorization``, ``ImageFactorization``, ``EdDecomposition``,
``ExcisionCertificate`` and ``IdempotentSplit``) are checked values: each checks its law when it is built, also when ``_replace``, a copy or
a pickle builds it again, and their witness tables
(``ImageFactorization.sections`` and ``ExcisionCertificate.sections``)
are such tables too.  The
generator samples hold tuples and read-only tables
(``AObjectSample.homology_divisors``).  Only one record holds a plain
container and cannot be hashed: ``SuiteReport`` (``failures``).
"""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import koszulkit
from koszulkit import (
    cli, complexes, fgmodules, generators, jsonio, k0, koszul, matrices, presented, rings, sfiltering, suites,
)
from koszulkit.complexes import (
    ChainMap,
    ComplexSes,
    cone,
    direct_sum,
    homotopy_between,
    smith_decomposition,
    structure_maps,
    truncation_splitting,
    two_term,
)
from koszulkit.fgmodules import FgModule
from koszulkit.generators import (
    GenParams,
    gen_a_object,
    gen_admissible_ses,
    gen_c_object,
    gen_koszul,
    gen_quasi_iso_pair,
    gen_ses_morphism,
    gen_three_by_three,
)
from koszulkit.jsonio import chain_map_from_json, complex_from_json, presented_koszul_from_json, value_to_json
from koszulkit.k0 import class_kos_isom, class_torsion
from koszulkit.koszul import (
    cellular_factorization,
    e_functor,
    factor_step,
    h0_augmentation,
    in_kos1,
    kappa,
    resolve_in_kos1,
    retraction_q,
)
from koszulkit.matrices import Matrix, snf
from koszulkit.presented import PresentedMap, PresentedModule
from koszulkit.rings import ZZ, fpx
from koszulkit.sfiltering import ed_decompose, excision_epi, idempotent_split, image_factorization
from koszulkit.suites import run_suite
from constructions import presented_from_free, zero_complex

PARAMS = GenParams(ring=ZZ, seed=5)
UNIT = two_term(Matrix(ZZ, [[1]]))
Z2 = two_term(Matrix(ZZ, [[2]]))
Z6 = two_term(Matrix(ZZ, [[6]]))
ZERO_INTO_Z2 = ChainMap.zero(zero_complex(ZZ), Z2)


def _idempotent():
    total = direct_sum(UNIT, UNIT)
    return total.inclusions[0].compose(total.projections[0])


def _split_sequence():
    """Z2 >--> Z2 (+) Z6 -->> Z6."""
    total = direct_sum(Z2, Z6)
    return ComplexSes(total.inclusions[0], total.projections[1])


def _homotopy():
    """A homotopy from the identity of a cone to zero, solved."""
    c = cone(ChainMap.identity(Z2)).complex
    return homotopy_between(ChainMap.identity(c), ChainMap.zero(c, c))


# One library call per record type that returns an instance of it.
BUILDERS = {
    "ChainComplex": lambda: two_term(Matrix(ZZ, [[2, 0], [1, 3]])),
    "ChainMap": lambda: ChainMap(Z2, Z6, {1: Matrix(ZZ, [[1]]), 0: Matrix(ZZ, [[3]])}),
    "Homotopy": _homotopy,
    "ComplexSes": _split_sequence,
    "PresentedMap": lambda: PresentedMap(PresentedModule.cyclic(ZZ, 6), PresentedModule.cyclic(ZZ, 3),
                                         Matrix(ZZ, [[1]])),
    "SnfCertificate": lambda: snf(Matrix(ZZ, [[2, 4], [6, 8]])),
    "FgModule": lambda: FgModule.make(ZZ, 1, (4, 6)),
    "PresentedModule": lambda: PresentedModule.cyclic(ZZ, 6),
    "Cone": lambda: cone(ChainMap.identity(Z2)),
    "StructureMaps": lambda: structure_maps(ChainMap.identity(Z2)),
    "DirectSum": lambda: direct_sum(Z2, Z6),
    "TruncationSplitting": lambda: truncation_splitting(Z6, 0),
    "Kos1Membership": lambda: in_kos1(Z6),
    "Augmentation": lambda: h0_augmentation(Z6),
    "KappaResult": lambda: kappa(Z6),
    "FactorStep": lambda: factor_step(ZERO_INTO_Z2, -1),
    "CellularFactorization": lambda: cellular_factorization(ZERO_INTO_Z2),
    "PresentedKoszul": lambda: presented_from_free(Z6),
    "PresentedKoszulMap": lambda: e_functor(presented_from_free(Z6)).mono,
    "PresentedSes": lambda: e_functor(presented_from_free(Z6)),
    "Resolution": lambda: resolve_in_kos1(presented_from_free(Z6)),
    "AcyclicRetract": lambda: retraction_q(Z6),
    "ImageFactorization": lambda: image_factorization(ChainMap.identity(UNIT)),
    "EdDecomposition": lambda: ed_decompose(two_term(Matrix(ZZ, [[2, 4], [6, 8]]))),
    "SmithDecomposition": lambda: smith_decomposition(cone(ChainMap.identity(Z6)).complex),
    "ExcisionCertificate": lambda: excision_epi(direct_sum(UNIT, Z2).inclusions[0]),
    "IdempotentSplit": lambda: idempotent_split(_idempotent()),
    "K0TorsionClass": lambda: class_torsion(FgModule.make(ZZ, 0, (2, 12))),
    "K0KosClass": lambda: class_kos_isom(Z6),
    "GenParams": lambda: GenParams(ring=ZZ, seed=7, max_rank=2),
    "KoszulSample": lambda: gen_koszul(PARAMS, 0),
    "AObjectSample": lambda: gen_a_object(PARAMS, 0),
    "SesSample": lambda: gen_admissible_ses(PARAMS, 0),
    "QuasiIsoPair": lambda: gen_quasi_iso_pair(PARAMS, 0),
    "CObjectSample": lambda: gen_c_object(PARAMS, 0),
    "SesMorphism": lambda: gen_ses_morphism(PARAMS, 0),
    "ThreeByThree": lambda: gen_three_by_three(PARAMS, 0),
    "SuiteReport": lambda: run_suite("cor3_8", GenParams(ring=ZZ, seed=0, trials=1)),
}

# These print their own short forms: FgModule(Z, free=1, torsion=[2]),
# ChainComplex(Z, ranks={0: 1, 1: 1}) and ChainMap(degrees=[0, 1]).
OWN_REPR = {"FgModule", "ChainComplex", "ChainMap"}


def _is_record_type(value) -> bool:
    return inspect.isclass(value) and bool(getattr(value, "_fields", ()))


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


MODULES = (koszulkit, cli, complexes, fgmodules, generators, jsonio, k0, koszul, matrices, presented, rings,
           sfiltering, suites)
CHECKED = sorted({name for module in MODULES for name, value in vars(module).items()
                  if inspect.isclass(value) and issubclass(value, complexes._Checked)
                  and value is not complexes._Checked})


def test_every_record_type_is_covered():
    found = {name for module in MODULES for name, value in vars(module).items()
             if _is_record_type(value) and value.__module__.startswith("koszulkit")}
    assert found == set(BUILDERS)
    assert set(CHECKED) < found


@pytest.mark.parametrize("name", BUILDERS)
def test_record_contract(name):
    record = BUILDERS[name]()
    assert type(record).__name__ == name
    names = record._fields
    values = {n: getattr(record, n) for n in names}
    for n in names:
        with pytest.raises(AttributeError):
            setattr(record, n, None)
    assert all(getattr(record, n) is values[n] for n in names)

    rebuilt = type(record)(**values)
    assert rebuilt is not record
    twin = BUILDERS[name]()
    for other in (rebuilt, twin):
        assert record == other and not record != other
        if all(_hashable(v) for v in values.values()):
            assert hash(record) == hash(other)
        else:
            assert not _hashable(record)

    if name not in OWN_REPR:
        fields = ", ".join(f"{n}={v!r}" for n, v in values.items())
        assert repr(record) == f"{name}({fields})"

    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


def _assign(table, key):
    table[key] = None


def _delete(table, key):
    del table[key]


def _merge(table, key):
    table |= {key: None}


# Every way to change a dict in place, each given the table and one of its keys.
MUTATIONS = {
    "assign": _assign,
    "del": _delete,
    "update": lambda table, key: table.update({key: None}),
    "clear": lambda table, key: table.clear(),
    "pop": lambda table, key: table.pop(key),
    "popitem": lambda table, key: table.popitem(),
    "setdefault": lambda table, key: table.setdefault(key, None),
    "merge": _merge,
    "__init__": lambda table, key: table.__init__({key: None, 7: None}),
}


def _assert_read_only(table):
    """Every mutation of ``MUTATIONS`` raises and leaves ``table`` as it was."""
    before = list(table.items())
    assert before, "an empty table would not show a refused pop or del"
    for mutate in MUTATIONS.values():
        with pytest.raises(TypeError):
            mutate(table, before[0][0])
    assert list(table.items()) == before


@pytest.mark.parametrize("name", CHECKED)
def test_checked_tables_refuse_every_change(name):
    """Each mapping field of a checked value is a read-only table: every
    mutation of ``MUTATIONS`` raises and leaves it as it was.  Every
    checked value hashes, and twins built separately hash equal."""
    record = BUILDERS[name]()
    tables = {n: getattr(record, n) for n in record._fields if isinstance(getattr(record, n), dict)}
    assert bool(tables) == (name in {"ChainComplex", "ChainMap", "Homotopy", "ComplexSes",
                                     "ImageFactorization", "ExcisionCertificate", "SmithDecomposition"})
    for table in tables.values():
        _assert_read_only(table)
    assert hash(record) == hash(BUILDERS[name]())


# The result bundles, which check their law in their constructor.
BUNDLES = ["CellularFactorization", "EdDecomposition", "ExcisionCertificate", "FactorStep", "IdempotentSplit",
           "ImageFactorization", "KappaResult", "SmithDecomposition", "SnfCertificate", "TruncationSplitting"]


def test_every_witness_bundle_is_a_checked_value():
    assert set(BUNDLES) < set(CHECKED)


@pytest.mark.parametrize("name", CHECKED)
def test_checked_replace_builds_an_equal_checked_value(name):
    """``_replace`` runs the constructor again: with no change, or with a
    field set to an equal value built separately, it gives an equal value
    of the same type."""
    record, twin = BUILDERS[name](), BUILDERS[name]()
    for changes in ({}, {record._fields[0]: getattr(twin, twin._fields[0])}):
        again = record._replace(**changes)
        assert type(again) is type(record) and again is not record and again == record


# The witness table of each result bundle that holds one, nonempty.
WITNESS_TABLES = {
    "ImageFactorization": lambda: BUILDERS["ImageFactorization"]().sections,
    "ExcisionCertificate": lambda: BUILDERS["ExcisionCertificate"]().sections,
}


@pytest.mark.parametrize("name", WITNESS_TABLES)
def test_bundle_witness_tables_refuse_every_change(name):
    _assert_read_only(WITNESS_TABLES[name]())


def test_a_checked_differential_cannot_be_replaced():
    """Swapping a differential after the d.d check raises and leaves the
    complex as it was."""
    c = two_term(Matrix(ZZ, [[2]]))
    with pytest.raises(TypeError):
        c.diffs[1] = Matrix(ZZ, [[3]])
    assert c.diffs == {1: Matrix(ZZ, [[2]])} and c == two_term(Matrix(ZZ, [[2]]))


@pytest.mark.parametrize("read, value", [
    (complex_from_json, two_term(Matrix(ZZ, [[2, 0], [1, 3]]))),
    (chain_map_from_json, ChainMap(Z2, Z6, {1: Matrix(ZZ, [[1]]), 0: Matrix(ZZ, [[3]])})),
    (presented_koszul_from_json, presented_from_free(Z6)),
], ids=["complex", "chain-map", "presented-koszul"])
def test_parsed_copies_are_equal(read, value):
    data = value_to_json(value)
    first, second = read(data), read(data)
    assert first is not second
    assert first == second == value
    assert hash(first) == hash(second) == hash(value)


class _Left(complexes._Checked):
    __slots__ = ("value",)

    def __init__(self, value):
        self._store(value)


class _Right(complexes._Checked):
    __slots__ = ("value",)

    def __init__(self, value):
        self._store(value)


def test_checked_values_equal_only_their_own_type():
    left, right = _Left(Z2), _Right(Z2)
    assert left._values() == right._values()
    assert left != right and right != left
    assert left == _Left(Z2)
    seq = _split_sequence()
    assert seq != seq._values()


def test_checked_values_copy_and_pickle():
    """A copy equals the value, and its ring is the very same object."""
    for ring in (ZZ, fpx(2), fpx(3)):
        params = GenParams(ring=ring, seed=7, max_rank=2)
        for clone in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            assert clone == params and clone.ring is ring


def test_import_loads_no_dataclass_machinery():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, koszulkit; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]
