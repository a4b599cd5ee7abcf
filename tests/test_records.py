"""The record contract: every immutable result or value record of the
library refuses assignment, compares and hashes by value, and prints as
``Name(field=value, ...)`` in field order.

The records are NamedTuples or values that check themselves (subclasses
of ``complexes._Checked``); both list their field names in ``_fields``.
Value semantics hold for copies built separately from equal inputs, not
only for copies built from the very same field objects, and a record
holding a dict or a list cannot be hashed.
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
    structure_maps,
    truncation_splitting,
    truncation_triple,
    two_term,
    zero_complex,
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
    AdmissibleSes,
    PresentedKoszul,
    cellular_factorization,
    e_functor,
    factor_step,
    factor_step_equivalence,
    h0_augmentation,
    in_kos1,
    kappa,
    resolve_in_kos1,
    retraction_q,
)
from koszulkit.matrices import Matrix, snf
from koszulkit.presented import PresentedMap, PresentedModule
from koszulkit.rings import ZZ
from koszulkit.sfiltering import ed_decompose, excision_epi, idempotent_split, image_factorization
from koszulkit.suites import run_suite

PARAMS = GenParams(ring=ZZ, seed=5)
UNIT = two_term(Matrix(ZZ, [[1]]))
Z2 = two_term(Matrix(ZZ, [[2]]))
Z6 = two_term(Matrix(ZZ, [[6]]))
ZERO_INTO_Z2 = ChainMap.zero(zero_complex(ZZ), Z2)


def _idempotent():
    total = direct_sum(UNIT, UNIT)
    return total.inclusions[0].compose(total.projections[0])


def _split_sequence(kind):
    """Z2 >--> Z2 (+) Z6 -->> Z6 as a ``kind`` of sequence."""
    total = direct_sum(Z2, Z6)
    return kind(total.inclusions[0], total.projections[1])


def _homotopy():
    """A homotopy from the identity of a cone to zero, solved."""
    c = cone(ChainMap.identity(Z2)).complex
    return homotopy_between(ChainMap.identity(c), ChainMap.zero(c, c))


# One library call per record type that returns an instance of it.
BUILDERS = {
    "ChainComplex": lambda: two_term(Matrix(ZZ, [[2, 0], [1, 3]])),
    "ChainMap": lambda: ChainMap(Z2, Z6, {1: Matrix(ZZ, [[1]]), 0: Matrix(ZZ, [[3]])}),
    "Homotopy": _homotopy,
    "ComplexSes": lambda: _split_sequence(ComplexSes),
    "AdmissibleSes": lambda: _split_sequence(AdmissibleSes),
    "PresentedMap": lambda: PresentedMap(PresentedModule.cyclic(ZZ, 6), PresentedModule.cyclic(ZZ, 3),
                                         Matrix(ZZ, [[1]])),
    "SnfCertificate": lambda: snf(Matrix(ZZ, [[2, 4], [6, 8]])),
    "FgModule": lambda: FgModule.make(ZZ, 1, (4, 6)),
    "PresentedModule": lambda: PresentedModule.cyclic(ZZ, 6),
    "Cone": lambda: cone(ChainMap.identity(Z2)),
    "StructureMaps": lambda: structure_maps(ChainMap.identity(Z2)),
    "DirectSum": lambda: direct_sum(Z2, Z6),
    "TruncationTriple": lambda: truncation_triple(Z6, 0),
    "TruncationSplitting": lambda: truncation_splitting(Z6, 0),
    "Kos1Membership": lambda: in_kos1(Z6),
    "Augmentation": lambda: h0_augmentation(Z6),
    "KappaResult": lambda: kappa(Z6),
    "FactorStep": lambda: factor_step(ZERO_INTO_Z2, -1),
    "EquivalenceWitness": lambda: factor_step_equivalence(factor_step(ZERO_INTO_Z2, -1)),
    "CellularFactorization": lambda: cellular_factorization(ZERO_INTO_Z2),
    "PresentedKoszul": lambda: PresentedKoszul.from_free(Z6),
    "PresentedKoszulMap": lambda: e_functor(PresentedKoszul.from_free(Z6)).mono,
    "PresentedSes": lambda: e_functor(PresentedKoszul.from_free(Z6)),
    "Resolution": lambda: resolve_in_kos1(PresentedKoszul.from_free(Z6)),
    "AcyclicRetract": lambda: retraction_q(Z6),
    "ImageFactorization": lambda: image_factorization(ChainMap.identity(UNIT)),
    "EdDecomposition": lambda: ed_decompose(two_term(Matrix(ZZ, [[2, 4], [6, 8]]))),
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


def test_every_record_type_is_covered():
    modules = (koszulkit, cli, complexes, fgmodules, generators, jsonio, k0, koszul, matrices, presented, rings,
               sfiltering, suites)
    found = {name for module in modules for name, value in vars(module).items()
             if _is_record_type(value) and value.__module__.startswith("koszulkit")}
    assert found == set(BUILDERS)


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


@pytest.mark.parametrize("read, value", [
    (complex_from_json, two_term(Matrix(ZZ, [[2, 0], [1, 3]]))),
    (chain_map_from_json, ChainMap(Z2, Z6, {1: Matrix(ZZ, [[1]]), 0: Matrix(ZZ, [[3]])})),
    (presented_koszul_from_json, PresentedKoszul.from_free(Z6)),
], ids=["complex", "chain-map", "presented-koszul"])
def test_parsed_copies_are_equal(read, value):
    data = value_to_json(value)
    first, second = read(data), read(data)
    assert first is not second
    assert first == second == value
    if _hashable(first):
        assert hash(first) == hash(second) == hash(value)


def test_checked_values_equal_only_their_own_type():
    plain, admissible = _split_sequence(ComplexSes), _split_sequence(AdmissibleSes)
    assert (plain.mono, plain.epi) == (admissible.mono, admissible.epi)
    assert plain != admissible and admissible != plain
    assert plain != (plain.mono, plain.epi)


def test_checked_values_copy_and_pickle():
    params = BUILDERS["GenParams"]()
    assert copy.copy(params) == copy.deepcopy(params) == pickle.loads(pickle.dumps(params)) == params


def test_import_loads_no_dataclass_machinery():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, koszulkit; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]
