"""The record contract: every immutable result or value record of the
library refuses assignment, compares and hashes by value, and prints as
``Name(field=value, ...)`` in field order.

The records are NamedTuples or frozen dataclasses; the test reads the
field names of either, so it holds whichever way a record is declared.
"""

import dataclasses
import inspect

import pytest

import koszulkit
from koszulkit import (
    cli, complexes, fgmodules, generators, jsonio, k0, koszul, matrices, presented, rings, sfiltering, suites,
)
from koszulkit.complexes import (
    ChainMap,
    cone,
    direct_sum,
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
from koszulkit.k0 import class_kos_isom, class_torsion
from koszulkit.koszul import (
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
from koszulkit.presented import PresentedModule
from koszulkit.rings import ZZ
from koszulkit.sfiltering import ed_decompose, excision_epi, idempotent_split, image_factorization

PARAMS = GenParams(ring=ZZ, seed=5)
UNIT = two_term(Matrix(ZZ, [[1]]))
Z2 = two_term(Matrix(ZZ, [[2]]))
Z6 = two_term(Matrix(ZZ, [[6]]))
ZERO_INTO_Z2 = ChainMap.zero(zero_complex(ZZ), Z2)


def _idempotent():
    total = direct_sum(UNIT, UNIT)
    return total.inclusions[0].compose(total.projections[0])


# One library call per record type that returns an instance of it.
BUILDERS = {
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
}

# ``FgModule`` prints its own short form, FgModule(Z, free=1, torsion=[2]).
OWN_REPR = {"FgModule"}
# ``SuiteReport`` is a mutable accumulator, not a record.
NOT_RECORDS = {"SuiteReport"}


def field_names(record) -> tuple:
    if dataclasses.is_dataclass(record):
        return tuple(f.name for f in dataclasses.fields(record))
    return record._fields


def _is_record_type(value) -> bool:
    return inspect.isclass(value) and (dataclasses.is_dataclass(value) or hasattr(value, "_fields"))


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
    assert found - NOT_RECORDS == set(BUILDERS)


@pytest.mark.parametrize("name", BUILDERS)
def test_record_contract(name):
    record = BUILDERS[name]()
    assert type(record).__name__ == name
    names = field_names(record)
    values = {n: getattr(record, n) for n in names}
    for n in names:
        with pytest.raises(AttributeError):
            setattr(record, n, None)
    assert all(getattr(record, n) is values[n] for n in names)

    rebuilt = type(record)(**values)
    assert rebuilt is not record
    assert record == rebuilt and not record != rebuilt
    if all(_hashable(v) for v in values.values()):
        assert hash(record) == hash(rebuilt)

    if name not in OWN_REPR:
        fields = ", ".join(f"{n}={v!r}" for n, v in values.items())
        assert repr(record) == f"{name}({fields})"
