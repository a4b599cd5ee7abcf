"""Exact chain-complex calculator over principal ideal domains.

Coefficients are exact (integers or polynomials over a prime field);
every construction either verifies at build time or returns an
independently checkable certificate.  Public constructors of complexes,
chain maps, homotopies and presented maps always check their law;
internal constructions whose law follows from verified inputs by block
algebra (shifts, cones, cylinders, direct sums, composites) skip it.
"""

from .errors import (
    DimensionError,
    DomainMismatchError,
    HypothesisNotMetError,
    InvalidInputError,
    KoszulkitError,
    NotAComplexError,
    NotFactorableError,
)
from .rings import ZZ, Ring, fpx, ring_from_token
from .matrices import (
    Matrix,
    SnfCertificate,
    det,
    elementary_divisors,
    image_basis,
    inverse,
    is_exact_at,
    is_unimodular,
    kernel_basis,
    rank,
    snf,
    solve,
)
from .fgmodules import FgModule, cokernel, module_iso
from .presented import (
    PresentedMap,
    PresentedModule,
    SesMorphism,
    ThreeByThree,
    cobase_change_check,
    is_short_exact,
    nine_term_sequences,
    pullback,
    pushout,
)
from .complexes import (
    ChainComplex,
    ChainMap,
    ComplexSes,
    Homotopy,
    SmithDecomposition,
    cone,
    cylinder,
    cyl_functorial,
    direct_sum,
    homology,
    homology_table,
    homotopy_between,
    is_acyclic,
    kernel_image_sequences,
    nullhomotopy,
    quasi_iso_degree,
    shift,
    smith_decomposition,
    structure_maps,
    truncate_ge,
    truncate_le,
    truncation_splitting,
    truncation_triple,
    two_term,
)
from .koszul import (
    PresentedKoszul,
    cellular_factorization,
    e_functor,
    factor_step,
    h0,
    h0_augmentation,
    in_A,
    in_A_n,
    in_kos1,
    kappa,
    resolve_in_kos1,
    retraction_q,
)
from .sfiltering import (
    EdDecomposition,
    ExcisionCertificate,
    ed_decompose,
    excision_epi,
    extension_closure_check,
    idempotent_split,
    image_factorization,
)
from .k0 import (
    K0KosClass,
    K0TorsionClass,
    additivity_check,
    class_kos_isom,
    class_kos_qis,
    class_torsion,
)
from .generators import GenParams
from .suites import SUITES, SuiteReport, run_suite
