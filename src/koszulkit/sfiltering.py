"""Excision machinery for the acyclic subcategory of Koszul complexes.

Images and kernels of maps between Koszul complexes stay inside the
category; a Koszul complex decomposes by elementary divisors into an
identity-boundary part and a diagonal non-unit part; and for every
degreewise split mono out of an acyclic complex there is an explicit
epimorphism under which the mono becomes a split inclusion into an
acyclic complex.  Every construction returns a bundle that checks the
law its docstring states once, when it is built (``complexes._Checked``);
the elementary-divisor decomposition is read off a checked
``complexes.SmithDecomposition``, which proves that law already, and
reads the decomposed complex off its iso rather than storing it.
"""

from __future__ import annotations

from typing import Optional

from .complexes import (
    ChainComplex,
    ChainMap,
    ComplexSes,
    is_acyclic,
    smith_decomposition,
    two_term,
    _Checked,
    _restrict,
    _split_quotient,
    _splitting,
    _subcomplex,
    _sum_layout,
    _witness,
)
from .errors import InvalidInputError, NotAComplexError, WitnessError
from .koszul import in_kos1
from .matrices import (
    Matrix,
    _divisor_chain,
    _selection,
    hstack,
    image_basis,
    kernel_basis,
    vstack,
)


# ---------------------------------------------------------------------------
# Images and kernels of chain maps, as subcomplexes.


def image_complex(f: ChainMap):
    """Image subcomplex with its epi from the source and mono into the target."""
    image, mono = _image(f)
    epi = ChainMap(f.source, image, {n: _restrict(f.at(n), target=mono.at(n)) for n in image.ranks})
    return image, epi, mono


def _image(f: ChainMap):
    """The image subcomplex of f and its mono, without the epi."""
    return _subcomplex(f.target, {n: image_basis(f.at(n)) for n in f.target.ranks})


def kernel_complex(f: ChainMap):
    """Kernel subcomplex with its basis inclusion into the source."""
    return _subcomplex(f.source, {n: kernel_basis(f.at(n)) for n in f.source.ranks})


def _proved(sequence: ComplexSes) -> ComplexSes:
    """``sequence`` proved by the ``ComplexSes`` constructor; a failure is a ``WitnessError``."""
    try:
        return ComplexSes(*sequence._values())
    except (InvalidInputError, NotAComplexError) as error:
        raise WitnessError(f"kernel sequence fails: {error}") from None


class ImageFactorization(_Checked):
    """Acyclic image factorization of a map out of an acyclic Koszul complex.

    ``sequence`` is 0 -> kernel -> source -> image -> 0.  The law, checked
    at construction: ``sequence`` is short exact (``_proved``); ``mono .
    epi == map``, and ``map`` has the rank of the image in each degree
    (the columns of its image basis, a memoized elimination), so ``mono``
    is injective and the kernel is that of ``map``; and the image and the
    kernel are acyclic Koszul complexes.  Else ``WitnessError``.
    """

    __slots__ = ("map", "mono", "sequence")

    def __init__(self, map: ChainMap, mono: ChainMap, sequence: ComplexSes):
        self._store(map, mono, _proved(sequence))
        image, epi = self.sequence.right, self.sequence.epi
        if mono.source != image or mono.compose(epi) != map:
            raise WitnessError("image factorization does not compose to its map")
        if any(image_basis(map.at(n)).cols != r for n, r in image.ranks.items()):
            raise WitnessError("mono is not injective: the map has a smaller rank than the image")
        for name, part in (("image", image), ("kernel", self.sequence.left)):
            if not in_kos1(part) or not is_acyclic(part):
                raise WitnessError(f"{name} is not an acyclic Koszul complex")


def image_factorization(f: ChainMap) -> ImageFactorization:
    """Factor a map from an acyclic Koszul complex through its image.

    The image has free entries, is again a Koszul complex, is acyclic,
    and the epi onto it splits degreewise; the kernel stays in the
    category and is acyclic as well.
    """
    if not in_kos1(f.source) or not in_kos1(f.target):
        raise InvalidInputError("both ends must be free Koszul complexes")
    if not is_acyclic(f.source):
        raise InvalidInputError("source is not acyclic")
    _, epi, mono = image_complex(f)
    # The bundle's proof of the sequence solves its witnesses.
    return ImageFactorization(f, mono, ComplexSes._trusted(kernel_complex(f)[1], epi, None, None))


# ---------------------------------------------------------------------------
# Extension closure of acyclicity.


def extension_closure_check(seq: ComplexSes) -> bool:
    """Agreement of (ends acyclic) with (middle acyclic) on a sequence.

    Returns True when the two verdicts coincide; a False on validly
    generated input is a library defect.
    """
    ends = is_acyclic(seq.left) and is_acyclic(seq.right)
    return ends == is_acyclic(seq.middle)


# ---------------------------------------------------------------------------
# Elementary-divisor decomposition of a Koszul complex.


class EdDecomposition(_Checked):
    """Split a Koszul complex as (diagonal non-unit part) (+) (identity part).

    ``iso`` is an explicit chain isomorphism from the source onto the
    direct sum, built from the diagonalization transforms; the non-unit
    diagonal is the canonical divisor chain, and the identity part has
    as many columns as the boundary has unit divisors.  The law, checked
    at construction: ``nonunit_part`` is ``two_term`` of the diagonal of
    a chain of nonunit canonical associates, ``unit_part`` is ``two_term``
    of an identity, and ``iso`` is a chain isomorphism onto the direct
    sum of the two parts; else ``WitnessError``.  ``source``, the
    decomposed complex, is read as the source of ``iso``.
    ``ed_decompose`` builds it unchecked, since there the law follows from
    the checked ``SmithDecomposition`` it reads the iso and the divisors off.
    """

    __slots__ = ("nonunit_part", "unit_part", "iso")

    def __init__(self, nonunit_part: ChainComplex, unit_part: ChainComplex, iso: ChainMap):
        self._store(nonunit_part, unit_part, iso)
        ring, divisors = nonunit_part.ring, self.nonunit_divisors
        _divisor_chain(ring, divisors)
        if any(map(ring.is_unit, divisors)) or nonunit_part != two_term(Matrix.diagonal(ring, divisors)) \
                or unit_part != two_term(Matrix.identity(ring, unit_part.rank(1))):
            raise WitnessError("the parts are not the diagonal of nonunit divisors and an identity")
        if iso.target != _sum_layout((nonunit_part, unit_part)).complex or not iso.is_chain_iso():
            raise WitnessError("decomposition iso is not a chain isomorphism onto the sum of the parts")

    @property
    def source(self) -> ChainComplex:
        return self.iso.source

    @property
    def nonunit_divisors(self) -> tuple:
        d = self.nonunit_part.d(1)
        return tuple(d.entries[i][i] for i in range(min(d.rows, d.cols)))


def ed_decompose(complex_: ChainComplex) -> EdDecomposition:
    """The decomposition read off ``complexes.smith_decomposition``: the
    iso's components are P_1 and P_0 under the one permutation that puts
    the nonunit pieces first, so both laws follow from that checked
    decomposition, and the iso and the bundle are built unchecked.  Kos1
    membership (``koszul.in_kos1``) is read off the same decomposition,
    with no second elimination of d_1: the complex lies in degrees
    {0, 1}, and its pieces from 1 to 0 number rank 1 (d_1 is injective)
    and rank 0 (H_0 is torsion)."""
    if any(n not in (0, 1) for n in complex_.ranks):
        raise InvalidInputError("input is not a free Koszul complex")
    ring = complex_.ring
    smith = smith_decomposition(complex_)
    divisors = smith.divisors.get(1, ())
    if not complex_.rank(1) == len(divisors) == complex_.rank(0):
        raise InvalidInputError("input is not a free Koszul complex")
    units = [i for i, d in enumerate(divisors) if ring.is_unit(d)]
    nonunits = [i for i, d in enumerate(divisors) if not ring.is_unit(d)]
    order = nonunits + units
    perm = _selection(ring, len(order), order).transpose()
    nonunit = two_term(Matrix.diagonal(ring, [divisors[i] for i in nonunits]))
    unit = two_term(Matrix.identity(ring, len(units)))
    total = _sum_layout((nonunit, unit)).complex
    iso = ChainMap._trusted(complex_, total, {n: perm * p for n, p in smith.bases.items()})
    return EdDecomposition._trusted(nonunit, unit, iso)


# ---------------------------------------------------------------------------
# The excision epimorphism.


class ExcisionCertificate(_Checked):
    """Witnesses that a split mono from an acyclic complex excises.

    ``sequence`` is 0 -> kernel -> Y -> target -> 0, its epi q mapping Y
    onto (acyclic source) (+) (identity part of the quotient).  The law,
    checked at construction: ``sequence`` is short exact (``_proved``), so
    its mono is the kernel of q; q . mono is the split inclusion (id; 0);
    the kernel is Koszul; the target is acyclic.  Else ``WitnessError``.  So
    ``retraction0``, the top rows of q_0, retracts the mono in degree 0.
    """

    __slots__ = ("mono", "sequence")

    def __init__(self, mono: ChainMap, sequence: ComplexSes):
        self._store(mono, _proved(sequence))
        X, q, target = mono.source, self.sequence.epi, self.sequence.right
        if q.source != mono.target or any(target.rank(n) < r for n, r in X.ranks.items()):
            raise WitnessError("q does not map the mono's target onto the certificate's target")
        if q.compose(mono).components != {n: _selection(X.ring, target.rank(n), range(r)) for n, r in X.ranks.items()}:
            raise WitnessError("q does not restrict to the split inclusion of the source")
        if not in_kos1(self.sequence.left):
            raise WitnessError("kernel of q is not a Koszul complex")
        if not is_acyclic(target):
            raise WitnessError("target is not acyclic")

    @property
    def retraction0(self) -> Matrix:
        return self.sequence.epi.at(0).take_rows(range(self.mono.source.rank(0)))


def excision_epi(mono: ChainMap, retractions: Optional[dict] = None) -> ExcisionCertificate:
    """Excise a degreewise split mono from an acyclic Koszul complex.

    The quotient decomposes by elementary divisors; the target is the
    source plus the quotient's identity part.  Degree 0 of q stacks a
    retraction of the mono over the identity-part rows of the quotient
    projection, and degree 1 is forced by the chain-map law through the
    unimodular boundary of the target (applied by exact solving, never
    by fractions).  Sections of both components are assembled from a
    solved section of the quotient projection and the off-diagonal
    block correction; the certificate checks them.
    """
    X, Y = mono.source, mono.target
    ring = X.ring
    if not in_kos1(X) or not in_kos1(Y):
        raise InvalidInputError("both ends must be free Koszul complexes")
    if not is_acyclic(X):
        raise InvalidInputError("source of the mono is not acyclic")
    retractions = _splitting(mono, retractions, True)
    quotient, projs, _ = _split_quotient(mono, retractions)
    projection = ChainMap(Y, quotient, {n: m for n, m in projs.items() if quotient.rank(n)})
    decomposition = ed_decompose(quotient)
    flat = decomposition.iso.compose(projection)
    k = decomposition.nonunit_part.rank(1)
    u_count = decomposition.unit_part.rank(1)
    unit_rows = range(k, k + u_count)

    target = _sum_layout((X, decomposition.unit_part)).complex
    # A zero source has no stored retraction: it is the empty matrix.
    h = retractions.get(0, Matrix.zeros(ring, X.rank(0), Y.rank(0)))
    q0 = vstack([h, flat.at(0).take_rows(unit_rows)])
    q = ChainMap(Y, target, {0: q0, 1: _restrict(q0, Y.d(1), target.d(1))})

    pairs = []
    for degree in (0, 1):
        lam = _witness(flat.at(degree), False).take_cols(unit_rows)
        if lam.cols:  # else there is no unit part to correct
            mu = (q.at(degree) * lam).take_rows(range(X.rank(degree)))
            lam = lam - mono.at(degree) * mu
        pairs.append((degree, hstack([mono.at(degree), lam])))
    return ExcisionCertificate(mono, ComplexSes._trusted(kernel_complex(q)[1], q, None, dict(pairs)))


# ---------------------------------------------------------------------------
# Idempotent splitting in the acyclic subcategory.


class IdempotentSplit(_Checked):
    """X decomposed as (image of e) (+) (image of 1 - e).

    The law, checked at construction: ``iso`` is a chain isomorphism
    from the direct sum of the two parts onto X; else ``WitnessError``.
    """

    __slots__ = ("image_part", "complement_part", "iso")

    def __init__(self, image_part: ChainComplex, complement_part: ChainComplex, iso: ChainMap):
        self._store(image_part, complement_part, iso)
        if iso.source != _sum_layout((image_part, complement_part)).complex or not iso.is_chain_iso():
            raise WitnessError("idempotent images do not recombine to the input")


def idempotent_split(endo: ChainMap) -> IdempotentSplit:
    """Split an idempotent endomorphism of an acyclic Koszul complex.

    Both image subcomplexes have free entries and are acyclic, and the
    paired basis inclusion is an exact chain isomorphism onto the input.
    """
    if endo.source != endo.target:
        raise InvalidInputError("idempotent must be an endomorphism")
    X = endo.source
    if not in_kos1(X) or not is_acyclic(X):
        raise InvalidInputError("idempotents split inside the acyclic subcategory")
    if endo.compose(endo) != endo:
        raise InvalidInputError("endomorphism is not idempotent")
    image, image_mono = _image(endo)
    complement, complement_mono = _image(ChainMap.identity(X) - endo)
    total = _sum_layout((image, complement)).complex
    return IdempotentSplit(image, complement, ChainMap(
        total, X, {n: hstack([image_mono.at(n), complement_mono.at(n)]) for n in X.ranks}))
