"""Excision machinery for the acyclic subcategory of Koszul complexes.

Images and kernels of maps between Koszul complexes stay inside the
category; a Koszul complex decomposes by elementary divisors into an
identity-boundary part and a diagonal non-unit part; and for every
degreewise split mono out of an acyclic complex there is an explicit
epimorphism under which the mono becomes a split inclusion into an
acyclic complex.  Every construction returns a certificate whose pieces
re-verify independently.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .complexes import (
    ChainComplex,
    ChainMap,
    ComplexSes,
    direct_sum,
    is_acyclic,
    two_term,
    _restrict,
    _split_quotient,
    _splitting,
    _subcomplex,
    _sum_layout,
    _table,
)
from .errors import InvalidInputError
from .koszul import in_kos1
from .matrices import (
    Matrix,
    _selection,
    hstack,
    image_basis,
    inverse,
    kernel_basis,
    snf,
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


class ImageFactorization(NamedTuple):
    """Acyclic image factorization of a map out of an acyclic Koszul complex."""

    image: ChainComplex
    epi: ChainMap
    mono: ChainMap
    sections: dict
    kernel: ChainComplex
    kernel_inclusion: ChainMap

    def verifies(self, f: ChainMap) -> bool:
        if self.epi.target != self.image or self.mono.compose(self.epi) != f:
            return False
        if not in_kos1(self.image) or not is_acyclic(self.image):
            return False
        try:
            _splitting(self.epi, self.sections, False)
        except InvalidInputError:
            return False
        return bool(in_kos1(self.kernel)) and is_acyclic(self.kernel)


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
    image, epi, mono = image_complex(f)
    sections = _splitting(epi, None, False)
    kernel, incl = kernel_complex(f)
    return ImageFactorization(image, epi, mono, sections, kernel, incl)


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


class EdDecomposition(NamedTuple):
    """Split a Koszul complex as (diagonal non-unit part) (+) (identity part).

    ``iso`` is an explicit chain isomorphism from the source onto the
    direct sum, built from the diagonalization transforms; the non-unit
    diagonal is the canonical divisor chain, and the identity part has
    as many columns as the boundary has unit divisors.
    """

    source: ChainComplex
    nonunit_part: ChainComplex
    unit_part: ChainComplex
    iso: ChainMap

    @property
    def nonunit_divisors(self) -> tuple:
        return tuple(self.nonunit_part.d(1).entries[i][i] for i in range(self.nonunit_part.rank(1)))


def ed_decompose(complex_: ChainComplex) -> EdDecomposition:
    if not in_kos1(complex_):
        raise InvalidInputError("input is not a free Koszul complex")
    ring = complex_.ring
    cert = snf(complex_.d(1))
    units = [i for i, d in enumerate(cert.divisors) if ring.is_unit(d)]
    nonunits = [i for i, d in enumerate(cert.divisors) if not ring.is_unit(d)]
    order = nonunits + units
    perm = _selection(ring, len(order), order).transpose()
    phi1 = perm * inverse(cert.V)
    phi0 = perm * cert.U
    nonunit = two_term(Matrix.diagonal(ring, [cert.divisors[i] for i in nonunits]))
    unit = two_term(Matrix.identity(ring, len(units)))
    total = _sum_layout((nonunit, unit)).complex
    iso = ChainMap(complex_, total, {1: phi1, 0: phi0})
    if not iso.is_chain_iso():
        raise AssertionError("decomposition transforms are not invertible")
    return EdDecomposition(complex_, nonunit, unit, iso)


# ---------------------------------------------------------------------------
# The excision epimorphism.


class ExcisionCertificate(NamedTuple):
    """Witnesses that a split mono from an acyclic complex excises.

    ``q`` maps the ambient complex onto (acyclic source) (+) (identity
    part of the quotient); composing with the mono gives the split
    inclusion (id; 0), both components of q admit verified sections,
    and the kernel of q is a Koszul complex.
    """

    mono: ChainMap
    retraction0: Matrix
    target: ChainComplex
    q: ChainMap
    sections: dict
    kernel: ChainComplex
    kernel_inclusion: ChainMap
    decomposition: EdDecomposition

    def verifies(self) -> bool:
        ring = self.mono.source.ring
        X = self.mono.source
        Z = self.target
        incl = ChainMap(X, Z, {n: _selection(ring, Z.rank(n), range(r)) for n, r in X.ranks.items()})
        if self.q.compose(self.mono) != incl:
            return False
        try:
            _splitting(self.q, self.sections, False)
        except InvalidInputError:
            return False
        if not in_kos1(self.kernel):
            return False
        if not is_acyclic(Z):
            return False
        return True


def excision_epi(mono: ChainMap, retractions: Optional[dict] = None) -> ExcisionCertificate:
    """Excise a degreewise split mono from an acyclic Koszul complex.

    The quotient decomposes by elementary divisors; the target is the
    source plus the quotient's identity part.  Degree 0 of q stacks a
    retraction of the mono over the identity-part rows of the quotient
    projection, and degree 1 is forced by the chain-map law through the
    unimodular boundary of the target (applied by exact solving, never
    by fractions).  Sections of both components are assembled from a
    solved section of the quotient projection and the off-diagonal
    block correction, then verified entrywise.
    """
    X, Y = mono.source, mono.target
    ring = X.ring
    if not in_kos1(X) or not in_kos1(Y):
        raise InvalidInputError("both ends must be free Koszul complexes")
    if not is_acyclic(X):
        raise InvalidInputError("source of the mono is not acyclic")
    retractions = _splitting(mono, retractions, True)
    quotient, projs = _split_quotient(mono, retractions)
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

    flat_sections = _splitting(flat, None, False)
    pairs = []
    for degree in (0, 1):
        lam = flat_sections.get(degree, Matrix.zeros(ring, Y.rank(degree), 0)).take_cols(unit_rows)
        if lam.cols:  # else there is no unit part to correct
            mu = (q.at(degree) * lam).take_rows(range(X.rank(degree)))
            lam = lam - mono.at(degree) * mu
        pairs.append((degree, hstack([mono.at(degree), lam])))
    sections = _table(pairs)
    _splitting(q, sections, False)

    kernel, kernel_incl = kernel_complex(q)
    return ExcisionCertificate(
        mono=mono,
        retraction0=h,
        target=target,
        q=q,
        sections=sections,
        kernel=kernel,
        kernel_inclusion=kernel_incl,
        decomposition=decomposition,
    )


# ---------------------------------------------------------------------------
# Idempotent splitting in the acyclic subcategory.


class IdempotentSplit(NamedTuple):
    """X decomposed as (image of e) (+) (image of 1 - e)."""

    image_part: ChainComplex
    complement_part: ChainComplex
    iso: ChainMap

    def rank_additive(self) -> bool:
        X = self.iso.target
        return all(
            self.image_part.rank(n) + self.complement_part.rank(n) == X.rank(n)
            for n in X.ranks
        )


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
    total = direct_sum(image, complement)
    iso = ChainMap(total.complex, X, {n: hstack([image_mono.at(n), complement_mono.at(n)]) for n in X.ranks})
    if not iso.is_chain_iso():
        raise AssertionError("idempotent images do not recombine to the input")
    return IdempotentSplit(image, complement, iso)
