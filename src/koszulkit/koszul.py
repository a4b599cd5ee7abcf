"""Two-term complexes with injective boundary and the categories around them.

This module implements the working categories: two-term complexes of
free modules with injective boundary and torsion degree-zero homology
("Koszul complexes"), bounded free complexes with torsion homology, the
n-spherical subcategories, and the presented-coordinate variant whose
entries are arbitrary finitely presented modules.

The two central algorithms are the two-sided truncation retraction
(``kappa``) and the cellular factorization of a morphism into
degreewise split monomorphisms with spherical subquotients followed by
a quasi-isomorphism.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .complexes import (
    ChainComplex,
    ChainMap,
    ComplexSes,
    Cone,
    Homotopy,
    chain_retraction,
    cone,
    homology_table,
    homotopy_between,
    quasi_iso_degree,
    shift,
    shift_map,
    split_retractions,
    structure_maps,
    tau_ge_map,
    tau_le_map,
    _Checked,
    _cone_layout,
    _cone_maps,
    _mono_components,
    _restrict,
    _retraction_onto_upper,
    _split_quotient,
    _splitting,
    _subcomplex,
    _tau_ge,
    _tau_le,
    _vanishing_degree,
)
from .errors import InvalidInputError, NotAComplexError
from .fgmodules import FgModule
from .matrices import Matrix, _selection, elementary_divisors, hstack, image_basis, vstack
from .presented import PresentedModule, PresentedMap, is_short_exact


# ---------------------------------------------------------------------------
# Membership predicates.


class Kos1Membership(NamedTuple):
    ok: bool
    concentrated: bool
    injective: bool
    torsion_h0: bool

    def __bool__(self):
        return self.ok


def in_kos1(complex_: ChainComplex) -> Kos1Membership:
    """Two-term in degrees {1, 0}, injective boundary, torsion H0.

    Both are read off the divisor count of d_1: it is injective when the
    count is rank(1), and its cokernel is torsion when the count is rank(0).
    """
    concentrated = all(n in (0, 1) for n in complex_.ranks)
    count = len(elementary_divisors(complex_.d(1))) if concentrated else None
    injective = count == complex_.rank(1)
    torsion = count == complex_.rank(0)
    return Kos1Membership(injective and torsion, concentrated, injective, torsion)


def in_A(complex_: ChainComplex) -> bool:
    """Bounded free complex with torsion homology in every degree."""
    return all(h.is_torsion() for h in homology_table(complex_).values())


def in_A_n(complex_: ChainComplex, n: int) -> bool:
    """Torsion homology concentrated in degree n (acyclic qualifies)."""
    return all(h.is_torsion() if k == n else h.is_zero() for k, h in homology_table(complex_).items())


# ---------------------------------------------------------------------------
# Degree-zero homology and its augmentation.


def h0(complex_: ChainComplex) -> FgModule:
    return h0_presentation(complex_).canonical_form()


def h0_presentation(complex_: ChainComplex) -> PresentedModule:
    if any(n not in (0, 1) for n in complex_.ranks):
        raise InvalidInputError("degree-zero homology shortcut needs a two-term complex")
    return PresentedModule(complex_.ring, complex_.rank(0), complex_.d(1))


class Augmentation(NamedTuple):
    """The canonical surjection of a two-term complex onto its H0.

    The target is the presented two-term complex [0 -> H0]; the degree
    zero component is the identity on generators, degree one is zero.
    """

    source: ChainComplex
    target: "PresentedKoszul"
    degree0: PresentedMap
    degree1: PresentedMap


def h0_augmentation(complex_: ChainComplex) -> Augmentation:
    ring = complex_.ring
    membership = in_kos1(complex_)
    if not membership:
        raise InvalidInputError("augmentation needs a Koszul complex")
    bottom = h0_presentation(complex_)
    zero_mod = PresentedModule.free(ring, 0)
    target = PresentedKoszul(zero_mod, bottom, PresentedMap.zero(zero_mod, bottom))
    degree0 = PresentedMap._trusted(PresentedModule.free(ring, complex_.rank(0)), bottom,
                                    Matrix.identity(ring, complex_.rank(0)))
    degree1 = PresentedMap.zero(PresentedModule.free(ring, complex_.rank(1)), zero_mod)
    return Augmentation(complex_, target, degree0, degree1)


def h0_map(f: ChainMap) -> PresentedMap:
    """Induced map on degree-zero homology presentations."""
    return PresentedMap(h0_presentation(f.source), h0_presentation(f.target), f.at(0))


# ---------------------------------------------------------------------------
# The two-sided truncation retraction.


class KappaResult(NamedTuple):
    """Retraction of a 0-spherical complex onto a Koszul complex.

    ``u`` maps the upper truncation at 0 back into the input, ``v``
    projects it onto the retract; both are quasi-isomorphisms on
    0-spherical input, and the retract of a Koszul complex is itself.
    """

    kos: ChainComplex
    u: ChainMap
    v: ChainMap
    u_is_quasi_iso: bool
    v_is_quasi_iso: bool


def kappa(complex_: ChainComplex) -> KappaResult:
    if not in_A_n(complex_, 0):
        raise InvalidInputError("input is not 0-spherical with torsion homology")
    upper, incl = _tau_ge(complex_, 0)
    kos, proj = _tau_le(upper, 0)
    return KappaResult(
        kos=kos,
        u=incl,
        v=proj,
        u_is_quasi_iso=quasi_iso_degree(incl) == math.inf,
        v_is_quasi_iso=quasi_iso_degree(proj) == math.inf,
    )


# ---------------------------------------------------------------------------
# Cellular factorization.


class FactorStep(NamedTuple):
    """One factorization step f = h . g through an intermediate complex.

    ``witness`` is the degreewise homotopy built from the source-summand
    inclusion into the cone, ``upper`` the upper truncation of the cone
    whose homology the cone of h reproduces.
    """

    g: ChainMap
    h: ChainMap
    witness: Homotopy
    upper: ChainComplex


def factor_step(f: ChainMap, n: int) -> FactorStep:
    """Split off the degree-(n+1) homology of the cone of f.

    Requires f to kill cone homology in degrees <= n.  The intermediate
    complex is the shifted cone of the composite (target -> cone -> upper
    truncation); the new map g pairs f with a homotopy witnessing that
    the composite vanishes on the source, making the cone of g
    (n+1)-spherical while h keeps only the homology above n+1.
    """
    layout = _cone_layout(f)
    if _vanishing_degree(layout.complex) < n:
        raise InvalidInputError(f"map does not vanish in cone degrees <= {n}")
    return _factor_step(f, _cone_maps(f, layout), n)


def _factor_step(f: ChainMap, mapping_cone: Cone, n: int) -> FactorStep:
    """``factor_step`` on the cone of f, whose homology is known to
    vanish in degrees <= n."""
    X = f.source
    boundary = mapping_cone.complex.d(n + 2)
    corestriction = _restrict(boundary, target=image_basis(boundary))
    upper, _, a, _ = _retraction_onto_upper(mapping_cone.complex, n + 1, corestriction)
    composite = a.compose(mapping_cone.inclusion)
    cone_of_composite = cone(composite)
    intermediate = shift(cone_of_composite.complex, 1)
    h = shift_map(cone_of_composite.projection, 1)
    # Cone degree m+1 starts with the source summand X_m, so a's component
    # there restricts to X_m as its first X.rank(m) columns.
    witness_components = {m: -a.components[m + 1].take_cols(range(X.rank(m)))
                          for m in X.ranks if m + 1 in a.components}
    # g's chain-map law below is the homotopy identity of the witness.
    witness = Homotopy._trusted(composite.compose(f), ChainMap.zero(X, upper), witness_components)
    g = ChainMap(X, intermediate, {m: vstack([f.at(m), witness.at(m)]) for m in X.ranks})
    if h.compose(g) != f:
        raise AssertionError("factor step lost exact equality with the input map")
    return FactorStep(g=g, h=h, witness=witness, upper=upper)


class EquivalenceWitness(NamedTuple):
    """Explicit homotopy-equivalence data between the cone of the second
    factor and the truncated cone it reproduces."""

    into: ChainMap       # truncated cone -> cone of h, a split quasi-iso
    back: ChainMap       # chain retraction of ``into``
    homotopy: Homotopy   # id (cone of h) ~ into . back


def factor_step_equivalence(step: FactorStep) -> Optional[EquivalenceWitness]:
    """Upgrade the homology-level comparison of a factor step to explicit
    homotopy-equivalence data.

    The canonical summand inclusion of the truncated cone into the cone
    of h is a chain map; a chain-level retraction is solved for, and the
    identity is connected to the round trip by a solved homotopy.  Over
    these coefficient rings the solves always succeed on valid steps,
    but the stacked systems grow quickly, so callers guard by width.
    """
    upper = step.upper
    mapping_cone = cone(step.h).complex
    above = step.h.target.rank
    # Degree n of the cone of h is target_{n-1} (+) upper_n (+) target_n.
    into = ChainMap(upper, mapping_cone, {
        n: _selection(upper.ring, mapping_cone.rank(n), range(above(n - 1), above(n - 1) + r))
        for n, r in upper.ranks.items()
    })
    back = chain_retraction(into)
    if back is None:
        return None
    witness = homotopy_between(ChainMap.identity(mapping_cone), into.compose(back))
    if witness is None:
        return None
    return EquivalenceWitness(into=into, back=back, homotopy=witness)


class CellularFactorization(NamedTuple):
    """Chain of degreewise split monos with spherical subquotients.

    ``stages[i]`` includes stage i into stage i+1; ``subquotients[i]``
    is its quotient complex, spherical in degree ``spherical_degrees[i]``;
    ``final`` is a quasi-isomorphism, and final . stages == the input.
    """

    stages: tuple
    retractions: tuple
    subquotients: tuple
    spherical_degrees: tuple
    final: ChainMap

    def composite(self) -> ChainMap:
        out = self.final
        for stage in reversed(self.stages):
            out = out.compose(stage)
        return out


def cellular_factorization(f: ChainMap) -> CellularFactorization:
    """Factor a morphism of torsion-homology complexes cell by cell.

    Each pass applies ``factor_step`` at the current cone-vanishing
    degree.  When the step map is not already degreewise split, the
    cylinder replacement makes it so (the end inclusion of a cylinder
    is always split, and the projection keeps the composite equal to f
    on the nose).  Bounded input forces termination in at most
    support-width + 1 stages.
    """
    if not in_A(f.source) or not in_A(f.target):
        raise InvalidInputError("both ends must have torsion homology")
    stages = []
    retractions = []
    subquotients = []
    spherical = []
    current = f
    degrees = set(f.source.ranks) | set(f.target.ranks)
    width = (max(degrees) - min(degrees) + 1) if degrees else 0
    guard = width + 3
    while True:
        # One cone of the current map per stage: its complex gives the
        # vanishing degree, and the factor step adds the maps.
        layout = _cone_layout(current)
        n = _vanishing_degree(layout.complex)
        if n == math.inf:
            break
        if guard == 0:
            raise AssertionError("cellular factorization failed to terminate")
        guard -= 1
        step = _factor_step(current, _cone_maps(current, layout), n)
        retr = split_retractions(step.g)
        if retr is not None:
            mono, nxt = step.g, step.h
        else:
            smaps = structure_maps(step.g)
            mono = smaps.j1
            nxt = step.h.compose(smaps.p)
            # j1's components are selection matrices, so their
            # transposes are retractions (the ones ``solve`` would give).
            retr = {k: m.transpose() for k, m in _mono_components(mono).items()}
        quotient, _ = _split_quotient(mono, retr)
        stages.append(mono)
        retractions.append(retr)
        subquotients.append(quotient)
        spherical.append(n + 1)
        current = nxt
    return CellularFactorization(
        stages=tuple(stages),
        retractions=tuple(retractions),
        subquotients=tuple(subquotients),
        spherical_degrees=tuple(spherical),
        final=current,
    )


# ---------------------------------------------------------------------------
# Admissible short exact sequences of free complexes.


class AdmissibleSes(ComplexSes):
    """Degreewise split short exact sequence with stored witnesses; the
    given ones are checked, the absent ones solved (and checked).

    The witnesses prove exactness, so no elimination runs.  Given
    r_n . m_n == id and e_n . s_n == id, the sequence is exact at n
    exactly when e_n . m_n == 0 and rank B_n == rank A_n + rank C_n:
    the image of m_n is a direct summand of rank A_n inside the kernel
    of e_n, itself a direct summand of rank B_n - C_n, so the two are
    equal exactly when the ranks agree.  The composite is checked first
    (``NotAComplexError``), then the witnesses, then the ranks
    (``InvalidInputError``).
    """

    __slots__ = ("retractions", "sections")

    def __init__(self, mono: ChainMap, epi: ChainMap,
                 retractions: Optional[dict] = None, sections: Optional[dict] = None):
        self._fill(mono, epi)
        for n, m in mono.components.items():
            e = epi.components.get(n)
            if e is not None and not (e * m).is_zero():
                raise NotAComplexError(f"composite of the two maps is nonzero at degree {n}")
        object.__setattr__(self, "retractions", _splitting(_mono_components(mono), retractions, True))
        object.__setattr__(self, "sections", _splitting({n: epi.at(n) for n in epi.target.ranks}, sections, False))
        left, middle, right = self.left, self.middle, self.right
        for n in set(left.ranks) | set(middle.ranks) | set(right.ranks):
            if left.rank(n) + right.rank(n) != middle.rank(n):
                raise InvalidInputError(f"sequence is not exact at degree {n}")


def h0_additive(seq: AdmissibleSes) -> bool:
    """Exactness of 0 -> H0(left) -> H0(middle) -> H0(right) -> 0."""
    left = h0_presentation(seq.left)
    mid = h0_presentation(seq.middle)
    right = h0_presentation(seq.right)
    into = PresentedMap(left, mid, seq.mono.at(0))
    onto = PresentedMap(mid, right, seq.epi.at(0))
    return is_short_exact(into, onto)


def tau_maps_spherical_check(seq: AdmissibleSes, k: int, spherical: int) -> bool:
    """Truncating a split sequence of spherical complexes keeps it split
    and spherical.

    Applies both truncations at k to the sequence's maps, rebuilds the
    admissible sequence (which re-solves degreewise splittings), and
    re-tests sphericity of all six truncated complexes.
    """
    for mapper in (tau_ge_map, tau_le_map):
        mono_t = mapper(seq.mono, k)
        epi_t = mapper(seq.epi, k)
        try:
            truncated = AdmissibleSes(mono_t, epi_t)
        except InvalidInputError:
            return False
        for part in (truncated.left, truncated.middle, truncated.right):
            if not in_A_n(part, spherical):
                return False
    return True


# ---------------------------------------------------------------------------
# Presented-coordinate two-term complexes.


class PresentedKoszul(_Checked):
    """Two-term complex of presented modules with injective boundary.

    The degree-zero homology must be torsion.  Free-coordinate Koszul
    complexes embed via ``from_free``.
    """

    __slots__ = ("top", "bottom", "d")

    def __init__(self, top: PresentedModule, bottom: PresentedModule, d: PresentedMap):
        self._fill(top, bottom, d)
        if d.source != top or d.target != bottom:
            raise InvalidInputError("boundary map endpoints do not match")
        if not self.d.is_injective():
            raise InvalidInputError("boundary map is not injective")
        if self.h0().canonical_form().free_rank:
            raise InvalidInputError("degree-zero homology is not torsion")

    @classmethod
    def from_free(cls, complex_: ChainComplex) -> "PresentedKoszul":
        member = in_kos1(complex_)
        if not member:
            raise InvalidInputError("complex is not a free Koszul complex")
        ring = complex_.ring
        top = PresentedModule.free(ring, complex_.rank(1))
        bottom = PresentedModule.free(ring, complex_.rank(0))
        return cls(top, bottom, PresentedMap._trusted(top, bottom, complex_.d(1)))

    def h0(self) -> PresentedModule:
        return self.d.cokernel_module()

    def is_acyclic(self) -> bool:
        return self.d.is_surjective()


class PresentedKoszulMap(_Checked):
    __slots__ = ("source", "target", "degree1", "degree0")

    def __init__(self, source: PresentedKoszul, target: PresentedKoszul, degree1: PresentedMap,
                 degree0: PresentedMap):
        self._fill(source, target, degree1, degree0)
        if not target.d.compose(degree1).equals(degree0.compose(source.d)):
            raise InvalidInputError("components do not commute with the boundaries")


class PresentedSes(_Checked):
    """Degreewise short exact sequence of presented two-term complexes."""

    __slots__ = ("mono", "epi")

    def __init__(self, mono: PresentedKoszulMap, epi: PresentedKoszulMap):
        self._fill(mono, epi)
        if mono.target != epi.source:
            raise InvalidInputError("maps are not consecutive")
        if not is_short_exact(mono.degree1, epi.degree1):
            raise InvalidInputError("degree-1 row is not short exact")
        if not is_short_exact(mono.degree0, epi.degree0):
            raise InvalidInputError("degree-0 row is not short exact")

    @property
    def left(self) -> PresentedKoszul:
        return self.mono.source

    @property
    def middle(self) -> PresentedKoszul:
        return self.mono.target

    @property
    def right(self) -> PresentedKoszul:
        return self.epi.target


# ---------------------------------------------------------------------------
# Resolution by a free Koszul complex.


class Resolution(NamedTuple):
    """Free Koszul cover of a presented two-term complex.

    ``e0``/``e1`` are the degreewise surjections; ``kernel`` is the
    degreewise kernel with its basis inclusion into the cover, a free
    Koszul complex again, so the cover map is an admissible epi.
    """

    cover: ChainComplex
    e1: PresentedMap
    e0: PresentedMap
    kernel: ChainComplex
    kernel_inclusion: ChainMap


def resolve_in_kos1(target: PresentedKoszul) -> Resolution:
    """Cover a presented two-term complex by a free Koszul complex.

    Degree 0 is the free module on the generators; degree 1 is a basis
    of the preimage lattice of (relations + boundary image), i.e. the
    kernel of generators -> H0.  The degree-1 component of the cover map
    is the unique lift through the injective boundary, solved exactly.
    """
    ring = target.top.ring
    g0 = target.bottom.gens
    lattice = hstack([target.bottom.relations, target.d.matrix])
    basis = image_basis(lattice)
    cover = ChainComplex(ring, {1: basis.cols, 0: g0}, {1: basis})
    free0 = PresentedModule.free(ring, g0)
    free1 = PresentedModule.free(ring, basis.cols)
    e0 = PresentedMap._trusted(free0, target.bottom, Matrix.identity(ring, g0))
    e1 = PresentedMap._trusted(free1, target.top, target.d.lift(basis))
    k0 = image_basis(target.bottom.relations)
    kernel, incl = _subcomplex(cover, {1: image_basis(e1.preimage_of_relations()), 0: k0})
    return Resolution(cover=cover, e1=e1, e0=e0, kernel=kernel, kernel_inclusion=incl)


# ---------------------------------------------------------------------------
# The canonical three-term decomposition of a presented two-term complex.


def e_functor(x: PresentedKoszul) -> PresentedSes:
    """Decompose X as [X1 = X1] >--> X -->> [0 -> H0 X], degreewise short exact."""
    ring = x.top.ring
    left = PresentedKoszul(x.top, x.top, PresentedMap.identity(x.top))
    h0_module = x.h0()
    zero_mod = PresentedModule.free(ring, 0)
    right = PresentedKoszul(zero_mod, h0_module, PresentedMap.zero(zero_mod, h0_module))
    mono = PresentedKoszulMap(left, x, PresentedMap.identity(x.top), x.d)
    epi = PresentedKoszulMap(
        x, right,
        PresentedMap.zero(x.top, zero_mod),
        PresentedMap._trusted(x.bottom, h0_module, Matrix.identity(ring, x.bottom.gens)))
    return PresentedSes(mono, epi)


# ---------------------------------------------------------------------------
# The acyclic retraction on Koszul complexes.


class AcyclicRetract(NamedTuple):
    """[X1 = X1] with the canonical comparison (id, d) into the input.

    The comparison is a chain isomorphism exactly when the input is
    acyclic (square unimodular boundary).
    """

    complex: ChainComplex
    comparison: ChainMap
    comparison_is_iso: bool


def retraction_q(complex_: ChainComplex) -> AcyclicRetract:
    if not in_kos1(complex_):
        raise InvalidInputError("input is not a free Koszul complex")
    ring = complex_.ring
    r1 = complex_.rank(1)
    retract = ChainComplex(ring, {1: r1, 0: r1}, {1: Matrix.identity(ring, r1)})
    comparison = ChainMap(retract, complex_, {1: Matrix.identity(ring, r1), 0: complex_.d(1)})
    return AcyclicRetract(retract, comparison, comparison.is_chain_iso())
