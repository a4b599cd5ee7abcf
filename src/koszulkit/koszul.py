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

Short exact sequences of free complexes are ``complexes.ComplexSes``,
proved exact by their degreewise splitting; the checks here (H0
additivity, truncation of a spherical sequence) take them as they are.

Each result stores only what it is built from: ``FactorStep`` reads
g, h and ``upper`` off its map, composite and witness, ``KappaResult``
its retract off v and ``PresentedKoszul`` its modules off its boundary,
and ``retraction_q`` returns its comparison, whose source is the retract.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .complexes import (
    ChainComplex,
    ChainMap,
    ComplexSes,
    Homotopy,
    cone,
    homology_table,
    quasi_iso_degree,
    shift,
    shift_map,
    tau_ge_map,
    tau_le_map,
    truncation_splitting,
    _Checked,
    _cone_layout,
    _smith_stage,
    _subcomplex,
    _tau_ge,
    _tau_le,
    _vanishing_degree,
)
from .errors import InvalidInputError, WitnessError
from .fgmodules import FgModule
from .matrices import (
    Matrix,
    _selection,
    block,
    elementary_divisors,
    hstack,
    image_basis,
    vstack,
)
from .presented import PresentedModule, PresentedMap, is_short_exact


# ---------------------------------------------------------------------------
# Membership predicates.


def in_kos1(complex_: ChainComplex) -> bool:
    """Two-term in degrees {1, 0}, injective boundary, torsion H0.

    Both are read off the divisor count of d_1: it is injective when the
    count is rank(1), and its cokernel is torsion when the count is rank(0).
    """
    if any(n not in (0, 1) for n in complex_.ranks):
        return False
    return complex_.rank(1) == len(elementary_divisors(complex_.d(1))) == complex_.rank(0)


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
    if not in_kos1(complex_):
        raise InvalidInputError("augmentation needs a Koszul complex")
    bottom = h0_presentation(complex_)
    zero_mod = PresentedModule.free(ring, 0)
    target = PresentedKoszul(PresentedMap.zero(zero_mod, bottom))
    degree0 = PresentedMap._trusted(PresentedModule.free(ring, complex_.rank(0)), bottom,
                                    Matrix.identity(ring, complex_.rank(0)))
    degree1 = PresentedMap.zero(PresentedModule.free(ring, complex_.rank(1)), zero_mod)
    return Augmentation(complex_, target, degree0, degree1)


# ---------------------------------------------------------------------------
# The two-sided truncation retraction.


class KappaResult(_Checked):
    """Retraction of a 0-spherical complex onto a Koszul complex.

    ``u`` maps the upper truncation at 0 back into the input, ``v``
    projects it onto the retract ``kos``, read as the target of ``v``, and
    the retract of a Koszul complex is itself.  The law, checked when it
    is built (else ``WitnessError``): u and v leave one complex, and both
    are quasi-isomorphisms.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: ChainMap, v: ChainMap):
        self._store(u, v)
        if u.source != v.source:
            raise WitnessError("u and v do not leave one complex")
        for name, comparison in (("u", u), ("v", v)):
            if quasi_iso_degree(comparison) != math.inf:
                raise WitnessError(f"{name} is not a quasi-isomorphism")

    @property
    def kos(self) -> ChainComplex:
        return self.v.target


def kappa(complex_: ChainComplex) -> KappaResult:
    if not in_A_n(complex_, 0):
        raise InvalidInputError("input is not 0-spherical with torsion homology")
    upper, incl = _tau_ge(complex_, 0)
    return KappaResult(incl, _tau_le(upper, 0)[1])


# ---------------------------------------------------------------------------
# Cellular factorization.


class FactorStep(_Checked):
    """One factorization step map = h . g through an intermediate complex.

    ``composite`` maps the target of ``map`` into ``upper``, the upper
    truncation of the cone of ``map``, and ``witness`` is a nullhomotopy
    of the composite after ``map``.  The intermediate complex is the
    shifted cone of ``composite``; g stacks ``map`` over the witness in
    every degree and h is the shifted projection of that cone, so the
    three are read off the fields.  The law, checked when it is built
    (else ``WitnessError``): the witness's maps are ``composite . map``
    and zero.  Then g is a chain map by the witness's homotopy identity,
    and h . g == map on the nose by block algebra.
    """

    __slots__ = ("map", "composite", "witness")

    def __init__(self, map: ChainMap, composite: ChainMap, witness: Homotopy):
        self._store(map, composite, witness)
        if composite.source != map.target or witness.lhs != composite.compose(map) \
                or not witness.rhs.is_zero_map():
            raise WitnessError("the witness is not a nullhomotopy of the composite after the map")

    @property
    def upper(self) -> ChainComplex:
        return self.composite.target

    @property
    def g(self) -> ChainMap:
        X = self.map.source
        return ChainMap._trusted(X, shift(cone(self.composite).complex, 1), {
            m: vstack([self.map.at(m), self.witness.at(m)]) for m in X.ranks})

    @property
    def h(self) -> ChainMap:
        return shift_map(cone(self.composite).projection, 1)


def factor_step(f: ChainMap, n: int) -> FactorStep:
    """Split off the degree-(n+1) homology of the cone of f.

    Requires f to kill cone homology in degrees <= n.  The intermediate
    complex is the shifted cone of the composite (target -> cone -> upper
    truncation); the new map g pairs f with a homotopy witnessing that
    the composite vanishes on the source, making the cone of g
    (n+1)-spherical while h keeps only the homology above n+1.

    Size: the upper truncation has total rank at most rank X + rank Y,
    so the intermediate complex has total rank at most rank X + 2 rank Y
    for f: X -> Y.  Repeating the step on h would grow the source up to
    threefold per pass, which is why ``cellular_factorization`` attaches
    cells instead.
    """
    X = f.source
    mapping_cone = cone(f)
    if _vanishing_degree(mapping_cone.complex) < n:
        raise InvalidInputError(f"map does not vanish in cone degrees <= {n}")
    a = truncation_splitting(mapping_cone.complex, n + 1).u  # onto the upper truncation at n + 2
    composite = a.compose(mapping_cone.inclusion)
    # Cone degree m+1 starts with the source summand X_m, so a's component
    # there restricts to X_m as its first X.rank(m) columns.
    witness = Homotopy(composite.compose(f), ChainMap.zero(X, a.target), {
        m: -a.components[m + 1].take_cols(range(X.rank(m))) for m in X.ranks if m + 1 in a.components})
    return FactorStep(f, composite, witness)


class CellularFactorization(_Checked):
    """Chain of degreewise split monos with spherical subquotients.

    ``stages[i]`` includes stage i into stage i+1 as its first summand;
    ``final`` is a quasi-isomorphism.  The law, checked at construction:
    ``final`` after the stages is ``map`` on the nose, and each component
    of a stage is the first-summand selection (``matrices._selection``),
    so its transpose retracts it and the coordinates past stage i carry
    the quotient.  Else ``WitnessError``.  ``subquotients`` and
    ``spherical_degrees`` are read off the stages.
    """

    __slots__ = ("map", "stages", "final")

    def __init__(self, map: ChainMap, stages: tuple, final: ChainMap):
        self._store(map, stages, final)
        composite = final
        for stage in reversed(stages):
            if stage.target != composite.source:
                raise WitnessError("stages do not compose back to the input")
            composite = composite.compose(stage)
        if composite != map:
            raise WitnessError("stages do not compose back to the input")
        for stage in stages:
            Y = stage.target
            if any(Y.rank(k) < r or stage.components.get(k) != _selection(Y.ring, Y.rank(k), range(r))
                   for k, r in stage.source.ranks.items()):
                raise WitnessError("a stage is not the inclusion of a first summand")

    @property
    def subquotients(self) -> tuple:
        """Stage i+1 over stage i: the differentials of stage i+1 on the
        coordinates past stage i, a complex since stage i is a subcomplex."""
        return tuple(ChainComplex._trusted(Y.ring, {k: r - X.rank(k) for k, r in Y.ranks.items()}, {
            k: d.take_rows(range(X.rank(k - 1), Y.rank(k - 1))).take_cols(range(X.rank(k), Y.rank(k)))
            for k, d in Y.diffs.items()}) for X, Y in ((stage.source, stage.target) for stage in self.stages))

    @property
    def spherical_degrees(self) -> tuple:
        """The lowest degree of each subquotient, where its homology lies."""
        return tuple(min(k for k, r in stage.target.ranks.items() if r > stage.source.rank(k))
                     for stage in self.stages)


def cellular_factorization(f: ChainMap) -> CellularFactorization:
    """Factor a morphism of torsion-homology complexes cell by cell.

    Each pass kills the lowest homology of the cone of the current map
    g: X -> Y by attaching cells to X.  Let the cone C (degree k is
    X_{k-1} (+) Y_k) have homology vanishing in degrees <= n.  With K a
    basis of the cycles of C_{n+1} and C.d(n+2) = K B, the Smith form
    gives U B V = D (``complexes._smith_stage`` of C at n+1).  For each
    non-unit divisor d_i, z_i = K U^-1 e_i = (x_i, y_i)
    is a cycle and w_i = V e_i = (a_i, b_i) has boundary d_i z_i; the
    classes of the z_i generate H_{n+1}(C) with annihilators (d_i).  The
    new source is X (+) <e_i in degree n+1, c_i in degree n+2> with
    d e_i = x_i and d c_i = a_i + d_i e_i, and the new map extends g by
    e_i -> y_i and c_i -> b_i.  So the stage is the summand inclusion,
    whose retractions are the transposed selections; its subquotient is
    [R^r --diag(d_i)--> R^r], (n+1)-spherical; and the final map composed
    with the stages is f on the nose.  In the long exact sequence of
    0 -> C -> Cone(g') -> (X'/X)[-1] -> 0 the connecting map sends the
    class of e_i to -[z_i], an isomorphism onto H_{n+1}(C), so the cone
    of g' vanishes through degree n+1 and keeps every higher homology
    module of C.

    Size: there is one stage per nonzero homology degree of Cone f, so at
    most support-width + 1 stages, and the stage for degree k adds
    2 mu(H_k(Cone f)) ranks, mu the minimal number of generators.  As
    mu(H_k) <= rank (Cone f)_k = rank X_{k-1} + rank Y_k, the final source
    has total rank at most rank X + 2 sum_k mu(H_k(Cone f))
    <= 3 rank X + 2 rank Y.
    """
    if not in_A(f.source) or not in_A(f.target):
        raise InvalidInputError("both ends must have torsion homology")
    stages = []
    current = f
    degrees = set(f.source.ranks) | set(f.target.ranks)
    width = (max(degrees) - min(degrees) + 1) if degrees else 0
    guard = width + 3
    while True:
        # One cone of the current map per stage: its complex gives the
        # vanishing degree and the cells to attach.
        mapping_cone = _cone_layout(current).complex
        n = _vanishing_degree(mapping_cone)
        if n == math.inf:
            break
        if guard == 0:
            raise AssertionError("cellular factorization failed to terminate")
        guard -= 1
        stage, current = _attach_cells(current, mapping_cone, n)
        stages.append(stage)
    return CellularFactorization(f, tuple(stages), current)


def _attach_cells(g: ChainMap, mapping_cone: ChainComplex, n: int):
    """One stage of ``cellular_factorization``: (inclusion X -> X', the
    extended map X' -> Y) for g: X -> Y whose cone ``mapping_cone`` has
    homology vanishing in degrees <= n."""
    X, Y = g.source, g.target
    ring = X.ring
    cycles, _, v, elementary = _smith_stage(mapping_cone, n + 1)
    killed = [i for i, d in enumerate(elementary) if not ring.is_unit(d)]
    r = len(killed)
    z = cycles.take_cols(killed)
    w = v.take_cols(killed)
    x, y = z.take_rows(range(X.rank(n))), z.take_rows(range(X.rank(n), z.rows))
    a, b = w.take_rows(range(X.rank(n + 1))), w.take_rows(range(X.rank(n + 1), w.rows))
    divisors = Matrix.diagonal(ring, [elementary[i] for i in killed])
    ranks = dict(X.ranks)
    ranks[n + 1] = X.rank(n + 1) + r
    ranks[n + 2] = X.rank(n + 2) + r
    diffs = dict(X.diffs)
    diffs[n + 1] = hstack([X.d(n + 1), x])
    diffs[n + 2] = block(ring, [[X.diffs.get(n + 2), a], [None, divisors]],
                         [X.rank(n + 1), r], [X.rank(n + 2), r])
    if n + 3 in X.diffs:
        diffs[n + 3] = block(ring, [[X.diffs[n + 3]], [None]], [X.rank(n + 2), r], [X.rank(n + 3)])
    attached = ChainComplex(ring, ranks, diffs)
    components = dict(g.components)
    components[n + 1] = hstack([g.at(n + 1), y])
    components[n + 2] = hstack([g.at(n + 2), b])
    extended = ChainMap(attached, Y, components)
    # X is a subcomplex of X' by the block form of its differentials.
    stage = ChainMap._trusted(X, attached, {k: _selection(ring, ranks[k], range(rk)) for k, rk in X.ranks.items()})
    return stage, extended


# ---------------------------------------------------------------------------
# Short exact sequences of free complexes.


def h0_additive(seq: ComplexSes) -> bool:
    """Exactness of 0 -> H0(left) -> H0(middle) -> H0(right) -> 0."""
    left = h0_presentation(seq.left)
    mid = h0_presentation(seq.middle)
    right = h0_presentation(seq.right)
    into = PresentedMap(left, mid, seq.mono.at(0))
    onto = PresentedMap(mid, right, seq.epi.at(0))
    return is_short_exact(into, onto)


def tau_maps_spherical_check(seq: ComplexSes, k: int, spherical: int) -> bool:
    """Truncating a split sequence of spherical complexes keeps it split
    and spherical.

    Applies both truncations at k to the sequence's maps, rebuilds the
    sequence (which re-solves degreewise splittings), and
    re-tests sphericity of all six truncated complexes.
    """
    for mapper in (tau_ge_map, tau_le_map):
        mono_t = mapper(seq.mono, k)
        epi_t = mapper(seq.epi, k)
        try:
            truncated = ComplexSes(mono_t, epi_t)
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

    It is its boundary ``d``: ``top`` is the source of d and ``bottom``
    its target.  The degree-zero homology must be torsion.  A free
    Koszul complex X is the one with free ``top`` and ``bottom`` of ranks
    X_1 and X_0 and boundary d_1.
    """

    __slots__ = ("d",)

    def __init__(self, d: PresentedMap):
        self._store(d)
        if not d.is_injective():
            raise InvalidInputError("boundary map is not injective")
        if self.h0().canonical_form().free_rank:
            raise InvalidInputError("degree-zero homology is not torsion")

    @property
    def top(self) -> PresentedModule:
        return self.d.source

    @property
    def bottom(self) -> PresentedModule:
        return self.d.target

    def h0(self) -> PresentedModule:
        return self.d.cokernel_module()

    def is_acyclic(self) -> bool:
        return self.d.is_surjective()


class PresentedKoszulMap(_Checked):
    __slots__ = ("source", "target", "degree1", "degree0")

    def __init__(self, source: PresentedKoszul, target: PresentedKoszul, degree1: PresentedMap,
                 degree0: PresentedMap):
        self._store(source, target, degree1, degree0)
        if not target.d.compose(degree1).equals(degree0.compose(source.d)):
            raise InvalidInputError("components do not commute with the boundaries")


class PresentedSes(_Checked):
    """Degreewise short exact sequence of presented two-term complexes."""

    __slots__ = ("mono", "epi")

    def __init__(self, mono: PresentedKoszulMap, epi: PresentedKoszulMap):
        self._store(mono, epi)
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
    left = PresentedKoszul(PresentedMap.identity(x.top))
    h0_module = x.h0()
    zero_mod = PresentedModule.free(ring, 0)
    right = PresentedKoszul(PresentedMap.zero(zero_mod, h0_module))
    mono = PresentedKoszulMap(left, x, PresentedMap.identity(x.top), x.d)
    epi = PresentedKoszulMap(
        x, right,
        PresentedMap.zero(x.top, zero_mod),
        PresentedMap._trusted(x.bottom, h0_module, Matrix.identity(ring, x.bottom.gens)))
    return PresentedSes(mono, epi)


# ---------------------------------------------------------------------------
# The acyclic retraction on Koszul complexes.


def retraction_q(complex_: ChainComplex) -> ChainMap:
    """The canonical comparison (id, d) from the retract [X1 = X1] into
    the input: its source is the retract, and it is a chain isomorphism
    exactly when the input is acyclic (square unimodular boundary)."""
    if not in_kos1(complex_):
        raise InvalidInputError("input is not a free Koszul complex")
    ring = complex_.ring
    r1 = complex_.rank(1)
    retract = ChainComplex(ring, {1: r1, 0: r1}, {1: Matrix.identity(ring, r1)})
    return ChainMap(retract, complex_, {1: Matrix.identity(ring, r1), 0: complex_.d(1)})
