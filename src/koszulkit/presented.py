"""Finitely presented modules, maps between them, and diagram checks.

A presented module is R^gens modulo the column span of a relations
matrix; a map is a matrix on generators that carries relations into
relations.  Everything reduces to exact solving against column spans:
kernels and images come out as presented modules with explicit
inclusion maps, and short-exactness of a pair of maps is decidable.

``PresentedMap`` checks that its matrix carries relations into
relations; ``PresentedMap._trusted`` skips that for maps that do so by
construction (identities, composites, kernel, image and pushout legs).
Like the chain maps of ``complexes``, a module and a map are immutable
values, so no later assignment can undo a check.  The diagrams
``SesMorphism`` and ``ThreeByThree`` check their exact rows and
commuting squares when they are built.  Maps that share a module must
share it exactly: ``equals`` is False for maps whose sources or targets
differ as presentations.

The two diagram-level checks at the bottom verify, on concrete module
data, that a square in a morphism of short exact sequences is a pushout
precisely when the last vertical map is an isomorphism, and that the
two induced sequences of a nine-term diagram are short exact.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .complexes import _Checked
from .errors import DimensionError, InvalidInputError
from .fgmodules import FgModule, cokernel
from .matrices import Matrix, _selection, block_diag, hstack, kernel_basis, solve, vstack
from .rings import Ring


class PresentedModule(_Checked):
    """R^gens modulo the column span of ``relations`` (gens x k)."""

    __slots__ = ("ring", "gens", "relations")

    def __init__(self, ring: Ring, gens: int, relations: Matrix):
        self._fill(ring, gens, relations)
        if relations.ring != ring:
            raise InvalidInputError(f"relations matrix over {relations.ring.token}, module over {ring.token}")
        if relations.rows != gens:
            raise DimensionError("relations matrix must have one row per generator")

    @classmethod
    def free(cls, ring: Ring, n: int) -> "PresentedModule":
        return cls(ring, n, Matrix.zeros(ring, n, 0))

    @classmethod
    def cyclic(cls, ring: Ring, modulus) -> "PresentedModule":
        if ring.is_zero(modulus):
            return cls.free(ring, 1)
        return cls(ring, 1, Matrix(ring, [[modulus]]))

    def canonical_form(self) -> FgModule:
        return cokernel(self.relations)

    def is_zero_module(self) -> bool:
        return self.canonical_form().is_zero()

    def contains(self, vectors: Matrix) -> bool:
        """Whether each column is zero in the module (lies in the relations span)."""
        return solve(self.relations, vectors) is not None


def direct_sum_modules(parts: Sequence[PresentedModule]) -> PresentedModule:
    if not parts:
        raise InvalidInputError("direct sum of no modules")
    ring = parts[0].ring
    if any(p.ring != ring for p in parts):
        raise InvalidInputError("direct sum across different rings")
    return PresentedModule(ring, sum(p.gens for p in parts), block_diag(ring, [p.relations for p in parts]))


class PresentedMap(_Checked):
    """Module map given by its matrix on generators; immutable."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: PresentedModule, target: PresentedModule, matrix: Matrix):
        self._fill(source, target, matrix)
        if source.relations.cols and not target.contains(matrix * source.relations):
            raise InvalidInputError("matrix does not carry relations into relations")

    def _fill(self, source: PresentedModule, target: PresentedModule, matrix: Matrix):
        if matrix.rows != target.gens or matrix.cols != source.gens:
            raise DimensionError("map matrix has wrong shape")
        if source.ring != target.ring or matrix.ring != source.ring:
            raise InvalidInputError("map across different rings")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def identity(cls, module: PresentedModule) -> "PresentedMap":
        return cls._trusted(module, module, Matrix.identity(module.ring, module.gens))

    @classmethod
    def zero(cls, source: PresentedModule, target: PresentedModule) -> "PresentedMap":
        return cls._trusted(source, target, Matrix.zeros(source.ring, target.gens, source.gens))

    def compose(self, other: "PresentedMap") -> "PresentedMap":
        """self after other."""
        if other.target != self.source:
            raise DimensionError("maps do not compose")
        return PresentedMap._trusted(other.source, self.target, self.matrix * other.matrix)

    def equals(self, other: "PresentedMap") -> bool:
        """Equality as module maps: the same source and target, and the
        difference vanishes on generators."""
        if self.source != other.source or self.target != other.target:
            return False
        return self.target.contains(self.matrix - other.matrix)

    def is_zero_map(self) -> bool:
        return self.target.contains(self.matrix)

    def preimage_of_relations(self) -> Matrix:
        """Columns generating {v : M v lies in the relations span of the target}."""
        return kernel_basis(hstack([self.matrix, self.target.relations])).take_rows(range(self.source.gens))

    def lift(self, vectors: Matrix) -> Optional[Matrix]:
        """Columns v with M v == ``vectors`` modulo the relations of the
        target, or None when some column of ``vectors`` has no such v."""
        sol = solve(hstack([self.matrix, self.target.relations]), vectors)
        return None if sol is None else sol.take_rows(range(self.source.gens))

    def kernel(self) -> tuple[PresentedModule, "PresentedMap"]:
        gens_mat = self.preimage_of_relations()
        inner = PresentedMap._trusted(PresentedModule.free(self.source.ring, gens_mat.cols), self.source,
                                      gens_mat)
        rels = inner.preimage_of_relations()
        module = PresentedModule(self.source.ring, gens_mat.cols, rels)
        return module, PresentedMap._trusted(module, self.source, gens_mat)

    def image(self) -> tuple[PresentedModule, "PresentedMap", "PresentedMap"]:
        """Return (image, inclusion into target, epi from source)."""
        rels = self.preimage_of_relations()
        module = PresentedModule(self.source.ring, self.source.gens, rels)
        incl = PresentedMap._trusted(module, self.target, self.matrix)
        epi = PresentedMap._trusted(self.source, module, Matrix.identity(self.source.ring, self.source.gens))
        return module, incl, epi

    def cokernel_module(self) -> PresentedModule:
        return PresentedModule(self.target.ring, self.target.gens,
                               hstack([self.target.relations, self.matrix]))

    def is_injective(self) -> bool:
        return self.source.contains(self.preimage_of_relations())

    def is_surjective(self) -> bool:
        return self.cokernel_module().is_zero_module()

    def is_iso(self) -> bool:
        return self.is_injective() and self.is_surjective()


def pushout(left: PresentedMap, right: PresentedMap) -> tuple[PresentedModule, PresentedMap, PresentedMap]:
    """Pushout of a span left: X -> A, right: X -> B.

    Returns (P, leg from A, leg from B); P is the cokernel of the
    antidiagonal map X -> A (+) B.
    """
    if left.source != right.source:
        raise InvalidInputError("span legs must share their source")
    ring = left.source.ring
    ambient = direct_sum_modules([left.target, right.target])
    anti = vstack([left.matrix, -right.matrix])
    obj = PresentedModule(ring, ambient.gens, hstack([ambient.relations, anti]))
    ga = left.target.gens
    leg_a = PresentedMap._trusted(left.target, obj, _selection(ring, obj.gens, range(ga)))
    leg_b = PresentedMap._trusted(right.target, obj, _selection(ring, obj.gens, range(ga, obj.gens)))
    return obj, leg_a, leg_b


def pushout_of_span(first: Matrix, second: Matrix) -> tuple[PresentedModule, PresentedMap, PresentedMap]:
    """Pushout of two maps of free modules sharing their source dimension."""
    if first.cols != second.cols:
        raise DimensionError("span legs must share their source dimension")
    ring = first.ring
    src = PresentedModule.free(ring, first.cols)
    f = PresentedMap._trusted(src, PresentedModule.free(ring, first.rows), first)
    a = PresentedMap._trusted(src, PresentedModule.free(ring, second.rows), second)
    return pushout(f, a)


def pullback(left: PresentedMap, right: PresentedMap) -> tuple[PresentedModule, PresentedMap, PresentedMap, PresentedMap]:
    """Pullback of a cospan left: A -> C, right: B -> C.

    Returns (Q, inclusion into A (+) B, leg to A, leg to B); Q is the
    kernel of the difference map out of the direct sum.
    """
    if left.target != right.target:
        raise InvalidInputError("cospan legs must share their target")
    ring = left.source.ring
    ambient = direct_sum_modules([left.source, right.source])
    diff = PresentedMap._trusted(ambient, left.target, hstack([left.matrix, -right.matrix]))
    module, incl = diff.kernel()
    ga = left.source.gens
    leg_a = PresentedMap._trusted(module, left.source, incl.matrix.take_rows(range(ga)))
    leg_b = PresentedMap._trusted(module, right.source, incl.matrix.take_rows(range(ga, ambient.gens)))
    return module, incl, leg_a, leg_b


def is_short_exact(mono: PresentedMap, epi: PresentedMap) -> bool:
    """Whether 0 -> A -> B -> C -> 0 given by the two maps is exact."""
    if mono.target != epi.source:
        raise InvalidInputError("maps are not consecutive")
    if not epi.compose(mono).is_zero_map():
        return False
    if not mono.is_injective():
        return False
    if not epi.is_surjective():
        return False
    return mono.lift(epi.preimage_of_relations()) is not None


class SesMorphism(_Checked):
    """A morphism of short exact sequences of presented modules.

    Rows ``(top_mono, top_epi)`` and ``(bottom_mono, bottom_epi)`` with
    verticals ``left``, ``middle``, ``right`` making both squares
    commute; both are checked when the diagram is built.
    """

    __slots__ = ("top_mono", "top_epi", "bottom_mono", "bottom_epi", "left", "middle", "right")

    def __init__(self, top_mono: PresentedMap, top_epi: PresentedMap, bottom_mono: PresentedMap,
                 bottom_epi: PresentedMap, left: PresentedMap, middle: PresentedMap, right: PresentedMap):
        self._fill(top_mono, top_epi, bottom_mono, bottom_epi, left, middle, right)
        if not is_short_exact(top_mono, top_epi):
            raise InvalidInputError("top row is not short exact")
        if not is_short_exact(bottom_mono, bottom_epi):
            raise InvalidInputError("bottom row is not short exact")
        if not middle.compose(top_mono).equals(bottom_mono.compose(left)):
            raise InvalidInputError("first square does not commute")
        if not right.compose(top_epi).equals(bottom_epi.compose(middle)):
            raise InvalidInputError("second square does not commute")


def cobase_change_check(diagram: SesMorphism) -> bool:
    """Compare the two sides of the pushout criterion on a morphism of SESs.

    Computes independently whether the first square is a pushout (the
    induced map from the pushout to the bottom middle is an iso) and
    whether the right vertical is an iso, and reports their agreement.
    A disagreement on valid input is a library defect, not a data error.
    """
    obj, _, _ = pushout(diagram.left, diagram.top_mono)
    comparison = PresentedMap._trusted(
        obj, diagram.bottom_mono.target,
        hstack([diagram.bottom_mono.matrix, diagram.middle.matrix]))
    return comparison.is_iso() == diagram.right.is_iso()


class ThreeByThree(_Checked):
    """Nine-term diagram with short exact rows and columns.

    ``rows[i]`` is the (mono, epi) pair of row i (top to bottom) and
    ``cols[j]`` of column j (left to right); all four inner squares must
    commute.  Both are checked when the diagram is built.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: tuple, cols: tuple):
        self._fill(rows, cols)
        for mono, epi in list(rows) + list(cols):
            if not is_short_exact(mono, epi):
                raise InvalidInputError("a row or column is not short exact")
        (ix, px), (iy, py), (iz, pz) = rows
        (f, g), (fp, gp), (fpp, gpp) = cols
        checks = [
            (fp.compose(ix), iy.compose(f)),
            (fpp.compose(px), py.compose(fp)),
            (gp.compose(iy), iz.compose(g)),
            (gpp.compose(py), pz.compose(gp)),
        ]
        for lhs, rhs in checks:
            if not lhs.equals(rhs):
                raise InvalidInputError("inner square does not commute")


def nine_term_sequences(grid: ThreeByThree) -> tuple[bool, bool]:
    """Exactness verdicts for the two induced sequences of the diagram.

    First: (pushout of the top-left span) -> middle -> bottom-right;
    second: top-left -> middle -> (pullback of the bottom-right cospan).
    """
    (ix, px), (iy, py), (iz, pz) = grid.rows
    (f, g), (fp, gp), (fpp, gpp) = grid.cols

    obj, _, _ = pushout(f, ix)
    mono1 = PresentedMap._trusted(obj, iy.target, hstack([iy.matrix, fp.matrix]))
    epi1 = pz.compose(gp)
    first = is_short_exact(mono1, epi1)

    module, incl, _, _ = pullback(pz, gpp)
    # The commuting squares put [gp; py] in the pullback, so it lifts.
    into = incl.lift(vstack([gp.matrix, py.matrix]))
    return first, is_short_exact(iy.compose(f), PresentedMap._trusted(gp.source, module, into))
