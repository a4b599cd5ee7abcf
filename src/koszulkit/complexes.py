"""Bounded chain complexes of finitely generated free modules.

Differentials decrease degree.  Degrees are arbitrary integers; support
is explicit and never inferred from zero matrices, although degrees of
rank zero are normalized away so that equality of complexes is plain
structural equality.  Ranks, differentials and the components of chain
maps and homotopies are kept in increasing degree, whatever order they
were given in, so every construction and witness depends on values only.

Verification policy.  The public constructors of ``ChainComplex``,
``ChainMap`` and ``Homotopy`` check shapes, the ring and the law
(d.d == 0, commutation, the homotopy identity), so invalid data fails
fast.  Only shifts, cones, cylinders, direct sums, identities, sums and
composites use the private ``_trusted`` path, which skips the law: it
follows from their verified inputs by block algebra.  Anything built
from solved or eliminated data keeps the full check as its certificate.

Law checks multiply only blocks that exist.  Differentials and
components are stored only where they are nonzero, so an absent block
is zero, and so is any product with it.  At each degree the checks of
``ChainMap`` and ``Homotopy`` form a product only when both of its
factors are present; a side of the law left with no blocks is zero, so
the other side must be zero, and a degree with no blocks on either side
holds trivially.  ``compose`` likewise multiplies only where both maps
have a component, and sums and differences take a block without a
partner as it is (negated when it is subtracted).

Homology and exactness.  Questions that only read invariants never
build a kernel basis or solve a system: ``homology`` is read off the
(memoized) elementary divisors of d_n and d_{n+1}, so a homology table
diagonalizes each differential once, and the injectivity and exactness
tests behind ``ComplexSes`` count divisors the same way.  This relies
on the d.d == 0 invariant that every ``ChainComplex`` carries.  Kernel
bases and solving remain where a construction needs actual maps:
truncations, splittings, lifts and the kernel/image sequences.

Subcomplexes and restriction.  Truncations, kernel and image
subcomplexes, the kernel/image sequences and the maps they induce share
one step: restrict a matrix to the column span of a source basis and
solve for it in the coordinates of a target basis.  ``_restrict`` is
that step; ``_subcomplex`` takes one basis per degree and returns the
subcomplex whose differentials are the restricted boundaries, with its
inclusion, both fully checked.  None stands for the whole free module:
it costs no product and no solve, and the inclusion there is the
identity.  A basis with no columns drops its degree.  An image that
leaves the target span raises ``NotAComplexError``, the one error of
the helpers (a boundary into a degree with no basis is zero in the
subcomplex, so the inclusion's chain-map check catches it instead).

Split monomorphisms and quotients.  Split monos, split epis and the
admissible sequences of ``koszul`` share one private step,
``_splitting``.  It takes the components of a map at every degree where
the split side (the source of a mono, the target of an epi) is nonzero,
with the caller's witnesses or None.  When None, it solves them: a
section s_n with m_n . s_n == id, and a retraction as a transposed
section.  It checks every witness it returns, given or solved, since
anything built from solved data keeps its check; a given dict without
one of those degrees fails.  Its errors are ``InvalidInputError``s:
"monomorphism/epimorphism is not degreewise split" when a solve finds
none, "stored retraction/section fails" when a check fails.
``split_retractions`` returns None where the step raises.
``ComplexSes`` is immutable, and so is its subclass ``AdmissibleSes``.

Homotopy solving.  ``homotopy_between``, ``nullhomotopy`` and
``chain_retraction`` each ask for one matrix X_n per degree subject to
equations sum(A . X_n . B) == C.  One private solver answers all three:
under row-major vectorization vec(A X B) == (A (x) B^T) vec(X)
(Henderson and Searle, 1981), so each term is a Kronecker block, the
blocks assemble into one system and the memoized ``solve`` runs once.
All degrees are solved jointly, since a greedy degree-by-degree pass
can commit to choices that block the next degree.  The unknowns are
stacked in increasing degree, each row-major, and ``solve`` returns the
canonical solution of that system, so the witnesses are deterministic.

Sign conventions.  The shift negates differentials degree by degree for
odd shifts.  The cone of f : X -> Y has degree-n part X_{n-1} (+) Y_n
with differential [[-dX, 0], [-f, dY]], and the cylinder has
X_n (+) X_{n-1} (+) Y_n with differential
[[dX, id, 0], [0, -dX, 0], [0, -f, dY]].  This is the unique sign choice
for these block shapes under which d.d == 0, the three structure maps
are chain maps, and the cylinder projection splits the end inclusion.

Direct-sum layouts.  A cone is the sum of the shifted complexes
(X, 1), (Y, 0), a cylinder of (X, 0), (X, 1), (Y, 0) and a direct sum
of its parts with shift 0, where (C, s) puts C_{n-s} in degree n.  One
private layout places their blocks (an absent block stays None, so only
stored blocks are ever negated) and gives each summand's inclusion,
whose transpose is the matching projection.  ``quasi_iso_degree`` reads
only the complex of a cone's layout, as callers of ``_sum_layout`` read
only the complex of a direct sum's; ``cone`` adds the inclusion and
projection on that layout, so a caller that needs the degree and the
maps (the cellular factorization) builds the layout once.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Mapping, NamedTuple, Optional

from .errors import (
    DimensionError,
    HypothesisNotMetError,
    InvalidInputError,
    NotAComplexError,
)
from .fgmodules import FgModule, _from_chain, cokernel
from .matrices import (
    Matrix,
    _kron,
    _selection,
    block,
    elementary_divisors,
    image_basis,
    is_exact_at,
    is_unimodular,
    kernel_basis,
    solve,
)
from .rings import Ring


def _integer(value, what: str) -> int:
    """``value`` if it is an ``int`` and not a ``bool``, else refuse it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"{what} {value!r} is not an integer")
    return value


def _nonzero_blocks(ring: Ring, blocks: Mapping[int, Matrix], shape, what: str) -> dict:
    """Check each block's degree, ring and shape ``shape(n)``; keep the nonzero ones by degree."""
    clean = {}
    for n, mat in blocks.items():
        _integer(n, f"{what} degree")
        rows, cols = shape(n)
        if mat.ring != ring:
            raise InvalidInputError(f"{what} over the wrong ring")
        if mat.rows != rows or mat.cols != cols:
            raise DimensionError(f"{what} at degree {n} has shape {mat.rows}x{mat.cols}, expected {rows}x{cols}")
        if rows and cols and not mat.is_zero():
            clean[n] = mat
    return dict(sorted(clean.items()))


def _product(a: Optional[Matrix], b: Optional[Matrix]) -> Optional[Matrix]:
    """``a * b``, or None (a zero block) when either factor is absent."""
    return None if a is None or b is None else a * b


def _sums_agree(left, right) -> bool:
    """Whether the blocks in ``left`` and in ``right`` have equal sums.

    None stands for an absent, hence zero, block and adds nothing; a
    side with no blocks at all is zero, so the other side must be zero.
    """
    a, b = _sum(left), _sum(right)
    if a is None:
        return b is None or b.is_zero()
    if b is None:
        return a.is_zero()
    return a == b


def _sum(blocks) -> Optional[Matrix]:
    total = None
    for m in blocks:
        if m is not None:
            total = m if total is None else total + m
    return total


class _Checked:
    """Immutable value that checks itself: ``__init__`` runs ``_fill``
    (shapes, rings, normalization) and then the law, ``_trusted`` runs
    ``_fill`` only.

    The fields are the ``__slots__`` of the class and its bases, in
    declaration order.  From them every subclass gets a ``_fill`` that
    stores its arguments, equality and hashing by value, a
    ``Name(field=value, ...)`` repr, and ``_replace``, which builds a
    checked copy with some fields changed.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    @classmethod
    def _trusted(cls, *args):
        out = object.__new__(cls)
        out._fill(*args)
        return out

    def _fill(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle would restore the fields by assignment, which is refused
        return type(self), self._values()

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class ChainComplex(_Checked):
    __slots__ = ("ring", "ranks", "diffs")

    def __init__(self, ring: Ring, ranks: Mapping[int, int], diffs: Mapping[int, Matrix]):
        self._fill(ring, ranks, diffs)
        for n, mat in self.diffs.items():
            if n + 1 in self.diffs and not (mat * self.diffs[n + 1]).is_zero():
                raise NotAComplexError(f"d({n}) . d({n + 1}) is nonzero")

    def _fill(self, ring: Ring, ranks: Mapping[int, int], diffs: Mapping[int, Matrix]):
        for n, r in ranks.items():
            _integer(n, "degree")
            if _integer(r, "rank") < 0:
                raise InvalidInputError("negative rank")
        clean_ranks = {n: r for n, r in sorted(ranks.items()) if r}
        clean_diffs = _nonzero_blocks(
            ring, diffs, lambda n: (clean_ranks.get(n - 1, 0), clean_ranks.get(n, 0)), "differential")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ranks", clean_ranks)
        object.__setattr__(self, "diffs", clean_diffs)

    @property
    def support(self) -> tuple:
        return tuple(self.ranks)

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def d(self, n: int) -> Matrix:
        got = self.diffs.get(n)
        if got is not None:
            return got
        return Matrix.zeros(self.ring, self.rank(n - 1), self.rank(n))

    def degree_range(self) -> range:
        if not self.ranks:
            return range(0)
        return range(min(self.ranks), max(self.ranks) + 1)

    def is_zero_complex(self) -> bool:
        return not self.ranks

    def euler_characteristic(self) -> int:
        return sum(r if n % 2 == 0 else -r for n, r in self.ranks.items())

    def __repr__(self):
        return f"ChainComplex({self.ring.token}, ranks={self.ranks})"


def zero_complex(ring: Ring) -> ChainComplex:
    return ChainComplex._trusted(ring, {}, {})


def two_term(mat: Matrix, top_degree: int = 1) -> ChainComplex:
    """The complex [R^cols -> R^rows] with ``mat`` in degree ``top_degree``."""
    return ChainComplex._trusted(mat.ring, {top_degree: mat.cols, top_degree - 1: mat.rows}, {top_degree: mat})


class ChainMap(_Checked):
    __slots__ = ("source", "target", "components")

    def __init__(self, source: ChainComplex, target: ChainComplex, components: Mapping[int, Matrix]):
        self._fill(source, target, components)
        dX, dY, f = source.diffs.get, target.diffs.get, self.components.get
        for n in set(source.ranks) | set(target.ranks):
            if not _sums_agree([_product(dY(n), f(n))], [_product(f(n - 1), dX(n))]):
                raise InvalidInputError(f"components do not commute with differentials at degree {n}")

    def _fill(self, source: ChainComplex, target: ChainComplex, components: Mapping[int, Matrix]):
        if source.ring != target.ring:
            raise InvalidInputError("chain map across different rings")
        clean = _nonzero_blocks(source.ring, components, lambda n: (target.rank(n), source.rank(n)), "component")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", clean)

    def at(self, n: int) -> Matrix:
        got = self.components.get(n)
        if got is not None:
            return got
        return Matrix.zeros(self.source.ring, self.target.rank(n), self.source.rank(n))

    @classmethod
    def identity(cls, complex_: ChainComplex) -> "ChainMap":
        comps = {n: Matrix.identity(complex_.ring, r) for n, r in complex_.ranks.items()}
        return cls._trusted(complex_, complex_, comps)

    @classmethod
    def zero(cls, source: ChainComplex, target: ChainComplex) -> "ChainMap":
        return cls._trusted(source, target, {})

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        if other.target != self.source:
            raise DimensionError("chain maps do not compose")
        f, g = self.components, other.components
        return ChainMap._trusted(other.source, self.target, {n: f[n] * g[n] for n in g if n in f})

    def __add__(self, other: "ChainMap") -> "ChainMap":
        self._parallel(other)
        comps = dict(self.components)
        for n, m in other.components.items():
            comps[n] = comps[n] + m if n in comps else m
        return ChainMap._trusted(self.source, self.target, comps)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        self._parallel(other)
        comps = dict(self.components)
        for n, m in other.components.items():
            comps[n] = comps[n] - m if n in comps else -m
        return ChainMap._trusted(self.source, self.target, comps)

    def __neg__(self) -> "ChainMap":
        return ChainMap._trusted(self.source, self.target, {n: -m for n, m in self.components.items()})

    def _parallel(self, other: "ChainMap"):
        if self.source != other.source or self.target != other.target:
            raise DimensionError("chain maps are not parallel")

    def is_zero_map(self) -> bool:
        return not self.components

    def is_chain_iso(self) -> bool:
        if self.source.ranks != self.target.ranks:
            return False
        return all(is_unimodular(self.at(n)) for n in self.source.ranks)

    def __repr__(self):
        return f"ChainMap(degrees={list(self.components)})"


class Homotopy(_Checked):
    """Degreewise witness H with dH + Hd == lhs - rhs."""

    __slots__ = ("lhs", "rhs", "components")

    def __init__(self, lhs: ChainMap, rhs: ChainMap, components: Mapping[int, Matrix]):
        self._fill(lhs, rhs, components)
        X, Y = lhs.source, lhs.target
        dX, dY, H = X.diffs.get, Y.diffs.get, self.components.get
        for n in set(X.ranks) | set(Y.ranks):
            # lhs_n == rhs_n + dH + Hd, which is lhs_n - rhs_n == dH + Hd
            if not _sums_agree([lhs.components.get(n)],
                               [rhs.components.get(n), _product(dY(n + 1), H(n)), _product(H(n - 1), dX(n))]):
                raise InvalidInputError(f"homotopy identity fails at degree {n}")

    def _fill(self, lhs: ChainMap, rhs: ChainMap, components: Mapping[int, Matrix]):
        lhs._parallel(rhs)
        X, Y = lhs.source, lhs.target
        clean = _nonzero_blocks(X.ring, components, lambda n: (Y.rank(n + 1), X.rank(n)), "homotopy component")
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "components", clean)

    def at(self, n: int) -> Matrix:
        got = self.components.get(n)
        if got is not None:
            return got
        return Matrix.zeros(self.lhs.source.ring, self.lhs.target.rank(n + 1), self.lhs.source.rank(n))


# ---------------------------------------------------------------------------
# Shift, cone, cylinder.


def shift(complex_: ChainComplex, k: int) -> ChainComplex:
    """Degree shift: the new degree-n part is the old degree-(n+k) part.

    Odd shifts negate every differential.
    """
    ranks = {n - k: r for n, r in complex_.ranks.items()}
    if k % 2 == 0:
        diffs = {n - k: m for n, m in complex_.diffs.items()}
    else:
        diffs = {n - k: -m for n, m in complex_.diffs.items()}
    return ChainComplex._trusted(complex_.ring, ranks, diffs)


def shift_map(f: ChainMap, k: int) -> ChainMap:
    return ChainMap._trusted(shift(f.source, k), shift(f.target, k), {n - k: m for n, m in f.components.items()})


class _Layout:
    """Degree n is C_{n-s} (+) ... over the pairs (C, s) of ``parts``.

    ``grid(n)`` gives the blocks of d_n by summand, None for a zero block.
    """

    __slots__ = ("parts", "complex")

    def __init__(self, parts: list, grid):
        ring = parts[0][0].ring
        self.parts = parts
        degrees = {n + s for c, s in parts for n in c.ranks}
        diffs = {}
        for n in degrees | {n + 1 for n in degrees}:
            cells = grid(n)
            if any(cell is not None for row in cells for cell in row):
                diffs[n] = block(ring, cells, self.sizes(n - 1), self.sizes(n))
        self.complex = ChainComplex._trusted(ring, {n: sum(self.sizes(n)) for n in degrees}, diffs)

    def sizes(self, n: int) -> list:
        """The ranks of the summands at degree n."""
        return [c.rank(n - s) for c, s in self.parts]

    def inclusion(self, i: int, n: int) -> Matrix:
        """Summand i into the sum at degree n; its transpose projects back."""
        sizes = self.sizes(n)
        start = sum(sizes[:i])
        return _selection(self.complex.ring, sum(sizes), range(start, start + sizes[i]))


def _negated(mat: Optional[Matrix]) -> Optional[Matrix]:
    return None if mat is None else -mat


class Cone(NamedTuple):
    complex: ChainComplex
    inclusion: ChainMap   # from the target of f
    projection: ChainMap  # onto the shifted source of f


def _cone_layout(f: ChainMap) -> _Layout:
    X, Y = f.source, f.target
    return _Layout([(X, 1), (Y, 0)], lambda n: [[_negated(X.diffs.get(n - 1)), None],
                                                [_negated(f.components.get(n - 1)), Y.diffs.get(n)]])


def _cone_maps(f: ChainMap, layout: _Layout) -> Cone:
    """The cone of f, with its maps, on the layout ``_cone_layout(f)``."""
    X, Y = f.source, f.target
    c = layout.complex
    incl = ChainMap._trusted(Y, c, {n: layout.inclusion(1, n) for n in Y.ranks})
    proj = ChainMap._trusted(c, shift(X, -1), {
        n: layout.inclusion(0, n).transpose() for n in c.ranks if X.rank(n - 1)})
    return Cone(c, incl, proj)


def cone(f: ChainMap) -> Cone:
    return _cone_maps(f, _cone_layout(f))


def _cylinder(f: ChainMap) -> _Layout:
    X, Y = f.source, f.target
    return _Layout([(X, 0), (X, 1), (Y, 0)], lambda n: [
        [X.diffs.get(n), Matrix.identity(X.ring, X.rank(n - 1)) if X.rank(n - 1) else None, None],
        [None, _negated(X.diffs.get(n - 1)), None],
        [None, _negated(f.components.get(n - 1)), Y.diffs.get(n)]])


def cylinder(f: ChainMap) -> ChainComplex:
    return _cylinder(f).complex


class StructureMaps(NamedTuple):
    cylinder: ChainComplex
    j1: ChainMap  # source end inclusion
    j2: ChainMap  # target end inclusion, split by p
    p: ChainMap   # projection onto the target, a homotopy equivalence


def structure_maps(f: ChainMap) -> StructureMaps:
    X, Y = f.source, f.target
    layout = _cylinder(f)
    cyl = layout.complex
    j1 = ChainMap._trusted(X, cyl, {n: layout.inclusion(0, n) for n in X.ranks})
    j2 = ChainMap._trusted(Y, cyl, {n: layout.inclusion(2, n) for n in Y.ranks})
    p = ChainMap._trusted(cyl, Y, {
        n: block(X.ring, [[f.components.get(n), None, Matrix.identity(X.ring, Y.rank(n))]],
                 [Y.rank(n)], layout.sizes(n))
        for n in cyl.ranks if Y.rank(n)
    })
    return StructureMaps(cyl, j1, j2, p)


def cyl_functorial(f: ChainMap, g: ChainMap, a: ChainMap, b: ChainMap) -> ChainMap:
    """The cylinder construction applied to a commuting square.

    ``a`` maps the source of f to the source of g, ``b`` the targets;
    requires b.f == g.a and returns the block-diagonal map
    Cyl(f) -> Cyl(g).
    """
    if b.compose(f) != g.compose(a):
        raise InvalidInputError("square does not commute")
    src, tgt = _cylinder(f), _cylinder(g)
    at, bt = a.components.get, b.components.get
    comps = {
        n: block(f.source.ring, [[at(n), None, None], [None, at(n - 1), None], [None, None, bt(n)]],
                 tgt.sizes(n), src.sizes(n))
        for n in src.complex.ranks
    }
    return ChainMap._trusted(src.complex, tgt.complex, comps)


# ---------------------------------------------------------------------------
# Homology.


def _divisors(complex_: ChainComplex, n: int) -> tuple:
    """Elementary divisors of d_n; a zero differential has none."""
    mat = complex_.diffs.get(n)
    return () if mat is None else elementary_divisors(mat)


def homology(complex_: ChainComplex, n: int) -> FgModule:
    """Canonical form of (kernel of d_n) / (image of d_{n+1}).

    Read off the elementary divisors of the two differentials; no kernel
    basis is built and nothing is solved.  Over a PID the image of d_n is
    a submodule of a free module, hence free, so the kernel of d_n is a
    direct summand of R^{r_n}.  Since every ``ChainComplex`` satisfies
    d.d == 0 (checked when it is built), the image of d_{n+1} lies in
    that summand, and the quotient is the torsion of the cokernel of
    d_{n+1} plus a free part of rank r_n - rank d_n - rank d_{n+1}.
    """
    top = _divisors(complex_, n + 1)
    return _from_chain(complex_.ring, complex_.rank(n) - len(_divisors(complex_, n)) - len(top), top)


def homology_table(complex_: ChainComplex) -> dict:
    return {n: homology(complex_, n) for n in complex_.degree_range()}


def is_acyclic(complex_: ChainComplex) -> bool:
    return all(homology(complex_, n).is_zero() for n in complex_.degree_range())


# ---------------------------------------------------------------------------
# Subcomplexes and restriction.


def _restrict(mat: Matrix, source: Optional[Matrix] = None, target: Optional[Matrix] = None) -> Matrix:
    """``mat`` on the column span of ``source``, in the coordinates of
    ``target``; None is the whole free module."""
    if source is not None:
        mat = mat * source
    if target is None:
        return mat
    solved = solve(target, mat)
    if solved is None:
        raise NotAComplexError("map does not restrict to the target basis")
    return solved


def _subcomplex(complex_: ChainComplex, bases: Mapping[int, Optional[Matrix]]):
    """The subcomplex spanned by ``bases[n]`` in degree n (None: all of
    it) and its inclusion, both checked."""
    ranks = {n: complex_.rank(n) if b is None else b.cols for n, b in bases.items()}
    diffs = {n: _restrict(complex_.diffs[n], bases[n], bases[n - 1])
             for n in ranks if ranks[n] and ranks.get(n - 1) and n in complex_.diffs}
    sub = ChainComplex(complex_.ring, ranks, diffs)
    return sub, ChainMap(sub, complex_, {
        n: Matrix.identity(complex_.ring, r) if bases[n] is None else bases[n] for n, r in sub.ranks.items()})


# ---------------------------------------------------------------------------
# Truncations.


def truncate_ge(complex_: ChainComplex, n: int) -> ChainComplex:
    """Keep degrees above n; degree n becomes the kernel of d_n."""
    return _tau_ge(complex_, n)[0]


def truncate_le(complex_: ChainComplex, n: int) -> ChainComplex:
    """Keep degrees below n+1; degree n+1 becomes the image of d_{n+1}."""
    image = image_basis(complex_.d(n + 1))
    ranks = {m: r for m, r in complex_.ranks.items() if m <= n}
    ranks[n + 1] = image.cols
    diffs = {m: mat for m, mat in complex_.diffs.items() if m <= n}
    if image.cols:
        diffs[n + 1] = image
    return ChainComplex(complex_.ring, ranks, diffs)


def _tau_ge(complex_: ChainComplex, n: int):
    bases = dict.fromkeys(m for m in complex_.ranks if m > n)
    bases[n] = kernel_basis(complex_.d(n))
    return _subcomplex(complex_, bases)


def _tau_le(complex_: ChainComplex, n: int):
    """``truncate_le`` with its checked projection."""
    lower = truncate_le(complex_, n)
    proj_comps = {m: Matrix.identity(complex_.ring, complex_.rank(m)) for m in complex_.ranks if m <= n}
    if complex_.rank(n + 1):
        proj_comps[n + 1] = _restrict(complex_.d(n + 1), target=lower.d(n + 1))
    return lower, ChainMap(complex_, lower, proj_comps)


class TruncationTriple(NamedTuple):
    """The canonical short sequence (upper truncation) -> X -> (lower truncation)."""

    upper: ChainComplex
    lower: ChainComplex
    incl: ChainMap
    proj: ChainMap

    def degreewise_exact(self) -> bool:
        degrees = set(self.incl.target.ranks) | set(self.upper.ranks) | set(self.lower.ranks)
        return not any(_ses_failure(self.incl.at(m), self.proj.at(m)) for m in degrees)


def truncation_triple(complex_: ChainComplex, n: int) -> TruncationTriple:
    upper, incl = _tau_ge(complex_, n + 1)
    lower, proj = _tau_le(complex_, n)
    return TruncationTriple(upper, lower, incl, proj)


class TruncationSplitting(NamedTuple):
    """Chain-level splitting of the canonical truncation sequence.

    ``u`` retracts the inclusion of the upper truncation and ``v``
    sections the projection onto the lower one; the five identities
    g.v == id, u.f == id, u.v == 0, g.f == 0, f.u + v.g == id hold
    exactly (f = incl, g = proj).
    """

    triple: TruncationTriple
    u: ChainMap
    v: ChainMap

    def identities_hold(self) -> bool:
        f, g = self.triple.incl, self.triple.proj
        u, v = self.u, self.v
        X = f.target
        return (
            g.compose(v) == ChainMap.identity(self.triple.lower)
            and u.compose(f) == ChainMap.identity(self.triple.upper)
            and u.compose(v).is_zero_map()
            and g.compose(f).is_zero_map()
            and f.compose(u) + v.compose(g) == ChainMap.identity(X)
        )


def truncation_splitting(complex_: ChainComplex, n: int) -> TruncationSplitting:
    """Split the canonical truncation sequence at degree n.

    Requires torsion homology in every degree (free kernels are
    automatic over a PID).  The only degree needing work is n+1, where a
    section of the image corestriction is solved exactly and the
    complementary projector is rewritten in kernel coordinates.
    """
    lower, proj = _tau_le(complex_, n)
    upper, incl, u, section = _retraction_onto_upper(complex_, n, proj.at(n + 1))
    ring = complex_.ring
    v_comps = {m: Matrix.identity(ring, complex_.rank(m)) for m in complex_.ranks if m <= n}
    v_comps[n + 1] = section
    return TruncationSplitting(TruncationTriple(upper, lower, incl, proj), u, ChainMap(lower, complex_, v_comps))


def _retraction_onto_upper(complex_: ChainComplex, n: int, corestriction: Matrix):
    """The upper truncation at n+1 with its inclusion, the retraction u
    of that inclusion and the degree-(n+1) component of the section v,
    as in ``truncation_splitting``, from the corestriction of d_{n+1}
    onto its image basis; no lower truncation is built."""
    ring = complex_.ring
    for m in complex_.degree_range():
        if homology(complex_, m).free_rank:
            raise InvalidInputError(f"homology at degree {m} is not torsion")
    mid = n + 1
    upper, incl = _tau_ge(complex_, mid)
    section = _splitting({mid: corestriction}, None, False)[mid]
    complement = Matrix.identity(ring, complex_.rank(mid)) - section * corestriction
    u_comps = {m: Matrix.identity(ring, complex_.rank(m)) for m in complex_.ranks if m > mid}
    u_comps[mid] = _restrict(complement, target=incl.at(mid))
    return upper, incl, ChainMap(complex_, upper, u_comps), section


def tau_ge_map(f: ChainMap, n: int) -> ChainMap:
    """Induced map on upper truncations."""
    sub_x, incl_x = _tau_ge(f.source, n)
    sub_y, incl_y = _tau_ge(f.target, n)
    comps = {m: f.at(m) for m in sub_x.ranks if m > n}
    if sub_x.rank(n):
        comps[n] = _restrict(f.at(n), incl_x.at(n), incl_y.at(n))
    return ChainMap(sub_x, sub_y, comps)


def tau_le_map(f: ChainMap, n: int) -> ChainMap:
    """Induced map on lower truncations."""
    low_x, low_y = truncate_le(f.source, n), truncate_le(f.target, n)
    comps = {m: f.at(m) for m in low_x.ranks if m <= n}
    if low_x.rank(n + 1):
        comps[n + 1] = _restrict(f.at(n), low_x.d(n + 1), low_y.d(n + 1))
    return ChainMap(low_x, low_y, comps)


# ---------------------------------------------------------------------------
# Homotopy solving.


def _solve_degreewise(ring: Ring, shapes: Mapping[int, tuple], equations) -> Optional[dict]:
    """Solve jointly for one matrix X_n per degree; None iff no exact solution.

    ``shapes`` maps each degree with an unknown to its (rows, cols), in
    the order the unknowns are stacked.  An equation is a pair
    (terms, rhs) asking that the sum of left . X_n . right over its terms
    (left, n, right), at most one per degree, equal rhs; a term in a
    degree without an unknown has a zero dimension and drops out.
    """
    grid = []
    target = []
    for terms, rhs in equations:
        cells = dict.fromkeys(shapes)
        for left, n, right in terms:
            if n in cells:
                cells[n] = _kron(left, right.transpose())
        grid.append(list(cells.values()))
        target.extend([x] for row in rhs.entries for x in row)
    heights = [rhs.rows * rhs.cols for _, rhs in equations]
    system = block(ring, grid, heights, [rows * cols for rows, cols in shapes.values()])
    sol = solve(system, Matrix._raw(ring, len(target), 1, target))
    if sol is None:
        return None
    flat = iter([row[0] for row in sol.entries])
    return {n: Matrix._raw(ring, rows, cols, [[next(flat) for _ in range(cols)] for _ in range(rows)])
            for n, (rows, cols) in shapes.items()}


def homotopy_between(u: ChainMap, v: ChainMap) -> Optional[Homotopy]:
    """Solve dH + Hd == u - v in all degrees at once; None iff no exact solution exists."""
    diff = u - v
    X, Y = u.source, u.target
    ring = X.ring
    eye = partial(Matrix.identity, ring)
    shapes = {n: (Y.rank(n + 1), r) for n, r in X.ranks.items() if Y.rank(n + 1)}
    equations = [([(Y.d(n + 1), n, eye(r)), (eye(Y.rank(n)), n - 1, X.d(n))], diff.at(n))
                 for n, r in X.ranks.items() if Y.rank(n)]
    comps = _solve_degreewise(ring, shapes, equations)
    return None if comps is None else Homotopy(u, v, comps)


def nullhomotopy(u: ChainMap) -> Optional[Homotopy]:
    """A homotopy from u to the zero map; None iff none exists."""
    return homotopy_between(u, ChainMap.zero(u.source, u.target))


def chain_retraction(incl: ChainMap) -> Optional[ChainMap]:
    """Solve for a chain map r with r . incl == id on the source.

    The chain-map law and the retraction identity are solved jointly,
    so the result is a genuine chain-level retraction.
    """
    A, B = incl.source, incl.target
    ring = A.ring
    eye = partial(Matrix.identity, ring)
    shapes = {n: (A.rank(n), r) for n, r in B.ranks.items() if A.rank(n)}
    equations = []
    for n in set(A.ranks) | set(B.ranks):
        # dA(n) . r_n - r_{n-1} . dB(n) == 0 and r_n . incl_n == id
        equations.append(([(A.d(n), n, eye(B.rank(n))), (eye(A.rank(n - 1)), n - 1, -B.d(n))],
                          Matrix.zeros(ring, A.rank(n - 1), B.rank(n))))
        equations.append(([(eye(A.rank(n)), n, incl.at(n))], eye(A.rank(n))))
    comps = _solve_degreewise(ring, shapes, equations)
    return None if comps is None else ChainMap(B, A, comps)


# ---------------------------------------------------------------------------
# Quasi-isomorphism degree.


def quasi_iso_degree(f: ChainMap):
    """Largest n with vanishing cone homology in degrees <= n.

    Returns ``math.inf`` when f is a quasi-isomorphism.  Only the cone
    complex is built, not its maps.
    """
    return _vanishing_degree(_cone_layout(f).complex)


def _vanishing_degree(mapping_cone: ChainComplex):
    """``quasi_iso_degree`` of a map, read off the complex of its cone."""
    for k in mapping_cone.degree_range():
        if not homology(mapping_cone, k).is_zero():
            return k - 1
    return math.inf


# ---------------------------------------------------------------------------
# Short exact sequences of complexes.


class ComplexSes(_Checked):
    """Degreewise short exact sequence of bounded free complexes; immutable.

    With no witnesses to check, exactness is proved by elimination at
    every degree: the inclusion is injective, the projection surjective
    and the image equals the kernel, all read off elementary divisors.
    The subclass ``AdmissibleSes`` proves it by its witnesses instead.
    """

    __slots__ = ("mono", "epi")

    def __init__(self, mono: ChainMap, epi: ChainMap):
        self._fill(mono, epi)
        for n in set(mono.source.ranks) | set(mono.target.ranks) | set(epi.target.ranks):
            failure = _ses_failure(mono.at(n), epi.at(n))
            if failure:
                raise InvalidInputError(f"{failure} at degree {n}")

    def _fill(self, mono: ChainMap, epi: ChainMap):
        if mono.target != epi.source:
            raise InvalidInputError("maps are not consecutive")
        object.__setattr__(self, "mono", mono)
        object.__setattr__(self, "epi", epi)

    @property
    def left(self) -> ChainComplex:
        return self.mono.source

    @property
    def middle(self) -> ChainComplex:
        return self.mono.target

    @property
    def right(self) -> ChainComplex:
        return self.epi.target


def _ses_failure(first: Matrix, second: Matrix) -> Optional[str]:
    """How 0 -> . -first-> . -second-> . -> 0 first fails to be exact, or None.

    Requires second * first == 0 (``is_exact_at`` raises otherwise).
    """
    if len(elementary_divisors(first)) < first.cols:
        return "inclusion is not injective"
    if not cokernel(second).is_zero():
        return "projection is not surjective"
    if not is_exact_at(first, second):
        return "sequence is not exact"
    return None


def kernel_image_sequences(ses: ComplexSes, n: int) -> tuple[bool, bool]:
    """Exactness of the induced kernel and image sequences at degree n.

    Requires the homology of the subcomplex at n-1 or of the quotient at
    n to vanish; otherwise a HypothesisNotMetError signals that the
    check is skipped rather than asserted.
    """
    X, Y, Z = ses.left, ses.middle, ses.right
    if not (homology(X, n - 1).is_zero() or homology(Z, n).is_zero()):
        raise HypothesisNotMetError(f"both side homologies are nonzero at degree {n}")

    kx, ky, kz = kernel_basis(X.d(n)), kernel_basis(Y.d(n)), kernel_basis(Z.d(n))
    into, onto = _restrict(ses.mono.at(n), kx, ky), _restrict(ses.epi.at(n), ky, kz)
    kernels_exact = (onto * into).is_zero() and not _ses_failure(into, onto)

    bx, by, bz = image_basis(X.d(n)), image_basis(Y.d(n)), image_basis(Z.d(n))
    into_im, onto_im = _restrict(ses.mono.at(n - 1), bx, by), _restrict(ses.epi.at(n - 1), by, bz)
    images_exact = (onto_im * into_im).is_zero() and not _ses_failure(into_im, onto_im)
    return kernels_exact, images_exact


# ---------------------------------------------------------------------------
# Split monomorphisms and quotients.


def _splitting(maps: Mapping[int, Matrix], witnesses: Optional[dict], retract: bool) -> dict:
    """``witnesses`` of ``maps`` (retractions r_n . m_n == id with
    ``retract``, else sections m_n . s_n == id), each checked; when None,
    each is solved exactly, a retraction as a transposed section.
    ``maps`` holds a component at every degree where the split side is
    nonzero."""
    if witnesses is None:
        witnesses = {}
        for n, mat in maps.items():
            side = mat.transpose() if retract else mat
            sol = solve(side, Matrix.identity(mat.ring, side.rows))
            if sol is None:
                raise InvalidInputError(f"{'mono' if retract else 'epi'}morphism is not degreewise split")
            witnesses[n] = sol.transpose() if retract else sol
    for n, mat in maps.items():
        w = witnesses.get(n)
        size = mat.cols if retract else mat.rows
        if w is None or (w * mat if retract else mat * w) != Matrix.identity(mat.ring, size):
            raise InvalidInputError(f"stored {'retraction' if retract else 'section'} fails")
    return witnesses


def _mono_components(incl: ChainMap) -> dict:
    """The components of ``incl`` where its source is nonzero."""
    return {n: incl.at(n) for n in incl.source.ranks}


def split_retractions(incl: ChainMap) -> Optional[dict]:
    """Checked degreewise retractions of a degreewise split monomorphism;
    None if it is not one."""
    try:
        return _splitting(_mono_components(incl), None, True)
    except InvalidInputError:
        return None


def quotient_by_split_mono(incl: ChainMap, retractions: Optional[dict] = None):
    """Quotient complex of a degreewise split mono, with its projection.

    The given (or solved) retraction, checked, gives the complementary
    projector per degree; its image basis carries the quotient
    coordinates.
    """
    quotient, projs = _split_quotient(incl, _splitting(_mono_components(incl), retractions, True))
    return quotient, ChainMap(incl.target, quotient, {n: m for n, m in projs.items() if quotient.rank(n)})


def _split_quotient(incl: ChainMap, retractions: dict):
    """The quotient complex of ``quotient_by_split_mono`` and its
    projection's components by degree, without building the projection;
    ``retractions`` are checked."""
    B = incl.target
    ring = B.ring
    bases = {}
    projs = {}
    for n in B.ranks:
        ident = Matrix.identity(ring, B.rank(n))
        r = retractions.get(n)
        projector = ident - incl.at(n) * r if r is not None else ident
        bases[n] = image_basis(projector)
        projs[n] = _restrict(projector, target=bases[n])
    ranks = {n: bases[n].cols for n in bases}
    diffs = {}
    for n in bases:
        if n - 1 in bases and ranks[n] and ranks[n - 1]:
            diffs[n] = projs[n - 1] * B.d(n) * bases[n]
    return ChainComplex(ring, ranks, diffs), projs


# ---------------------------------------------------------------------------
# Direct sums.


class DirectSum(NamedTuple):
    complex: ChainComplex
    inclusions: tuple
    projections: tuple


def _sum_layout(parts) -> _Layout:
    """The layout of ``direct_sum(*parts)``; its complex is the sum, and
    no inclusion or projection is built."""
    if not parts:
        raise InvalidInputError("direct sum of no complexes")
    if any(part.ring != parts[0].ring for part in parts):
        raise InvalidInputError("direct sum across different rings")
    return _Layout([(part, 0) for part in parts], lambda n: [
        [p.diffs.get(n) if i == j else None for j in range(len(parts))] for i, p in enumerate(parts)])


def direct_sum(*parts: ChainComplex) -> DirectSum:
    layout = _sum_layout(parts)
    total = layout.complex
    inclusions = tuple(ChainMap._trusted(part, total, {n: layout.inclusion(i, n) for n in part.ranks})
                       for i, part in enumerate(parts))
    projections = tuple(ChainMap._trusted(total, inc.source, {n: m.transpose() for n, m in inc.components.items()})
                        for inc in inclusions)
    return DirectSum(total, inclusions, projections)
