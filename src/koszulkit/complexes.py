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
Both paths store the fields in one step, ``_Checked._store``.  Every
degree table it stores (ranks, differentials, components, witnesses)
is a read-only ``_Table``, built once by ``_table`` where the class
normalizes or checks it, so no item assignment, dict update or second
``__init__`` can undo a check.

Law checks multiply only blocks that exist, and build no matrix.
Differentials and components are stored only where they are nonzero, so
an absent block is zero, and so is any product with it.  At each degree
the checks of ``ChainMap`` and ``Homotopy`` form a product only when
both of its factors are present; a side of the law left with no blocks
is zero, so the other side must be zero, and a degree with no blocks on
either side holds trivially.  Every law check (d.d == 0, commutation,
the homotopy identity, the composite and the witnesses of a short exact
sequence) multiplies with the work ring's ``product`` and compares the
work rows it returns, which are equal exactly when the matrices are.
``compose`` multiplies only where both maps have a component, and sums
and differences take a block without a partner as it is (negated when
it is subtracted).

Homology.  ``homology`` never builds a kernel basis or solves a
system: it is read off the (memoized) elementary divisors of d_n and
d_{n+1}, so a homology table diagonalizes each differential once.  This
relies on the d.d == 0 invariant that every ``ChainComplex`` carries.
Kernel bases and solving remain where a construction needs actual maps:
truncations, splittings, lifts and the kernel/image sequences.

Smith bases.  ``smith_decomposition`` returns a complex in Smith bases,
a checked ``SmithDecomposition``, from one stage per degree,
``_smith_stage``, the only Smith basis relative to cycles in the
package: ``ed_decompose`` and the cellular factorization read theirs
from it.

Short exact sequences.  Over a PID a short exact sequence of free
modules splits, because its quotient is free, so ``ComplexSes`` proves
exactness by its degreewise splitting and no elimination (see its
docstring).  The truncation sequence is one too, and its splitting
bundle builds it on the witnesses it already holds.  ``_is_short_exact``
runs the same proof on one pair of matrices, for the kernel/image
sequences.

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

Split monomorphisms and quotients.  Split monos, split epis and
``ComplexSes`` share one private step, ``_splitting``.  It takes a map
and the caller's witnesses or None, and returns a new read-only table
of witnesses at exactly the degrees where the split side (the source
of a mono, the target of an epi) is nonzero; ``ComplexSes`` stores it
as it is, and the image factorization and excision certificate of
``sfiltering`` hold such tables of sections too.  When None, it solves
them: a section s_n with m_n . s_n == id, and a retraction as a
transposed section.  It checks every witness it returns, given or
solved, since anything built from solved data keeps its check.  Its
errors are ``InvalidInputError``s:
"monomorphism/epimorphism is not degreewise split" when a solve finds
none, "stored retraction/section fails" when a check fails or a given
dict lacks one of those degrees or holds a block of another shape or
ring there, and "... where the split side is zero"
when a given witness at another degree is not the empty block there.
A result bundle checking its own witnesses has the last two raised as
``WitnessError``, the subclass that says the bundle broke its law.
``split_retractions`` returns None where the step raises.

Homotopy solving.  ``homotopy_between`` solves dH + Hd == phi, for
phi = u - v from X to Y, in the Smith bases of X and Y, where each is a
sum of pieces [R -delta-> R] and free generators, so the Hom complex is
a sum of small ones (Kaczynski, Mischaikow and Mrozek, 2004, ch. 3;
Weibel, 1994, section 1.4).  Conjugated there
(phi'_n = P^Y_n . phi_n . P^X_n^-1), the equation splits into one
equation per entry y of phi'_n, of at most two unknowns.  With beta the
divisor of the piece of Y whose target is the row and alpha that of the
piece of X whose source is the column (0 where there is none), it reads
beta x + alpha z == y, x an entry of H'_n and z one of H'_(n-1).  For
(g, s, t) the work ring's ``ext_gcd(beta, alpha)``, the witness takes
x == s . y/g and z == t . y/g, every other entry of H' is 0, and
H_n == P^Y_(n+1)^-1 . H'_n . P^X_n; the answer is None at the first
entry that g does not divide (among them a nonzero entry between two
free generators, where g is 0).  An unknown that two entries share is
the only unknown of both, and the chain-map law of phi makes the two
quotients agree; an unknown of a two-unknown entry is in no other.  So
the answer is None exactly when no homotopy exists, the witness is a
deterministic function of the maps, and the checked ``Homotopy``
constructor certifies it.
``nullhomotopy`` is its case v == 0, and ``chain_retraction`` reduces
to one ``nullhomotopy`` (see its docstring).

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
from typing import Mapping, NamedTuple, Optional

from .errors import (
    DimensionError,
    HypothesisNotMetError,
    InvalidInputError,
    NotAComplexError,
    WitnessError,
)
from .fgmodules import FgModule, _from_chain
from .matrices import (
    Matrix,
    _Checked,
    _divisor_chain,
    _product_rows,
    _rows_agree,
    _same_rows,
    _selection,
    _smith,
    block,
    elementary_divisors,
    hstack,
    image_basis,
    inverse,
    is_unimodular,
    kernel_basis,
    solve,
)
from .rings import Ring


def _integer(value, what: str):
    """Refuse ``value`` unless it is an ``int`` and not a ``bool``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"{what} {value!r} is not an integer")


def _nonzero_blocks(ring: Ring, blocks: Mapping[int, Matrix], shape, what: str) -> _Table:
    """Check each block's degree, ring and shape ``shape(n)``; the table of the nonzero ones."""
    clean = []
    for n, mat in blocks.items():
        if type(n) is not int:  # formats no message for a plain int
            _integer(n, f"{what} degree")
        rows, cols = shape(n)
        if mat.ring != ring:
            raise InvalidInputError(f"{what} over the wrong ring")
        if mat.rows != rows or mat.cols != cols:
            raise DimensionError(f"{what} at degree {n} has shape {mat.rows}x{mat.cols}, expected {rows}x{cols}")
        if rows and cols and not mat.is_zero():
            clean.append((n, mat))
    clean.sort()  # by degree: the degrees differ, so no two blocks are compared
    return _table(clean)


class _Table(dict):
    """A checked value's read-only table of degrees, in increasing degree:
    it reads as a dict, refuses item assignment, ``del``, ``|=`` and the
    methods ``__init__``, ``update``, ``clear``, ``pop``, ``popitem`` and
    ``setdefault`` with ``TypeError``, and hashes by its sorted items.
    Since ``__init__`` is refused, ``_table`` builds every table."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a checked value's table is read-only")

    __init__ = __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return hash(tuple(sorted(self.items())))

    def __reduce__(self):
        # copy and pickle would refill an empty table item by item, which is refused
        return _table, (list(self.items()),)


def _table(items) -> _Table:
    """The read-only table of the (degree, value) pairs ``items``, which
    come in increasing degree."""
    out = dict.__new__(_Table)
    dict.update(out, items)
    return out


class ChainComplex(_Checked):
    __slots__ = ("ring", "ranks", "diffs")

    def __init__(self, ring: Ring, ranks: Mapping[int, int], diffs: Mapping[int, Matrix]):
        self._store(ring, ranks, diffs)
        for n, mat in self.diffs.items():
            if n + 1 in self.diffs and any(map(any, _product_rows(mat, self.diffs[n + 1]))):
                raise NotAComplexError(f"d({n}) . d({n + 1}) is nonzero")

    def _normalize(self, ring: Ring, ranks: Mapping[int, int], diffs: Mapping[int, Matrix]):
        nonzero = []
        for n, r in ranks.items():
            if type(n) is not int or type(r) is not int:
                _integer(n, "degree")
                _integer(r, "rank")
            if r < 0:
                raise InvalidInputError("negative rank")
            if r:
                nonzero.append((n, r))
        clean = _table(sorted(nonzero))
        return ring, clean, _nonzero_blocks(
            ring, diffs, lambda n: (clean.get(n - 1, 0), clean.get(n, 0)), "differential")

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

    def __repr__(self):
        return f"ChainComplex({self.ring.token}, ranks={self.ranks})"


def two_term(mat: Matrix, top_degree: int = 1) -> ChainComplex:
    """The complex [R^cols -> R^rows] with ``mat`` in degree ``top_degree``."""
    return ChainComplex._trusted(mat.ring, {top_degree: mat.cols, top_degree - 1: mat.rows}, {top_degree: mat})


class ChainMap(_Checked):
    __slots__ = ("source", "target", "components")

    def __init__(self, source: ChainComplex, target: ChainComplex, components: Mapping[int, Matrix]):
        self._store(source, target, components)
        dX, dY, f = source.diffs.get, target.diffs.get, self.components.get
        for n in set(source.ranks) | set(target.ranks):
            if not _rows_agree(source.ring, [_product_rows(dY(n), f(n))], [_product_rows(f(n - 1), dX(n))]):
                raise InvalidInputError(f"components do not commute with differentials at degree {n}")

    def _normalize(self, source: ChainComplex, target: ChainComplex, components: Mapping[int, Matrix]):
        if source.ring != target.ring:
            raise InvalidInputError("chain map across different rings")
        return source, target, _nonzero_blocks(
            source.ring, components, lambda n: (target.ranks.get(n, 0), source.ranks.get(n, 0)), "component")

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
        self._store(lhs, rhs, components)
        X, Y = lhs.source, lhs.target
        dX, dY, H = X.diffs.get, Y.diffs.get, self.components.get
        f, g = ({n: m._work for n, m in side.components.items()}.get for side in (lhs, rhs))
        for n in set(X.ranks) | set(Y.ranks):
            # lhs_n == rhs_n + dH + Hd, which is lhs_n - rhs_n == dH + Hd
            right = [g(n), _product_rows(dY(n + 1), H(n)), _product_rows(H(n - 1), dX(n))]
            if not _rows_agree(X.ring, [f(n)], right):
                raise InvalidInputError(f"homotopy identity fails at degree {n}")

    def _normalize(self, lhs: ChainMap, rhs: ChainMap, components: Mapping[int, Matrix]):
        lhs._parallel(rhs)
        X, Y = lhs.source, lhs.target
        return lhs, rhs, _nonzero_blocks(
            X.ring, components, lambda n: (Y.ranks.get(n + 1, 0), X.ranks.get(n, 0)), "homotopy component")

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


def cone(f: ChainMap) -> Cone:
    X, Y = f.source, f.target
    layout = _cone_layout(f)
    c = layout.complex
    incl = ChainMap._trusted(Y, c, {n: layout.inclusion(1, n) for n in Y.ranks})
    proj = ChainMap._trusted(c, shift(X, -1), {
        n: layout.inclusion(0, n).transpose() for n in c.ranks if X.rank(n - 1)})
    return Cone(c, incl, proj)


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
# Smith bases.


class SmithDecomposition(_Checked):
    """``complex`` in Smith bases: over a PID, after a change of basis in
    each degree, a bounded free complex is a direct sum of pieces
    [R -delta-> R] from a degree n to n-1 and free generators R
    (Kaczynski, Mischaikow and Mrozek, *Computational Homology*, 2004,
    ch. 3).  At each degree n: ``bases[n]`` is the change of basis P_n,
    ``inverses[n]`` its inverse (the new basis as columns),
    ``divisors[n]`` the chain of the pieces from n to n-1 and
    ``free_ranks[n]`` the number of free generators.  The new basis of
    degree n lists the targets of the pieces from n+1, then the free
    generators, then the sources of the pieces to n-1, each in chain
    order, so the differential D_n in the new bases maps the i-th source
    to delta_i times the i-th target.  The nonunit divisors at n+1 and
    the free rank at n are those of H_n.  The law, checked on work rows
    with no elimination when the value is built (else ``WitnessError``):
    the divisors are chains, the counts fill each degree,
    P_n . P_n^-1 == I and D_n . P_n == P_(n-1) . d_n.
    """

    __slots__ = ("complex", "bases", "inverses", "divisors", "free_ranks")

    def __init__(self, complex: ChainComplex, bases: dict, inverses: dict, divisors: dict, free_ranks: dict):
        self._store(complex, bases, inverses, divisors, free_ranks)
        ring, work = complex.ring, complex.ring.work
        packed = {n: _divisor_chain(ring, d) for n, d in self.divisors.items()}
        for n, r in complex.ranks.items():
            p, q, s, below = self.bases[n], self.inverses[n], len(packed[n]), complex.rank(n - 1)
            if not (isinstance(q, Matrix) and (q.ring, q.rows, q.cols) == (ring, r, r) and _splits(q, p, True)) \
                    or len(packed.get(n + 1, ())) + self.free_ranks[n] + s != r or s > below:
                raise WitnessError(f"P_{n} is not a change of basis of degree {n} with its inverse")
            # Row i < s of D_n . P_n is delta_i times the row of P_n of the i-th source; the rest are zero.
            left = [[work.mul(d, x) for x in row] for d, row in zip(packed[n], p._work[r - s:])]
            if not _rows_agree(ring, [left + [[work.zero] * r] * (below - s)],
                               [_product_rows(self.bases.get(n - 1), complex.diffs.get(n))]):
                raise WitnessError(f"D_{n} . P_{n} != P_{n - 1} . d_{n}")

    def _normalize(self, complex, *tables):
        return complex, *(_table((n, table.get(n)) for n in complex.ranks) for table in tables)


def _smith_stage(complex_: ChainComplex, n: int) -> tuple:
    """The Smith basis of the boundaries into degree n relative to the
    cycles there, ``(Z, U, V, divisors)``: with K the Hermite basis of the
    cycles of d_n (the identity where d_n is zero) and d_(n+1) == K B, the
    Smith form U B V == D gives the new cycle basis Z == K U^-1, and
    d_(n+1) V e_i == delta_i Z e_i for each divisor delta_i, while the
    other columns of V span the cycles of degree n+1.  Where every cycle
    is such a target, Z is read off those products by exact division,
    with no inverse."""
    boundaries, ring = complex_.d(n + 1), complex_.ring
    cycles = kernel_basis(complex_.diffs[n]) if n in complex_.diffs else None
    u, _, v, divisors = _smith(boundaries if cycles is None else solve(cycles, boundaries))
    s = len(divisors)
    if s < (boundaries.rows if cycles is None else cycles.cols):
        return inverse(u) if cycles is None else cycles * inverse(u), u, v, divisors
    packed = _divisor_chain(ring, divisors)
    z = [list(map(ring.work.div_exact, row, packed)) for row in (boundaries * v.take_cols(range(s)))._work]
    return Matrix._from_work(ring, boundaries.rows, s, z), u, v, divisors


def smith_decomposition(complex_: ChainComplex) -> SmithDecomposition:
    """``complex_`` in Smith bases, from one ``_smith_stage`` per degree
    with cycles, in increasing degree.  The new basis of degree n is the
    stage's Z, then the first s_n columns of the V of degree n-1 (the
    sources of its s_n pieces), which span a complement of the cycles
    since the other columns of V span them.  With no piece to n-1, d_n
    is zero and P_n is U itself; with no cycles, the basis is that V.
    """
    bases, inverses, divisors, free, sources = {}, {}, {}, {}, {}
    for n, r in complex_.ranks.items():
        s, above, parts = len(divisors.setdefault(n, ())), (), [sources[n]] if n in sources else []
        if s < r:
            cycles, u, v, above = _smith_stage(complex_, n)
            parts.insert(0, cycles)
            divisors[n + 1], sources[n + 1] = above, v.take_cols(range(len(above)))
        inverses[n] = hstack(parts)
        bases[n] = inverse(inverses[n]) if s else u
        free[n] = r - s - len(above)
    return SmithDecomposition(complex_, bases, inverses, divisors, free)


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


def truncation_triple(complex_: ChainComplex, n: int) -> ComplexSes:
    """The canonical short exact sequence (upper truncation at n+1) -> X
    -> (lower truncation at n), its splitting solved and checked."""
    return ComplexSes(_tau_ge(complex_, n + 1)[1], _tau_le(complex_, n)[1])


class TruncationSplitting(_Checked):
    """Chain-level splitting of the canonical truncation sequence.

    ``u`` retracts the inclusion of the upper truncation and ``v``
    sections the projection onto the lower one, so ``triple`` is the
    ``ComplexSes`` whose witnesses are their components: building it
    proves g.f == 0, u.f == id and g.v == id degreewise and the sequence
    exact (f = incl, g = proj).  The law left to check here, when the
    bundle is built (else ``WitnessError``): u and v run back along f
    and g, the triple's witnesses are their components, and u.v == 0,
    which for a split exact sequence is f.u + v.g == id.
    """

    __slots__ = ("triple", "u", "v")

    def __init__(self, triple: ComplexSes, u: ChainMap, v: ChainMap):
        self._store(triple, u, v)
        if not (u.source == v.target == triple.middle and u.target == triple.left and v.source == triple.right
                and u.components == triple.retractions and v.components == triple.sections
                and not any(any(map(any, _product_rows(u.components[n], m)))
                            for n, m in v.components.items() if n in u.components)):
            raise WitnessError("u and v do not split the truncation sequence")


def truncation_splitting(complex_: ChainComplex, n: int) -> TruncationSplitting:
    """Split the canonical truncation sequence at degree n.

    Requires torsion homology in every degree (free kernels are
    automatic over a PID).  The only degree needing work is n+1, where a
    section of the image corestriction is solved exactly and the
    complementary projector is rewritten in kernel coordinates; the
    sequence checks the section.
    """
    ring = complex_.ring
    for m in complex_.degree_range():
        if homology(complex_, m).free_rank:
            raise InvalidInputError(f"homology at degree {m} is not torsion")
    lower, proj = _tau_le(complex_, n)
    upper, incl = _tau_ge(complex_, n + 1)
    section = _witness(proj.at(n + 1), False)
    complement = Matrix.identity(ring, complex_.rank(n + 1)) - section * proj.at(n + 1)
    u_comps = {m: Matrix.identity(ring, r) for m, r in complex_.ranks.items() if m > n + 1}
    u_comps[n + 1] = _restrict(complement, target=incl.at(n + 1))
    v_comps = {m: Matrix.identity(ring, r) for m, r in complex_.ranks.items() if m <= n}
    v_comps[n + 1] = section
    u, v = ChainMap(complex_, upper, u_comps), ChainMap(lower, complex_, v_comps)
    return TruncationSplitting(ComplexSes(incl, proj, u.components, v.components), u, v)


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


def homotopy_between(u: ChainMap, v: ChainMap) -> Optional[Homotopy]:
    """Solve dH + Hd == u - v through the Smith bases of source and
    target, as the module docstring's "Homotopy solving" says; None iff
    no exact solution exists."""
    phi = u - v
    X, Y = u.source, u.target
    ring = X.ring
    work = ring.work
    sx = smith_decomposition(X)
    sy = sx if Y == X else smith_decomposition(Y)
    solved = {n: [[work.zero] * r for _ in range(Y.rank(n + 1))] for n, r in X.ranks.items()}
    for n, f in phi.components.items():
        beta, alpha = _divisor_chain(ring, sy.divisors.get(n + 1, ())), _divisor_chain(ring, sx.divisors[n])
        top, first = Y.rank(n + 1) - len(beta), X.rank(n) - len(alpha)
        for a, row in enumerate((sy.bases[n] * f * sx.inverses[n])._work):
            left = beta[a] if a < len(beta) else work.zero
            for b, y in enumerate(row):
                if y:
                    i = b - first
                    g, s, t = work.ext_gcd(left, alpha[i] if i >= 0 else work.zero)
                    q = work.div_exact(y, g)
                    if q is None:
                        return None
                    if left:
                        solved[n][top + a][b] = work.mul(s, q)
                    if i >= 0:
                        solved[n - 1][a][i] = work.mul(t, q)
    return Homotopy(u, v, {n: sy.inverses[n + 1] * Matrix._from_work(ring, len(h), X.rank(n), h) * sx.bases[n]
                           for n, h in solved.items() if any(map(any, h))})


def nullhomotopy(u: ChainMap) -> Optional[Homotopy]:
    """A homotopy from u to the zero map; None iff none exists."""
    return homotopy_between(u, ChainMap.zero(u.source, u.target))


def chain_retraction(incl: ChainMap) -> Optional[ChainMap]:
    """A chain map r with r . incl == id on the source; None iff none
    exists.  From the degreewise retractions r0 of ``split_retractions``
    (None if there are none), the quotient C with its projection p and
    sections s of p (``_split_quotient``), so id == incl . r0 + s . p: a
    chain retraction is r0 + k . p exactly when k : C -> A solves
    dA . k - k . dC == -(dA . r0 - r0 . dB) . s, which is a nullhomotopy
    of that right side read as a chain map shift(C, 1) -> A."""
    r0 = split_retractions(incl)
    if r0 is None:
        return None
    A, B = incl.source, incl.target
    quotient, projs, sections = _split_quotient(incl, r0)
    at = lambda n: r0.get(n, Matrix.zeros(A.ring, A.rank(n), B.rank(n)))
    k = nullhomotopy(ChainMap(shift(quotient, 1), A, {
        n - 1: (at(n - 1) * B.d(n) - A.d(n) * at(n)) * s for n, s in sections.items() if s.cols}))
    return None if k is None else ChainMap(B, A, {n: at(n) + k.at(n - 1) * p for n, p in projs.items()})


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
    """Short exact sequence of bounded free complexes with its degreewise
    splitting; immutable.

    Over a PID every such sequence splits in each degree, since the
    quotient C_n is free.  The witnesses (retractions r_n . m_n == id and
    sections e_n . s_n == id) are stored; the given ones are checked, the
    absent ones solved and checked.  They prove exactness without an
    elimination: given both, the sequence is exact at n exactly when
    e_n . m_n == 0 and rank B_n == rank A_n + rank C_n, since the image
    of m_n is a direct summand of rank A_n inside the kernel of e_n,
    itself a direct summand of rank B_n - C_n, so the two are equal
    exactly when the ranks agree.  The composite is checked first
    (``NotAComplexError``), then the witnesses, then the ranks
    (``InvalidInputError``).
    """

    __slots__ = ("mono", "epi", "retractions", "sections")

    def __init__(self, mono: ChainMap, epi: ChainMap,
                 retractions: Optional[dict] = None, sections: Optional[dict] = None):
        if mono.target != epi.source:
            raise InvalidInputError("maps are not consecutive")
        for n, m in mono.components.items():
            e = epi.components.get(n)
            if e is not None and any(map(any, _product_rows(e, m))):
                raise NotAComplexError(f"composite of the two maps is nonzero at degree {n}")
        self._store(mono, epi, _splitting(mono, retractions, True), _splitting(epi, sections, False))
        left, middle, right = self.left, self.middle, self.right
        for n in set(left.ranks) | set(middle.ranks) | set(right.ranks):
            if left.rank(n) + right.rank(n) != middle.rank(n):
                raise InvalidInputError(f"sequence is not exact at degree {n}")

    @property
    def left(self) -> ChainComplex:
        return self.mono.source

    @property
    def middle(self) -> ChainComplex:
        return self.mono.target

    @property
    def right(self) -> ChainComplex:
        return self.epi.target


def _is_short_exact(first: Matrix, second: Matrix) -> bool:
    """Whether 0 -> . -first-> . -second-> . -> 0 is exact, by the proof
    of ``ComplexSes``: a zero composite, a retraction of ``first`` and a
    section of ``second``, and the rank count."""
    if first.cols + second.rows != first.rows or any(map(any, _product_rows(second, first))):
        return False
    return _splits(first, _witness(first, True), True) and _splits(second, _witness(second, False), False)


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
    kernels_exact = _is_short_exact(into, onto)

    bx, by, bz = image_basis(X.d(n)), image_basis(Y.d(n)), image_basis(Z.d(n))
    into_im, onto_im = _restrict(ses.mono.at(n - 1), bx, by), _restrict(ses.epi.at(n - 1), by, bz)
    images_exact = _is_short_exact(into_im, onto_im)
    return kernels_exact, images_exact


# ---------------------------------------------------------------------------
# Split monomorphisms and quotients.


def _witness(mat: Matrix, retract: bool) -> Optional[Matrix]:
    """A retraction (``retract``) or a section of ``mat``, solved exactly
    but not checked; None if there is none."""
    side = mat.transpose() if retract else mat
    sol = solve(side, Matrix.identity(mat.ring, side.rows))
    return sol.transpose() if retract and sol is not None else sol


def _splits(mat: Matrix, w: Optional[Matrix], retract: bool) -> bool:
    """Whether ``w`` is a retraction w . mat == id with ``retract``, else
    a section mat . w == id."""
    # Either way the product is defined and square exactly when w, over
    # the ring of mat, has the shape of mat's transpose.
    if not isinstance(w, Matrix) or w.ring != mat.ring or (w.rows, w.cols) != (mat.cols, mat.rows):
        return False
    rows = _product_rows(w, mat) if retract else _product_rows(mat, w)
    return _same_rows(rows, Matrix.identity(mat.ring, len(rows))._work)


def _splitting(f: ChainMap, witnesses: Optional[Mapping[int, Matrix]], retract: bool, error=InvalidInputError):
    """The checked retractions (``retract``) or sections of ``f``, as the
    module docstring's "Split monomorphisms and quotients" says; all are
    solved before any is checked, and a failing one raises ``error``."""
    what = "retraction" if retract else "section"
    split = (f.source if retract else f.target).ranks
    if witnesses is None:
        witnesses = {}
        for n in split:
            witnesses[n] = _witness(f.at(n), retract)
            if witnesses[n] is None:
                raise InvalidInputError(f"{'mono' if retract else 'epi'}morphism is not degreewise split")
    for n in split:
        if not _splits(f.at(n), witnesses.get(n), retract):
            raise error(f"stored {what} fails")
    for n, w in witnesses.items():
        if n not in split and not (isinstance(w, Matrix) and (w.rows, w.cols) == (f.source.rank(n), f.target.rank(n))):
            raise error(f"{what} at degree {n}, where the split side is zero, is not empty")
    return _table((n, witnesses[n]) for n in split)


def split_retractions(incl: ChainMap) -> Optional[dict]:
    """Checked degreewise retractions of a degreewise split monomorphism;
    None if it is not one."""
    try:
        return _splitting(incl, None, True)
    except InvalidInputError:
        return None


def quotient_by_split_mono(incl: ChainMap, retractions: Optional[dict] = None):
    """Quotient complex of a degreewise split mono, with its projection.

    The given (or solved) retraction, checked, gives the complementary
    projector per degree; its image basis carries the quotient
    coordinates.
    """
    quotient, projs, _ = _split_quotient(incl, _splitting(incl, retractions, True))
    return quotient, ChainMap(incl.target, quotient, {n: m for n, m in projs.items() if quotient.rank(n)})


def _split_quotient(incl: ChainMap, retractions: dict):
    """The quotient complex of ``quotient_by_split_mono``, its
    projection's components by degree, without building the projection,
    and the image bases, which are sections of those components;
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
    return ChainComplex(ring, ranks, diffs), projs, bases


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
