"""Small constructions that tests build inputs with or compare against.

The library never runs these, so they live beside the tests.  Each is
built from the public API (and the generators' private draw helpers,
for ``gen_matrix``), and none of them skips a check that the library
would make.  ``assert_refused`` is the one assertion that the forgery
tests of the checked values share.
"""

import pickle
from functools import partial, reduce

import pytest

from koszulkit.complexes import ChainComplex, ChainMap
from koszulkit.errors import InvalidInputError, WitnessError
from koszulkit.fgmodules import FgModule
from koszulkit.generators import (AObjectSample, CObjectSample, GenParams, KoszulSample, _below, rand_matrix,
                                  trial_rng)
from koszulkit.k0 import K0TorsionClass
from koszulkit.koszul import PresentedKoszul, h0_presentation
from koszulkit.matrices import Matrix, block, solve
from koszulkit.presented import PresentedMap, PresentedModule


def zero_complex(ring) -> ChainComplex:
    return ChainComplex(ring, {}, {})


def euler_characteristic(complex_: ChainComplex) -> int:
    return sum(r if n % 2 == 0 else -r for n, r in complex_.ranks.items())


def h0_map(f: ChainMap) -> PresentedMap:
    """The map that ``f`` induces on the degree-zero homology presentations."""
    return PresentedMap(h0_presentation(f.source), h0_presentation(f.target), f.at(0))


def expected_h0(sample: KoszulSample | CObjectSample) -> FgModule:
    """The H_0 that a ``gen_koszul`` or ``gen_c_object`` sample was built
    to have: the cyclic modules of its divisors."""
    if isinstance(sample, KoszulSample):
        return FgModule.make(sample.complex.ring, 0, sample.block_divisors)
    return FgModule.make(sample.object.top.ring, 0, sample.h0_divisors)


def expected_homology(sample: AObjectSample) -> dict:
    """degree -> the homology module that a ``gen_a_object`` sample was
    built to have there, over the degrees of its complex."""
    ring = sample.complex.ring
    return {n: FgModule.make(ring, 0, sample.homology_divisors.get(n, ()))
            for n in sample.complex.degree_range()}


def presented_from_free(complex_: ChainComplex) -> PresentedKoszul:
    """The free two-term complex ``complex_`` (degrees 1 and 0) as a
    presented one, with free top and bottom; the ``PresentedKoszul``
    constructor refuses it unless it is a Koszul complex."""
    ring = complex_.ring
    top = PresentedModule.free(ring, complex_.rank(1))
    bottom = PresentedModule.free(ring, complex_.rank(0))
    return PresentedKoszul(top, bottom, PresentedMap(top, bottom, complex_.d(1)))


def torsion_class(ring, counts: dict) -> K0TorsionClass:
    """The class with multiplicity ``counts[p]`` at each canonical prime p."""
    def power(sign):
        return reduce(ring.mul, (p for p, m in counts.items() for _ in range(sign * m)), ring.one)
    return K0TorsionClass(ring, power(1), power(-1))


def length_at(module: FgModule, p) -> int:
    """Total multiplicity of the prime p across the torsion divisors, by
    repeated exact division."""
    ring = module.ring
    if not module.is_torsion():
        raise InvalidInputError("length is defined for torsion modules only")
    if not ring.is_canonical_prime(p):
        raise InvalidInputError(f"{p!r} is not a canonical prime")
    total = 0
    for t in module.torsion:
        while True:
            q = ring.div_exact(t, p)
            if q is None:
                break
            total += 1
            t = q
    return total


def gen_matrix(params: GenParams, trial: int, max_dim: int = 6, bound=None):
    """A seeded random matrix of at most ``max_dim`` rows and columns."""
    rng = trial_rng(params, trial)
    rows, cols = _below(rng, max_dim + 1), _below(rng, max_dim + 1)
    return rand_matrix(rng, params.ring, rows, cols, bound if bound is not None else params.max_entry)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: block (i, k) is a[i][k] * b.  Under row-major
    vectorization vec(a . X . b^T) == kron(a, b) . vec(X) (Henderson and
    Searle, 1981)."""
    ring = a.ring
    return Matrix._raw(ring, a.rows * b.rows, a.cols * b.cols,
                       [[ring.mul(x, y) for x in arow for y in brow] for arow in a.entries for brow in b.entries])


def solve_degreewise(ring, shapes: dict, equations):
    """Solve jointly for one matrix X_n per degree, as one stacked
    Kronecker system and one ``solve``; None iff no exact solution.

    ``shapes`` maps each degree with an unknown to its (rows, cols), in
    the order the unknowns are stacked.  An equation is a pair
    (terms, rhs) asking that the sum of left . X_n . right over its terms
    (left, n, right), at most one per degree, equal rhs; a term in a
    degree without an unknown has a zero dimension and drops out.  The
    homotopy solver of ``complexes`` is held to this reference.
    """
    grid = []
    target = []
    for terms, rhs in equations:
        cells = dict.fromkeys(shapes)
        for left, n, right in terms:
            if n in cells:
                cells[n] = kron(left, right.transpose())
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


def reference_homotopy(u: ChainMap, v: ChainMap):
    """The components H_n with dH + Hd == u - v that ``solve_degreewise``
    finds, all degrees at once; None iff there are none."""
    X, Y = u.source, u.target
    ring = X.ring
    diff = u - v
    shapes = {n: (Y.rank(n + 1), r) for n, r in X.ranks.items() if Y.rank(n + 1)}
    equations = [([(Y.d(n + 1), n, Matrix.identity(ring, r)), (Matrix.identity(ring, Y.rank(n)), n - 1, X.d(n))],
                  diff.at(n))
                 for n, r in X.ranks.items() if Y.rank(n)]
    return solve_degreewise(ring, shapes, equations)


def reference_retraction(incl: ChainMap):
    """The components of a chain map r with r . incl == id that
    ``solve_degreewise`` finds, the chain-map law and the retraction
    identity solved jointly; None iff there is none."""
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
    return solve_degreewise(ring, shapes, equations)


def assert_refused(base, **changes):
    """The checked value ``base`` with ``changes`` is refused with
    ``WitnessError`` when built directly, through ``_replace`` and on
    unpickling a copy built past the check."""
    cls = type(base)
    fields = {**dict(zip(base._fields, base._values())), **changes}
    with pytest.raises(WitnessError):
        cls(**fields)
    with pytest.raises(WitnessError):
        base._replace(**changes)
    forged = cls._trusted(*fields.values())
    with pytest.raises(WitnessError):
        pickle.loads(pickle.dumps(forged))
