"""Small constructions that tests build inputs with or compare against.

The library never runs these, so they live beside the tests.  Each is
built from the public API (and the generators' private draw helpers,
for ``gen_matrix``), and none of them skips a check that the library
would make.
"""

from functools import reduce

from koszulkit.complexes import ChainComplex, ChainMap
from koszulkit.errors import InvalidInputError
from koszulkit.fgmodules import FgModule
from koszulkit.generators import GenParams, _below, rand_matrix, trial_rng
from koszulkit.k0 import K0TorsionClass
from koszulkit.koszul import PresentedKoszul, h0_presentation
from koszulkit.presented import PresentedMap, PresentedModule


def zero_complex(ring) -> ChainComplex:
    return ChainComplex(ring, {}, {})


def euler_characteristic(complex_: ChainComplex) -> int:
    return sum(r if n % 2 == 0 else -r for n, r in complex_.ranks.items())


def h0_map(f: ChainMap) -> PresentedMap:
    """The map that ``f`` induces on the degree-zero homology presentations."""
    return PresentedMap(h0_presentation(f.source), h0_presentation(f.target), f.at(0))


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
