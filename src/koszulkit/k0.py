"""Grothendieck-group shadows: additive classes at the level of K0.

Torsion modules are classified by their length at each prime (the
classes are finitely supported prime-to-integer maps); Koszul complexes
carry two classes: the quasi-isomorphism-invariant torsion class of
their degree-zero homology, and the finer pair (rank of the degree-one
part, torsion class), whose two projections realize the split
decomposition of the category's K0 into an acyclic part and a torsion
part.  A torsion class is held as a reduced fraction of canonical
elements, so classes add and compare by products and gcds; only reading
it prime by prime (``counts``, ``as_dict``) factors.  The executable
content is ``additivity_check(seq, classify)``: it takes one of the class
functions below and compares the class of the middle term of a short
exact sequence with the sum of the classes of the outer terms.  The
``e_functor`` triple of a presented complex goes in as it is, with
``class_presented``.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .complexes import ChainComplex, ComplexSes
from .errors import InvalidInputError
from .fgmodules import FgModule
from .koszul import (
    PresentedKoszul,
    PresentedSes,
    h0,
    in_kos1,
)
from .rings import Ring


class K0TorsionClass(NamedTuple):
    """Finitely supported map from canonical primes to integers, held as
    coprime canonical ``num`` and ``den``: the primes of ``num`` count
    positively, those of ``den`` negatively."""

    ring: Ring
    num: object
    den: object

    @property
    def counts(self) -> tuple:
        """Sorted (prime, multiplicity) pairs, multiplicity != 0: ``num``
        and ``den`` factored, on each read."""
        counts = {}
        for part, sign in ((self.num, 1), (self.den, -1)):
            if not self.ring.is_unit(part):
                counts.update((p, sign * m) for p, m in self.ring.factor(part).items())
        return tuple(sorted(counts.items()))

    def as_dict(self) -> dict:
        return dict(self.counts)

    def __add__(self, other: "K0TorsionClass") -> "K0TorsionClass":
        if self.ring != other.ring:
            raise InvalidInputError("classes over different rings")
        ring = self.ring
        num, den = ring.mul(self.num, other.num), ring.mul(self.den, other.den)
        g = ring.gcd(num, den)
        return K0TorsionClass(ring, ring.div_exact(num, g), ring.div_exact(den, g))


class K0KosClass(NamedTuple):
    """Rank paired with a torsion class; componentwise addition."""

    rank: int
    torsion: K0TorsionClass

    def __add__(self, other: "K0KosClass") -> "K0KosClass":
        return K0KosClass(self.rank + other.rank, self.torsion + other.torsion)


def class_torsion(module: FgModule) -> K0TorsionClass:
    """Dévissage class of a torsion module: prime -> length at that prime,
    held as the product of the torsion divisors."""
    ring = module.ring
    if not module.is_torsion():
        raise InvalidInputError("torsion class of a non-torsion module")
    return K0TorsionClass(ring, reduce(ring.mul, module.torsion, ring.one), ring.one)


def class_kos_qis(complex_: ChainComplex) -> K0TorsionClass:
    """Quasi-isomorphism-invariant class: the torsion class of H0."""
    if not in_kos1(complex_):
        raise InvalidInputError("input is not a free Koszul complex")
    return class_torsion(h0(complex_))


def class_kos_isom(complex_: ChainComplex) -> K0KosClass:
    """Isomorphism-level class: (rank of the degree-one part, H0 class)."""
    return K0KosClass(complex_.rank(1), class_kos_qis(complex_))


def class_presented(x: PresentedKoszul) -> K0KosClass:
    """Class of a presented two-term complex: (generic rank of the top, H0 class)."""
    return K0KosClass(x.top.canonical_form().free_rank,
                      class_torsion(x.h0().canonical_form()))


def additivity_check(seq: ComplexSes | PresentedSes, classify) -> bool:
    """classify(middle) == classify(left) + classify(right), for a class
    function of the terms of ``seq`` (``class_presented`` for a presented one)."""
    return classify(seq.middle) == classify(seq.left) + classify(seq.right)
