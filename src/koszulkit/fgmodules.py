"""Finitely generated modules in canonical form.

A module is recorded as a free rank plus a torsion list of canonical
divisors chained by divisibility, which is the classification of f.g.
modules over a PID.  A chain from ``elementary_divisors`` is already
canonical and only loses its units (``_from_chain``); other divisor
lists are re-normalized by the gcd/lcm repair that also orders SNF
diagonals (``FgModule.make``), so no divisor is ever factored and
isomorphism testing is a plain equality of canonical forms.  Primes
enter only through the K0 classes, which factor each divisor with
``Ring.factor`` when they are read prime by prime.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidInputError
from .matrices import Matrix, _chain, elementary_divisors
from .rings import Ring


class FgModule(NamedTuple):
    ring: Ring
    free_rank: int
    torsion: tuple = ()

    @classmethod
    def make(cls, ring: Ring, free_rank: int, divisors) -> "FgModule":
        """Canonicalize an arbitrary torsion-divisor list into a chain.

        Units are dropped; a zero divisor is rejected (a free summand
        must be counted in ``free_rank``).  Each out-of-order pair of
        canonical associates becomes its gcd and lcm, so the result
        satisfies t1 | t2 | ... without factoring any divisor.
        """
        if free_rank < 0:
            raise InvalidInputError("negative free rank")
        chain = []
        for d in divisors:
            _, canon = ring.normalize(ring.validate(d))
            if ring.is_zero(canon):
                raise InvalidInputError("zero torsion divisor")
            chain.append(canon)
        _chain(ring, chain)
        return cls(ring, free_rank, tuple(d for d in chain if not ring.is_unit(d)))

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def is_torsion(self) -> bool:
        return self.free_rank == 0

    def direct_sum(self, other: "FgModule") -> "FgModule":
        if self.ring != other.ring:
            raise InvalidInputError("direct sum across different rings")
        return FgModule.make(self.ring, self.free_rank + other.free_rank, self.torsion + other.torsion)

    def __repr__(self):
        return f"FgModule({self.ring.token}, free={self.free_rank}, torsion={list(self.torsion)})"


def _from_chain(ring: Ring, free_rank: int, chain: tuple) -> FgModule:
    """The module of an ``elementary_divisors`` chain: canonical
    associates in divisibility order, so only the units are dropped."""
    return FgModule(ring, free_rank, tuple(d for d in chain if not ring.is_unit(d)))


def cokernel(mat: Matrix) -> FgModule:
    """Canonical form of the cokernel of a matrix acting on columns."""
    divisors = elementary_divisors(mat)
    return _from_chain(mat.ring, mat.rows - len(divisors), divisors)


def module_iso(first: FgModule, second: FgModule) -> bool:
    """Isomorphism test: equality of canonical forms."""
    if first.ring != second.ring:
        raise InvalidInputError("modules over different rings")
    return first == second
