"""Exact arithmetic over the two supported coefficient domains.

Supported domains: the integers, and univariate polynomials over a prime
field F_p.  Elements are plain Python payloads -- ``int`` for integers,
little-endian coefficient tuples for polynomials -- and each ring object
owns every operation on its elements.  The ring abstraction is an internal
seam between exactly these two instances, not a public extension point;
nothing in the library ever rounds, so all results are exact.

Canonical associates are nonnegative integers and monic polynomials, so
elementary-divisor lists coming out of diagonalization are directly
comparable.

Three ring kernels carry the matrix product and every row operation of
the elimination core in ``matrices``: ``product`` (the rows of a matrix
product), ``submul`` (row -= q * other) and ``combine`` (a * x + b * y).
``product`` sums each output row as a combination of the rows of the
right factor, over the nonzero entries of the left row only (Gustavson,
ACM TOMS 4, 1978).  Over Z the kernels are native int arithmetic on
whole rows; a left row with more nonzero entries than zeros is instead
taken as dot products with the columns of the right factor, which C
sums faster once few terms can be skipped (on random Z matrices the two
ways cross between 40 % and 50 % zeros).  Over F_p[x] the kernels run
on the packed work rings below and skip zero entries; for odd p they
add the unreduced int products of an output entry and reduce it once,
and a product entry whose only term is 1 * b is b itself, with no copy
and no reduction.  Division by 1 (most divisions under elimination
divide by the pivot 1) returns at once without a division loop.

Each ring names a work ring, ``work``, and two conversion hooks,
``pack`` and ``unpack``: ``Matrix`` keeps its entries in the work form
and runs every kernel on the work ring, converting single elements only
where they enter or leave a matrix.  For Z the hooks are None and the
work ring is the ring itself.  Every F_p[x] packs a polynomial into one
int (Kronecker substitution).  For p = 2 bit i is the coefficient of
x^i: addition is XOR, negation the identity, multiplication a
carry-less shift-XOR product (Brent, Gaudry, Thome and Zimmermann,
"Faster multiplication in GF(2)[x]", ANTS VIII, 2008) and division
shift-XOR long division; the only unit is 1.  Its row kernels XOR the
other row, shifted by each set bit of the scalar, into the row as a
whole.  For odd p coefficient i fills a slot of bits wide enough that
no sum or product carries into the next slot, so a product is one int
product, done in C at every degree (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symb. Comput.
44, 2009), and one exact Barrett step (Granlund and Montgomery, PLDI
1994) reduces all slots mod p in a handful of int operations;
``_PackedFpRing`` states the overflow invariant that keeps every slot
exact.  The F_p[x] arithmetic is written once, on the work rings: every
scalar operation of ``PrimeFieldPolynomialRing`` packs its operands,
runs on ``work`` and unpacks the result, and factoring squares and
multiplies its modular powers there without leaving the packed form.
The tuples carry only validation, construction and the tests for zero
and units.

Prime factorization (needed only for K0 classes) is exact.  It runs in
expected polynomial time over F_p[x]; over Z it takes about sqrt(q)
steps, q the second-largest prime factor, so at most about n^(1/4):

* Z: trial division by the primes below 1000, then ``is_prime`` on the
  cofactor, integer roots for perfect powers, and Pollard's rho with
  Brent's cycle finding and batched gcds (Brent, BIT 1980) on other
  composite parts.  ``is_prime`` is a strong probable-prime test to the
  first 13 prime bases, which proves primality below 3.317e24
  (Sorenson--Webster 2017); above that bound a strong Lucas test is
  added, so a "prime" there is a Baillie--PSW probable prime (no
  composite passing it is known).
* F_p[x]: square-free, distinct-degree and Cantor--Zassenhaus
  equal-degree factorization (Math. Comp. 1981), with the random
  splitting polynomials drawn from a generator seeded by the input, so
  every run takes the same splits.  Irreducibility is Rabin's test.

Both ``factor`` methods return their dict sorted by prime.

``Ring`` holds only code that some ring runs; its docstring states what
a public ring and a work ring provide.  The extended Euclid is written
once, ``Ring.ext_gcd`` on the ring's own ``divmod``, ``sub``, ``mul``,
``normalize`` and ``unit_inverse``; it runs only on the packed work
rings, whose elements F_p[x] validates as tuples before packing them.
Z keeps a loop on native ints: the shared one is 2-3x slower per call
there and runs every cofactor update through ``mul``.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from functools import lru_cache

from .errors import DomainMismatchError, InvalidInputError, NotFactorableError


def _primes_below(bound: int) -> tuple:
    """The primes below ``bound``, by the sieve of Eratosthenes."""
    is_prime = bytearray([0, 0]) + bytearray([1]) * (bound - 2)
    for p in range(2, math.isqrt(bound - 1) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = bytes(len(range(p * p, bound, p)))
    return tuple(n for n, flag in enumerate(is_prime) if flag)


_TRIAL_PRIMES = _primes_below(1000)
_SPRP_BASES = _TRIAL_PRIMES[:13]             # 2, 3, 5, ..., 41
_SPRP_PROOF_BOUND = 3317044064679887385961981  # smallest spsp to all 13 bases
_RHO_BATCH = 128
# Headroom bits above a product of two coefficients in a slot of the
# packed F_p[x] ring: a slot may sum 2^_SLOT_HEADROOM products unreduced.
# Each bit widens every slot by two, so a smaller value makes every int
# operation cheaper at the price of more early reductions.
_SLOT_HEADROOM = 8


def is_prime(n: int) -> bool:
    """Primality of an integer: a proof below 3.317e24, BPSW above.

    Trial division by the primes below 1000, then a strong probable-prime
    test to the bases 2, 3, ..., 41, which no composite below
    3 317 044 064 679 887 385 961 981 passes; larger survivors must also
    pass a strong Lucas test (Baillie--PSW).
    """
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SPRP_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _SPRP_PROOF_BOUND or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test, Selfridge parameters, for odd
    n > 1000."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4  # P = 1
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n if U % 2 else U) // 2  # halve modulo odd n
            V = (V + n if V % 2 else V) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _perfect_power(n: int):
    """(r, k) with n == r**k for a prime k, or None; for n with no prime
    factor below 1000."""
    for k in _TRIAL_PRIMES:
        if 1000 ** k > n:
            return None
        r = 1 << -(-n.bit_length() // k)  # Newton's method from above
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
        if r ** k == n:
            return r, k
    return None


def _pollard_brent(n: int) -> int:
    """A proper divisor of the composite n (Pollard rho, Brent's cycle
    finding, gcds batched over ``_RHO_BATCH`` steps).  The constants
    c = 1, 2, ... are tried in turn, so the split is deterministic."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


class Ring:
    """Base class for the two Euclidean coefficient domains and the
    private work rings of F_p[x]: the arithmetic derived from the
    primitive operations that each subclass writes itself.

    A public ring (``ZZ``, ``fpx(p)``) provides ``zero``, ``one``,
    ``validate`` (its argument back, or ``DomainMismatchError``),
    ``is_zero``, ``is_unit``, ``add``, ``sub``, ``neg``, ``mul``,
    ``divmod`` (a = q*b + r with |r| < |b| over Z, deg r < deg b over
    F_p[x]), ``normalize`` (a = unit * canonical, and
    ``normalize(0) == (one, zero)``), ``unit_inverse``, ``factor`` (the
    canonical primes of a = unit * prod(p**m), as a dict sorted by prime,
    so its order does not depend on how trial division, rho or the random
    splits find them) and ``_is_irreducible`` (the primality of a
    canonical non-unit, without factoring it).

    A work ring (``ZZ``, ``fpx(p).work``) provides the same ``zero``,
    ``one``, ``is_zero``, ``add``, ``sub``, ``neg``, ``mul``, ``divmod``,
    ``normalize`` and ``unit_inverse``, and the row kernels on
    equal-length rows of elements: ``product`` (the rows of left * right,
    as new lists; output row i sums left[i][k] * right[k] over the
    nonzero left[i][k] alone), ``submul`` (row -= q * other in place from
    index ``start`` on, ``other`` zero before it) and ``combine`` (the row
    a * x + b * y).  ``work`` is the ring that matrices over this one
    compute on.
    """

    token: str
    # Conversions of one element to and from the work form; None where
    # the work form is the element itself.
    pack = None
    unpack = None

    def __init__(self):
        self.work = self

    def ext_gcd(self, a, b):
        """Return (g, s, t) with g = s*a + t*b and g the canonical gcd:
        Euclid, then division by the unit that ``normalize`` splits off.
        The packed F_p[x] rings run this loop, on elements that were
        validated as tuples before they were packed."""
        old_r, r = a, b
        old_s, s = self.one, self.zero
        old_t, t = self.zero, self.one
        while r:
            q, rem = self.divmod(old_r, r)
            old_r, r = r, rem
            old_s, s = s, self.sub(old_s, self.mul(q, s))
            old_t, t = t, self.sub(old_t, self.mul(q, t))
        if not old_r:
            return old_r, old_s, old_t
        unit, canon = self.normalize(old_r)
        inv = self.unit_inverse(unit)
        return canon, self.mul(inv, old_s), self.mul(inv, old_t)

    # Derived helpers.

    def div_exact(self, a, b):
        """Return q with a == q*b, or None when b does not divide a."""
        if self.is_zero(b):
            return self.zero if self.is_zero(a) else None
        q, r = self.divmod(a, b)
        return q if self.is_zero(r) else None

    def divides(self, a, b) -> bool:
        return self.div_exact(b, a) is not None

    def gcd(self, a, b):
        return self.ext_gcd(a, b)[0]

    def is_canonical_prime(self, p) -> bool:
        if self.is_zero(p) or self.is_unit(p):
            return False
        if self.normalize(p)[1] != p:
            return False
        return self._is_irreducible(p)

    def __eq__(self, other):
        if self is other:
            return True  # rings are singletons, so this is the common case
        return isinstance(other, Ring) and self.token == other.token

    def __hash__(self):
        return hash(self.token)

    def __repr__(self):
        return f"<ring {self.token}>"


class IntegerRing(Ring):
    token = "Z"
    zero = 0
    one = 1

    def __reduce__(self):
        # a public ring is one instance per token, so a copy or an unpickled ring is that instance
        return ring_from_token, (self.token,)

    def validate(self, a):
        if type(a) is not int:
            raise DomainMismatchError(f"not an integer element: {a!r}")
        return a

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a == 1 or a == -1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def divmod(self, a, b):
        return divmod(a, b)

    def normalize(self, a):
        return (-1, -a) if a < 0 else (1, a)

    def unit_inverse(self, u):
        if u != 1 and u != -1:
            raise InvalidInputError(f"{u!r} is not a unit in Z")
        return u

    def ext_gcd(self, a, b):
        # Ring.ext_gcd on native ints (see the module docstring).
        self.validate(a), self.validate(b)
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r < 0:
            return -old_r, -old_s, -old_t
        return old_r, old_s, old_t

    def product(self, left, right, width):
        out, cols = [], None
        for row in left:
            if 2 * row.count(0) < len(row):
                if cols is None:
                    cols = list(zip(*right))
                out.append([sum(map(operator.mul, row, col)) for col in cols])
                continue
            acc = None
            for a, r in zip(row, right):
                if a:
                    acc = [a * y for y in r] if acc is None else [x + a * y for x, y in zip(acc, r)]
            out.append([0] * width if acc is None else acc)
        return out

    def submul(self, row, q, other, start=0):
        for j in range(start, len(other)):
            y = other[j]
            if y:
                row[j] -= q * y

    def combine(self, a, x, b, y):
        return [a * xi + b * yi for xi, yi in zip(x, y)]

    def factor(self, a):
        self.validate(a)
        _, c = self.normalize(a)
        if c == 0 or c == 1:
            raise NotFactorableError(f"cannot factor {a!r}")
        result: dict[int, int] = {}
        for p in _TRIAL_PRIMES:
            if p * p > c:
                break
            while c % p == 0:
                c //= p
                result[p] = result.get(p, 0) + 1
        pending = [(c, 1)] if c > 1 else []
        while pending:
            n, m = pending.pop()
            if is_prime(n):
                result[n] = result.get(n, 0) + m
            elif (power := _perfect_power(n)) is not None:
                pending.append((power[0], m * power[1]))
            else:
                d = _pollard_brent(n)
                pending += [(d, m), (n // d, m)]
        return dict(sorted(result.items()))

    def _is_irreducible(self, p):
        return is_prime(p)


def _on_work(name: str):
    """The operation ``name`` of a ring whose work form differs from its
    elements: the operands packed once, ``name`` run on ``work``, and the
    result -- an element or a tuple of them -- unpacked once."""
    def op(self, *args):
        out = getattr(self.work, name)(*map(self.pack, args))
        return tuple(map(self.unpack, out)) if type(out) is tuple else self.unpack(out)
    op.__name__ = op.__qualname__ = name
    return op


class PrimeFieldPolynomialRing(Ring):
    """Univariate polynomials over F_p, elements as coefficient tuples.

    Coefficients are stored little-endian in [0, p) with no trailing
    zeros; the zero polynomial is the empty tuple.  The arithmetic, gcds
    included, is that of the packed work ring ``work``: each operation
    converts its operands and its result once.
    """

    __reduce__ = IntegerRing.__reduce__

    def __init__(self, p: int):
        if not is_prime(p):
            raise InvalidInputError(f"characteristic {p} is not prime")
        super().__init__()
        self.p = p
        self.token = f"fpx:{p}"
        self.zero = ()
        self.one = (1,)
        if p == 2:
            self.work, self.pack, self.unpack = _F2_PACKED, _pack_f2, _unpack_f2
        else:
            work = _PackedFpRing(p)
            self.work, self.pack, self.unpack = work, work.encode, work.decode

    def validate(self, a):
        if type(a) is not tuple:
            raise DomainMismatchError(f"not a polynomial element: {a!r}")
        p = self.p
        for c in a:
            if type(c) is not int or not 0 <= c < p:
                raise DomainMismatchError(f"coefficient {c!r} out of F_{p}")
        if a and a[-1] == 0:
            raise DomainMismatchError("leading coefficient must be nonzero")
        return a

    def poly(self, coeffs) -> tuple:
        """Build an element from arbitrary integer coefficients."""
        out = [c % self.p for c in coeffs]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return len(a) == 1

    add, sub, neg, mul, divmod, normalize, unit_inverse = map(
        _on_work, ("add", "sub", "neg", "mul", "divmod", "normalize", "unit_inverse"))
    _work_ext_gcd = _on_work("ext_gcd")

    def ext_gcd(self, a, b):
        """``Ring.ext_gcd`` on the work ring, after validating a and b."""
        self.validate(a), self.validate(b)
        return self._work_ext_gcd(a, b)

    def _powmod(self, a, e: int, f):
        """a**e modulo f, for e >= 1, squared and multiplied on the work
        ring: one conversion in and one out."""
        work = self.work
        a, f = self.pack(a), self.pack(f)
        out = work.divmod(a, f)[1]
        for bit in bin(e)[3:]:
            out = work.divmod(work.mul(out, out), f)[1]
            if bit == "1":
                out = work.divmod(work.mul(out, a), f)[1]
        return self.unpack(out)

    def _squarefree(self, f) -> list:
        """Pairs (g, m) with f = prod g**m, each g square-free, monic and
        nonconstant, for monic f."""
        p = self.p
        out, scale = [], 1
        while len(f) > 1:
            df = self.poly([i * c for i, c in enumerate(f)][1:])
            if df:
                c = self.gcd(f, df)
                w, i = self.divmod(f, c)[0], 1
                while len(w) > 1:
                    y = self.gcd(w, c)
                    part = self.divmod(w, y)[0]
                    if len(part) > 1:
                        out.append((part, i * scale))
                    w, c, i = y, self.divmod(c, y)[0], i + 1
                f = c  # every multiplicity left is a multiple of p
            f, scale = f[::p], scale * p  # p-th root: only x^(kp) terms remain
        return out

    def _distinct_degree(self, f) -> list:
        """Pairs (d, g): g is the product of the degree-d irreducible
        factors of the square-free monic f."""
        x = (0, 1)
        out, h, d = [], x, 0
        while len(f) - 1 >= 2 * (d + 1):
            d += 1
            h = self._powmod(h, self.p, f)  # x^(p^d) mod f
            g = self.gcd(f, self.sub(h, x))
            if len(g) > 1:
                out.append((d, g))
                f = self.divmod(f, g)[0]
                h = self.divmod(h, f)[1]
        if len(f) > 1:
            out.append((len(f) - 1, f))
        return out

    def _equal_degree(self, f, d: int) -> list:
        """Cantor--Zassenhaus: the degree-d irreducible factors of f, a
        product of distinct monic irreducibles of degree d.  The random
        splitting polynomials come from a generator seeded by f, so every
        run takes the same splits."""
        p = self.p
        rng = random.Random(repr(f))
        pending, out = [f], []
        while pending:
            g = pending.pop()
            if len(g) - 1 == d:
                out.append(g)
                continue
            while True:
                h = self.poly([rng.randrange(p) for _ in range(len(g) - 1)])
                if p == 2:  # trace map h + h^2 + ... + h^(2^(d-1))
                    t = s = h
                    for _ in range(d - 1):
                        s = self._powmod(s, 2, g)
                        t = self.add(t, s)
                else:
                    t = self.sub(self._powmod(h, (p ** d - 1) // 2, g), self.one)
                split = self.gcd(g, t)
                if 1 < len(split) < len(g):
                    break
            pending += [split, self.divmod(g, split)[0]]
        return out

    def factor(self, a):
        self.validate(a)
        if self.is_zero(a) or self.is_unit(a):
            raise NotFactorableError(f"cannot factor {a!r}")
        _, f = self.normalize(a)
        result: dict[tuple, int] = {}
        for part, mult in self._squarefree(f):
            for d, same_degree in self._distinct_degree(part):
                for q in self._equal_degree(same_degree, d):
                    result[q] = result.get(q, 0) + mult
        return dict(sorted(result.items()))

    def _is_irreducible(self, f):
        """Rabin's test: x^(p^n) = x mod f, and x^(p^(n/q)) - x is prime to
        f for each prime q dividing n = deg f."""
        n = len(f) - 1
        x = (0, 1)
        checkpoints = {n // q for q in range(2, n + 1) if n % q == 0 and is_prime(q)}
        h = x
        for i in range(1, n + 1):
            h = self._powmod(h, self.p, f)
            if i in checkpoints and len(self.gcd(f, self.sub(h, x))) > 1:
                return False
        return h == self.divmod(x, f)[1]


def _pack_f2(a: tuple) -> int:
    """An F_2[x] element as an int: bit i is the coefficient of x^i."""
    n = 0
    for c in reversed(a):
        n = n << 1 | c
    return n


def _unpack_f2(n: int) -> tuple:
    out = []
    while n:
        out.append(n & 1)
        n >>= 1
    return tuple(out)


def _xor_scaled(acc: list, a: int, row) -> list:
    """acc + a * row over packed F_2[x]: one pass over the row for each
    three set bits of a, XORing the row shifted by their positions."""
    if a == 1:
        return list(map(operator.xor, acc, row))
    while a:
        s = (a & -a).bit_length() - 1
        a &= a - 1
        if not a:
            return [x ^ y << s for x, y in zip(acc, row)]
        t = (a & -a).bit_length() - 1
        a &= a - 1
        if not a:
            return [x ^ y << s ^ y << t for x, y in zip(acc, row)]
        u = (a & -a).bit_length() - 1
        a &= a - 1
        acc = [x ^ y << s ^ y << t ^ y << u for x, y in zip(acc, row)]
    return acc


class _PackedF2Ring(Ring):
    """F_2[x] on ints, bit i the coefficient of x^i: the work ring of
    ``fpx(2)``, never seen outside a matrix."""

    token = "fpx:2:packed"
    zero = 0
    one = 1

    def is_zero(self, a):
        return not a

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        if a == 1:
            return b
        if b == 1:
            return a
        if a.bit_length() > b.bit_length():
            a, b = b, a
        out = 0
        while a:
            if a & 1:
                out ^= b
            a >>= 1
            b <<= 1
        return out

    def divmod(self, a, b):
        if b == 1:
            return a, 0
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db = b.bit_length()
        q = 0
        shift = a.bit_length() - db
        while shift >= 0:
            q ^= 1 << shift
            a ^= b << shift
            shift = a.bit_length() - db
        return q, a

    def normalize(self, a):
        return 1, a

    def unit_inverse(self, u):
        if u != 1:
            raise InvalidInputError(f"{_unpack_f2(u)!r} is not a unit in fpx:2")
        return 1

    def product(self, left, right, width):
        out = []
        for row in left:
            acc = None
            for a, r in zip(row, right):
                if a:
                    if acc is None and a == 1:
                        acc = list(r)
                    else:
                        acc = _xor_scaled([0] * width if acc is None else acc, a, r)
            out.append([0] * width if acc is None else acc)
        return out

    def submul(self, row, q, other, start=0):
        row[start:] = _xor_scaled(row[start:], q, other[start:])

    def combine(self, a, x, b, y):
        return _xor_scaled(_xor_scaled([0] * len(x), a, x), b, y)


class _PackedFpRing(Ring):
    """F_p[x] for odd p on ints: the work ring of ``fpx(p)``, never seen
    outside a matrix.

    Coefficient i sits in slot i, bits [i*w, (i+1)*w) of the int, and
    every element this ring returns has each slot reduced into [0, p),
    so packing is a bijection and the zero polynomial is 0.  No slot of
    a sum or product carries into the next, so a product is one int
    product (Kronecker substitution) and a sum one int sum.

    One exact Barrett step (Granlund and Montgomery, PLDI 1994) reduces
    every slot at once.  With L = bits(p), b = 2L + H (H is
    ``_SLOT_HEADROOM``), k = b + L and m = ceil(2^k / p), a slot x < 2^b
    has the quotient floor(x*m / 2^k) by p.  Each x*m is below
    2^(2b+1) = 2^w, so one int product by m forms them all; shifted
    right by k, the quotients are the low w - k bits of their slots,
    under the low bits of the slot above, and a mask keeps them.

    The overflow invariant: no slot ever reaches 2^b.  A slot holds a
    reduced coefficient plus a number of products of two, and with at
    most 2^H products it is below (p - 1) + 2^H (p - 1)^2
    <= 2^H (p - 1) p < 2^b; a reduced coefficient added to it counts as
    one product.  A slot of a*c sums at most min(slots of a, slots of c)
    products.  Every unreduced sum below counts its products
    and is reduced before the count would pass 2^H; a factor of more
    than 2^H slots is multiplied 2^H slots at a time, each chunk's
    product added to the reduced sum of those before.  So every
    operation is exact on inputs of any length.
    """

    zero = 0
    one = 1

    def __init__(self, p: int):
        super().__init__()
        bits = p.bit_length()
        b = 2 * bits + _SLOT_HEADROOM
        self.p = p
        self.token = f"fpx:{p}:packed"
        self._cap = 1 << _SLOT_HEADROOM  # products a slot may sum
        self._k = b + bits
        self._m = -(-(1 << self._k) // p)
        self._w = w = 2 * b + 1
        self._slot = (1 << w) - 1
        # The bit length of cap slots: the longest factor whose products
        # may be added to a reduced sum unreduced.
        self._short = self._cap * w
        # The longest reduction mask built so far: it serves every shorter
        # element too, so a mask is built only when an element outgrows it.
        self._mask = self._quotient_mask(1)

    def _quotient_mask(self, n: int) -> int:
        """The low w - k bits of each of n slots."""
        return ((1 << n * self._w) - 1) // self._slot * ((1 << self._w - self._k) - 1)

    def _reduce(self, x: int) -> int:
        """x with every slot reduced mod p, for slots below 2^b."""
        mask = self._mask
        # A mask of n slots ends w - k bits into its top slot, so it covers
        # the n * w bits below bits(mask) + k.
        if x.bit_length() > mask.bit_length() + self._k:
            mask = self._mask = self._quotient_mask(self._slots(x))
        return x - ((x * self._m >> self._k) & mask) * self.p

    def _slots(self, a: int) -> int:
        return -(-a.bit_length() // self._w)

    def encode(self, a: tuple) -> int:
        """An F_p[x] element as an int: coefficient i in slot i."""
        n, w = 0, self._w
        for c in reversed(a):
            n = n << w | c
        return n

    def decode(self, n: int) -> tuple:
        out, w, slot = [], self._w, self._slot
        while n:
            out.append(n & slot)
            n >>= w
        return tuple(out)

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return 0 < a <= self._slot

    def add(self, a, b):
        return self._reduce(a + b)

    # -c is (p - 1) * c slot by slot.

    def sub(self, a, b):
        return self._reduce(a + b * (self.p - 1))

    def neg(self, a):
        return self._reduce(a * (self.p - 1))

    def mul(self, a, b):
        if a > b:
            a, b = b, a
        if a.bit_length() > self._short:
            return self._chunked_mul(a, b)
        return self._reduce(a * b)

    def _chunked_mul(self, a, b):
        """a * b, a taken cap slots at a time."""
        step = self._short
        low = (1 << step) - 1
        out = shift = 0
        while a:
            out = self._reduce(out + ((a & low) * b << shift))
            a >>= step
            shift += step
        return out

    def divmod(self, a, b):
        if b == 1:
            return a, 0
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        p, w = self.p, self._w
        db = (b.bit_length() - 1) // w
        inv = pow(b >> db * w, -1, p)
        if not db:
            return self._reduce(a * inv), 0
        da = (a.bit_length() - 1) // w
        if da < db:
            return 0, a
        # The remainder stays unreduced: each quotient coefficient adds
        # one product to the slots it touches.
        slot, cap = self._slot, self._cap
        quot = products = 0
        for i in range(da, db - 1, -1):
            c = (a >> i * w & slot) * inv % p
            quot = quot << w | c
            if c:
                if products == cap:
                    a, products = self._reduce(a), 0
                a += (p - c) * b << (i - db) * w
                products += 1
        return quot, self._reduce(a)

    def normalize(self, a):
        if not a:
            return 1, 0
        lead = a >> (a.bit_length() - 1) // self._w * self._w
        if lead == 1:
            return 1, a
        return lead, self._reduce(a * pow(lead, -1, self.p))

    def unit_inverse(self, u):
        if not self.is_unit(u):
            raise InvalidInputError(f"{self.decode(u)!r} is not a unit in fpx:{self.p}")
        return pow(u, -1, self.p)

    # The kernels add unreduced products and reduce each output entry
    # once, or early where the count of products would pass the cap.

    def product(self, left, right, width):
        reduce, mul, cap, short = self._reduce, self.mul, self._cap, self._short
        out = []
        for row in left:
            # ``products`` bounds the products summed in each slot of acc
            # beyond a reduced value; 0 means acc is reduced.
            acc, products = None, 0
            for a, r in zip(row, right):
                if not a:
                    continue
                if a.bit_length() > short:
                    r, a = [mul(a, y) for y in r], 1
                t = self._slots(a)
                if acc is None:
                    acc, products = (list(r), 0) if a == 1 else ([a * y for y in r], t)
                    continue
                if products + t > cap:
                    acc, products = [reduce(x) if x else 0 for x in acc], 0
                if a == 1:
                    acc = list(map(operator.add, acc, r))
                else:
                    acc = [x + a * y for x, y in zip(acc, r)]
                products += t
            out.append([0] * width if acc is None else
                       [reduce(x) if x else 0 for x in acc] if products else acc)
        return out

    def submul(self, row, q, other, start=0):
        nq = self.neg(q)
        if nq.bit_length() > self._short:
            add, mul = self.add, self.mul
            row[start:] = [add(x, mul(nq, y)) if y else x for x, y in zip(row[start:], other[start:])]
        else:
            reduce = self._reduce
            row[start:] = [reduce(x + nq * y) if y else x for x, y in zip(row[start:], other[start:])]

    def combine(self, a, x, b, y):
        if self._slots(a) + self._slots(b) > self._cap:
            add, mul = self.add, self.mul
            return [add(mul(a, xi), mul(b, yi)) for xi, yi in zip(x, y)]
        reduce = self._reduce
        return [reduce(v) if (v := a * xi + b * yi) else 0 for xi, yi in zip(x, y)]


_F2_PACKED = _PackedF2Ring()
ZZ = IntegerRing()


@lru_cache(maxsize=None)
def fpx(p: int) -> PrimeFieldPolynomialRing:
    return PrimeFieldPolynomialRing(p)


# The most digits a characteristic may have: its primality test costs about
# the cube of its length, and takes about 20 ms for a 200-digit prime.
_MAX_TOKEN_DIGITS = 200


def ring_from_token(token: str) -> Ring:
    """Parse the ring selector: ``"Z"`` or ``"fpx:<p>"`` with the digits
    written as ``str(p)`` (no sign, space, ``_`` or leading zero), at
    most ``_MAX_TOKEN_DIGITS`` of them."""
    if token == "Z":
        return ZZ
    digits = token[4:]
    if token.startswith("fpx:") and len(digits) <= _MAX_TOKEN_DIGITS and digits.isascii() and digits.isdigit() \
            and digits[0] != "0":
        return fpx(int(digits))
    raise InvalidInputError(f"bad ring token {token!r}")
