"""Counted work of eleven families of operations, by size: ``BENCH_work.json``.

Usage, from the root of a source checkout (koszulkit is imported from
``src/``):

    python3 scripts/work.py [--out BENCH_work.json]

Time on a shared host spreads by about ±10 % between runs; counts do not
depend on the host, so one run of this script is a measurement.  Each
family runs one operation at three sizes, on inputs drawn from
``random.Random(1)``:

* ``snf_z``: ``snf`` of an n x n matrix over Z with entries in
  [-16, 16], n = 16, 32, 64;
* ``snf_f3x``: ``snf`` of an n x n matrix over F_3[x] whose entries have
  degree 2 (a nonzero leading coefficient), n = 8, 16, 32;
* ``nullhomotopy``: ``nullhomotopy(ChainMap.identity(C))`` for C the
  cone of the identity of X = [Z^n -> Z^n], entries of X in [-3, 3], by
  the total rank 4n of C: 16, 24, 32;
* ``snf_z_bits``: ``snf`` of a 16 x 16 matrix over Z with entries in
  [-2^b, 2^b], by the entry bits b = 8, 32, 128;
* ``cellular_bits``: ``cellular_factorization(c f)`` for c = 2^k + 1 and
  f one chain map drawn as the ``prop3_4`` suite draws one (between two
  ``gen_a_object`` complexes over Z, ``max_rank`` 5), by k = 4, 16, 64;
* ``elementary_divisors``: ``elementary_divisors`` of an n x n matrix
  over Z with entries in [-16, 16], n = 16, 32, 64;
* ``chain_retraction``: ``chain_retraction`` of the first summand
  inclusion of X into X (+) Cone(id_X), X as in ``nullhomotopy``, by the
  total rank 6n of the sum: 12, 24, 36;
* ``snf_fp20x``, ``snf_fp60x`` and ``snf_fp200x``: ``snf`` of an n x n
  matrix over F_p[x] whose entries have degree 2, for p the first prime
  above 10^19 + 12345 (20 digits), above 10^59 + 12345 (60 digits) and
  above 10^199 + 12345 (200 digits), n = 4, 8, 16;
* ``smith_decomposition``: ``smith_decomposition`` of the complex C of
  ``nullhomotopy``, by its total rank: 16, 24, 32.

Every ``snf`` count includes the check that the certificate runs when it
is built (two products and one or three determinants).

The elimination caches are emptied before each operation, so each count
is that of the operation alone, whatever ran before it in the process.

``counted_work`` wraps the row kernels ``product``, ``submul`` and
``combine`` of the three work rings (Z, the packed rings of F_2[x] and of
F_p[x] for odd p) through ``ab_harness.rebind`` and counts:

* ``row_operations``: calls of ``submul`` and ``combine``;
* ``entry_operations``: the entries each call touches: a ``product`` its
  multiply-adds (the nonzero entries of the left rows, each times the
  width of a right row), a ``submul`` the entries of the row from its
  ``start`` on, a ``combine`` the entries of the row it returns;
* ``largest_bits`` and ``largest_degree``: the largest entry that any
  call returns or leaves in its row, in bits over Z and as a degree over
  F_p[x];
* ``limb_cost``: the cost of the int products each call makes, which
  sees the size of the entries and of p where entry operations do not.
  A product of two nonzero ints of a <= b digits of ``DIGIT_BITS`` (30)
  bits costs M(a, b) = a b up to CPython's Karatsuba cut-off of
  ``KARATSUBA_CUTOFF`` (70) digits, and (b / a) a^1.585 70^0.415 above
  it (Karatsuba on a-digit pieces of the longer operand; the two agree
  at a = 70).  Over Z and F_p[x] a ``product`` multiplies each nonzero
  entry of a left row by each nonzero entry of the matching right row, a
  ``submul`` its q by each nonzero entry of the other row from ``start``
  on, and a ``combine`` a and b by each nonzero entry of their rows.
  Over F_p[x] a ``submul`` also negates q, one product by p - 1, and
  every Barrett reduction of an x inside a call (``_PackedFpRing._reduce``)
  costs M(x, m) + M(x, p), since its quotient is no longer than x.
  F_2[x] multiplies no ints: its kernels XOR a row shifted once for each
  set bit of its scalar, so an a (or q) by a row costs popcount(a) times
  the digits of the nonzero entries of the row.

The counters are off unless ``counted_work`` is entered, and the kernels
are the originals again when it exits.  Each family records its counts
at each size and, for each count, the exponent between neighbouring
sizes, log(count ratio) / log(size ratio).  Entry operations follow CPU
time on small entries, and the limb cost on long ones; a bare count of
row operations reads too low.  The file holds ``sources_sha256``, a
SHA-256 over the bytes of ``scripts/work.py`` and ``src/koszulkit/*.py``
in sorted path order, and the Python version, and no time, so two runs
of one tree write the same bytes, and so does a run at the commit that
holds the file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import platform
import random
import sys
from itertools import repeat
from operator import add, floordiv

from ab_harness import ROOT, rebind

import koszulkit
from koszulkit import GenParams, rings
from koszulkit.complexes import (
    ChainMap, chain_retraction, cone, direct_sum, nullhomotopy, smith_decomposition, two_term,
)
from koszulkit.generators import gen_a_object, gen_chain_map
from koszulkit.koszul import cellular_factorization
from koszulkit.matrices import Matrix, _column_form, elementary_divisors, snf
from koszulkit.rings import ZZ, fpx, is_prime

F3 = fpx(3)


def _prime_above(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


FP20 = fpx(_prime_above(10 ** 19 + 12345))
FP60 = fpx(_prime_above(10 ** 59 + 12345))
FP200 = fpx(_prime_above(10 ** 199 + 12345))

# CPython's int digits, and the length above which it multiplies by
# Karatsuba (``KARATSUBA_CUTOFF`` in Objects/longobject.c).
DIGIT_BITS = 30
KARATSUBA_CUTOFF = 70


def _digits(x: int) -> int:
    return -(-x.bit_length() // DIGIT_BITS)


def _limb_product(a: int, b: int) -> float:
    """M(a, b) for two operands of a and b digits."""
    if a > b:
        a, b = b, a
    return a * b if a <= KARATSUBA_CUTOFF else b / a * a ** 1.585 * KARATSUBA_CUTOFF ** 0.415


def _limb_lengths(row) -> tuple:
    """The bit lengths of the entries of ``row`` (0 for a zero), the most
    of them, and the sum of their digits."""
    bits = list(map(int.bit_length, row))
    top = max(bits, default=0)
    if top <= DIGIT_BITS:  # every nonzero entry is one digit
        return bits, top, len(bits) - bits.count(0)
    return bits, top, sum(map(floordiv, map(add, bits, repeat(DIGIT_BITS - 1)), repeat(DIGIT_BITS)))


def _limb_row(a: int, lengths: tuple) -> float:
    """The limb cost of an a-digit int times each nonzero entry of the row
    of ``_limb_lengths`` ``lengths``: a times their digits while a or the
    longest entry is within the cut-off, so each product is a schoolbook
    one."""
    bits, top, total = lengths
    if a <= KARATSUBA_CUTOFF or top <= KARATSUBA_CUTOFF * DIGIT_BITS:
        return a * total
    return sum(_limb_product(a, -(-b // DIGIT_BITS)) for b in bits if b)


def _bits(ring, entries) -> int:
    return max(max(entries), -min(entries)).bit_length()


def _f2_degree(ring, entries) -> int:
    return max(max(entries).bit_length() - 1, 0)


def _fp_degree(ring, entries) -> int:
    return max((max(entries).bit_length() - 1) // ring._w, 0)


# Each work ring, the count that keeps its largest entry, and that entry's size.
WORK_RINGS = (
    (rings.IntegerRing, "largest_bits", _bits),
    (rings._PackedF2Ring, "largest_degree", _f2_degree),
    (rings._PackedFpRing, "largest_degree", _fp_degree),
)
COUNTS = ("row_operations", "entry_operations", "largest_bits", "largest_degree", "limb_cost")


@contextlib.contextmanager
def counted_work():
    """Count the row kernels of every work ring while the block runs;
    yields the counts, a dict that the calls update.  ``limb_cost`` is a
    float; ``measure`` rounds it."""
    counts = dict.fromkeys(COUNTS, 0)
    inside = [0]  # kernel calls running: reductions count only inside one

    def wrappers(owner, largest, size):
        if owner is rings._PackedF2Ring:
            def scaled_row(a, lengths):  # one shifted XOR of the row per set bit of a
                return a.bit_count() * lengths[2]
        else:
            def scaled_row(a, lengths):
                return _limb_row(_digits(a), lengths)

        def keep(ring, entries):
            if entries:
                counts[largest] = max(counts[largest], size(ring, entries))

        def kernel(call):
            def counted(*args):
                inside[0] += 1
                try:
                    return call(*args)
                finally:
                    inside[0] -= 1
            return counted

        def product(original):
            def call(ring, left, right, width):
                out = original(ring, left, right, width)
                counts["entry_operations"] += width * sum(len(row) - row.count(0) for row in left)
                lengths = [_limb_lengths(r) for r in right]
                counts["limb_cost"] += sum(scaled_row(a, r) for row in left for a, r in zip(row, lengths) if a)
                for row in out:
                    keep(ring, row)
                return out
            return kernel(call)

        def submul(original):
            def call(ring, row, q, other, start=0):
                original(ring, row, q, other, start)
                counts["row_operations"] += 1
                counts["entry_operations"] += len(other) - start
                counts["limb_cost"] += scaled_row(q, _limb_lengths(other[start:]))
                if owner is rings._PackedFpRing:  # nq = q (p - 1), reduced
                    counts["limb_cost"] += _limb_product(_digits(q), _digits(ring.p))
                keep(ring, row[start:])
            return kernel(call)

        def combine(original):
            def call(ring, a, x, b, y):
                out = original(ring, a, x, b, y)
                counts["row_operations"] += 1
                counts["entry_operations"] += len(out)
                counts["limb_cost"] += scaled_row(a, _limb_lengths(x)) + scaled_row(b, _limb_lengths(y))
                keep(ring, out)
                return out
            return kernel(call)
        return {"product": product, "submul": submul, "combine": combine}

    def reduce(original):
        def call(ring, x):
            if inside[0]:
                n = _digits(x)
                counts["limb_cost"] += _limb_product(n, _digits(ring._m)) + _limb_product(n, _digits(ring.p))
            return original(ring, x)
        return call

    kernels = [(owner, name, wrap) for owner, *kinds in WORK_RINGS
               for name, wrap in wrappers(owner, *kinds).items()]
    originals = []
    for owner, name, wrap in [*kernels, (rings._PackedFpRing, "_reduce", reduce)]:
        originals.append((owner, name, getattr(owner, name)))
        rebind(koszulkit, owner, name, wrap)
    try:
        yield counts
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def _square(rng: random.Random, ring, n: int, entry) -> Matrix:
    return Matrix(ring, [[entry(rng) for _ in range(n)] for _ in range(n)])


def _snf_z(rng: random.Random, n: int):
    a = _square(rng, ZZ, n, lambda r: r.randint(-16, 16))
    return lambda: snf(a)


def _snf_f3x(rng: random.Random, n: int):
    a = _square(rng, F3, n, lambda r: F3.poly([r.randrange(3), r.randrange(3), r.randrange(1, 3)]))
    return lambda: snf(a)


def _snf_fpx(ring):
    """The draw of an n x n matrix over ``ring`` = F_p[x] whose entries
    have degree 2, and its ``snf``."""
    p = ring.p

    def draw(rng: random.Random, n: int):
        a = _square(rng, ring, n, lambda r: ring.poly([r.randrange(p), r.randrange(p), r.randrange(1, p)]))
        return lambda: snf(a)
    return draw


def _nullhomotopy(rng: random.Random, rank: int):
    n = rank // 4
    x = two_term(_square(rng, ZZ, n, lambda r: r.randint(-3, 3)))
    identity = ChainMap.identity(cone(ChainMap.identity(x)).complex)
    return lambda: nullhomotopy(identity)


def _elementary_divisors(rng: random.Random, n: int):
    a = _square(rng, ZZ, n, lambda r: r.randint(-16, 16))
    return lambda: elementary_divisors(a)


def _chain_retraction(rng: random.Random, rank: int):
    x = two_term(_square(rng, ZZ, rank // 6, lambda r: r.randint(-3, 3)))
    inclusion = direct_sum(x, cone(ChainMap.identity(x)).complex).inclusions[0]
    return lambda: chain_retraction(inclusion)


def _snf_z_bits(rng: random.Random, bits: int):
    a = _square(rng, ZZ, 16, lambda r: r.randint(-2 ** bits, 2 ** bits))
    return lambda: snf(a)


def _smith_decomposition(rng: random.Random, rank: int):
    x = two_term(_square(rng, ZZ, rank // 4, lambda r: r.randint(-3, 3)))
    c = cone(ChainMap.identity(x)).complex
    return lambda: smith_decomposition(c)


def _cellular_bits(rng: random.Random, k: int):
    params = GenParams(ring=ZZ, max_rank=5)
    source = gen_a_object(params, 0, rng=rng).complex
    target = gen_a_object(params, 0, rng=rng).complex
    f = gen_chain_map(rng, source, target, bound=2, terms=1)
    scaled = ChainMap(source, target, {n: m.scale(2 ** k + 1) for n, m in f.components.items()})
    return lambda: cellular_factorization(scaled)


# Each family: the count that reads its largest entry, its sizes, and the
# function that draws the input of one size and returns the operation.
FAMILIES = {
    "snf_z": ("largest_bits", (16, 32, 64), _snf_z),
    "snf_f3x": ("largest_degree", (8, 16, 32), _snf_f3x),
    "nullhomotopy": ("largest_bits", (16, 24, 32), _nullhomotopy),
    "snf_z_bits": ("largest_bits", (8, 32, 128), _snf_z_bits),
    "cellular_bits": ("largest_bits", (4, 16, 64), _cellular_bits),
    "elementary_divisors": ("largest_bits", (16, 32, 64), _elementary_divisors),
    "chain_retraction": ("largest_bits", (12, 24, 36), _chain_retraction),
    "snf_fp20x": ("largest_degree", (4, 8, 16), _snf_fpx(FP20)),
    "snf_fp60x": ("largest_degree", (4, 8, 16), _snf_fpx(FP60)),
    "snf_fp200x": ("largest_degree", (4, 8, 16), _snf_fpx(FP200)),
    "smith_decomposition": ("largest_bits", (16, 24, 32), _smith_decomposition),
}
MEASURED = ("row_operations", "entry_operations", "largest_entry", "limb_cost")


def _exponent(a: int, b: int, size_a: int, size_b: int):
    return round(math.log(b / a) / math.log(size_b / size_a), 2) if a and b else None


def measure(name: str, sizes=None) -> dict:
    """The counts of family ``name`` at each of ``sizes`` (by default its
    three) and the exponents between neighbouring sizes."""
    largest, default, draw = FAMILIES[name]
    sizes = default if sizes is None else sizes
    rows = []
    for size in sizes:
        operation = draw(random.Random(1), size)
        elementary_divisors.cache_clear()
        _column_form.cache_clear()
        with counted_work() as counts:
            operation()
        rows.append({"size": size, "row_operations": counts["row_operations"],
                     "entry_operations": counts["entry_operations"], "largest_entry": counts[largest],
                     "limb_cost": round(counts["limb_cost"])})
    exponents = {key: [_exponent(a[key], b[key], a["size"], b["size"]) for a, b in zip(rows, rows[1:])]
                 for key in MEASURED}
    return {"largest_entry_in": "bits" if largest == "largest_bits" else "degree", "counts": rows,
            "exponents": exponents}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_work.json"))
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    for path in sorted([ROOT / "scripts" / "work.py", *(ROOT / "src" / "koszulkit").glob("*.py")]):
        digest.update(path.read_bytes())
    record = {"sources_sha256": digest.hexdigest(), "python": platform.python_version(),
              "families": {name: measure(name) for name in FAMILIES}}
    with open(args.out, "w") as handle:
        handle.write(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
