"""Counted work of five families of operations, by size: ``BENCH_work.json``.

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
  ``gen_a_object`` complexes over Z, ``max_rank`` 5), by k = 4, 16, 64.

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
  F_p[x].

The counters are off unless ``counted_work`` is entered, and the kernels
are the originals again when it exits.  Each family records its counts
at each size and, for each count, the exponent between neighbouring
sizes, log(count ratio) / log(size ratio).  Entry operations follow CPU
time; a bare count of row operations reads too low.  The file holds the
commit (``git describe --always --dirty``) and the Python version, and no
time, so two runs of one tree write the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import platform
import random
import subprocess
import sys

from ab_harness import ROOT, rebind

import koszulkit
from koszulkit import GenParams, rings
from koszulkit.complexes import ChainMap, cone, nullhomotopy, two_term
from koszulkit.generators import gen_a_object, gen_chain_map
from koszulkit.koszul import cellular_factorization
from koszulkit.matrices import Matrix, _column_form, elementary_divisors, snf
from koszulkit.rings import ZZ, fpx

F3 = fpx(3)


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
COUNTS = ("row_operations", "entry_operations", "largest_bits", "largest_degree")


@contextlib.contextmanager
def counted_work():
    """Count the row kernels of every work ring while the block runs;
    yields the counts, a dict that the calls update."""
    counts = dict.fromkeys(COUNTS, 0)

    def wrappers(largest, size):
        def keep(ring, entries):
            if entries:
                counts[largest] = max(counts[largest], size(ring, entries))

        def product(original):
            def call(ring, left, right, width):
                out = original(ring, left, right, width)
                counts["entry_operations"] += width * sum(len(row) - row.count(0) for row in left)
                for row in out:
                    keep(ring, row)
                return out
            return call

        def submul(original):
            def call(ring, row, q, other, start=0):
                original(ring, row, q, other, start)
                counts["row_operations"] += 1
                counts["entry_operations"] += len(other) - start
                keep(ring, row[start:])
            return call

        def combine(original):
            def call(ring, a, x, b, y):
                out = original(ring, a, x, b, y)
                counts["row_operations"] += 1
                counts["entry_operations"] += len(out)
                keep(ring, out)
                return out
            return call
        return {"product": product, "submul": submul, "combine": combine}

    originals = []
    for owner, largest, size in WORK_RINGS:
        for name, wrap in wrappers(largest, size).items():
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


def _nullhomotopy(rng: random.Random, rank: int):
    n = rank // 4
    x = two_term(_square(rng, ZZ, n, lambda r: r.randint(-3, 3)))
    identity = ChainMap.identity(cone(ChainMap.identity(x)).complex)
    return lambda: nullhomotopy(identity)


def _snf_z_bits(rng: random.Random, bits: int):
    a = _square(rng, ZZ, 16, lambda r: r.randint(-2 ** bits, 2 ** bits))
    return lambda: snf(a)


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
}


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
                     "entry_operations": counts["entry_operations"], "largest_entry": counts[largest]})
    exponents = {key: [_exponent(a[key], b[key], a["size"], b["size"]) for a, b in zip(rows, rows[1:])]
                 for key in ("row_operations", "entry_operations", "largest_entry")}
    return {"largest_entry_in": "bits" if largest == "largest_bits" else "degree", "counts": rows,
            "exponents": exponents}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_work.json"))
    args = parser.parse_args(argv)
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    record = {"commit": commit, "python": platform.python_version(),
              "families": {name: measure(name) for name in FAMILIES}}
    with open(args.out, "w") as handle:
        handle.write(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
