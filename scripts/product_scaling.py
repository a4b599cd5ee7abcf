"""Scaling curve of the matrix product ``Matrix.__mul__`` in size and entry size.

Usage, from the root of a source checkout (koszulkit is imported from
``src/``):

    python3 scripts/product_scaling.py [--seed 1] [--budget 0.2] [--repeats 5]
                                       [--zero-shares 0,0.75]

Each case multiplies two random square matrices drawn from ``--seed``,
once for each share of zero entries in ``--zero-shares``: by default
dense factors, and sparse ones with three entries in four zero, as in
the matrices the property suites multiply.  The cases are Z with |a| <= 16 at n = 8, 16, 32 and 64, Z with 1024-bit
entries at n = 16, and F_3[x] with entries of degree <= 2 at n = 8, 16
and 32.  A case is timed in ``--repeats`` rounds of as many products as
fit in ``--budget`` seconds; one line per case and zero share gives
the median time of one product, in milliseconds, and the spread (max - min) / median
over the rounds.  The last line is the same table as JSON.

Times are wall-clock on the machine that runs the script, so compare
two commits by running both, alternately, on the same machine.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from koszulkit.matrices import Matrix  # noqa: E402
from koszulkit.rings import ZZ, fpx  # noqa: E402

F3 = fpx(3)

# (name, ring, n, draw one nonzero-or-zero entry)
CASES = [
    *((f"Z16.n{n}", ZZ, n, lambda rng: rng.randint(-16, 16)) for n in (8, 16, 32, 64)),
    ("Z1024.n16", ZZ, 16, lambda rng: rng.getrandbits(1024) - (1 << 1023)),
    *((f"fpx3.n{n}", F3, n, lambda rng: F3.poly([rng.randrange(3) for _ in range(3)])) for n in (8, 16, 32)),
]

def random_matrix(rng: random.Random, ring, n: int, entry, zero_share: float) -> Matrix:
    return Matrix(ring, [[ring.zero if rng.random() < zero_share else entry(rng) for _ in range(n)]
                         for _ in range(n)])


def time_product(a: Matrix, b: Matrix, budget: float, repeats: int) -> tuple[float, float]:
    """(median ms per product, spread of the rounds)."""
    start, count = time.perf_counter(), 0
    while time.perf_counter() - start < budget / 4:
        a * b
        count += 1
    rounds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(count * 4):
            a * b
        rounds.append((time.perf_counter() - t0) / (count * 4) * 1e3)
    median = statistics.median(rounds)
    return median, (max(rounds) - min(rounds)) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--budget", type=float, default=0.2, help="seconds per round")
    parser.add_argument("--repeats", type=int, default=5, help="rounds per case")
    parser.add_argument("--zero-shares", default="0,0.75",
                        help="comma-separated shares of zero entries, each in [0, 1]")
    args = parser.parse_args(argv)
    shares = [float(x) for x in args.zero_shares.split(",")]
    if not all(0 <= x <= 1 for x in shares):
        parser.error("each zero share must lie in [0, 1]")
    rng = random.Random(args.seed)
    table = {}
    for name, ring, n, entry in CASES:
        for zero_share in shares:
            a, b = (random_matrix(rng, ring, n, entry, zero_share) for _ in range(2))
            ms, spread = time_product(a, b, args.budget, args.repeats)
            table[f"{name}.zeros{zero_share:g}"] = round(ms, 4)
            print(f"{name:>10} zeros {zero_share:<5g} {ms:10.4f} ms  spread {spread:.3f}", flush=True)
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
