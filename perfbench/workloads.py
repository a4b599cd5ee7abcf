"""The three benchmark workloads and the inputs they feed koszulkit.

A run executes a fixed list of operations ("ops"), its core, in each
of its passes: the same inputs for every seed, in an order drawn from
the seed, sized so that the passes together take about ``--seconds``
at the seed commit.  Inputs are
shared across seeds because single inputs differ in cost by two orders
of magnitude (a prop3_4 trial over F_2[x] takes 10 ms to 5 s): runs on
independent inputs would spread by more than any bound the benchmark
may set (see README.md).

* harness-z / harness-fpx -- one op is one property-suite trial, run
  through the public ``run_suite`` with ``trials=1``; the suites rotate
  prop3_4, k0_theorems, appendix_a2.
* cli-requests -- one op is one in-process ``koszulkit.cli.main`` call
  on an ``--in``/``--out`` request file.  Requests come in rounds; a
  round holds one request of every kind below, each a distinct input.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import certcheck

SUITES = ("prop3_4", "k0_theorems", "appendix_a2")

# The core holds seconds * rate / passes ops (at least 100), the rate
# measured at the seed commit on one core of a 2-vCPU x86-64 VM under
# Python 3.11.
CORE_RATE = {"harness-z": 38.0, "harness-fpx": 6.3, "cli-requests": 13.0}

CORE_SEED = 0

# The requests of one cli round (see cli_round).
SNF_Z_SIZES = tuple(range(4, 12))
SNF_F3_SIZES = tuple(range(4, 9))
SNF_Z32_SIZES = (4, 5, 6)
TORSION_REQUESTS = (("homology", "Z"), ("homology", "fpx:101"), ("k0", "Z"), ("k0", "fpx:101"))
GENERATOR_COMMANDS = ("factorize", "kappa", "split", "excise", "eddecompose",
                      "resolve", "efunctor", "cone", "cyl")
ROUND_SIZE = (len(SNF_Z_SIZES) + len(SNF_F3_SIZES) + len(SNF_Z32_SIZES)
              + len(TORSION_REQUESTS) + len(GENERATOR_COMMANDS))


@dataclass
class Op:
    """One operation of a run; ``label`` groups ops for per-layer curves."""

    kind: str
    label: str
    payload: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Harness workloads.


def harness_ring(workload: str):
    from koszulkit import ZZ, fpx

    return (ZZ, 9) if workload == "harness-z" else (fpx(2), 3)


def harness_ops(count: int, base: int) -> list:
    """``count`` trials rotating over SUITES, trial seeds from ``base``."""
    return [Op("suite", SUITES[i % len(SUITES)], {"seed": base + i // len(SUITES)})
            for i in range(count)]


def run_harness_op(ring, max_entry: int, op: Op):
    """Run one trial; returns (suite report, emitted JSON text)."""
    from koszulkit import GenParams, run_suite

    report = run_suite(op.label, GenParams(ring=ring, seed=op.payload["seed"], trials=1,
                                           max_entry=max_entry))
    return report, report.dumps()


# ---------------------------------------------------------------------------
# cli-requests: input construction with the benchmark's own arithmetic.


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _small_factors(n: int) -> dict:
    out, p = {}, 2
    while n > 1:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    return out


def random_prime(rng: random.Random, digits: int) -> int:
    while True:
        n = rng.randrange(10 ** (digits - 1), 10 ** digits) | 1
        if _is_probable_prime(n):
            return n


def random_irreducible(rng: random.Random, arith: certcheck.PolyArith, degree: int) -> tuple:
    """Monic irreducible of degree 4 or 5: no factor of degree 1 or 2,
    i.e. coprime to x^(p^2) - x."""
    p = arith.p
    while True:
        f = tuple(rng.randrange(p) for _ in range(degree)) + (1,)
        if f[0] == 0:
            continue
        xq = arith.powmod((0, 1), p * p, f)
        if arith.gcd(f, arith.sub(xq, (0, 1))) == arith.one:
            return f


def _unimodular(rng: random.Random, arith, n: int, coeff) -> list:
    """Random product of 3n elementary row additions and swaps."""
    m = [[arith.one if i == j else arith.zero for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.25:
            m[i], m[j] = m[j], m[i]
        else:
            c = coeff(rng)
            m[i] = [arith.add(x, arith.mul(c, y)) for x, y in zip(m[i], m[j])]
    return m


def _matrix_json(arith, entries: list) -> dict:
    wire = [[x if arith.token == "Z" else list(x) for x in row] for row in entries]
    return {"rows": len(entries), "cols": len(entries[0]) if entries else 0, "entries": wire}


def _scrambled_diagonal(rng: random.Random, arith, diag: list, coeff) -> dict:
    n = len(diag)
    d = [[diag[i] if i == j else arith.zero for j in range(n)] for i in range(n)]
    left = _unimodular(rng, arith, n, coeff)
    right = _unimodular(rng, arith, n, coeff)
    m = certcheck.matmul(arith, certcheck.matmul(arith, left, d, n), right, n)
    if arith.token == "Z":
        m = [[x if -2 ** 53 < x < 2 ** 53 else str(x) for x in row] for row in m]
    return _matrix_json(arith, m)


def _z_coeff(rng):
    return rng.choice((-2, -1, 1, 2))


def _f101_coeff(rng):
    return (rng.randrange(101), rng.randrange(1, 101))


def snf_request(rng: random.Random, token: str, n: int, kind: str) -> Op:
    if kind == "Z":
        entries = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    elif kind == "Z32":
        entries = [[rng.randint(-2 ** 31, 2 ** 31 - 1) for _ in range(n)] for _ in range(n)]
    else:
        arith = certcheck.PolyArith(3)
        entries = [[list(arith._trim([rng.randrange(3) for _ in range(3)])) for _ in range(n)]
                   for _ in range(n)]
    matrix = {"rows": n, "cols": n, "entries": entries}
    return Op("snf", f"snf.{kind}.n{n}", {"args": ["--ring", token], "input": matrix})


def torsion_request(rng: random.Random, command: str, token: str) -> Op:
    """A 3x3 Koszul complex whose H0 has one large prime factor.

    H0 = R/(a) + R/(a b P) with a, b small and P a prime of 11-13
    digits over Z, or an irreducible of degree 4-5 over F_101[x].
    """
    if token == "Z":
        arith = certcheck.IntArith()
        a, b = rng.randint(2, 9), rng.randint(2, 9)
        big = random_prime(rng, rng.choice((11, 12, 13)))
        factors = {}
        for part in (_small_factors(a), _small_factors(a), _small_factors(b), {big: 1}):
            for p, e in part.items():
                factors[p] = factors.get(p, 0) + e
        chain = [a, a * b * big]
        matrix = _scrambled_diagonal(rng, arith, [1] + chain, _z_coeff)
    else:
        arith = certcheck.PolyArith(101)
        a = (rng.randrange(101), 1)
        b = (rng.randrange(101), 1)
        big = random_irreducible(rng, arith, rng.choice((4, 5)))
        factors = {}
        for p in (a, a, b, big):
            factors[p] = factors.get(p, 0) + 1
        chain = [a, arith.mul(arith.mul(a, b), big)]
        matrix = _scrambled_diagonal(rng, arith, [arith.one] + chain, _f101_coeff)
    payload = {"ring": token, "ranks": {"1": 3, "0": 3}, "differentials": {"1": matrix}}
    wire = (lambda x: x if token == "Z" else list(x))
    if command == "homology":
        expect = {"homology": {"0": {"free_rank": 0, "torsion": [wire(x) for x in chain]},
                               "1": {"free_rank": 0, "torsion": []}}}
    else:
        expect = {"rank": 3, "torsion": [{"prime": wire(p), "mult": m}
                                         for p, m in sorted(factors.items())]}
    label = f"{command}.{'Z' if token == 'Z' else 'fpx101'}"
    return Op(command, label, {"args": [], "input": payload, "expect": expect})


def generator_request(command: str, seed: int, index: int) -> Op:
    """A request on a koszulkit generator instance over Z."""
    from koszulkit import GenParams, ZZ, jsonio
    from koszulkit.generators import (gen_a_object, gen_admissible_mono, gen_c_object,
                                      gen_chain_map, gen_koszul, trial_rng)

    params = GenParams(ring=ZZ, seed=seed, max_rank=4)
    rng = trial_rng(params, index)
    args = []
    if command in ("factorize", "cone", "cyl"):
        source = gen_a_object(params, index, rng=rng).complex
        target = gen_a_object(params, index, rng=rng).complex
        payload = jsonio.chain_map_to_json(gen_chain_map(rng, source, target, bound=2, terms=1))
    elif command == "kappa":
        payload = jsonio.complex_to_json(
            gen_a_object(params, index, spherical=0, window_bottom=rng.choice((-1, 0)), rng=rng).complex)
    elif command == "split":
        complex_ = gen_a_object(params, index, rng=rng).complex
        degrees = complex_.degree_range()
        args = ["--degree", str(rng.randint(degrees.start, degrees.stop - 1))]
        payload = jsonio.complex_to_json(complex_)
    elif command == "excise":
        payload = jsonio.chain_map_to_json(gen_admissible_mono(params, index, rng=rng).sequence.mono)
    elif command == "eddecompose":
        payload = jsonio.complex_to_json(gen_koszul(params, index, rng=rng).complex)
    else:
        payload = jsonio.presented_koszul_to_json(gen_c_object(params, index, rng=rng).object)
    return Op(command, command, {"args": args, "input": payload})


def cli_round(seed: int, index: int) -> list:
    """One request of every kind, all inputs drawn from (seed, index)."""
    rng = random.Random(f"cli/{seed}/{index}")
    ops = [snf_request(rng, "Z", n, "Z") for n in SNF_Z_SIZES]
    ops += [snf_request(rng, "fpx:3", n, "fpx3") for n in SNF_F3_SIZES]
    ops += [snf_request(rng, "Z", n, "Z32") for n in SNF_Z32_SIZES]
    ops += [torsion_request(rng, command, token) for command, token in TORSION_REQUESTS]
    ops += [generator_request(command, seed, index) for command in GENERATOR_COMMANDS]
    return ops


def write_requests(ops: list, directory: str, start: int):
    """Write each op's input file and fix its argv; numbering from ``start``."""
    for i, op in enumerate(ops, start):
        path = os.path.join(directory, f"req{i:06d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(op.payload["input"], handle)
        op.payload["argv"] = [op.kind, *op.payload["args"], "--in", path,
                              "--out", os.path.join(directory, f"out{i:06d}.json")]


def run_cli_op(op: Op) -> int:
    from koszulkit.cli import main

    return main(op.payload["argv"])
