"""Matrix work done by one benchmark core, counted in one process.

Usage, from the root of a source checkout (koszulkit is imported from
``src/``; the core is read from ``perfbench/run.py`` and
``perfbench/workloads.py``, which the script imports and never changes):

    python3 scripts/core_counts.py --workload harness-z|harness-fpx|cli-requests
                                   [--seconds 20] [--seed 0]

The core is the list of operations that
``perfbench/run.py --workload W --seconds S`` runs in each pass, in the
order that ``--seed`` shuffles it into: property-suite trials for the
harness workloads, and for ``cli-requests`` the CLI requests of
``CliWorkload``, whose input files are written to a temporary directory
before counting starts (as in the benchmark's set-up, the shared zero
and identity matrices that writing them makes stay cached).  Here every
operation runs once, in one process, so the elimination caches stay
warm from one to the next (unlike the benchmark's forked passes), and
the script prints:

* ``products``: calls of ``Matrix.__mul__``;
* ``empty_operand_products``: those calls where an operand has no rows
  or no columns;
* ``raw_calls``: calls of ``Matrix._from_work``, the constructor every
  computed matrix goes through (``Matrix._raw`` packs public entries
  and hands them to it);
* ``negations``: calls of ``Matrix.__neg__``;
* ``zero_negations``: those calls on a zero matrix;
* ``packs`` and ``unpacks``: calls of the F_2[x] conversion hooks
  ``fpx(2).pack`` and ``fpx(2).unpack``, one per element that enters or
  leaves the packed work form: of a matrix, and of each scalar operation
  of ``fpx(2)``, which computes on the work ring (0 on harness-z);
* ``checked_chain_maps``: calls of ``ChainMap.__init__``, each a chain
  map built with the full commutation check (trusted constructions do
  not count);
* ``cone_layouts``: direct-sum layouts built with the summands (X, 1),
  (Y, 0) of a mapping cone, one per cone complex constructed;
* ``solves``: calls of ``matrices.solve``, wherever it is called from;
* ``checked_sequences``: sequences of complexes built, ``ComplexSes``
  and ``AdmissibleSes`` alike, each counted once (every construction
  runs ``ComplexSes._fill`` once, whichever class proves exactness);
* ``fgmodule_makes``: calls of ``FgModule.make``, each a divisor list
  re-normalized into a chain;
* ``cpu_s``: the process CPU time of the core, counters included;
* ``reports_sha256`` (harness workloads): SHA-256 of the concatenated
  JSON suite reports;
* ``outputs_sha256`` (``cli-requests``): SHA-256 over each request's
  label, exit code, output file bytes and stderr, each length-prefixed.

Two commits do the same matrix work in the same way exactly when the
counts agree, and produce the same output exactly when the hashes do;
compare CPU times only between alternating runs on one machine.  To
check that a change keeps every output, run the script at the parent
commit and at the change, for each workload, and compare the hashes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402
import koszulkit  # noqa: E402
from koszulkit import complexes, matrices  # noqa: E402
from koszulkit.fgmodules import FgModule  # noqa: E402
from koszulkit.matrices import Matrix  # noqa: E402
from koszulkit.rings import fpx  # noqa: E402


def core(workload: str, seconds: float, seed: int) -> list:
    """The trials of one pass of ``perfbench/run.py``, in its order."""
    size = run.HarnessWorkload(workload, seed, seconds).core_size
    ops = workloads.harness_ops(size, 0)
    random.Random(seed).shuffle(ops)
    return ops


def cli_core(seconds: float, seed: int, workdir: str) -> list:
    """The requests of one ``cli-requests`` pass, in its order, with their
    input files written to ``workdir``."""
    rounds = run.CliWorkload("cli-requests", seed, seconds, workdir).rounds
    ops = [op for r in range(rounds) for op in workloads.cli_round(workloads.CORE_SEED, r)]
    random.Random(seed).shuffle(ops)
    workloads.write_requests(ops, workdir, 0)
    return ops


def run_cli_request(op) -> bytes:
    """Run one request in process; its label, exit code, output file and
    stderr, each length-prefixed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = workloads.run_cli_op(op)
    out = Path(op.payload["argv"][-1])
    parts = [op.label.encode(), str(code).encode(), out.read_bytes() if out.exists() else b"",
             err.getvalue().encode()]
    return b"".join(len(part).to_bytes(8, "big") + part for part in parts)


def count_matrix_work() -> dict:
    """Wrap ``Matrix.__mul__``, ``Matrix._from_work``, ``Matrix.__neg__``,
    the F_2[x] conversion hooks, ``ChainMap.__init__``, the direct-sum
    layout, ``matrices.solve`` (in every koszulkit module that imports
    it), ``ComplexSes._fill`` and ``FgModule.make`` with counters."""
    counts = {"products": 0, "empty_operand_products": 0, "raw_calls": 0,
              "negations": 0, "zero_negations": 0, "packs": 0, "unpacks": 0,
              "checked_chain_maps": 0, "cone_layouts": 0, "solves": 0, "checked_sequences": 0,
              "fgmodule_makes": 0}
    mul, raw, neg = Matrix.__mul__, Matrix._from_work.__func__, Matrix.__neg__
    f2 = fpx(2)
    pack, unpack = f2.pack, f2.unpack
    chain_map_init, layout_init = complexes.ChainMap.__init__, complexes._Layout.__init__
    solve, ses_fill = matrices.solve, complexes.ComplexSes._fill
    make = FgModule.make.__func__

    def counted_mul(self, other):
        counts["products"] += 1
        if isinstance(other, Matrix) and not (self.rows and self.cols and other.rows and other.cols):
            counts["empty_operand_products"] += 1
        return mul(self, other)

    def counted_raw(cls, *args):
        counts["raw_calls"] += 1
        return raw(cls, *args)

    def counted_neg(self):
        counts["negations"] += 1
        if self.is_zero():
            counts["zero_negations"] += 1
        return neg(self)

    def counted_pack(a):
        counts["packs"] += 1
        return pack(a)

    def counted_unpack(n):
        counts["unpacks"] += 1
        return unpack(n)

    def counted_chain_map_init(self, *args):
        counts["checked_chain_maps"] += 1
        chain_map_init(self, *args)

    def counted_layout_init(self, parts, *args):
        if [s for _, s in parts] == [1, 0]:
            counts["cone_layouts"] += 1
        layout_init(self, parts, *args)

    def counted_solve(*args):
        counts["solves"] += 1
        return solve(*args)

    def counted_ses_fill(self, *args):
        counts["checked_sequences"] += 1
        ses_fill(self, *args)

    def counted_make(cls, *args):
        counts["fgmodule_makes"] += 1
        return make(cls, *args)

    Matrix.__mul__ = counted_mul
    Matrix._from_work = classmethod(counted_raw)
    Matrix.__neg__ = counted_neg
    f2.pack, f2.unpack = counted_pack, counted_unpack
    complexes.ChainMap.__init__ = counted_chain_map_init
    complexes._Layout.__init__ = counted_layout_init
    complexes.ComplexSes._fill = counted_ses_fill
    FgModule.make = classmethod(counted_make)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == koszulkit.__name__ and getattr(module, "solve", None) is solve:
            module.solve = counted_solve
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("harness-z", "harness-fpx", "cli-requests"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        if args.workload == "cli-requests":
            ops = cli_core(args.seconds, args.seed, workdir)
            size, hashed, output = {"requests": len(ops)}, "outputs_sha256", run_cli_request
        else:
            ring, max_entry = workloads.harness_ring(args.workload)
            ops = core(args.workload, args.seconds, args.seed)
            size, hashed = {"trials": len(ops)}, "reports_sha256"

            def output(op):
                return workloads.run_harness_op(ring, max_entry, op)[1].encode()
        counts = count_matrix_work()
        start = time.process_time()
        for op in ops:
            digest.update(output(op))
        cpu = time.process_time() - start
    print(json.dumps({"workload": args.workload, **size, **counts,
                      "cpu_s": round(cpu, 3), hashed: digest.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
