"""Matrix work done by one benchmark core, counted in one process.

Usage, from the root of a source checkout (koszulkit is imported from
``src/``; the core is read from ``perfbench/run.py`` and
``perfbench/workloads.py``, which the script imports and never changes):

    python3 scripts/core_counts.py --workload harness-z|harness-fpx|cli-requests
                                   [--seconds 20] [--seed 0]

The core is the list of operations that
``perfbench/run.py --workload W --seconds S`` runs in each pass, in the
order that ``--seed`` shuffles it into, as ``scripts/ab_harness.py``
builds it: property-suite trials for the harness workloads, and for
``cli-requests`` the CLI requests of ``CliWorkload``, whose input files
are written to a temporary directory before counting starts (as in the
benchmark's set-up, the shared zero and identity matrices that writing
them makes stay cached).  The warm-up ops are not run.  Here every
operation runs once, in one process, so the elimination caches stay
warm from one to the next (unlike the benchmark's forked passes), and
the script prints:

* ``products``: calls of ``Matrix.__mul__``;
* ``row_products``: calls of the work rings' ``product`` (``Z``, and the
  packed rings of F_2[x] and of F_p[x] for odd p), each the rows of one
  product: every ``Matrix.__mul__`` makes one, and so does each law
  check that compares work rows without building a matrix;
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
* ``checked_sequences``: calls of ``ComplexSes._store``, one per
  sequence of complexes whose composite and witnesses pass their checks;
* ``fgmodule_makes``: calls of ``FgModule.make``, each a divisor list
  re-normalized into a chain;
* ``factorization_ranks``: the total rank of ``final.source``, summed
  over the results of ``koszul.cellular_factorization``;
* ``row_operations``, ``entry_operations``, ``largest_bits`` and
  ``largest_degree``: the counted work of the same work rings' row
  kernels, as ``scripts/work.py`` counts it (``row_operations`` are the
  calls of ``submul`` and ``combine``, most of them in the elimination
  kernel ``matrices._echelon``);
* ``cpu_s``: the process CPU time of the core, counters included;
* ``reports_sha256`` (harness workloads): SHA-256 of the concatenated
  JSON suite reports;
* ``outputs_sha256`` (``cli-requests``): SHA-256 over each request's
  label, exit code, output file bytes and stderr, each length-prefixed;
* ``instances_sha256``: SHA-256 over ``jsonio._dumps(value_to_json(x))``
  (the writer's text of x read as a library value, a plain tuple as a
  list) of every value x that a ``gen_*`` function of
  ``koszulkit.generators`` returns, nested calls included, in order:
  during the core on the harness workloads, and while the request files
  are drawn on ``cli-requests``.  A passing suite report holds no values, so this is
  the hash that sees a drawn instance change.  The values are kept and
  hashed after the core, so hashing moves no count.

Two commits do the same matrix work in the same way exactly when the
counts agree, and produce the same output exactly when the hashes do;
compare CPU times only between alternating runs on one machine.  To
check that a change keeps every output, run the script at the parent
commit and at the change, for each workload, and compare the hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time

# ab_harness puts this checkout's src/ and perfbench/ on the path.
from ab_harness import cli_runner, core_and_warmup, harness_runner, instances_digest, rebind, record_instances
from run import WORKLOADS
from work import counted_work

import koszulkit
from koszulkit import complexes, koszul, matrices, rings
from koszulkit.fgmodules import FgModule
from koszulkit.matrices import Matrix
from koszulkit.rings import fpx

F2 = fpx(2)
# (owner, attribute, counter, predicate on the call's arguments or None),
# in the order of the printed counts.
COUNTERS = (
    (Matrix, "__mul__", "products", None),
    (rings.IntegerRing, "product", "row_products", None),
    (rings._PackedF2Ring, "product", "row_products", None),
    (rings._PackedFpRing, "product", "row_products", None),
    (Matrix, "__mul__", "empty_operand_products", lambda self, other: isinstance(other, Matrix) and not (
        self.rows and self.cols and other.rows and other.cols)),
    (Matrix, "_from_work", "raw_calls", None),
    (Matrix, "__neg__", "negations", None),
    (Matrix, "__neg__", "zero_negations", Matrix.is_zero),
    (F2, "pack", "packs", None),
    (F2, "unpack", "unpacks", None),
    (complexes.ChainMap, "__init__", "checked_chain_maps", None),
    (complexes._Layout, "__init__", "cone_layouts", lambda self, parts, *rest: [s for _, s in parts] == [1, 0]),
    (matrices, "solve", "solves", None),
    (complexes.ComplexSes, "_store", "checked_sequences", None),
    (FgModule, "make", "fgmodule_makes", None),
)
# (owner, attribute, counter, measure of the call's result), summed over
# the calls and printed after ``COUNTERS``.
SUMS = (
    (koszul, "cellular_factorization", "factorization_ranks",
     lambda result: sum(result.final.source.ranks.values())),
)


def count_matrix_work() -> dict:
    """Wrap each attribute of ``COUNTERS`` and ``SUMS`` with a counter.  A
    module's function is rebound in every koszulkit module that imported
    it."""
    amounts = [(owner, name, counter, lambda args, result, p=predicate: p is None or p(*args))
               for owner, name, counter, predicate in COUNTERS]
    amounts += [(owner, name, counter, lambda args, result, m=measure: m(result))
                for owner, name, counter, measure in SUMS]
    counts = dict.fromkeys((counter for _, _, counter, _ in amounts), 0)

    def counted(counter, amount):
        def wrap(original):
            def call(*args):
                result = original(*args)
                counts[counter] += amount(args, result)
                return result
            return call
        return wrap

    for owner, name, counter, amount in amounts:
        rebind(koszulkit, owner, name, counted(counter, amount))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    digest = hashlib.sha256()
    instances = record_instances(koszulkit)
    with tempfile.TemporaryDirectory() as workdir:
        ops, _ = core_and_warmup(args.workload, args.seconds, args.seed, workdir)
        if args.workload == "cli-requests":
            size, hashed, request = {"requests": len(ops)}, "outputs_sha256", cli_runner(koszulkit)

            def output(op):
                label = op.label.encode()
                return len(label).to_bytes(8, "big") + label + request(op)[1]
        else:
            size, hashed, trial = {"trials": len(ops)}, "reports_sha256", harness_runner(koszulkit, args.workload)

            def output(op):
                return trial(op)[1]
        counts = count_matrix_work()
        with counted_work() as work:
            start = time.process_time()
            for op in ops:
                digest.update(output(op))
            cpu = time.process_time() - start
    counts = {**counts, **work}  # hashing the instances below reads matrices, which some counters see
    print(json.dumps({"workload": args.workload, **size, **counts, "cpu_s": round(cpu, 3),
                      hashed: digest.hexdigest(),
                      "instances_sha256": instances_digest(koszulkit, instances)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
