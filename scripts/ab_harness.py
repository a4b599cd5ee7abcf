"""Interleaved A/B CPU timer: two source trees on one benchmark core, in one process.

Usage, from the root of a source checkout:

    python3 scripts/ab_harness.py A_ROOT B_ROOT
        [--workload harness-z|harness-fpx|cli-requests] [--seconds 20]
        [--seed 0] [--passes 1]

``A_ROOT`` and ``B_ROOT`` are source checkouts (a parent commit and a
change, say, each with ``src/koszulkit``); give the same root twice for
an A/A run.  The script copies both packages into a temporary directory
under the names ``koszulkit_a`` and ``koszulkit_b`` and imports both;
this works because the package imports its own modules relatively, so
each copy has its own modules and caches.  The core is the list of
operations of one pass of ``perfbench/run.py --workload W --seconds S``
in the order that ``--seed`` shuffles it into, built from this
checkout's ``perfbench`` (``scripts/core_counts.py`` counts the work of
the same core): property-suite trials for the harness workloads, CLI
requests (input files written to the temporary directory, by this
checkout's koszulkit) for ``cli-requests``.  Each side first runs the
perfbench warm-up ops.

Each operation then runs on both sides, one after the other, and the
side that goes first alternates from one operation to the next, so a
slow stretch of the host falls on both sides alike.  Each run is timed
with ``time.process_time``, and the two outputs must be equal byte for
byte, or the script stops with an error.  A CLI request writes over the
output file that the previous call of the same op left, as passes 2 and
3 of the benchmark do, so an A/B run sees the cost of overwriting an
existing file; only the first call of an op writes a new one.  Whether
a call wrote its file is read from the file's ``st_mtime_ns`` and size,
outside the timed region, and a call that wrote nothing reads as an
empty output.  An output is the suite
report's JSON, or the CLI request's exit code, output file and stderr,
followed by the digest of the instances that the side's ``gen_*``
functions returned during the operation (``instances_digest``, taken
after the timed run), since a passing report holds no values.  It
prints one JSON object: each side's CPU seconds summed over the
operations, the ratio B/A, and the number of operations.

An A/A run reads within about 2 %, where separate benchmark processes on
a shared host spread by up to ±20 %.  So the script sizes a change
quickly, but it measures CPU time of warm code in one process, not the
benchmark's metrics: a performance claim still needs alternating
``perfbench/run.py`` pairs.  A trial that crashes names its stage after
the package, so outputs of crashed trials would differ between the two
names only if their stages did.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

SIDES = ("a", "b")


def load_package(source_root: str, name: str, directory: str):
    """The koszulkit of ``source_root``, imported as ``name`` from a copy
    in ``directory``."""
    shutil.copytree(Path(source_root) / "src" / "koszulkit", Path(directory) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def rebind(pkg, owner, name: str, wrap):
    """Set ``owner.name`` to ``wrap(original)``; for a module's function,
    in every module of ``pkg`` that imported it."""
    original = getattr(owner, name)
    owners = [owner]
    if isinstance(owner, ModuleType):
        owners = [module for key, module in list(sys.modules.items())
                  if key.split(".")[0] == pkg.__name__ and getattr(module, name, None) is original]
    for each in owners:
        setattr(each, name, wrap(original))


def record_instances(pkg) -> list:
    """Make every ``gen_*`` function of ``pkg.generators`` append what it
    returns to the list returned here (nested calls too)."""
    generators = importlib.import_module(pkg.__name__ + ".generators")
    values = []

    def recording(original):
        def generate(*args, **kwargs):
            value = original(*args, **kwargs)
            values.append(value)
            return value
        return generate

    for name in [name for name in vars(generators) if name.startswith("gen_")]:
        rebind(pkg, generators, name, recording)
    return values


def instances_digest(pkg, values: list) -> str:
    """The hex SHA-256 over ``jsonio._dumps(value_to_json(x))`` of each of
    ``values``, in order."""
    jsonio = importlib.import_module(pkg.__name__ + ".jsonio")
    digest = hashlib.sha256()
    for value in values:
        digest.update(jsonio._dumps(jsonio.value_to_json(value)).encode())
    return digest.hexdigest()


def harness_runner(pkg, workload: str):
    """A function that runs one suite trial on ``pkg`` and returns its CPU
    seconds and its JSON."""
    ring, max_entry = (pkg.ZZ, 9) if workload == "harness-z" else (pkg.fpx(2), 3)

    def trial(op) -> tuple:
        start = time.process_time()
        params = pkg.GenParams(ring=ring, seed=op.payload["seed"], trials=1, max_entry=max_entry)
        report = pkg.run_suite(op.label, params).dumps().encode()
        return time.process_time() - start, report
    return trial


def stamp(path: Path):
    """The ``st_mtime_ns`` and size of ``path``, or None if nothing is there."""
    try:
        status = os.stat(path)
    except FileNotFoundError:
        return None
    return status.st_mtime_ns, status.st_size


def cli_runner(pkg):
    """A function that runs one CLI request on ``pkg`` and returns the CPU
    seconds of its ``main`` call, and its exit code, output file and
    stderr, each length-prefixed.  The output file of an earlier call is
    written over, not removed; its mtime is set to 0 first, so a write
    shows even where the file system's clock is coarser than two calls."""
    main = importlib.import_module(pkg.__name__ + ".cli").main

    def request(op) -> tuple:
        out = Path(op.payload["argv"][-1])
        if out.exists():
            os.utime(out, ns=(0, 0))
        before = stamp(out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.process_time()
            code = main(op.payload["argv"])
            seconds = time.process_time() - start
        wrote = stamp(out) != before
        parts = [str(code).encode(), out.read_bytes() if wrote else b"", err.getvalue().encode()]
        return seconds, b"".join(len(part).to_bytes(8, "big") + part for part in parts)
    return request


def core_and_warmup(workload: str, seconds: float, seed: int, workdir: str):
    """The ops of one benchmark pass in their shuffled order, and the
    warm-up ops of the benchmark's set-up."""
    if workload == "cli-requests":
        cli = run.CliWorkload(workload, seed, seconds, workdir)
        ops = [op for r in range(cli.rounds) for op in workloads.cli_round(workloads.CORE_SEED, r)]
        random.Random(seed).shuffle(ops)
        warm = [op for op in workloads.cli_round(run.WARMUP_SEED, 0)
                if op.label in ("snf.Z.n4", "snf.fpx3.n4") or op.kind in workloads.GENERATOR_COMMANDS]
        workloads.write_requests(ops, workdir, 0)
        workloads.write_requests(warm, workdir, len(ops))
        return ops, warm
    size = run.HarnessWorkload(workload, seed, seconds).core_size
    ops = workloads.harness_ops(size, 0)
    random.Random(seed).shuffle(ops)
    warm = [workloads.Op("suite", suite, {"seed": run.WARMUP_SEED}) for suite in workloads.SUITES]
    return ops, warm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a_root")
    parser.add_argument("b_root")
    parser.add_argument("--workload", default="harness-z", choices=run.WORKLOADS)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        sys.path.insert(0, workdir)
        ops, warm = core_and_warmup(args.workload, args.seconds, args.seed, workdir)
        pkgs, runners, instances = {}, {}, {}
        for side, source in zip(SIDES, (args.a_root, args.b_root)):
            pkg = pkgs[side] = load_package(source, f"koszulkit_{side}", workdir)
            runners[side] = cli_runner(pkg) if args.workload == "cli-requests" else harness_runner(pkg, args.workload)
            instances[side] = record_instances(pkg)
        for op in warm:
            for side in SIDES:
                runners[side](op)
                instances[side].clear()
        cpu = dict.fromkeys(SIDES, 0.0)
        done = 0
        for _ in range(args.passes):
            for op in ops:
                order = SIDES if done % 2 == 0 else SIDES[::-1]
                outputs = {}
                for side in order:
                    seconds, outputs[side] = runners[side](op)
                    cpu[side] += seconds
                    outputs[side] += instances_digest(pkgs[side], instances[side]).encode()
                    instances[side].clear()
                if outputs["a"] != outputs["b"]:
                    raise SystemExit(f"ab_harness: outputs differ on {op.label} {op.payload.get('seed', '')}")
                done += 1
    print(json.dumps({"workload": args.workload, "ops": done, "a_cpu_s": round(cpu["a"], 3),
                      "b_cpu_s": round(cpu["b"], 3), "b_over_a": round(cpu["b"] / cpu["a"], 4)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
