"""koszulkit benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload {harness-z,harness-fpx,cli-requests}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; koszulkit is imported from
``src/``.  ``--seconds`` sizes the run: it executes a fixed list of ops
(its core) PASSES times, each pass in a forked child of the set-up
process, so that the passes together take about that long at the seed
commit (but every pass holds at least 100 ops); the core's order is
drawn from ``--seed``.  With ``--trace 0`` the run reports the
end-to-end metrics: every time is scaled to the reference machine's
speed by a reference task timed while it runs (see refspeed.py), and
each op counts with its median pass.  With ``--trace 1`` it runs the
core once more under per-layer spans (see spans.py) and reports the
per-layer metrics.  Every pass is checked after its timed region.  The
last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
Scratch files live under ``.perfbench/`` and are removed at exit; the
span dump of a traced run stays there.  README.md in this directory
explains the workloads and the metrics.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

import certcheck
import refspeed
import spans
import summary
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("harness-z", "harness-fpx", "cli-requests")
SETUP_REPEATS = 5
# The core runs this many times; each op is timed by its median pass.
PASSES = 3
MIN_OPS = summary.min_samples(0.9)
WARMUP_SEED = 999_999
CHILD_TIMEOUT_S = 150

# Layers that the traced run reports, and the snf scaling curve.
MODULE_TOTALS = ("presented", "sfiltering", "k0", "generators", "suites")
CLI_COMMANDS = ("snf", "homology", "k0") + workloads.GENERATOR_COMMANDS
SNF_CURVE = (("Z", (4, 6, 8, 10, 11)), ("fpx3", (4, 6, 8)), ("Z32", (4, 6)))


class Failed:
    """An op that raised instead of returning."""

    def __init__(self, error: BaseException):
        self.reason = f"{type(error).__name__}: {error}"


def _purge_koszulkit():
    for name in [m for m in sys.modules if m == "koszulkit" or m.startswith("koszulkit.")]:
        del sys.modules[name]


# ---------------------------------------------------------------------------
# Workloads: prepare (set-up), execute (timed), check (after the run).


class HarnessWorkload:
    def __init__(self, name: str, seed: int, seconds: float):
        self.name, self.seed = name, seed
        ops = max(MIN_OPS, int(seconds * workloads.CORE_RATE[name] / PASSES))
        per_suite = -(-ops // len(workloads.SUITES))
        self.core_size = per_suite * len(workloads.SUITES)

    def prepare(self):
        import koszulkit  # noqa: F401

        self.ring, self.max_entry = workloads.harness_ring(self.name)
        self.core = workloads.harness_ops(self.core_size, 0)
        random.Random(self.seed).shuffle(self.core)
        for suite in workloads.SUITES:
            self.execute(workloads.Op("suite", suite, {"seed": WARMUP_SEED}))

    def execute(self, op):
        return workloads.run_harness_op(self.ring, self.max_entry, op)

    @staticmethod
    def output_bytes(op, outcome) -> int:
        return len(outcome[1].encode())

    @staticmethod
    def check(op, outcome):
        report, _ = outcome
        return None if report.ok else f"suite report has {len(report.failures)} failures"

    def repeat_matches(self, op, outcome) -> bool:
        return self.execute(op)[1] == outcome[1]


class CliWorkload:
    def __init__(self, name: str, seed: int, seconds: float, workdir: str):
        self.name, self.seed, self.workdir = name, seed, workdir
        size = workloads.ROUND_SIZE
        self.rounds = max(-(-MIN_OPS // size), round(seconds * workloads.CORE_RATE[name] / PASSES / size))
        self._written = 0

    def _materialize(self, ops: list) -> list:
        workloads.write_requests(ops, self.workdir, self._written)
        self._written += len(ops)
        return ops

    def prepare(self):
        import koszulkit  # noqa: F401

        self._written = 0
        os.makedirs(self.workdir, exist_ok=True)
        core = [op for r in range(self.rounds) for op in workloads.cli_round(workloads.CORE_SEED, r)]
        random.Random(self.seed).shuffle(core)
        self.core = self._materialize(core)
        warm = [op for op in workloads.cli_round(WARMUP_SEED, 0)
                if op.label in ("snf.Z.n4", "snf.fpx3.n4") or op.kind in workloads.GENERATOR_COMMANDS]
        for op in self._materialize(warm):
            self.execute(op)

    @staticmethod
    def execute(op):
        return workloads.run_cli_op(op)

    @staticmethod
    def output_bytes(op, outcome) -> int:
        return os.path.getsize(op.payload["argv"][-1])

    def check(self, op, outcome):
        if outcome != 0:
            return f"exit code {outcome}"
        with open(op.payload["argv"][-1], encoding="utf-8") as handle:
            out = json.load(handle)
        request = op.payload["input"]
        if op.kind == "snf":
            token = op.payload["args"][1]
            reason = certcheck.check_snf_certificate(token, request, out)
            if reason is None and out.get("verified") is not True:
                reason = "library did not verify its own certificate"
            if reason is None and token == "Z":
                divisors = [int(d) for d in out["divisors"]]
                if divisors != certcheck.sympy_invariant_factors(request):
                    reason = "divisors differ from sympy invariant_factors"
            return reason
        if "expect" in op.payload:
            return None if out == op.payload["expect"] else "output differs from the constructed answer"
        if op.kind == "eddecompose":
            oracle = [d for d in certcheck.sympy_invariant_factors(request["differentials"]["1"]) if d != 1]
            return None if [int(d) for d in out["divisors"]] == oracle else "divisors differ from sympy"
        flags = {"factorize": "composite_equals_input", "split": "identities_hold",
                 "excise": "verified"}
        if op.kind in flags and out[flags[op.kind]] is not True:
            return f"{flags[op.kind]} is not true"
        if op.kind == "kappa" and not (out["u_is_quasi_iso"] and out["v_is_quasi_iso"]):
            return "comparison maps are not quasi-isomorphisms"
        return None

    def repeat_matches(self, op, outcome) -> bool:
        argv = list(op.payload["argv"])
        argv[-1] = argv[-1] + ".again"
        workloads.run_cli_op(workloads.Op(op.kind, op.label, {"argv": argv}))
        with open(op.payload["argv"][-1], "rb") as first, open(argv[-1], "rb") as second:
            return first.read() == second.read()


def make_workload(args, workdir):
    if args.workload == "cli-requests":
        return CliWorkload(args.workload, args.seed, args.seconds, workdir)
    return HarnessWorkload(args.workload, args.seed, args.seconds)


# ---------------------------------------------------------------------------
# The closed loop.


def measure(wl, tracer=None, sampler=None):
    """Run the core once, in order; returns [(op, outcome, latency)] and
    the busy time (the sum of the latencies).  With a running
    refspeed.SpeedSampler, each latency leaves out the samples taken
    inside the op and is scaled to the reference machine's speed."""
    records, windows = [], []
    for op in wl.core:
        overhead = sampler.overhead if sampler else 0.0
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = wl.execute(op)
            else:
                outcome = tracer.call(f"cli.{op.kind}" if op.kind != "suite" else "bench.trial",
                                      wl.execute, op, label=op.label)
        except Exception as error:  # the client records the failure and goes on
            outcome = Failed(error)
        end = time.perf_counter()
        latency = end - start - (sampler.overhead - overhead if sampler else 0.0)
        records.append((op, outcome, latency))
        windows.append((start, end))
    if sampler:
        records = [(op, outcome, sampler.scaled(latency, *window))
                   for (op, outcome, latency), window in zip(records, windows)]
    return records, sum(latency for _, _, latency in records)


def check_records(wl, records) -> tuple:
    """Post-run checks, plus one repeat of each kind of op; returns the
    number of failed ops and the reasons."""
    failed, reasons = 0, []
    first_of_kind = {}
    for op, outcome, _ in records:
        reason = outcome.reason if isinstance(outcome, Failed) else None
        if reason is None:
            try:
                reason = wl.check(op, outcome)
            except Exception as error:
                reason = f"check raised {type(error).__name__}: {error}"
        if reason is None:
            first_of_kind.setdefault(op.kind if op.kind != "suite" else op.label, (op, outcome))
        else:
            failed += 1
            reasons.append(f"{op.label}: {reason}")
    for op, outcome in first_of_kind.values():
        try:
            same = wl.repeat_matches(op, outcome)
        except Exception:
            same = False
        if not same:
            failed += 1
            reasons.append(f"{op.label}: output differs when the request is repeated")
    return failed, reasons


def run_pass(wl) -> dict:
    """One untraced pass: run the core, then check it."""
    with refspeed.SpeedSampler() as sampler:
        records, _ = measure(wl, sampler=sampler)
    failed, reasons = check_records(wl, records)
    return {
        "latencies": [latency for _, _, latency in records],
        "reference_ms": 1e3 * statistics.median(sampler.durations),
        "failed": failed,
        "reasons": reasons[:20],
        "output_bytes": sum(wl.output_bytes(op, outcome) for op, outcome, _ in records
                            if not isinstance(outcome, Failed)),
    }


def forked(fn, *args):
    """Return fn(*args), computed in a forked child of this process.

    The child starts from this process's state, so every pass starts
    from the same set-up and nothing one pass leaves in memory (a
    cache, say) speeds up the next.  The result travels back as JSON
    through a pipe; the child is always waited for.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(fn(*args)).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"pass process ended with status {status}")
    return json.loads(data)


# ---------------------------------------------------------------------------
# Metrics.


def end_to_end_metrics(latencies, setup_s, peak_rss_mb, output_bytes, failed, attempted) -> dict:
    return {
        "throughput_ops_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * summary.percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (1e3 * summary.percentile(latencies, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "fail_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "output_bytes": (output_bytes, "bytes"),
    }


def per_layer_metrics(tracer, overhead_ratio: float) -> dict:
    agg = tracer.aggregate()
    calls, self_s = agg["calls"], agg["self_s"]
    counts = tracer.counts

    def module_sum(table, module):
        return sum(v for k, v in table.items() if k.startswith(module + "."))

    def p50_ms(durations):
        return 1e3 * summary.percentile(durations, 0.5) if durations else 0.0

    m = {
        "matrices.mul.calls": (calls.get("matrices.mul", 0), "count"),
        "matrices.mul.self_s": (self_s.get("matrices.mul", 0.0), "s"),
        "matrices.mul.zero_left_ratio": (tracer.zero_reads / tracer.reads if tracer.reads else 0.0, "ratio"),
        "matrices.snf.calls": (calls.get("matrices.snf", 0), "count"),
        "matrices.snf.repeat_ratio": (counts["snf.repeats"] / calls["matrices.snf"]
                                      if calls.get("matrices.snf") else 0.0, "ratio"),
        "matrices.snf.self_s": (self_s.get("matrices.snf", 0.0), "s"),
        "matrices.snf.max_bits": (tracer.max_bits, "bits"),
        "matrices.echelon.calls": (calls.get("matrices.echelon", 0), "count"),
        "matrices.echelon.repeat_ratio": (counts["echelon.repeats"] / calls["matrices.echelon"]
                                          if calls.get("matrices.echelon") else 0.0, "ratio"),
        "matrices.det.calls": (calls.get("matrices.det", 0), "count"),
        "matrices.det.self_s": (self_s.get("matrices.det", 0.0), "s"),
    }
    curve = tracer.durations_under("cli.snf", "matrices.snf")
    for kind, sizes in SNF_CURVE:
        for n in sizes:
            m[f"matrices.snf.{kind}.n{n}.p50_ms"] = (p50_ms(curve.get(f"snf.{kind}.n{n}", [])), "ms")
    m.update({
        "rings.factor.calls": (calls.get("rings.factor", 0), "count"),
        "rings.factor.self_s": (self_s.get("rings.factor", 0.0), "s"),
        "rings.mul.calls": (counts["rings.mul.calls"], "count"),
        "rings.divmod.calls": (counts["rings.divmod.calls"], "count"),
        "rings.ext_gcd.calls": (counts["rings.ext_gcd.calls"], "count"),
        "fgmodules.make.calls": (calls.get("fgmodules.make", 0), "count"),
        "fgmodules.make.self_s": (self_s.get("fgmodules.make", 0.0), "s"),
    })
    for name in ("check", "homology", "quasi_iso_degree"):
        m[f"complexes.{name}.calls"] = (calls.get(f"complexes.{name}", 0), "count")
        m[f"complexes.{name}.self_s"] = (self_s.get(f"complexes.{name}", 0.0), "s")
    m["complexes.cone.calls"] = (calls.get("complexes.cone", 0), "count")
    m["koszul.factor_step.calls"] = (calls.get("koszul.factor_step", 0), "count")
    m["koszul.factor_step.self_s"] = (self_s.get("koszul.factor_step", 0.0), "s")
    m["koszul.self_s"] = (module_sum(self_s, "koszul"), "s")
    for module in MODULE_TOTALS:
        m[f"{module}.calls"] = (module_sum(calls, module), "count")
        m[f"{module}.self_s"] = (module_sum(self_s, module), "s")
    m["jsonio.parse.self_s"] = (self_s.get("jsonio.parse", 0.0), "s")
    m["jsonio.serialize.self_s"] = (self_s.get("jsonio.serialize", 0.0), "s")
    for command in CLI_COMMANDS:
        durations = tracer.durations_of(f"cli.{command}")
        m[f"cli.{command}.p50_ms"] = (p50_ms(durations), "ms")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


# ---------------------------------------------------------------------------
# Entry point.


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--core-pass", choices=("plain", "ring-counts"), default=None,
                        help="internal, for --trace 1: run the core once, untraced or with "
                             "ring-operation counters, and print its busy time and counts")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    return args


def emit(attempted, failed, metrics, reported):
    """Print every metric as a table line, then the result line with
    the metrics named in ``reported``."""
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported}}
    print(json.dumps(result))


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any pass it forked."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def untraced_run(args, workdir) -> int:
    wl = make_workload(args, workdir)
    windows = []
    with refspeed.SpeedSampler() as sampler:
        for k in range(SETUP_REPEATS):
            start = _PROCESS_START if k == 0 else time.perf_counter()
            if k:
                _purge_koszulkit()
            wl.prepare()
            windows.append((start, time.perf_counter()))
    # Set-up is timed whole: the samples taken inside it stay in.
    setups = [sampler.scaled(end - start, start, end) for start, end in windows]
    passes = [forked(run_pass, wl) for _ in range(PASSES)]
    latencies = summary.median_of([p["latencies"] for p in passes])
    failed = sum(p["failed"] for p in passes)
    attempted = sum(len(p["latencies"]) for p in passes)
    for reason in [r for p in passes for r in p["reasons"]][:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    metrics = end_to_end_metrics(latencies, statistics.median(setups), peak_rss_mb(),
                                 passes[0]["output_bytes"], failed, attempted)
    busy = ", ".join(f"{sum(p['latencies']):.2f}" for p in passes)
    speeds = ", ".join(f"{p['reference_ms']:.4f}" for p in passes)
    print(f"# {args.workload} seed {args.seed}: {len(latencies)} ops x {PASSES} passes; "
          f"scaled busy {busy} s; reference task {speeds} ms; "
          f"scaled setups {', '.join(f'{s:.3f}' for s in setups)} s")
    # fail_ratio is printed but left out of the result line: it is 0 on a
    # healthy run, and the result line carries attempted and failed.
    emit(attempted, failed, metrics, [name for name in metrics if name != "fail_ratio"])
    return 0


def core_pass(args, workdir) -> int:
    wl = make_workload(args, workdir)
    wl.prepare()
    tracer = spans.Tracer()
    if args.core_pass == "ring-counts":
        tracer.install_ring_counters()
    with refspeed.SpeedSampler() as sampler:
        records, busy = measure(wl, sampler=sampler)
    print(json.dumps({"busy_s": busy, "ops": len(records), "counts": dict(tracer.counts)}))
    return 0


def run_core_pass(args, mode: str) -> dict:
    """Run the core in a fresh process, so that nothing one pass leaves
    in memory (a cache, say) speeds up the next."""
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--core-pass", mode],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(child.stdout.strip().splitlines()[-1])


def traced_run(args, workdir) -> int:
    untraced_busy = run_core_pass(args, "plain")["busy_s"]
    ring_counts = run_core_pass(args, "ring-counts")["counts"]
    wl = make_workload(args, workdir)
    wl.prepare()
    tracer = spans.Tracer()
    tracer.install_spans()
    # Busy times are scaled for trace.overhead_ratio; the span durations
    # are not, and include the sampler's interruptions.
    with refspeed.SpeedSampler() as sampler:
        records, busy = measure(wl, tracer, sampler=sampler)
    tracer.counts.update(ring_counts)
    metrics = per_layer_metrics(tracer, busy / untraced_busy)
    tracer.write(os.path.join(SCRATCH, f"trace-{args.workload}-seed{args.seed}.spans.gz"))
    print(f"# {args.workload} seed {args.seed}: traced {len(records)} ops in {busy:.2f} s scaled "
          f"(untraced {untraced_busy:.2f} s); {len(tracer.starts)} spans")
    failed, reasons = check_records(wl, records)
    for reason in reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    emit(len(records), failed, metrics, list(metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "koszulkit", "__init__.py")):
        print(f"perfbench: no koszulkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Certificates of dense 11x11 integer matrices carry entries of more
    # than 4300 decimal digits, Python's default int/str conversion limit.
    sys.set_int_max_str_digits(0)
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = os.path.join(SCRATCH, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.core_pass:
            return core_pass(args, workdir)
        if args.trace:
            return traced_run(args, workdir)
        return untraced_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
