"""The measuring scripts run on the smallest cli-requests core.  Each runs
in a subprocess, since ``core_counts`` leaves its counters installed;
``ab_harness``'s CLI runner is also called in process, on one request."""

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import koszulkit

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ["workload", "requests", "products", "row_products",
          "empty_operand_products", "raw_calls", "negations",
          "zero_negations", "packs", "unpacks", "checked_chain_maps", "cone_layouts", "solves",
          "checked_sequences", "fgmodule_makes", "factorization_ranks", "row_operations", "entry_operations",
          "largest_bits", "largest_degree", "cpu_s", "outputs_sha256", "instances_sha256"]


def _script(*argv) -> dict:
    done = subprocess.run([sys.executable, *argv, "--workload", "cli-requests", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_core_counts_and_an_a_a_run_see_the_same_core():
    counts = _script("scripts/core_counts.py")
    assert list(counts) == COUNTS
    assert counts["requests"] > 0 and counts["products"] > 0 and len(counts["outputs_sha256"]) == 64
    assert counts["factorization_ranks"] > 0
    # Every matrix product is a row product; the law checks make more.
    assert counts["row_products"] >= counts["products"]
    # The request files are drawn by the generators.
    assert len(counts["instances_sha256"]) == 64 and counts["instances_sha256"] != hashlib.sha256().hexdigest()
    # ab_harness stops with an error when the two sides' outputs differ.
    same = _script("scripts/ab_harness.py", str(ROOT), str(ROOT))
    assert list(same) == ["workload", "ops", "a_cpu_s", "b_cpu_s", "b_over_a",
                          "a_p50_ms", "a_p90_ms", "b_p50_ms", "b_p90_ms", "p50_b_over_a"]
    assert 0 < same["a_p50_ms"] <= same["a_p90_ms"] and 0 < same["b_p50_ms"] <= same["b_p90_ms"]
    assert same["ops"] == counts["requests"]


def _parts(output: bytes) -> list:
    """The length-prefixed parts of a CLI runner's output."""
    parts = []
    while output:
        size = int.from_bytes(output[:8], "big")
        parts.append(output[8:8 + size])
        output = output[8 + size:]
    return parts


def test_cli_runner_writes_over_the_previous_output_and_reads_no_write_as_empty(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    ab_harness = importlib.import_module("ab_harness")
    request = ab_harness.cli_runner(koszulkit)
    src, out, link = tmp_path / "in.json", tmp_path / "out.json", tmp_path / "link.json"
    op = ab_harness.workloads.Op("snf", "snf", {"argv": ["snf", "--in", str(src), "--out", str(out)]})
    src.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[4]]}))
    seconds, first = request(op)
    assert seconds >= 0 and _parts(first) == [b"0", out.read_bytes(), b""]
    assert json.loads(out.read_bytes())["divisors"] == [4]
    # A second call writes into the same file: a hard link to it sees the new text.
    os.link(out, link)
    src.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[6]]}))
    _, second = request(op)
    assert _parts(second) == [b"0", link.read_bytes(), b""]
    assert json.loads(link.read_bytes())["divisors"] == [6]
    # A call that writes nothing leaves the file, and reads as an empty output.
    src.write_text("{not json")
    _, failed = request(op)
    code, output, err = _parts(failed)
    assert code == b"2" and output == b"" and err.startswith(b"koszulkit: ")
    assert json.loads(out.read_bytes())["divisors"] == [6]


def test_surface_check_finds_no_unlisted_function(monkeypatch):
    done = subprocess.run([sys.executable, "scripts/reach.py", "--surface"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    summary = done.stdout.splitlines()[-1]
    assert summary.endswith("never entered; 0 not in the surface ledger, 0 stale surface ledger entries, "
                            "0 failed calls")
    # Each ledger entry quotes the label of a README "Public surface" item,
    # and that item names the function.
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    reach = importlib.import_module("reach")
    readme = " ".join((ROOT / "README.md").read_text().split())
    section = readme[readme.index("## Public surface"):readme.index("## Install")]
    for (_, name), label in reach.SURFACE.items():
        assert f"**{label}.**" in section, label
        assert re.search(rf"`(\w+\.)?{re.escape(name.rsplit('.', 1)[-1])}`", section), name


# The exponent of each family's entry operations and largest entry between
# its two smallest sizes, as BENCH_work.json records it, rounded up to the
# next half (an exponent of 0 to 0.5).  A change that raises one raises its
# bound here, and says why.
WORK_BOUNDS = {
    "snf_z": {"entry_operations": 3.5, "largest_entry": 1.5},
    "snf_f3x": {"entry_operations": 3.0, "largest_entry": 1.5},
    "nullhomotopy": {"entry_operations": 7.0, "largest_entry": 3.0},
    "snf_z_bits": {"entry_operations": 0.5, "largest_entry": 1.0},
    "cellular_bits": {"entry_operations": 0.5, "largest_entry": 1.0},
}


def test_counted_work_of_the_two_smallest_sizes_stays_within_its_exponents(monkeypatch, cpu_time_limit):
    """Counts do not depend on the host, so the bounds hold on any host,
    and under ``reach.py``'s tracer too.  The run takes under 2 s of CPU
    time."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    work = importlib.import_module("work")
    assert set(WORK_BOUNDS) == set(work.FAMILIES)
    kernels = [getattr(owner, name) for owner, _, _ in work.WORK_RINGS for name in ("product", "submul", "combine")]
    with cpu_time_limit(2):
        measured = {name: work.measure(name, work.FAMILIES[name][1][:2]) for name in work.FAMILIES}
    for name, bounds in WORK_BOUNDS.items():
        for key, bound in bounds.items():
            [exponent] = measured[name]["exponents"][key]
            assert exponent <= bound, (name, key, exponent)
    # The counters are off again: every kernel is the original.
    assert kernels == [getattr(owner, name) for owner, _, _ in work.WORK_RINGS
                       for name in ("product", "submul", "combine")]
