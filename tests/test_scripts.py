"""The measuring scripts run on the smallest cli-requests core.  Each runs
in a subprocess, since ``core_counts`` leaves its counters installed;
``ab_harness``'s CLI runner is also called in process, on one request."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import koszulkit

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ["workload", "requests", "products", "row_products", "row_operations",
          "empty_operand_products", "raw_calls", "negations",
          "zero_negations", "packs", "unpacks", "checked_chain_maps", "cone_layouts", "solves",
          "checked_sequences", "fgmodule_makes", "factorization_ranks", "cpu_s", "outputs_sha256",
          "instances_sha256"]


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
