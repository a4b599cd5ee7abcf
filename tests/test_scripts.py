"""The measuring scripts run on the smallest cli-requests core.  Each runs
in a subprocess, since ``core_counts`` leaves its counters installed."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ["workload", "requests", "products", "row_products", "empty_operand_products", "raw_calls", "negations",
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
    assert list(same) == ["workload", "ops", "a_cpu_s", "b_cpu_s", "b_over_a"]
    assert same["ops"] == counts["requests"]
