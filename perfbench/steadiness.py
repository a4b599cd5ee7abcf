"""Run the benchmark once per seed and summarise every end-to-end metric.

    python3 perfbench/steadiness.py --workloads harness-z,cli-requests \
        --seeds 1-10 --seconds 20 [--out FILE]

Runs are made one after another, each in its own process.  For each
workload and metric it reports every value, the median, the quartiles
as ``statistics.quantiles(values, n=4)`` gives them, and the spread:
the distance between the quartiles over the median.  Prints the summary
as JSON, and writes it to ``--out`` too when given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": round((q3 - q1) / median, 4) if median else 0.0,
            "min": min(values), "max": max(values), "values": values}


def run_workload(workload: str, seeds: list, seconds: str) -> dict:
    values, units, wall = {}, {}, []
    attempted = failed = 0
    for seed in seeds:
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=180, check=True)
        wall.append(round(time.perf_counter() - start, 2))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"{workload} seed {seed}: {wall[-1]} s, correct {result['correct']}", file=sys.stderr)
    return {"seeds": seeds, "attempted": attempted, "failed": failed, "wall_s": wall,
            "end_to_end": {name: {"unit": units[name], **summarise(v)} for name, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = seed_range(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    summary = {w: run_workload(w, seeds, args.seconds) for w in args.workloads.split(",")}
    text = json.dumps(summary, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
