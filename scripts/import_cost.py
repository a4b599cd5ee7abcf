"""Wall time of ``import koszulkit`` in a fresh interpreter.

Usage, from the root of a source checkout:

    python3 scripts/import_cost.py [--runs 9] [--src src]

The package under ``--src`` (another checkout's ``src``, for example an earlier
commit's) is copied into a temporary directory, so no bytecode already
written next to it is read and nothing is written inside the checkout;
only the children's environments are set.  The first two rows give the
median, over ``--runs`` fresh interpreters, of the time ``import
koszulkit`` takes: ``bytecode off`` with ``PYTHONDONTWRITEBYTECODE=1``
compiles every module of the package (the set-up perfbench times), and
``bytecode cached`` reads a temporary ``PYTHONPYCACHEPREFIX`` that one
untimed run fills first, as after an install.  The last row imports the
package, drops it from ``sys.modules`` and imports it again with bytecode
off, as perfbench's set-ups 2-5 do, and splits that re-import into
compiling source, ``dataclasses._process_class`` and
``collections.namedtuple`` (medians over ``--runs`` interpreters).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TIMED = "import time; t = time.perf_counter(); import koszulkit; print(time.perf_counter() - t)"
SPLIT = """import collections, dataclasses, importlib.machinery, json, sys, time
import koszulkit
spent = dict.fromkeys(("compile", "dataclass", "namedtuple"), 0.0)
def timed(key, fn):
    def run(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[key] += time.perf_counter() - t
    return run
loader = importlib.machinery.SourceFileLoader
loader.source_to_code = timed("compile", loader.source_to_code)
dataclasses._process_class = timed("dataclass", dataclasses._process_class)
collections.namedtuple = timed("namedtuple", collections.namedtuple)
for name in [m for m in sys.modules if m.split(".")[0] == "koszulkit"]:
    del sys.modules[name]
t = time.perf_counter()
import koszulkit
print(json.dumps(dict(spent, total=time.perf_counter() - t)))"""


def child(code: str, env: dict) -> str:
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(args.src / "koszulkit", Path(tmp, "src", "koszulkit"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = str(Path(tmp, "src"))
        off = dict(base, PYTHONDONTWRITEBYTECODE="1")
        cached = dict(base, PYTHONPYCACHEPREFIX=str(Path(tmp, "pycache")))
        child(TIMED, cached)
        for mode, env in (("bytecode off", off), ("bytecode cached", cached)):
            times = [float(child(TIMED, env)) for _ in range(args.runs)]
            print(f"{mode:16s} median {1e3 * statistics.median(times):7.1f} ms over {args.runs} runs")
        splits = [json.loads(child(SPLIT, off)) for _ in range(args.runs)]
        print("re-import, bytecode off, medians:",
              ", ".join(f"{k} {1e3 * statistics.median(s[k] for s in splits):.1f} ms" for k in splits[0]))


if __name__ == "__main__":
    main()
