"""Lines of ``src/koszulkit`` that the Tier-1 suite never runs.

Usage, from the root of a source checkout:

    python3 scripts/reach.py [pytest arguments]

The script runs pytest (by default the ``testpaths`` of ``pyproject.toml``)
under a plain ``sys.settrace`` tracer that records the lines of
``src/koszulkit``.  The tracer is installed again before each test, since
hypothesis switches tracing off while it runs.  Code run in a subprocess
(``python -m koszulkit``) is not seen.  The script then prints every
executable line of a function or class body that did not run and is not in
``LEDGER``, and every ledger entry that no longer names an unexecuted line.

A test that fails under the tracer is run again, with the others that
failed, by pytest in a subprocess without the tracer.  The tracer slows
the run about fourfold, so a CPU-time limit can expire under it alone
(``test_factor_gates``); the script names each such tracer-only failure.
It exits 0 when no line is unlisted, no ledger entry is stale and every
failed test passes without the tracer, and 1 otherwise.

``LEDGER`` maps (file, function, stripped source line) to the reason why no
test runs that line.
"""

from __future__ import annotations

import linecache
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "koszulkit"

LEDGER = {
    ("koszul.py", "factor_step",
     'raise AssertionError("factor step lost exact equality with the input map")'):
        "invariant: h . g == f holds by the block algebra of the two cones",
    ("koszul.py", "cellular_factorization",
     'raise AssertionError("cellular factorization failed to terminate")'):
        "invariant: each stage raises the cone-vanishing degree, so width + 1 stages end it",
    ("sfiltering.py", "ed_decompose",
     'raise AssertionError("decomposition transforms are not invertible")'):
        "invariant: both components are a permutation times a unimodular SNF transform",
    ("sfiltering.py", "idempotent_split",
     'raise AssertionError("idempotent images do not recombine to the input")'):
        "invariant: X is the direct sum of the images of e and 1 - e",
    ("complexes.py", "_retraction_onto_upper",
     'raise InvalidInputError("epimorphism is not degreewise split")'):
        "invariant: the corestriction onto an image basis maps onto a free module, so it has a section",
    ("rings.py", "_perfect_power", "return None"):
        "no valid input of modest size: the loop ends only for n >= 1000**997 = 10**2991",
}


def executable_lines() -> dict:
    """(path, line) -> qualified name of the outermost function or class
    body holding it, for every line that a function or class body runs."""
    owners: dict = {}

    def walk(code):
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                for _, _, line in const.co_lines():
                    if line is not None and line != const.co_firstlineno:
                        owners.setdefault((code.co_filename, line), const.co_qualname)
                walk(const)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"))
    return owners


def untraced_failures(nodeids: list) -> tuple:
    """(exit status, set of node ids named as failed) of pytest run on
    ``nodeids`` in a subprocess, without the tracer."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *nodeids],
                          cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        print(done.stdout, done.stderr, sep="")
    named = {line.split(" ", 1)[1].split(" - ", 1)[0] for line in done.stdout.splitlines()
             if line.startswith(("FAILED ", "ERROR "))}
    return done.returncode, named


def main(argv: list) -> int:
    ran: set = set()
    failed: list = []
    prefix = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    class Reinstall:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.settrace(tracer)

        def pytest_runtest_logreport(self, report):
            if report.failed and report.nodeid not in failed:
                failed.append(report.nodeid)

        pytest_collectreport = pytest_runtest_logreport

    sys.settrace(tracer)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[Reinstall()])
    sys.settrace(None)

    missed: dict = {}
    for (path, line), owner in sorted(executable_lines().items()):
        if (path, line) not in ran:
            key = (Path(path).name, owner, linecache.getline(path, line).strip())
            missed.setdefault(key, []).append(line)
    unlisted = {key: at for key, at in missed.items() if key not in LEDGER}
    stale = [key for key in LEDGER if key not in missed]
    for (name, owner, text), at in unlisted.items():
        print(f"unexecuted {name}:{','.join(map(str, at))} {owner}: {text}")
    for key in stale:
        print(f"ledger entry runs or is gone: {key}")
    broken = status != 0 and not failed  # e.g. a usage error: no test to run again
    if failed:
        again, named = untraced_failures(failed)
        broken = again != 0
        for nodeid in failed:
            print(f"fails {'without the tracer too' if nodeid in named else 'only under the tracer'}: {nodeid}")
    print(f"{sum(map(len, missed.values()))} unexecuted lines; {len(unlisted)} sources not in the ledger, "
          f"{len(stale)} stale ledger entries; pytest exit status {int(status)} under the tracer, "
          f"{len(failed)} failed, {'some' if broken else 'none'} failing without it")
    return 1 if unlisted or stale or broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
