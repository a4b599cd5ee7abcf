"""Lines of ``src/koszulkit`` that the Tier-1 suite never runs, and functions
that no command runs.

Usage, from the root of a source checkout:

    python3 scripts/reach.py [pytest arguments]
    python3 scripts/reach.py --surface

The script runs pytest (by default the ``testpaths`` of ``pyproject.toml``)
under a plain ``sys.settrace`` tracer that records the lines of
``src/koszulkit``.  The tracer is installed again before each test, since
hypothesis switches tracing off while it runs.  Code run in a subprocess
(``python -m koszulkit``) is not seen.  The script then prints every
executable line of a function or class body that did not run and is not in
``LEDGER``, and every ledger entry that no longer names an unexecuted line.

The tracer slows the run about fourfold, so the ``cpu_time_limit``
fixture of ``tests/conftest.py`` arms no limit under it, and every test
runs under the tracer as it does without it.  The script exits 0 when
no line is unlisted, no ledger entry is stale and pytest passes, and 1
otherwise.

``LEDGER`` maps (file, function, stripped source line) to the reason why no
test runs that line.

``--surface`` runs no test.  It imports the package and runs every request
of ``tests/fixtures/wire_requests.json`` through ``cli.main``, one
``suite`` call per suite and three trials of each suite over Z, F_2[x] and
F_3[x], under a ``sys.setprofile`` tracer of call events, in about two
seconds.  It then prints every function of ``src/koszulkit`` (defined at
module level or in a class body) that none of them entered and that
``SURFACE`` does not list, and every ``SURFACE`` entry whose function was
entered or is gone.  ``SURFACE`` maps (file, qualified name) to the label
of the README "Public surface" item that keeps the function.  It exits 0
when no function is unlisted, no entry is stale and every call exited 0,
and 1 otherwise.  Run it in a fresh process: functions that ran at import
before the tracer was set would count as never entered.
"""

from __future__ import annotations

import inspect
import json
import linecache
import sys
import tempfile
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
    ("complexes.py", "_retraction_onto_upper",
     'raise InvalidInputError("epimorphism is not degreewise split")'):
        "invariant: the corestriction onto an image basis maps onto a free module, so it has a section",
    ("rings.py", "_perfect_power", "return None"):
        "no valid input of modest size: the loop ends only for n >= 1000**997 = 10**2991",
}


# The labels of the README "Public surface" items.
OPERATIONS = "Operations that no command runs"
FACTOR_STEP = "The paper's single factor step"
SOLVER = "The homotopy solver"
RECORDS = "The record contract"
API_CHECKS = "Checks of the Python API"
LARGE = "Large inputs"
FAILING = "Failing trials"
OUTPUTS = "Outputs for the tests and the benchmark"

SURFACE = {
    ("complexes.py", "_integer"): API_CHECKS,
    ("complexes.py", "_Table._refuse"): RECORDS,
    ("complexes.py", "_Table.__hash__"): RECORDS,
    ("complexes.py", "_Table.__reduce__"): RECORDS,
    ("complexes.py", "_Checked._replace"): RECORDS,
    ("complexes.py", "_Checked.__setattr__"): RECORDS,
    ("complexes.py", "_Checked.__reduce__"): RECORDS,
    ("complexes.py", "_Checked.__hash__"): RECORDS,
    ("complexes.py", "_Checked.__repr__"): RECORDS,
    ("complexes.py", "ChainComplex.__repr__"): RECORDS,
    ("complexes.py", "ChainMap.zero"): OPERATIONS,
    ("complexes.py", "ChainMap.__neg__"): OPERATIONS,
    ("complexes.py", "ChainMap.__repr__"): RECORDS,
    ("complexes.py", "Homotopy.__init__"): SOLVER,
    ("complexes.py", "Homotopy._normalize"): SOLVER,
    ("complexes.py", "Homotopy.at"): SOLVER,
    ("complexes.py", "shift_map"): FACTOR_STEP,
    ("complexes.py", "cylinder"): OPERATIONS,
    ("complexes.py", "cyl_functorial"): OPERATIONS,
    ("complexes.py", "truncation_triple"): OPERATIONS,
    ("complexes.py", "_solve_degreewise"): SOLVER,
    ("complexes.py", "homotopy_between"): SOLVER,
    ("complexes.py", "nullhomotopy"): SOLVER,
    ("complexes.py", "chain_retraction"): SOLVER,
    ("complexes.py", "split_retractions"): OPERATIONS,
    ("complexes.py", "quotient_by_split_mono"): OPERATIONS,
    ("fgmodules.py", "FgModule.make"): OPERATIONS,
    ("fgmodules.py", "FgModule.direct_sum"): OPERATIONS,
    ("fgmodules.py", "FgModule.__repr__"): RECORDS,
    ("generators.py", "rand_unimodular"): OPERATIONS,
    ("generators.py", "scramble_complex"): OPERATIONS,
    ("jsonio.py", "value_to_json"): OUTPUTS,
    ("k0.py", "K0TorsionClass.as_dict"): OPERATIONS,
    ("koszul.py", "h0_augmentation"): OPERATIONS,
    ("koszul.py", "factor_step"): FACTOR_STEP,
    ("koszul.py", "retraction_q"): OPERATIONS,
    ("matrices.py", "Matrix.__setattr__"): RECORDS,
    ("matrices.py", "Matrix.__reduce__"): RECORDS,
    ("matrices.py", "Matrix.__repr__"): RECORDS,
    ("matrices.py", "Matrix.scale"): OPERATIONS,
    ("matrices.py", "_kron"): SOLVER,
    ("matrices.py", "SnfCertificate.rank"): OPERATIONS,
    ("matrices.py", "rank"): OPERATIONS,
    ("matrices.py", "is_exact_at"): OPERATIONS,
    ("presented.py", "PresentedMap.image"): OPERATIONS,
    ("rings.py", "_jacobi"): LARGE,
    ("rings.py", "_strong_lucas"): LARGE,
    ("rings.py", "Ring.is_canonical_prime"): OPERATIONS,
    ("rings.py", "Ring.__repr__"): RECORDS,
    ("rings.py", "IntegerRing.__reduce__"): RECORDS,
    ("rings.py", "IntegerRing._is_irreducible"): OPERATIONS,
    ("rings.py", "PrimeFieldPolynomialRing._is_irreducible"): OPERATIONS,
    ("rings.py", "_PackedFpRing._chunked_mul"): LARGE,
    ("suites.py", "TrialFailure.__init__"): FAILING,
    ("suites.py", "SuiteReport.dumps"): OUTPUTS,
    ("suites.py", "_crash_stage"): FAILING,
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


def functions() -> dict:
    """(path, first line) -> qualified name, for every function defined at
    module level or in a class body of ``src/koszulkit``."""
    found: dict = {}

    def walk(code):
        for const in code.co_consts:
            if hasattr(const, "co_qualname") and "<" not in const.co_qualname:
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found[(const.co_filename, const.co_firstlineno)] = const.co_qualname
                walk(const)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"))
    return found


def surface() -> int:
    entered: set = set()
    prefix = str(SRC)

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.path.insert(0, str(SRC.parent))
    requests = json.loads((ROOT / "tests" / "fixtures" / "wire_requests.json").read_text())
    failed = []
    sys.setprofile(tracer)
    from koszulkit import GenParams, ZZ, cli, fpx, run_suite, suites

    with tempfile.TemporaryDirectory() as tmp:
        src, dst = Path(tmp) / "in.json", str(Path(tmp) / "out.json")
        calls = [([*request["argv"], "--in", str(src)], request["input"]) for request in requests]
        calls += [(["suite", name, "--trials", "1"], None) for name in suites.SUITES]
        for argv, document in calls:
            src.write_text(json.dumps(document))
            if cli.main([*argv, "--out", dst]) != 0:
                failed.append(argv)
        for ring in (ZZ, fpx(2), fpx(3)):
            for name in suites.SUITES:
                if not run_suite(name, GenParams(ring=ring, seed=0, trials=3, max_entry=3)).ok:
                    failed.append([name, ring.token])
    sys.setprofile(None)

    missed: dict = {}
    every = functions()
    for (path, line), name in sorted(every.items()):
        if (path, line) not in entered:
            missed.setdefault((Path(path).name, name), []).append(line)
    unlisted = {key: at for key, at in missed.items() if key not in SURFACE}
    stale = [key for key in SURFACE if key not in missed]
    for (name, owner), at in unlisted.items():
        print(f"never entered {name}:{','.join(map(str, at))} {owner}")
    for key in stale:
        print(f"surface ledger entry is entered or gone: {key}")
    for argv in failed:
        print(f"failed: {' '.join(argv)}")
    print(f"{len(every)} functions, {len(missed)} never entered; {len(unlisted)} not in the surface ledger, "
          f"{len(stale)} stale surface ledger entries, {len(failed)} failed calls")
    return 1 if unlisted or stale or failed else 0


def main(argv: list) -> int:
    if argv == ["--surface"]:
        return surface()
    ran: set = set()
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
    print(f"{sum(map(len, missed.values()))} unexecuted lines; {len(unlisted)} sources not in the ledger, "
          f"{len(stale)} stale ledger entries; pytest exit status {int(status)}")
    return 1 if unlisted or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
