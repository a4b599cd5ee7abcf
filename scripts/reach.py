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
It exits 0 when there are none.  Tests that fail under the tracer are
reported but do not change the exit status: the tracer slows the run about
fourfold, so a CPU-time limit can expire (``test_factor_gates``).

``LEDGER`` maps (file, function, stripped source line) to the reason why no
test runs that line.
"""

from __future__ import annotations

import linecache
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "koszulkit"

LEDGER = {
    **{("rings.py", f"Ring.{name}", "raise NotImplementedError"): "abstract: every ring overrides it"
       for name in ("validate", "is_zero", "is_unit", "add", "sub", "neg", "mul", "divmod",
                    "normalize", "unit_inverse", "product", "submul", "combine", "factor",
                    "_is_irreducible")},
    ("koszul.py", "_factor_step",
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


def main(argv: list) -> int:
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
    if status != 0:
        print(f"pytest exit status {int(status)} under the tracer (not a reach failure)")
    print(f"{sum(map(len, missed.values()))} unexecuted lines; {len(unlisted)} sources not in the ledger, "
          f"{len(stale)} stale ledger entries")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
