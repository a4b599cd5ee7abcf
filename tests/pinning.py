"""Value-only JSON of library objects, for tests that pin outputs by a hash.

``plain`` reads values only: degree-keyed tables are listed in increasing
degree and ``digest`` sorts every JSON object's keys, so two equal
objects get the same digest whatever order their tables were filled in.
"""

import hashlib
import json

from koszulkit import jsonio
from koszulkit.complexes import ChainComplex, ChainMap, Homotopy
from koszulkit.fgmodules import FgModule
from koszulkit.koszul import AdmissibleSes, PresentedKoszul
from koszulkit.matrices import Matrix
from koszulkit.presented import PresentedMap


def plain(value):
    """A JSON-ready form of ``value`` that depends on its value only."""
    if isinstance(value, (ChainComplex, Matrix, FgModule, PresentedKoszul, PresentedMap)):
        return jsonio.value_to_json(value)
    if isinstance(value, ChainMap):
        return [plain(value.source), plain(value.target), plain(value.components)]
    if isinstance(value, Homotopy):
        return [plain(value.lhs), plain(value.rhs), plain(value.components)]
    if isinstance(value, AdmissibleSes):
        return [plain(value.mono), plain(value.epi), plain(value.retractions), plain(value.sections)]
    if hasattr(value, "_fields"):  # a NamedTuple or a checked value, before the tuple branch
        return {name: plain(getattr(value, name)) for name in value._fields}
    if isinstance(value, dict):
        return [[str(k), plain(v)] for k, v in sorted(value.items())]
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    return value


def digest(value) -> str:
    """SHA-256 of the JSON of ``plain(value)``, with sorted keys."""
    return hashlib.sha256(json.dumps(plain(value), sort_keys=True).encode()).hexdigest()
