"""JSON encoding of every wire format the CLI speaks.

Integers ride as JSON numbers up to 53 bits and as decimal strings
beyond that; polynomial elements ride as little-endian coefficient
arrays.  A string integer must be plain ASCII decimal (``-?[0-9]+``),
and a degree key must be ``str(d)`` for an integer d, so no two keys
name the same degree.  Certificates serialize with all their matrices,
so an external tool can re-verify them without this library.

Every document leaves through ``_dumps``, which returns exactly the text
of ``json.dumps(x, indent=2, sort_keys=True)`` for the types the library
emits (dicts with str keys, lists, str, int, bool, None).  ``json.dumps``
is not used because its C encoder does not take ``indent``: with an
indent, every value goes through the pure-Python encoder's generators.
``_dumps`` joins a list of scalars in one step and escapes strings with
the same function as ``json`` (``encode_basestring_ascii``).
"""

from __future__ import annotations

import re
from functools import partial
from json.encoder import encode_basestring_ascii

from .complexes import ChainComplex, ChainMap
from .errors import InvalidInputError
from .fgmodules import FgModule
from .k0 import K0KosClass
from .koszul import KappaResult, PresentedKoszul, PresentedSes, Resolution
from .matrices import Matrix, SnfCertificate
from .presented import PresentedMap, PresentedModule
from .rings import Ring, ring_from_token

_SAFE_INT = 2 ** 53
_DECIMAL = re.compile("-?[0-9]+")

# Python refuses int <-> str conversions beyond 4300 decimal digits by
# default.  Longer integers are converted in halves of at most this many
# digits, so no interpreter-wide setting has to change.
_DIGIT_CHUNK = 3000

# The largest rank or matrix dimension a document may name.  Every
# operation builds lists of about that length, so a larger count is
# refused as invalid input before anything is built.
_MAX_COUNT = 1 << 12


def _scalar(value) -> str:
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"{kind.__name__} is not a wire type")


def _write(value, newline: str, out: list):
    """Append the indented text of ``value`` to ``out``; ``newline`` is
    a line break followed by the current indent."""
    kind = type(value)
    if kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if dict in kinds or list in kinds:
            lead = "[" + inner
            for item in value:
                out.append(lead)
                _write(item, inner, out)
                lead = "," + inner
            out.append(newline + "]")
        else:
            text = map(int.__repr__, value) if kinds == {int} else map(_scalar, value)
            out.append("[" + inner + ("," + inner).join(text) + newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"key {key!r} is not a str")
            out.append(lead + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, out)
            lead = "," + inner
        out.append(newline + "}")
    else:
        out.append(_scalar(value))


def _dumps(value) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)`` for
    the wire types; TypeError on any other type or a non-str key."""
    out = []
    _write(value, "\n", out)
    return "".join(out)


def _int_to_decimal(value: int) -> str:
    if value < 0:
        return "-" + _int_to_decimal(-value)
    if value.bit_length() <= 3 * _DIGIT_CHUNK:
        return str(value)
    k = value.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(value, 10 ** k)
    return _int_to_decimal(high) + _int_to_decimal(low).zfill(k)


def _decimal_to_int(digits: str) -> int:
    if len(digits) <= _DIGIT_CHUNK:
        return int(digits)
    k = len(digits) // 2
    return _decimal_to_int(digits[:-k]) * 10 ** k + _decimal_to_int(digits[-k:])


def _parse_int(text: str) -> int:
    """The integer written as plain ASCII decimal ``-?[0-9]+``; else ValueError."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(text)
    value = _decimal_to_int(text.lstrip("-"))
    return -value if text[0] == "-" else value


def _degree(key) -> int:
    """The degree d whose key is ``str(d)``, the only form ``complex_to_json`` writes.

    Keys longer than ``_DIGIT_CHUNK`` are refused, so ``int`` and ``str``
    stay within the interpreter's digit limit.
    """
    if isinstance(key, str) and len(key) <= _DIGIT_CHUNK and _DECIMAL.fullmatch(key):
        degree = int(key)
        if str(degree) == key:
            return degree
    raise InvalidInputError(f"bad degree key {key!r}")


def element_to_json(ring: Ring, value):
    if ring.token == "Z":
        return value if -_SAFE_INT < value < _SAFE_INT else _int_to_decimal(value)
    return list(value)


def element_from_json(ring: Ring, data):
    if ring.token == "Z":
        if isinstance(data, bool):
            raise InvalidInputError("boolean is not a ring element")
        if isinstance(data, int):
            return data
        if isinstance(data, str):
            try:
                return _parse_int(data)
            except ValueError:
                raise InvalidInputError(f"bad integer literal {data!r}") from None
        raise InvalidInputError(f"bad integer entry {data!r}")
    if isinstance(data, list) and all(isinstance(c, int) and not isinstance(c, bool) for c in data):
        return ring.poly(data)
    raise InvalidInputError(f"bad polynomial entry {data!r}")


def matrix_to_json(mat: Matrix) -> dict:
    return {
        "rows": mat.rows,
        "cols": mat.cols,
        "entries": [[element_to_json(mat.ring, x) for x in row] for row in mat.entries],
    }


def _count(value, what: str) -> int:
    """``value`` if it is a JSON integer in [0, ``_MAX_COUNT``] (not a
    boolean), else refuse it."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvalidInputError(f"{what} {value!r} is not a nonnegative integer")
    if value > _MAX_COUNT:
        raise InvalidInputError(f"{what} {value} is above the limit {_MAX_COUNT}")
    return value


def _table(data, key: str, read, degrees=None) -> dict:
    """The degree-keyed table ``data[key]`` (empty when absent), each
    value passed through ``read``; with ``degrees``, a key naming any
    other degree is refused."""
    table = data.get(key, {})
    if not isinstance(table, dict):
        raise InvalidInputError(f"bad {key} table")
    out = {}
    for n, value in table.items():
        degree = _degree(n)
        if degrees is not None and degree not in degrees:
            raise InvalidInputError(f"the {key} table has no degree {degree}")
        out[degree] = read(value)
    return out


def matrix_from_json(ring: Ring, data) -> Matrix:
    if not isinstance(data, dict):
        raise InvalidInputError("matrix JSON must be an object")
    try:
        rows, cols, entries = data["rows"], data["cols"], data["entries"]
    except KeyError:
        raise InvalidInputError("matrix JSON needs rows, cols, entries") from None
    for size in (rows, cols):
        _count(size, "matrix shape")
    if not isinstance(entries, list) or len(entries) != rows:
        raise InvalidInputError("matrix JSON has the wrong number of rows")
    parsed = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise InvalidInputError("matrix JSON has a ragged row")
        parsed.append([element_from_json(ring, x) for x in row])
    return Matrix(ring, parsed) if rows else Matrix.zeros(ring, 0, cols)


def complex_to_json(complex_: ChainComplex) -> dict:
    return {
        "ring": complex_.ring.token,
        "ranks": {str(n): r for n, r in complex_.ranks.items()},
        "differentials": {str(n): matrix_to_json(m) for n, m in complex_.diffs.items()},
    }


def _ring(data, what: str) -> Ring:
    """The ring named by the ``"ring"`` token of ``data``."""
    token = data.get("ring")
    if not isinstance(token, str):
        raise InvalidInputError(f"{what} JSON needs a ring token")
    return ring_from_token(token)


def complex_from_json(data) -> ChainComplex:
    if not isinstance(data, dict):
        raise InvalidInputError("complex JSON must be an object")
    ring = _ring(data, "complex")
    ranks = _table(data, "ranks", partial(_count, what="rank"))
    return ChainComplex(ring, ranks, _table(data, "differentials", partial(matrix_from_json, ring)))


def chain_map_to_json(f: ChainMap) -> dict:
    return {
        "source": complex_to_json(f.source),
        "target": complex_to_json(f.target),
        "components": {str(n): matrix_to_json(m) for n, m in f.components.items()},
    }


def chain_map_from_json(data) -> ChainMap:
    if not isinstance(data, dict) or "source" not in data or "target" not in data:
        raise InvalidInputError("chain map JSON needs source and target complexes")
    source = complex_from_json(data["source"])
    target = complex_from_json(data["target"])
    return ChainMap(source, target, _table(data, "components", partial(matrix_from_json, source.ring)))


def fg_module_to_json(module: FgModule) -> dict:
    return {
        "free_rank": module.free_rank,
        "torsion": [element_to_json(module.ring, t) for t in module.torsion],
    }


def snf_certificate_to_json(cert: SnfCertificate) -> dict:
    ring = cert.D.ring
    return {
        "U": matrix_to_json(cert.U),
        "D": matrix_to_json(cert.D),
        "V": matrix_to_json(cert.V),
        "divisors": [element_to_json(ring, d) for d in cert.divisors],
    }


def kos_class_to_json(cls: K0KosClass) -> dict:
    torsion = cls.torsion
    return {
        "rank": cls.rank,
        "torsion": [{"prime": element_to_json(torsion.ring, p), "mult": m} for p, m in torsion.counts],
    }


def presented_module_to_json(module: PresentedModule) -> dict:
    return {"gens": module.gens, "relations": matrix_to_json(module.relations)}


def presented_map_to_json(f: PresentedMap) -> dict:
    return {
        "source": presented_module_to_json(f.source),
        "target": presented_module_to_json(f.target),
        "matrix": matrix_to_json(f.matrix),
    }


def presented_koszul_to_json(x: PresentedKoszul) -> dict:
    ring = x.top.ring
    return {
        "ring": ring.token,
        "ranks": {"1": x.top.gens, "0": x.bottom.gens},
        "differentials": {"1": matrix_to_json(x.d.matrix)},
        "presentations": {"1": matrix_to_json(x.top.relations), "0": matrix_to_json(x.bottom.relations)},
    }


def presented_koszul_from_json(data) -> PresentedKoszul:
    if not isinstance(data, dict):
        raise InvalidInputError("presented complex JSON must be an object")
    ring = _ring(data, "presented complex")
    ranks = _table(data, "ranks", partial(_count, what="rank"))
    if any(n not in (0, 1) for n in ranks):
        raise InvalidInputError("presented complexes live in degrees 0 and 1")
    g1, g0 = ranks.get(1, 0), ranks.get(0, 0)
    read = partial(matrix_from_json, ring)
    pres = _table(data, "presentations", read, (0, 1))
    diffs = _table(data, "differentials", read, (1,))
    top = PresentedModule(ring, g1, pres[1] if 1 in pres else Matrix.zeros(ring, g1, 0))
    # A free degree 1 and a zero boundary: refused before that boundary is built.
    if g1 and not top.relations.cols and 1 not in diffs:
        raise InvalidInputError("boundary map is not injective")
    bottom = PresentedModule(ring, g0, pres[0] if 0 in pres else Matrix.zeros(ring, g0, 0))
    boundary = diffs[1] if 1 in diffs else Matrix.zeros(ring, g0, g1)
    return PresentedKoszul(top, bottom, PresentedMap(top, bottom, boundary))


def kappa_result_to_json(result: KappaResult) -> dict:
    return {
        "retract": complex_to_json(result.kos),
        "u": chain_map_to_json(result.u),
        "v": chain_map_to_json(result.v),
        "u_is_quasi_iso": result.u_is_quasi_iso,
        "v_is_quasi_iso": result.v_is_quasi_iso,
    }


def resolution_to_json(res: Resolution) -> dict:
    return {
        "cover": complex_to_json(res.cover),
        "e1": presented_map_to_json(res.e1),
        "e0": presented_map_to_json(res.e0),
        "kernel": complex_to_json(res.kernel),
        "kernel_inclusion": chain_map_to_json(res.kernel_inclusion),
    }


def triple_to_json(seq: PresentedSes) -> dict:
    return {
        "left": presented_koszul_to_json(seq.left),
        "middle": presented_koszul_to_json(seq.middle),
        "right": presented_koszul_to_json(seq.right),
        "mono": {"1": matrix_to_json(seq.mono.degree1.matrix), "0": matrix_to_json(seq.mono.degree0.matrix)},
        "epi": {"1": matrix_to_json(seq.epi.degree1.matrix), "0": matrix_to_json(seq.epi.degree0.matrix)},
    }
