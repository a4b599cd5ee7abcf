"""JSON encoding of every wire format the CLI speaks.

One encoder, ``value_to_json``, turns any library value into wire data,
dispatching on its exact type: matrices, complexes, presented modules
and complexes, modules, K0 classes, SNF certificates and
elementary-divisor decompositions have their own layouts; any other
record, chain maps and module maps among them, is written as the dict
of its fields, so its field names are its wire keys; dicts, lists and
tuples are encoded item by item.  ``complex_to_json``,
``chain_map_to_json``, ``presented_koszul_to_json``, ``matrix_to_json``
and ``snf_certificate_to_json`` are other names of the same function,
kept because the benchmark in ``perfbench/`` calls them.

Integers ride as JSON numbers up to 53 bits and as decimal strings
beyond that; polynomial elements ride as little-endian coefficient
arrays of JSON numbers.  A string integer must be plain ASCII decimal
(``-?[0-9]+``), and a degree key must be ``str(d)`` for an integer d,
so no two keys name the same degree.  Certificates serialize with all
their matrices, so an external tool can re-verify them without this
library.

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
from .koszul import PresentedKoszul
from .matrices import Matrix, SnfCertificate
from .presented import PresentedMap, PresentedModule
from .rings import Ring, ring_from_token
from .sfiltering import EdDecomposition

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
    """The degree d whose key is ``str(d)``, the only form ``value_to_json`` writes.

    Keys longer than ``_DIGIT_CHUNK`` are refused, so ``int`` and ``str``
    stay within the interpreter's digit limit.
    """
    if isinstance(key, str) and len(key) <= _DIGIT_CHUNK and _DECIMAL.fullmatch(key):
        degree = int(key)
        if str(degree) == key:
            return degree
    raise InvalidInputError(f"bad degree key {key!r}")


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


def chain_map_from_json(data) -> ChainMap:
    if not isinstance(data, dict) or "source" not in data or "target" not in data:
        raise InvalidInputError("chain map JSON needs source and target complexes")
    source = complex_from_json(data["source"])
    target = complex_from_json(data["target"])
    return ChainMap(source, target, _table(data, "components", partial(matrix_from_json, source.ring)))


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


def _integer(value: int):
    """A JSON number below 2^53 in absolute value, a decimal string beyond."""
    return value if -_SAFE_INT < value < _SAFE_INT else _int_to_decimal(value)


def _element_writer(ring: Ring):
    """The writer of one element of ``ring``: ``_integer`` over Z; over
    F_p[x] the coefficient list, whose entries stay JSON numbers whatever
    the size of p, the only form ``element_from_json`` reads."""
    return _integer if ring.token == "Z" else list


def value_to_json(value):
    """The wire form of ``value``, by its exact type.

    Library types have their own layouts; any other record (a NamedTuple
    or a checked value such as a chain map) becomes the dict of its
    fields.  A dict keeps its keys as ``str(k)``, a list or tuple is
    encoded item by item, an int is a JSON number below 2^53 in absolute
    value and a decimal string beyond; anything else is returned as it
    is, for ``_dumps`` to write or refuse.
    """
    kind = type(value)
    if kind is int:
        return _integer(value)
    if kind is dict:
        return {str(k): value_to_json(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [value_to_json(v) for v in value]
    if kind is Matrix:
        write = _element_writer(value.ring)
        return {"rows": value.rows, "cols": value.cols,
                "entries": [list(map(write, row)) for row in value.entries]}
    if kind is ChainComplex:
        return {"ring": value.ring.token, "ranks": value_to_json(value.ranks),
                "differentials": value_to_json(value.diffs)}
    if kind is PresentedModule:
        return {"gens": value.gens, "relations": value_to_json(value.relations)}
    if kind is PresentedKoszul:
        top, bottom = value.top, value.bottom
        return {"ring": top.ring.token, "ranks": {"1": top.gens, "0": bottom.gens},
                "differentials": {"1": value_to_json(value.d.matrix)},
                "presentations": {"1": value_to_json(top.relations), "0": value_to_json(bottom.relations)}}
    if kind is FgModule:
        return {"free_rank": value.free_rank, "torsion": list(map(_element_writer(value.ring), value.torsion))}
    if kind is K0KosClass:
        write = _element_writer(value.torsion.ring)
        return {"rank": value.rank, "torsion": [{"prime": write(p), "mult": m} for p, m in value.torsion.counts]}
    # The divisors of these two are bare ring elements: they are written
    # with the ring of the matrices beside them.
    if kind is SnfCertificate:
        return {"U": value_to_json(value.U), "D": value_to_json(value.D), "V": value_to_json(value.V),
                "divisors": list(map(_element_writer(value.D.ring), value.divisors))}
    if kind is EdDecomposition:
        return {"nonunit_part": value_to_json(value.nonunit_part), "unit_part": value_to_json(value.unit_part),
                "iso": value_to_json(value.iso),
                "divisors": list(map(_element_writer(value.source.ring), value.nonunit_divisors))}
    fields = getattr(value, "_fields", None)
    if fields is not None:  # any other record: a NamedTuple or a checked value
        return {name: value_to_json(getattr(value, name)) for name in fields}
    return value


# Other names of the encoder, which the benchmark in perfbench/ calls.
complex_to_json = chain_map_to_json = presented_koszul_to_json = matrix_to_json = snf_certificate_to_json = value_to_json
