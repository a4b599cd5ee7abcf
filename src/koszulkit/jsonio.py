"""JSON encoding of every wire format the CLI speaks.

Each library type has one wire layout.  A matrix is its shape and its
entries.  Complexes, presented modules and complexes, modules, K0
classes, SNF certificates (without their source), elementary-divisor
decompositions and the generator samples that hold bare divisors have
their own layouts in one private table, ``_LAYOUTS``; any other record,
chain maps and module maps among them, is the dict of its fields, so its
field names are its wire keys; dicts, lists and tuples are encoded item
by item.

One writer, ``_dumps``, writes every document (CLI output and suite
reports) as text, straight from the values it is given, in one walk
that dispatches once per value.  On plain wire data (dicts with str
keys, lists, str, int, bool, None) its text is exactly that of
``json.dumps(x, indent=2, sort_keys=True)``; a library value is written
by its layout; anything else is a ``TypeError``.  A matrix is written
from its rows: over Z, one join per row whose entries all lie inside
±2^53.  ``json.dumps`` is not used because its C encoder does not take
``indent``: with an indent, every value goes through the pure-Python
encoder's generators.  Strings are escaped with the same function as
``json`` (``encode_basestring_ascii``).

``value_to_json`` is the same wire data as a tree of dicts and lists,
for callers that want the data rather than the text (the instances of a
failed suite trial, the scripts, the tests and the request files of the
benchmark): ``json.loads`` of the writer's text, with the whole value
read as a library value, so a tuple is a list and a key is ``str(k)``.
``complex_to_json``, ``chain_map_to_json``,
``presented_koszul_to_json``, ``matrix_to_json`` and
``snf_certificate_to_json`` are other names of it, kept because the
benchmark in ``perfbench/`` calls them.

Integers ride as JSON numbers up to 53 bits and as decimal strings
beyond that; polynomial elements ride as little-endian coefficient
arrays of JSON numbers.  A string integer must be plain ASCII decimal
(``-?[0-9]+``), and a degree key must be ``str(d)`` for an integer d,
so no two keys name the same degree.  Certificates serialize with all
their matrices, so an external tool can re-verify them without this
library.
"""

from __future__ import annotations

import json
import re
from functools import partial
from json.encoder import encode_basestring_ascii

from .complexes import ChainComplex, ChainMap, _Table
from .errors import InvalidInputError
from .fgmodules import FgModule
from .generators import AObjectSample, CObjectSample, KoszulSample
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


_SCALARS = frozenset((str, int, bool, type(None)))
_INTS = {int}


def _integer_text(value: int) -> str:
    """The text of ``_integer(value)``."""
    return int.__repr__(value) if -_SAFE_INT < value < _SAFE_INT else '"' + _int_to_decimal(value) + '"'


def _scalar(value, lib: bool) -> str:
    """The text of a value of a type in ``_SCALARS``; ``lib`` writes an
    int past ±2^53 as a decimal string."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return _integer_text(value) if lib else int.__repr__(value)
    if value is None:
        return "null"
    return "true" if value else "false"


def _matrix_text(m: Matrix, newline: str) -> str:
    """The text of the layout of ``m``, written from the rows.  Over Z,
    a row whose entries all lie inside ±2^53 is joined in one step, any
    other one entry at a time."""
    inner = newline + "  "
    entries = "[]"
    if m.rows:
        row_nl = inner + "  "
        next_row = "," + row_nl
        entry_nl = row_nl + "  "
        head, sep, tail = "[" + entry_nl, "," + entry_nl, row_nl + "]"
        work = m.entries
        if not m.cols:
            rows = next_row.join(["[]"] * m.rows)
        elif m.ring.token != "Z":
            coefficient_nl = entry_nl + "  "
            first, between, last = "[" + coefficient_nl, "," + coefficient_nl, entry_nl + "]"
            rows = next_row.join([head + sep.join([first + between.join(map(int.__repr__, x)) + last if x else "[]"
                                                   for x in row]) + tail for row in work])
        else:
            rows = next_row.join([head + sep.join(map(int.__repr__ if -_SAFE_INT < min(row) and max(row) < _SAFE_INT
                                                      else _integer_text, row)) + tail for row in work])
        entries = "[" + row_nl + rows + inner + "]"
    return f'{{{inner}"cols": {m.cols},{inner}"entries": {entries},{inner}"rows": {m.rows}{newline}}}'


def _write(value, newline: str, out: list, lib: bool):
    """Append the indented text of ``value`` to ``out``; ``newline`` is
    a line break followed by the current indent.  ``lib`` is set inside
    a library value, where a tuple is written as a list, a key as
    ``str(k)`` and an int past ±2^53 as a decimal string.  Outside one,
    only wire data is written, as ``json.dumps`` writes it; a tuple or a
    non-str key there is refused, since its text would read back as a
    list or a str key, not as the value the caller gave."""
    kind = type(value)
    if kind is dict or kind is _Table:
        if lib or kind is _Table:
            _write_object({str(k): v for k, v in value.items()}, newline, out, True)
        else:
            _write_object(value, newline, out, False)
    elif kind is list or lib and kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds <= _SCALARS:
            if kinds == _INTS and (not lib or -_SAFE_INT < min(value) and max(value) < _SAFE_INT):
                text = map(int.__repr__, value)
            else:
                text = [_scalar(item, lib) for item in value]
            out.append("[" + inner + ("," + inner).join(text) + newline + "]")
        else:
            lead = "[" + inner
            for item in value:
                out.append(lead)
                _write(item, inner, out, lib)
                lead = "," + inner
            out.append(newline + "]")
    elif kind is Matrix:
        out.append(_matrix_text(value, newline))
    elif kind in _SCALARS:
        out.append(_scalar(value, lib))
    elif kind in _LAYOUTS:
        _write_object(_LAYOUTS[kind](value), newline, out, False)
    else:
        fields = getattr(value, "_fields", None)
        if fields is None:
            raise TypeError(f"{kind.__name__} is not a wire type")
        _write_object({name: getattr(value, name) for name in fields}, newline, out, True)


def _write_object(items: dict, newline: str, out: list, lib: bool):
    """Append the text of a dict, its keys sorted; TypeError on a key
    that is not a str."""
    if not items:
        out.append("{}")
        return
    inner = newline + "  "
    lead = "{" + inner
    for key in sorted(items):
        if type(key) is not str:
            raise TypeError(f"key {key!r} is not a str")
        out.append(lead + encode_basestring_ascii(key) + ": ")
        _write(items[key], inner, out, lib)
        lead = "," + inner
    out.append(newline + "}")


def _dumps(value) -> str:
    """The wire text of ``value``: ``json.dumps(value, indent=2,
    sort_keys=True)`` for plain wire data, its layout for a library
    value; TypeError on any other type, or on a tuple or a non-str key
    outside a library value."""
    out = []
    _write(value, "\n", out, False)
    return "".join(out)


def _int_to_decimal(value: int) -> str:
    if value.bit_length() <= 3 * _DIGIT_CHUNK:
        return str(value)
    if value < 0:
        return "-" + _int_to_decimal(-value)
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
        if type(data) is int:
            return data
        if isinstance(data, bool):
            raise InvalidInputError("boolean is not a ring element")
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
    # element_from_json has checked and normalized every entry already.
    return Matrix._raw(ring, rows, cols, parsed) if rows else Matrix.zeros(ring, 0, cols)


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
    return PresentedKoszul(PresentedMap(top, bottom, boundary))


def _integer(value: int):
    """A JSON number below 2^53 in absolute value, a decimal string beyond."""
    return value if -_SAFE_INT < value < _SAFE_INT else _int_to_decimal(value)


def _element_writer(ring: Ring):
    """The writer of one element of ``ring``: ``_integer`` over Z; over
    F_p[x] the coefficient list, whose entries stay JSON numbers whatever
    the size of p, the only form ``element_from_json`` reads."""
    return _integer if ring.token == "Z" else list


def _k0_layout(value: K0KosClass) -> dict:
    write = _element_writer(value.torsion.ring)
    return {"rank": value.rank, "torsion": [{"prime": write(p), "mult": m} for p, m in value.torsion.counts]}


def _elements(ring: Ring, values) -> list:
    """The bare elements ``values`` of ``ring``, each by ``_element_writer(ring)``."""
    return list(map(_element_writer(ring), values))


# The layout of each library type but Matrix that has its own: the dict
# of its wire fields.  A field that holds a library value is written by
# the writer as a library value; every other field is wire data already.
# The divisors of a module, a certificate, a decomposition and a
# generator sample are bare ring elements: they are written with the
# ring of the values beside them.
_LAYOUTS = {
    ChainComplex: lambda c: {"ring": c.ring.token, "ranks": c.ranks, "differentials": c.diffs},
    PresentedModule: lambda m: {"gens": m.gens, "relations": m.relations},
    PresentedKoszul: lambda k: {
        "ring": k.top.ring.token, "ranks": {"1": k.top.gens, "0": k.bottom.gens},
        "differentials": {"1": k.d.matrix}, "presentations": {"1": k.top.relations, "0": k.bottom.relations}},
    FgModule: lambda m: {"free_rank": m.free_rank, "torsion": _elements(m.ring, m.torsion)},
    K0KosClass: _k0_layout,
    SnfCertificate: lambda c: {"U": c.U, "D": c.D, "V": c.V, "divisors": _elements(c.source.ring, c.divisors)},
    EdDecomposition: lambda e: {
        "nonunit_part": e.nonunit_part, "unit_part": e.unit_part, "iso": e.iso,
        "divisors": _elements(e.source.ring, e.nonunit_divisors)},
    KoszulSample: lambda s: {"complex": s.complex, "block_divisors": _elements(s.complex.ring, s.block_divisors)},
    AObjectSample: lambda s: {"complex": s.complex, "homology_divisors": {
        str(n): _elements(s.complex.ring, divisors) for n, divisors in s.homology_divisors.items()}},
    CObjectSample: lambda s: {"object": s.object, "h0_divisors": _elements(s.object.top.ring, s.h0_divisors)},
}


def value_to_json(value):
    """The wire data of ``value``: ``json.loads`` of the writer's text
    of it, with the whole value read as a library value.  A tuple is a
    list, a key is ``str(k)`` and an int is a JSON number below 2^53 in
    absolute value and a decimal string beyond; TypeError on a value
    that is no wire type, such as a ring."""
    out = []
    _write(value, "\n", out, True)
    return json.loads("".join(out))


# Other names of the encoder, which the benchmark in perfbench/ calls.
complex_to_json = chain_map_to_json = presented_koszul_to_json = matrix_to_json = snf_certificate_to_json = value_to_json
