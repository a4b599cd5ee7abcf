"""The one JSON writer, ``jsonio._dumps``: the exact text of
``json.dumps(x, indent=2, sort_keys=True)`` on the wire types, the
text of ``json.dumps`` of ``value_to_json(x)`` on every library value,
a TypeError on anything else, and the same bytes as ``json.dumps`` on
the output of every CLI subcommand."""

import enum
import json
import re
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from koszulkit import GenParams, jsonio  # noqa: E402
from koszulkit.complexes import ChainMap, two_term  # noqa: E402
from koszulkit.fgmodules import FgModule  # noqa: E402
from koszulkit.k0 import class_kos_isom  # noqa: E402
from koszulkit.matrices import snf  # noqa: E402
from koszulkit.sfiltering import ed_decompose  # noqa: E402
from test_records import BUILDERS  # noqa: E402
from koszulkit.cli import _COMMANDS, main  # noqa: E402
from koszulkit.generators import (  # noqa: E402
    AObjectSample,
    KoszulSample,
    gen_a_object,
    gen_admissible_mono,
    gen_c_object,
    gen_chain_map,
    gen_koszul,
    trial_rng,
)
from koszulkit.errors import InvalidInputError  # noqa: E402
from koszulkit.matrices import Matrix  # noqa: E402
from koszulkit.rings import ZZ, fpx  # noqa: E402
from constructions import gen_matrix, presented_from_free, zero_complex  # noqa: E402


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


TRICKY = st.sampled_from(["", "\"", "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é ü", "€ 𝄞", "\ud800", "/"])
TEXT = st.one_of(st.text(), TRICKY)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.sampled_from([2 ** 53, -2 ** 53 - 1, 0, -1]),
    TEXT,
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=6), st.dictionaries(TEXT, inner, max_size=6)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, database=None)
@given(PAYLOADS)
def test_writer_equals_json_dumps(value):
    assert jsonio._dumps(value) == reference(value)


@pytest.mark.parametrize("value", [
    {}, [], [[]], [{}], {"a": []}, {"a": {}}, [1, True, None, "x"], [[1, 2], [3]],
    {"b": 1, "a": [False, -2 ** 64]}, "plain", -7,
])
def test_writer_on_edge_shapes(value):
    assert jsonio._dumps(value) == reference(value)


@pytest.mark.parametrize("value", [
    1.5, [0.0], {"a": float("nan")}, {1: "int key"}, {"a": 1, 2: "mixed keys"}, {None: 1},
    (1, 2), {"a": {3, 4}}, b"bytes",
], ids=repr)
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        jsonio._dumps(value)


def _text_or_type_error(write):
    try:
        return write()
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name", BUILDERS)
def test_writer_on_every_record_type(name):
    # Two records hold a ring object, which is no wire type: both ways of
    # writing them refuse it.
    value = BUILDERS[name]()
    text = _text_or_type_error(lambda: jsonio._dumps(value))
    assert text == _text_or_type_error(lambda: reference(jsonio.value_to_json(value)))
    assert (text is TypeError) == (name in ("GenParams", "K0TorsionClass"))


BIG_P = fpx(2 ** 64 + 13)
SAFE = 2 ** 53
DIGITS = 10 ** 4400 + 7  # past the interpreter's 4300-digit limit


def _library_values():
    """Library values at the edges of the encoding, by name."""
    edges = Matrix(ZZ, [[SAFE - 1, -(SAFE - 1)], [SAFE, -SAFE], [SAFE + 1, 0]])
    big_p = Matrix(BIG_P, [[(2 ** 64, 1), (3,)], [(), (2 ** 63, 0, 2 ** 60)]])
    complex_ = two_term(Matrix(ZZ, [[2, 0], [1, 3]]))
    return {
        "Z-safe-edges": Matrix(ZZ, [[SAFE - 1, -(SAFE - 1)], [0, 1]]),
        "Z-unsafe-edges": edges,
        "Z-past-digit-limit": Matrix(ZZ, [[DIGITS, -DIGITS], [1, 2]]),
        "Z-snf-big": snf(edges),
        "Z-module-big": FgModule(ZZ, 1, (SAFE, DIGITS)),
        "fpx-big-p-matrix": big_p,
        "fpx-big-p-snf": snf(big_p),
        "fpx-big-p-module": FgModule(BIG_P, 0, ((2 ** 60, 1), (1, 2 ** 63, 1))),
        "fpx-big-p-k0": class_kos_isom(two_term(Matrix(BIG_P, [[(2 ** 62, 1)]]))),
        "fpx-big-p-koszul": presented_from_free(two_term(Matrix(BIG_P, [[(2 ** 62, 0, 1)]]))),
        "fpx3-ed": ed_decompose(two_term(Matrix(fpx(3), [[(1, 1), (2,)], [(0, 1), (1,)]]))),
        "0xn": Matrix.zeros(ZZ, 0, 3),
        "nx0": Matrix.zeros(ZZ, 3, 0),
        "fpx-nx0": Matrix.zeros(fpx(3), 2, 0),
        "0x0": Matrix.zeros(ZZ, 0, 0),
        "empty-tables": ChainMap.identity(zero_complex(ZZ)),
        "no-torsion": FgModule(ZZ, 2, ()),
        "one-complex-at-two-depths": ChainMap.identity(complex_),
        # Ints of a record's fields, alone and in tuples and tables.
        "record-with-big-ints": KoszulSample(complex_, (SAFE - 1, -SAFE, DIGITS)),
        "record-with-big-int-table": AObjectSample(complex_, {SAFE: (SAFE, 2), -1: (3, "x", -SAFE - 1)}),
        "wire-data-beside-library-values": {"x": complex_, "y": [ChainMap.identity(complex_), {"z": complex_}],
                                            "n": [1, -2], "ok": True, "none": None},
    }


LIBRARY_VALUES = _library_values()


@pytest.mark.parametrize("name", LIBRARY_VALUES)
def test_writer_equals_json_dumps_of_value_to_json(name):
    value = LIBRARY_VALUES[name]
    text = jsonio._dumps(value)
    assert text == reference(jsonio.value_to_json(value))
    if name.startswith("fpx-big-p"):
        # Coefficients stay JSON numbers, whatever the size of p.
        assert re.search(r'"-?[0-9]+"(?!:)', text) is None  # no decimal string but degree keys
        assert max(map(int, re.findall(r"^ *([0-9]+),?$", text, re.M))) >= SAFE


@pytest.mark.parametrize("value", [
    {"a": Matrix(ZZ, [[1]]), 1: "int key"}, [Matrix(ZZ, [[1]]), 1.5], (Matrix(ZZ, [[1]]),),
    {"a": [two_term(Matrix(ZZ, [[2]])), {2: "int key"}]},
], ids=["int-key-beside-a-matrix", "float-beside-a-matrix", "tuple-of-matrices", "int-key-below-a-complex"])
def test_writer_refuses_other_types_beside_library_values(value):
    with pytest.raises(TypeError):
        jsonio._dumps(value)


def _requests():
    """(argv, input) for every CLI subcommand on generated instances."""
    params = GenParams(ring=ZZ, seed=5, max_rank=3)
    big = [[2 ** 60 + 1, 3, -7], [5, -2 ** 55, 1], [0, 4, 9]]
    out = [
        (["snf", "--ring", "Z"], {"rows": 3, "cols": 3, "entries": jsonio.value_to_json(big)}),
        (["snf", "--ring", "Z"], jsonio.value_to_json(gen_matrix(params, 0))),
        (["snf", "--ring", "fpx:3"], jsonio.value_to_json(gen_matrix(GenParams(ring=fpx(3), seed=5), 1))),
    ]
    for index in range(2):
        rng = trial_rng(params, index)
        koszul = jsonio.value_to_json(gen_koszul(params, index, rng=rng).complex)
        f3_koszul = jsonio.value_to_json(gen_koszul(GenParams(ring=fpx(3), seed=5), index).complex)
        for command in ("homology", "k0", "eddecompose"):
            out += [([command], koszul), ([command], f3_koszul)]
        source = gen_a_object(params, index, rng=rng).complex
        target = gen_a_object(params, index, rng=rng).complex
        f = jsonio.value_to_json(gen_chain_map(rng, source, target, bound=2, terms=1))
        out += [(["factorize"], f), (["cone"], f), (["cyl"], f)]
        bottom = min(source.degree_range().start, 0)
        source_json = jsonio.value_to_json(source)
        out += [(["split", "--degree", str(bottom)], source_json),
                (["truncate", "--degree", str(bottom), "--side", "ge"], source_json),
                (["truncate", "--degree", str(bottom), "--side", "le"], source_json)]
        kappa_input = gen_a_object(params, index, spherical=0, window_bottom=0, rng=rng).complex
        out.append((["kappa"], jsonio.value_to_json(kappa_input)))
        out.append((["excise"], jsonio.value_to_json(gen_admissible_mono(params, index, rng=rng).sequence.mono)))
        presented = jsonio.value_to_json(gen_c_object(params, index, rng=rng).object)
        out += [(["resolve"], presented), (["efunctor"], presented)]
    return out


def test_every_subcommand_writes_the_bytes_of_json_dumps(tmp_path):
    # The text is compared with json.dumps of the same payload, read back:
    # the wire types round-trip through json exactly.
    requests = _requests()
    assert {argv[0] for argv, _ in requests} == set(_COMMANDS)
    for i, (argv, payload) in enumerate(requests):
        src, dst = tmp_path / f"in{i}.json", tmp_path / f"out{i}.json"
        src.write_text(json.dumps(payload))
        assert main([*argv, "--in", str(src), "--out", str(dst)]) == 0, argv
        text = dst.read_text(encoding="utf-8")
        assert text == reference(json.loads(text)) + "\n", argv
    dst = tmp_path / "report.json"
    assert main(["suite", "lemma2_4", "--trials", "2", "--out", str(dst)]) == 0
    text = dst.read_text(encoding="utf-8")
    assert text == reference(json.loads(text)) + "\n"


WIRE_REQUESTS = json.loads((Path(__file__).parent / "fixtures" / "wire_requests.json").read_text())
SNF_REQUESTS = [request["input"] for request in WIRE_REQUESTS if request["argv"][0] == "snf"]


@pytest.mark.parametrize("ring", [ZZ, fpx(2), fpx(3)], ids=["Z", "fpx2", "fpx3"])
def test_matrix_from_json_validates_no_entry_again(call_log, ring):
    # element_from_json checks and normalizes each entry; the matrix is
    # packed from those, with no second validation.
    polynomial = ring is not ZZ
    documents = [doc for doc in SNF_REQUESTS
                 if any(isinstance(x, list) for row in doc["entries"] for x in row) == polynomial]
    entries = [x for doc in documents for row in doc["entries"] for x in row]
    assert entries
    validated = call_log(ring, "validate")
    parsed = [jsonio.matrix_from_json(ring, doc) for doc in documents]
    assert validated == []
    for doc, matrix in zip(documents, parsed):
        expected = [[jsonio.element_from_json(ring, x) for x in row] for row in doc["entries"]]
        assert matrix == Matrix(ring, expected) and matrix.entries == tuple(map(tuple, expected))


# Matrix documents that the CLI refuses (tests/test_cli.py, BAD_JSON),
# with the whole message.
BAD_MATRICES = [
    (ZZ, {"rows": 1, "cols": 1, "entries": [[True]]}, "boolean is not a ring element"),
    (ZZ, {"rows": 1, "cols": 1, "entries": [[1.5]]}, "bad integer entry 1.5"),
    (fpx(3), {"rows": 1, "cols": 1, "entries": [["x"]]}, "bad polynomial entry 'x'"),
    (ZZ, [[1]], "matrix JSON must be an object"),
    (ZZ, {"rows": 1, "cols": 1}, "matrix JSON needs rows, cols, entries"),
    (ZZ, {"rows": 2, "cols": 1, "entries": [[1]]}, "matrix JSON has the wrong number of rows"),
    (ZZ, {"rows": 1, "cols": 2, "entries": [[1]]}, "matrix JSON has a ragged row"),
    (fpx(2), {"rows": 1, "cols": 1, "entries": [[[1, True]]]}, "bad polynomial entry [1, True]"),
]


@pytest.mark.parametrize("ring, document, message", BAD_MATRICES)
def test_bad_matrix_documents_are_refused(ring, document, message):
    with pytest.raises(InvalidInputError) as refused:
        jsonio.matrix_from_json(ring, document)
    assert str(refused.value) == message


def test_an_int_subclass_entry_is_refused_not_stored():
    # json never makes one; a Python caller's IntEnum is not a Z element.
    entry = enum.IntEnum("Small", "ONE")(1)
    with pytest.raises(InvalidInputError, match="bad integer entry"):
        jsonio.matrix_from_json(ZZ, {"rows": 1, "cols": 1, "entries": [[entry]]})
