"""The one JSON writer, ``jsonio._dumps``: the exact text of
``json.dumps(x, indent=2, sort_keys=True)`` on the wire types, pinned
text on library values, a TypeError on anything else, and the same
bytes as ``json.dumps`` on the output of every CLI subcommand; and
``value_to_json``, the data that the writer's text parses to."""

import enum
import hashlib
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
    gen_module_ses,
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


def _sha256(text) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the writer's text of each record, or None where it is
# refused.  These and ``LIBRARY_TEXT_SHA256`` below were taken from a
# tree whose ``value_to_json`` walked values on its own, apart from the
# writer, and whose tests held that both gave the same text.  Now that
# ``value_to_json`` parses the writer's text, the pins are the reference
# that does not come from the writer.
RECORD_TEXT_SHA256 = {
    "ChainComplex": "f95b4d9eb2689ef182c20e56d925cbdf897880fd7da36e88880c45ec6c0a6def",
    "ChainMap": "f808fa16345d74e1f14372dc8fbc569bda2d1f3a9f74c1810109d89c139f3517",
    "Homotopy": "3dad95e928382f2ec0d6f66e57956f9e13d59328c9758709f6bb5724128013a8",
    "ComplexSes": "9f188d38458478107eabee39d25f03198a7145b8731b175bd28b5043b5ed4812",
    "PresentedMap": "b3fbfd2104e09784d981b52c695deee06bddea54fe2ab84ddf9f0f6c0398d3fb",
    "SnfCertificate": "c39f2779c8898e95a61e6e56c8ef5dfd76402efcf8a04abab8b98e740456a62b",
    "FgModule": "f83b03fa0c322907e7828c44484df796998cc78fc5763edb614dc5290d66a0db",
    "PresentedModule": "e36a304c8521cd3dd436169a52867ce5c208e654bc46ebe194e5b4b6d6329cc4",
    "Cone": "533478015d6e3d03ff766417aec9ba43526905e66e8bf7fc7642d737a9f5667d",
    "StructureMaps": "b1a0dd9c3c75fefce00437a20a3518e587f81ba63d752341db3c56f52d7682c3",
    "DirectSum": "214ddbac11215dc7b24b2ca4533d8a24416ce1075c9b81fb6094a3191d06efed",
    "TruncationTriple": "537211b11b9a0d849760b56fa492f90f56722a064b0a101bdb124c75ac3eef5f",
    "TruncationSplitting": "14a9077636cbffca06ad7d8463fd30408f4b881b2f08bd319bc1ad817e856aa4",
    "Kos1Membership": "9eb0ce4aa3fcc0764a570a569a1a0bb839dc672d770393770375390ab90d27e2",
    "Augmentation": "361544c9b0e68c29d8bd57a53d9b8655d817ed2842fa31641d99eb06bef85dae",
    "KappaResult": "06c3a200bd9221e65eef00b71077e586892d53935f157ac2ec12412d706a0813",
    "FactorStep": "32d1bcdf2c412578b83df86c3b38096f7025530cf1c74f7d1c8806e998ed0ef1",
    "CellularFactorization": "e53059817d594254b803b2dff93089d4e2768c786e83d9c783c486ad4cc4277f",
    "PresentedKoszul": "939ae468df924b37f5bd639ac86541d0fd62504d349d19173d97f1e450cf78b4",
    "PresentedKoszulMap": "638a3bad89490f33a8ae305977a5b0da1b11bde0d1e682f8b35e9d172d27f2bd",
    "PresentedSes": "1b03172920b1d119ee9498f9bf8d9dba3b85cfc4fb60598a8fd2ebb7d7cde265",
    "Resolution": "b0a8039871dfb0f12aa89eb5dad0e87e33ce472c3fe29cc90be18d213003fa7d",
    "AcyclicRetract": "1a45f02a44c41a87e0d4d29799cc45f84f6aa003e172cc7bc1920cb684326edf",
    "ImageFactorization": "ecbb64d14de7b7b070cc9e83285839a8050a5fc3ec039d9bfa6dac0126ce7444",
    "EdDecomposition": "fbf57352e61808d3fcfae0f0688b646b317595be45bbd99059f7bf65619635e8",
    "ExcisionCertificate": "5911b7fcd22c6b5e704b56f3c86cac9d44e94abe3793fc1622ca18e6819e9336",
    "IdempotentSplit": "4562b93761b65c6fb8f4fa7dff9511bc4441d6a37443d30884f4c8338453fdc9",
    "K0TorsionClass": None,
    "K0KosClass": "4ce638bfd61512cb0605378b08f3068dde7338058074be3cd8d4b8113b5c203a",
    "GenParams": None,
    "KoszulSample": "c5a743a056535bc9bb33eb9910e9f6e6d7ff2095298fcfe52912f5a03e31253c",
    "AObjectSample": "b325ee00a0b68c3002091d216ef3d86a7c1269c5ce01b55b169f95f45973c728",
    "SesSample": "b3afc703c0aad3e7f7b17c1caea9190d30509fb347556f719575151c876a7098",
    "QuasiIsoPair": "ff673e3039aa4621f0a110a4b34ca46456a747e434f7ed28033020041943a0a2",
    "CObjectSample": "80821c04d53fec95519358715f002002143441e33b8ced6a4ddda5f64bdb8fb6",
    "SesMorphism": "8e905e174d5a54eb957d7d273636538ae6fbb8d58e1ac33b7250cc981f5c2ecc",
    "ThreeByThree": "a67249705b3b89fa24b5f93981457e49cab071c8bafbf3f36ca93665a741e67b",
    "SuiteReport": "7ad78c7705bf282e501e33d496c7c9582ed3c01f016e268d9469b57673e0856d",
}


@pytest.mark.parametrize("name", BUILDERS)
def test_writer_on_every_record_type(name):
    # Two records hold a ring object, which is no wire type: the writer
    # and value_to_json both refuse it.
    value = BUILDERS[name]()
    text = _text_or_type_error(lambda: jsonio._dumps(value))
    assert text == _text_or_type_error(lambda: reference(jsonio.value_to_json(value)))
    assert (text is TypeError) == (name in ("GenParams", "K0TorsionClass"))
    assert (None if text is TypeError else _sha256(text)) == RECORD_TEXT_SHA256[name]


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
LIBRARY_TEXT_SHA256 = {
    "Z-safe-edges": "bf1223becdcf3e5d94cb6b2e7a489d0e9d50784b518f6789c38ba8dfb61e5ef4",
    "Z-unsafe-edges": "15cfa544bb27c9eb6ba822844bb4d7a4a4bc98a4845fdc67eb98e1fbbcbeabdd",
    "Z-past-digit-limit": "b8162c94e8a50a49272746f98b76fabc0d5a141cdff253abc281a1632f350c1d",
    "Z-snf-big": "c3de4a743fd6451eb6d0fdd01e53ebdf4e08f41bec278c970b5b04da42c8d4c4",
    "Z-module-big": "7b53b19c7bd05dce3bc080498734827084a9de650bcf0bf7315e77a8f0ef69e4",
    "fpx-big-p-matrix": "21b3b6157853e2f5ab09994eb5b079a5891b2073f071c6d67491859da2d69230",
    "fpx-big-p-snf": "1b6308e8dbdb7b71c11ea4a5ddad28354d73a9ef9edca1ccec4dcd8eb917797f",
    "fpx-big-p-module": "8c57d2c0117293ca6c6e4134aa91613cd8a8c61519ede28efb5dc7c51c3a25de",
    "fpx-big-p-k0": "11ab12260cb78ead316e03a86d3776879ff46a760818559225212f1b8b7447a7",
    "fpx-big-p-koszul": "84aeaf9e3d03be61b847d693b81fbccd3b28cd24475bebf1659c5586a16ffb32",
    "fpx3-ed": "0c300f873f12bde9ba334de38be5ffe9d0f04aebf90ca5bff4df552d2961fc4b",
    "0xn": "20870be8df9ca58f1fd9b7c0412d8b647786da69903568ffddf8b921f71ef7f3",
    "nx0": "b734559b1bb319b8d94dc049f26732f6a0896dd7bff8b609387bf85728a8538c",
    "fpx-nx0": "25c0a8eaa9b7a188ba35fb3d7c8c2e3b08719743e54b8f9e1e5e024edc3efe5d",
    "0x0": "d6f1e7ddd1b03ff71d0b239626f8e8f044270b5b1341c18dc5bbef611762aee0",
    "empty-tables": "a9efa87f8503e6c256d07c6b2acd7942deab974cf7b9bd771a2c32e0fb30cee4",
    "no-torsion": "46057ae8b685c07186487b92a8eb756cbc77a97e1e16f42c8423dacddb805f5e",
    "one-complex-at-two-depths": "6439c7f31d4a1333218336aee857fd3158b6d2cec0920b22cf9048861cdeb2f1",
    "record-with-big-ints": "084a4ed1a2c81b3973a773290d48018d83ba60cfc2f399b751a50bea105eaa1d",
    "record-with-big-int-table": "a258d579dcd7280eced8f8be03b2b7598e718a7e5b20742932f043d8d094aa69",
    "wire-data-beside-library-values": "d357264f54f6983c07e8c549258bbd1090cd07e99405176eb8749f538cf5a593",
}


@pytest.mark.parametrize("name", LIBRARY_VALUES)
def test_writer_equals_json_dumps_of_value_to_json(name):
    value = LIBRARY_VALUES[name]
    text = jsonio._dumps(value)
    assert _sha256(text) == LIBRARY_TEXT_SHA256[name]
    assert text == reference(jsonio.value_to_json(value))
    if name == "Z-unsafe-edges":
        # Past ±2^53 an integer rides as a decimal string, inside it as a number.
        assert f'"{SAFE}"' in text and f'"{-SAFE}"' in text and f'"{SAFE + 1}"' in text
        assert re.search(rf"^ *{SAFE - 1},?$", text, re.M)
    if name == "Z-past-digit-limit":
        # Past the interpreter's 4300-digit limit too.
        digits = "1" + "0" * 4399 + "7"
        assert f'"{digits}"' in text and f'"-{digits}"' in text
    if name.startswith("fpx-big-p"):
        # Coefficients stay JSON numbers, whatever the size of p.
        assert re.search(r'"-?[0-9]+"(?!:)', text) is None  # no decimal string but degree keys
        assert max(map(int, re.findall(r"^ *([0-9]+),?$", text, re.M))) >= SAFE


def test_value_to_json_reads_a_plain_tuple_and_int_keys_at_the_top():
    # Suite instances such as gen_module_ses's are plain tuples, which the
    # writer refuses outside a library value.
    complex_ = two_term(Matrix(ZZ, [[2]]))
    complex_data = {"ring": "Z", "ranks": {"0": 1, "1": 1},
                    "differentials": {"1": {"rows": 1, "cols": 1, "entries": [[2]]}}}
    assert jsonio.value_to_json((1, -SAFE, "x", None, (SAFE - 1,))) == [1, str(-SAFE), "x", None, [SAFE - 1]]
    assert jsonio.value_to_json({SAFE: (3,), -1: complex_, "k": True}) == {
        str(SAFE): [3], "-1": complex_data, "k": True}
    instance = gen_module_ses(GenParams(ring=ZZ, seed=0), 0)
    assert type(instance) is tuple
    assert jsonio.value_to_json(instance) == [jsonio.value_to_json(part) for part in instance]
    with pytest.raises(TypeError):
        jsonio._dumps(instance)


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
