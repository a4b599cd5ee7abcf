"""The one JSON writer, ``jsonio._dumps``: the exact text of
``json.dumps(x, indent=2, sort_keys=True)`` on the wire types, a
TypeError on anything else, and the same bytes as ``json.dumps`` on the
output of every CLI subcommand."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from koszulkit import GenParams, jsonio  # noqa: E402
from koszulkit.cli import _COMMANDS, main  # noqa: E402
from koszulkit.generators import (  # noqa: E402
    gen_a_object,
    gen_admissible_mono,
    gen_c_object,
    gen_chain_map,
    gen_koszul,
    gen_matrix,
    trial_rng,
)
from koszulkit.rings import ZZ, fpx  # noqa: E402


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
