"""Every CLI request answers or exits 2: requests of
``fixtures/wire_requests.json`` with one to three edits of their input
document each either write a JSON answer (exit 0) or exactly one
``koszulkit: ...`` line on stderr (exit 2), and never a traceback.

An edit replaces one node of the document (the whole of it, a value of a
dict or an item of a list) with another JSON value, or deletes a key of
a dict or an item of a list.  ``cli.main`` runs in process.  The 400
examples take about 2 s of CPU time; the limit of 4 s leaves room for a
slow host and still stops a request that hangs."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from koszulkit.cli import main

REQUESTS = json.loads((Path(__file__).parent / "fixtures" / "wire_requests.json").read_text())

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    st = None


def _nodes(tree, path=()):
    """The path of every node of a JSON tree, the root first."""
    yield path
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _edited(tree, path, value, delete):
    """``tree`` with the node at ``path`` replaced by ``value``, or deleted
    when ``delete`` and the node is a key or an item."""
    if not path:
        return value
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return tree


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


if st is None:
    @pytest.mark.skip(reason="needs hypothesis (the ``test`` extra)")
    def test_edited_wire_requests_answer_or_exit_2():
        pass
else:
    KEYS = sorted({key for request in REQUESTS for path in _nodes(request["input"]) for key in path
                   if isinstance(key, str)} | {"x", ""})
    SCALARS = (st.none() | st.booleans() | st.integers(-3, 12) | st.integers(-2 ** 70, 2 ** 70)
               | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(KEYS)
               | st.sampled_from(["Z", "fpx:2", "fpx:3", "fpx:4", "9" * 30, "-1"]))
    VALUES = st.recursive(SCALARS, lambda children: st.lists(children, max_size=3)
                          | st.dictionaries(st.sampled_from(KEYS), children, max_size=3), max_leaves=6)

    def test_edited_wire_requests_answer_or_exit_2(tmp_path, cpu_time_limit):
        source = tmp_path / "in.json"

        @settings(max_examples=400, deadline=None)
        @given(st.sampled_from(REQUESTS), st.data())
        def check(request, data):
            document = json.loads(json.dumps(request["input"]))
            for _ in range(data.draw(st.integers(1, 3))):
                path = data.draw(st.sampled_from(list(_nodes(document))))
                document = _edited(document, path, data.draw(VALUES), bool(path) and data.draw(st.booleans()))
            source.write_text(json.dumps(document))
            code, out, err = _run([*request["argv"], "--in", str(source)])
            assert code in (0, 2), (request["label"], document)
            if code == 2:
                assert out == "" and err.startswith("koszulkit: ") and err.count("\n") == 1, (err, document)
                assert "Traceback" not in err
            else:
                assert err == "" and json.loads(out) is not None

        with cpu_time_limit(4):
            check()
