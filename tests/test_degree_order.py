"""Outputs depend on values only: a complex, chain map or presented
complex rebuilt with its degree-keyed tables filled in another order
gives byte-identical JSON from every construction and every solved
witness."""

import json
import random
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from koszulkit import jsonio  # noqa: E402
from koszulkit.cli import main  # noqa: E402
from koszulkit.complexes import (  # noqa: E402
    ChainComplex,
    ChainMap,
    chain_retraction,
    cone,
    homology_table,
    homotopy_between,
    nullhomotopy,
    structure_maps,
    truncation_splitting,
)
from koszulkit.generators import GenParams, gen_a_object, gen_c_object, gen_chain_map, trial_rng  # noqa: E402
from koszulkit.koszul import cellular_factorization  # noqa: E402
from koszulkit.rings import ZZ, fpx  # noqa: E402

from pinning import plain  # noqa: E402

RINGS = {"Z": (ZZ, 9), "fpx:3": (fpx(3), 3)}


def _shuffled(table: dict, order: random.Random) -> dict:
    items = list(table.items())
    order.shuffle(items)
    return dict(items)


def _rebuilt(value, order: random.Random):
    """An equal complex or chain map, its tables filled in shuffled order."""
    if isinstance(value, ChainComplex):
        return ChainComplex(value.ring, _shuffled(value.ranks, order), _shuffled(value.diffs, order))
    return ChainMap(_rebuilt(value.source, order), _rebuilt(value.target, order),
                    _shuffled(value.components, order))


def _cli(command: str, document) -> str:
    """The text the CLI writes for ``command`` on the JSON ``document``."""
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = Path(tmp, "in.json"), Path(tmp, "out.json")
        src.write_text(json.dumps(document))
        assert main([command, "--in", str(src), "--out", str(dst)]) == 0
        return dst.read_text(encoding="utf-8")


def _outputs(x: ChainComplex, f: ChainMap, spherical: ChainComplex) -> str:
    """The JSON of every construction on ``x``, ``f`` and the 0-spherical
    ``spherical``, the solved witnesses included."""
    maps = structure_maps(f)
    degrees = x.degree_range()
    splitting = truncation_splitting(x, degrees.start)
    factorization = cellular_factorization(f)
    built = cone(f)
    return jsonio._dumps({
        **jsonio.value_to_json({
            "homology": homology_table(x),
            "cone": [built.complex, built.inclusion, built.projection],
            "cyl": [maps.cylinder, maps.j1, maps.j2, maps.p],
            "split": [splitting.triple.incl, splitting.triple.proj, splitting.u, splitting.v],
            "factorize": factorization.stages + (factorization.final,),
        }),
        "kappa": _cli("kappa", jsonio.value_to_json(spherical)),
        "nullhomotopy": plain(nullhomotopy(f)),
        "homotopy_between": plain(homotopy_between(maps.j2.compose(maps.p), ChainMap.identity(maps.cylinder))),
        "chain_retraction": plain(chain_retraction(maps.j2)),
    })


def _presented_outputs(document: dict) -> str:
    return _cli("resolve", document) + _cli("efunctor", document)


@settings(max_examples=20, deadline=None)
@given(token=st.sampled_from(sorted(RINGS)), trial=st.integers(0, 10 ** 6),
       order=st.randoms(use_true_random=False))
def test_outputs_ignore_the_order_of_degrees(token, trial, order):
    ring, bound = RINGS[token]
    params = GenParams(ring=ring, seed=23, max_rank=2, max_entry=bound)
    rng = trial_rng(params, trial)
    x = gen_a_object(params, trial, rng=rng).complex
    # A sum of maps dH + Hd between different complexes: null-homotopic.
    f = gen_chain_map(rng, x, gen_a_object(params, trial, rng=rng).complex, bound=2, terms=1)
    spherical = gen_a_object(params, trial, spherical=0, window_bottom=rng.choice((-1, 0)), rng=rng).complex
    assert _outputs(_rebuilt(x, order), _rebuilt(f, order), _rebuilt(spherical, order)) == _outputs(x, f, spherical)

    # A presented complex has no tables of its own: shuffle its JSON.
    data = jsonio.value_to_json(gen_c_object(params, trial, rng=rng).object)
    shuffled = {key: _shuffled(value, order) if isinstance(value, dict) else value
                for key, value in _shuffled(data, order).items()}
    assert _presented_outputs(shuffled) == _presented_outputs(data)
