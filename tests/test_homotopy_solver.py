"""The Smith-basis homotopy solver against the stacked Kronecker system of
``constructions.solve_degreewise``, and at sizes that system cannot reach."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from koszulkit.complexes import (  # noqa: E402
    ChainMap,
    Homotopy,
    chain_retraction,
    cone,
    direct_sum,
    homotopy_between,
    nullhomotopy,
    structure_maps,
    two_term,
)
from koszulkit.generators import (  # noqa: E402
    GenParams, gen_a_object, gen_chain_map, rand_element, rand_matrix, trial_rng,
)
from koszulkit.matrices import Matrix  # noqa: E402
from koszulkit.rings import ZZ, fpx  # noqa: E402

from constructions import reference_homotopy, reference_retraction  # noqa: E402

RINGS = {"Z": (ZZ, 4), "fpx:2": (fpx(2), 2), "fpx:3": (fpx(3), 2)}


def _complex(rng: random.Random, params: GenParams, trial: int):
    """A complex with torsion homology (``gen_a_object``) or a random
    two-term one, whose homology may be free."""
    if rng.random() < 0.5:
        return gen_a_object(params, trial, rng=rng).complex
    rows, cols = 1 + rng.randrange(params.max_rank), 1 + rng.randrange(params.max_rank)
    return two_term(rand_matrix(rng, params.ring, rows, cols, params.max_entry), rng.choice((0, 1, 2)))


def _scaled(rng: random.Random, x):
    """A random multiple of the identity of ``x``: null-homotopic only
    where it kills the homology."""
    c = rand_element(rng, x.ring, 3)
    return ChainMap(x, x, {n: Matrix.identity(x.ring, r).scale(c) for n, r in x.ranks.items()})


def _pairs(rng: random.Random, params: GenParams, trial: int):
    """Parallel chain maps, homotopic or not."""
    x, y = _complex(rng, params, trial), _complex(rng, params, trial + 1)
    total = direct_sum(x, y)
    into = total.inclusions[0]
    return [
        (gen_chain_map(rng, x, y, terms=1), gen_chain_map(rng, x, y, terms=1)),
        (gen_chain_map(rng, x, x), gen_chain_map(rng, x, x)),
        (ChainMap.identity(x), ChainMap.zero(x, x)),
        (into.compose(_scaled(rng, x)), into.compose(gen_chain_map(rng, x, x))),
        (total.projections[1].compose(gen_chain_map(rng, total.complex, total.complex)),
         ChainMap.zero(total.complex, y)),
    ]


def _monos(rng: random.Random, params: GenParams, trial: int):
    """Chain monomorphisms, degreewise split or not, with a chain
    retraction or not."""
    x, y = _complex(rng, params, trial), _complex(rng, params, trial + 1)
    f = gen_chain_map(rng, x, y, terms=1)
    maps = structure_maps(f)
    g = _scaled(rng, y) + gen_chain_map(rng, y, y, terms=1)
    return [
        maps.j1,
        maps.j2,
        cone(g).inclusion,
        cone(structure_maps(g).j1).inclusion,
        direct_sum(x, y).inclusions[1],
        _scaled(rng, x),
    ]


@settings(max_examples=40, deadline=None)
@given(token=st.sampled_from(sorted(RINGS)), trial=st.integers(0, 10 ** 6))
def test_solvers_answer_none_exactly_where_the_kronecker_system_has_no_solution(token, trial):
    ring, bound = RINGS[token]
    params = GenParams(ring=ring, seed=52, max_rank=2, max_entry=bound, support_width=3)
    rng = trial_rng(params, trial)
    for u, v in _pairs(rng, params, trial):
        reference = reference_homotopy(u, v)
        found = homotopy_between(u, v)
        assert (found is None) == (reference is None)
        if reference is not None:
            Homotopy(u, v, reference)  # the reference's witness passes the law check too
    for incl in _monos(rng, params, trial):
        reference = reference_retraction(incl)
        found = chain_retraction(incl)
        assert (found is None) == (reference is None)
        if found is not None:
            assert found.compose(incl) == ChainMap.identity(incl.source)
            assert ChainMap(incl.target, incl.source, reference).compose(incl) == ChainMap.identity(incl.source)


def test_the_solver_sees_both_answers():
    """The agreement test above is not vacuous: its draws hold pairs that
    are homotopic and pairs that are not, and monos with and without a
    chain retraction."""
    answers = set()
    for token, (ring, bound) in sorted(RINGS.items()):
        params = GenParams(ring=ring, seed=52, max_rank=2, max_entry=bound, support_width=3)
        for trial in range(6):
            rng = trial_rng(params, trial)
            answers |= {("homotopy", homotopy_between(u, v) is None) for u, v in _pairs(rng, params, trial)}
            answers |= {("retraction", chain_retraction(incl) is None) for incl in _monos(rng, params, trial)}
    assert answers == {("homotopy", True), ("homotopy", False), ("retraction", True), ("retraction", False)}


def _square(rng: random.Random, n: int) -> Matrix:
    return Matrix(ZZ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])


def test_homotopies_at_scale(cpu_time_limit):
    """Cone(id_X) for X = [Z^n -> Z^n] up to total rank 4n = 96, and the
    homotopy j2 . p ~ id on the cylinder of a map between two such
    complexes up to total rank 6n = 60, in 1 s of CPU time: the stacked
    Kronecker system took 4 s at rank 40 alone."""
    rng = random.Random(52)
    with cpu_time_limit(1):
        for rank in (32, 64, 96):
            identity = ChainMap.identity(cone(ChainMap.identity(two_term(_square(rng, rank // 4)))).complex)
            assert nullhomotopy(identity) is not None
        for rank in (12, 36, 60):
            x, y = two_term(_square(rng, rank // 6)), two_term(_square(rng, rank // 6))
            maps = structure_maps(gen_chain_map(rng, x, y, terms=1))
            assert homotopy_between(maps.j2.compose(maps.p), ChainMap.identity(maps.cylinder)) is not None
