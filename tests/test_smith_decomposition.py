"""A complex in Smith bases: ``complexes.SmithDecomposition`` checks its
law when it is built, reads the homology of generated complexes, and its
per-degree stage is the one Smith basis relative to cycles in the package."""

import ast
from pathlib import Path

import pytest

from koszulkit import complexes, koszul
from koszulkit.complexes import (
    ChainMap,
    SmithDecomposition,
    cone,
    direct_sum,
    homology,
    smith_decomposition,
    two_term,
)
from koszulkit.generators import GenParams, gen_a_object, gen_chain_map, gen_koszul, rand_matrix, trial_rng
from koszulkit.koszul import cellular_factorization
from koszulkit.matrices import Matrix
from koszulkit.rings import ZZ, fpx
from koszulkit.sfiltering import EdDecomposition, ed_decompose
from constructions import assert_refused

SRC = Path(__file__).resolve().parents[1] / "src" / "koszulkit"
F2, F3 = fpx(2), fpx(3)


def _complexes(ring, trial: int) -> list:
    """Complexes drawn by ``gen_a_object`` and ``gen_koszul``, the cone of
    a ``gen_chain_map`` between two A-objects, and, for free homology, a
    random two-term complex and its sum with the first A-object."""
    params = GenParams(ring=ring, seed=11, max_rank=3)
    rng = trial_rng(params, trial)
    x = gen_a_object(params, trial).complex
    y = gen_a_object(params, trial + 50).complex
    free = two_term(rand_matrix(rng, ring, 3, 2, 2))
    return [x, gen_koszul(params, trial).complex, cone(gen_chain_map(rng, x, y)).complex, free,
            direct_sum(x, free).complex]


@pytest.mark.parametrize("ring", [ZZ, F2, F3], ids=["Z", "F2x", "F3x"])
def test_divisors_and_free_ranks_are_the_homology(ring):
    """The nonunit divisors of the pieces from n+1 and the free rank at n
    are the torsion and the free rank of H_n, in every degree."""
    for trial in range(6):
        for c in _complexes(ring, trial):
            smith = smith_decomposition(c)
            assert set(smith.bases) == set(smith.inverses) == set(smith.divisors) == set(c.ranks)
            for n in c.degree_range():
                h = homology(c, n)
                nonunit = tuple(d for d in smith.divisors.get(n + 1, ()) if not ring.is_unit(d))
                assert (smith.free_ranks.get(n, 0), nonunit) == (h.free_rank, h.torsion)


def test_the_new_basis_lists_targets_free_generators_then_sources():
    """Z/2 in degree 0, a free generator in degree 1 and an acyclic piece
    from degree 2 to 1: the basis of degree 1 is the target of that piece,
    then the free generator, then the source of the piece to degree 0."""
    c = complexes.ChainComplex(ZZ, {2: 1, 1: 3, 0: 1}, {
        2: Matrix(ZZ, [[1], [0], [0]]), 1: Matrix(ZZ, [[0, 0, 2]])})
    smith = smith_decomposition(c)
    assert dict(smith.divisors) == {2: (1,), 1: (2,), 0: ()}
    assert dict(smith.free_ranks) == {2: 0, 1: 1, 0: 0}
    assert smith.inverses[1] == Matrix.identity(ZZ, 3)


def _forgeries(smith):
    """Each forged field of the decomposition of [Z^2 -> Z^2] with divisors 2, 4."""
    shear, unshear = Matrix(ZZ, [[1, 1], [0, 1]]), Matrix(ZZ, [[1, -1], [0, 1]])
    p0, q0 = smith.bases[0], smith.inverses[0]
    return {
        # An invertible pair whose P_0 no longer carries d_1 onto the pieces.
        "basis": dict(bases={**smith.bases, 0: shear * p0}, inverses={**smith.inverses, 0: q0 * unshear}),
        "basis-alone": dict(bases={**smith.bases, 0: shear * p0}),
        "inverse": dict(inverses={**smith.inverses, 0: q0 * unshear}),
        "divisor": dict(divisors={**smith.divisors, 1: (2, 8)}),
        "non-canonical-divisor": dict(divisors={**smith.divisors, 1: (-2, 4)}),
        "dropped-divisor": dict(divisors={**smith.divisors, 1: (2,)}, free_ranks={0: 1, 1: 1}),
        "free-rank": dict(free_ranks={0: 1, 1: 0}),
        "missing-basis": dict(bases={1: smith.bases[1]}),
        "foreign-ring": dict(inverses={**smith.inverses, 1: Matrix.identity(F3, 2)}),
    }


@pytest.mark.parametrize("case", list(_forgeries(smith_decomposition(two_term(Matrix(ZZ, [[2, 4], [6, 8]]))))))
def test_a_forged_decomposition_is_refused(case):
    smith = smith_decomposition(two_term(Matrix(ZZ, [[2, 4], [6, 8]])))
    assert dict(smith.divisors) == {0: (), 1: (2, 4)}
    assert_refused(smith, **_forgeries(smith)[case])


def test_ed_decompose_reads_its_iso_off_the_decomposition(call_log):
    """The iso is P_1 and P_0 under one permutation, nonunit pieces first,
    and neither it nor the bundle is checked again."""
    c = two_term(Matrix(ZZ, [[1, 0], [0, 6]]))
    checked, bundles = call_log(SmithDecomposition, "__init__"), call_log(EdDecomposition, "__init__")
    decomposition = ed_decompose(c)
    assert (len(checked), bundles) == (1, [])
    smith = smith_decomposition(c)
    swap = Matrix(ZZ, [[0, 1], [1, 0]])
    assert decomposition.iso.components == {n: swap * smith.bases[n] for n in (0, 1)}
    assert decomposition.iso.is_chain_iso() and decomposition.nonunit_divisors == (6,)


def test_the_cellular_factorization_takes_one_stage_per_pass(call_log):
    stages = call_log(koszul, "_smith_stage")
    f = ChainMap.zero(two_term(Matrix(ZZ, [[2]])), two_term(Matrix(ZZ, [[2, 4], [6, 8]])))
    assert len(cellular_factorization(f).stages) == len(stages) == 2


def test_only_snf_and_the_stage_call_smith():
    """``matrices._smith`` has two callers in the package: ``snf`` and the
    stage that every Smith basis relative to cycles comes from."""
    callers = set()
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_smith"
                       for node in ast.walk(fn)):
                    callers.add((path.name, fn.name))
    assert callers == {("matrices.py", "snf"), ("complexes.py", "_smith_stage")}
