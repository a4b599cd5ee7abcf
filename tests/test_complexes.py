import math

import pytest

from koszulkit.complexes import (
    ChainComplex,
    ChainMap,
    ComplexSes,
    Homotopy,
    chain_retraction,
    cone,
    cyl_functorial,
    cylinder,
    direct_sum,
    homology,
    homology_table,
    homotopy_between,
    is_acyclic,
    kernel_image_sequences,
    nullhomotopy,
    quasi_iso_degree,
    quotient_by_split_mono,
    shift,
    split_retractions,
    structure_maps,
    truncate_ge,
    truncate_le,
    truncation_splitting,
    truncation_triple,
    two_term,
)
from koszulkit.errors import DimensionError, HypothesisNotMetError, InvalidInputError, NotAComplexError, WitnessError
from koszulkit.fgmodules import FgModule, module_iso
from koszulkit.generators import GenParams, gen_a_object, gen_chain_map, trial_rng
from koszulkit.matrices import Matrix
from koszulkit.rings import ZZ, fpx
from constructions import euler_characteristic, zero_complex

Z2 = two_term(Matrix(ZZ, [[2]]))
Z6 = two_term(Matrix(ZZ, [[6]]))
PARAMS = GenParams(ring=ZZ, seed=99)
F3 = fpx(3)


def three_term():
    # [Z ->3 Z] in degrees (2,1) plus [Z ->2 Z] in degrees (1,0)
    return ChainComplex(ZZ, {2: 1, 1: 2, 0: 1},
                        {2: Matrix(ZZ, [[3], [0]]), 1: Matrix(ZZ, [[0, 2]])})


def test_construction_rejects_bad_square():
    with pytest.raises(NotAComplexError):
        ChainComplex(ZZ, {2: 1, 1: 1, 0: 1},
                     {2: Matrix(ZZ, [[1]]), 1: Matrix(ZZ, [[2]])})


@pytest.mark.parametrize("ranks, diffs", [
    ({1: 1.9, 0: True}, {1: Matrix(ZZ, [[6]])}),
    ({"1": "1", 0: 1}, {}),
    ({"1": 1, 0: 1}, {}),
    ({1: 1, 0: 1.0}, {}),
    ({1: 1, 0: 1}, {"1": Matrix(ZZ, [[6]])}),
    ({1: 1, 0: 1}, {1.0: Matrix(ZZ, [[6]])}),
    ({True: 1, 0: 1}, {}),
])
def test_construction_refuses_non_integer_degrees_and_ranks(ranks, diffs):
    with pytest.raises(InvalidInputError):
        ChainComplex(ZZ, ranks, diffs)


# Calls with a part over the wrong ring or of the wrong shape, each with
# the error it raises and a word of its message.
REFUSALS = {
    "differential-over-another-ring": (
        lambda: ChainComplex(ZZ, {1: 1, 0: 1}, {1: Matrix(F3, [[(1,)]])}), InvalidInputError, "wrong ring"),
    "differential-of-another-shape": (
        lambda: ChainComplex(ZZ, {1: 1, 0: 1}, {1: Matrix(ZZ, [[1, 2]])}), DimensionError, "shape"),
    "negative-rank": (lambda: ChainComplex(ZZ, {0: -1}, {}), InvalidInputError, "negative rank"),
    "maps-that-do-not-compose": (
        lambda: ChainMap.identity(Z6).compose(ChainMap.identity(Z2)), DimensionError, "compose"),
    "sequence-not-consecutive": (
        lambda: ComplexSes(ChainMap.identity(Z6), ChainMap.identity(Z2)), InvalidInputError, "consecutive"),
}


@pytest.mark.parametrize("call, error, match", REFUSALS.values(), ids=REFUSALS)
def test_wrong_ring_or_shape_is_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_reprs_and_isomorphism_across_ranks():
    assert repr(Z6) == "ChainComplex(Z, ranks={0: 1, 1: 1})"
    assert repr(ChainMap.identity(Z6)) == "ChainMap(degrees=[0, 1])"
    assert not ChainMap.zero(Z6, shift(Z6, 1)).is_chain_iso()


def test_chain_map_refuses_non_integer_degrees():
    with pytest.raises(InvalidInputError):
        ChainMap(Z6, Z6, {"1": Matrix(ZZ, [[1]]), 0: Matrix(ZZ, [[1]])})


def test_chain_map_law_checked():
    with pytest.raises(InvalidInputError):
        ChainMap(Z2, Z6, {1: Matrix(ZZ, [[1]]), 0: Matrix(ZZ, [[1]])})


def test_shift():
    assert shift(Z2, 0) == Z2
    assert shift(shift(Z2, 1), -1) == Z2
    moved = shift(Z2, 1)
    assert tuple(moved.ranks) == (-1, 0)
    assert moved.d(0) == Matrix(ZZ, [[-2]])


def test_shift_moves_homology():
    sample = gen_a_object(PARAMS, 3).complex
    moved = shift(sample, 2)
    for n in sample.degree_range():
        assert module_iso(homology(sample, n), homology(moved, n - 2))


def test_cone_of_identity_is_acyclic():
    for complex_ in (Z2, three_term()):
        assert is_acyclic(cone(ChainMap.identity(complex_)).complex)


def test_cone_of_map_from_zero():
    built = cone(ChainMap.zero(zero_complex(ZZ), Z2))
    assert built.complex == Z2


def test_cone_homology_matches_long_exact_sequence():
    # multiplication by 3 is an iso on H0 = Z/2, so the cone is acyclic
    times3 = ChainMap(Z2, Z2, {1: Matrix(ZZ, [[3]]), 0: Matrix(ZZ, [[3]])})
    assert is_acyclic(cone(times3).complex)
    # the zero endomorphism is not: both H0 and H1 of the cone see Z/2
    zero_endo = ChainMap.zero(Z2, Z2)
    built = cone(zero_endo).complex
    assert homology(built, 0) == FgModule(ZZ, 0, (2,))
    assert homology(built, 1) == FgModule(ZZ, 0, (2,))
    assert homology(built, 2) == FgModule(ZZ, 0, ())


def test_cone_euler_characteristic():
    rng = trial_rng(PARAMS, 7)
    x = gen_a_object(PARAMS, 7, rng=rng).complex
    y = gen_a_object(PARAMS, 7, rng=rng).complex
    f = gen_chain_map(rng, x, y)
    built = cone(f).complex
    assert euler_characteristic(built) == euler_characteristic(y) - euler_characteristic(x)


def test_cone_structure_maps_are_chain_maps():
    times5 = ChainMap(Z2, Z2, {1: Matrix(ZZ, [[5]]), 0: Matrix(ZZ, [[5]])})
    built = cone(times5)
    assert built.inclusion.source == Z2
    assert built.projection.target == shift(Z2, -1)


def test_cylinder_zero_map():
    assert cylinder(ChainMap.zero(zero_complex(ZZ), zero_complex(ZZ))) == zero_complex(ZZ)


def test_cylinder_homology_matches_target():
    rng = trial_rng(PARAMS, 13)
    for trial in range(10):
        x = gen_a_object(PARAMS, trial, rng=rng).complex
        y = gen_a_object(PARAMS, trial + 100, rng=rng).complex
        f = gen_chain_map(rng, x, y)
        cyl = cylinder(f)
        for n in cyl.degree_range():
            assert module_iso(homology(cyl, n), homology(y, n))


def test_structure_map_identities():
    times5 = ChainMap(Z2, Z2, {1: Matrix(ZZ, [[5]]), 0: Matrix(ZZ, [[5]])})
    maps = structure_maps(times5)
    assert maps.p.compose(maps.j1) == times5
    assert maps.p.compose(maps.j2) == ChainMap.identity(Z2)
    witness = homotopy_between(maps.j2.compose(maps.p), ChainMap.identity(maps.cylinder))
    assert witness is not None
    # both end inclusions split degreewise; times5, injective in each
    # degree, does not
    assert split_retractions(maps.j1) is not None
    assert split_retractions(maps.j2) is not None
    assert split_retractions(times5) is None


def test_cyl_functorial():
    times3 = ChainMap(Z2, Z2, {1: Matrix(ZZ, [[3]]), 0: Matrix(ZZ, [[3]])})
    ident = ChainMap.identity(Z2)
    assert cyl_functorial(times3, times3, ident, ident) == ChainMap.identity(cylinder(times3))
    zero = ChainMap.zero(Z2, Z2)
    assert cyl_functorial(times3, times3, zero, zero).is_zero_map()
    with pytest.raises(InvalidInputError):
        cyl_functorial(times3, ident, ident, times3)


def test_cyl_functorial_respects_composition():
    rng = trial_rng(PARAMS, 17)
    x = gen_a_object(PARAMS, 17, rng=rng).complex
    f = gen_chain_map(rng, x, x)
    ident = ChainMap.identity(x)
    scale3 = ChainMap(x, x, {n: ident.at(n).scale(3) for n in x.ranks})
    scale5 = ChainMap(x, x, {n: ident.at(n).scale(5) for n in x.ranks})
    # scalar verticals commute with any square; stacked squares compose
    first = cyl_functorial(f, f, scale3, scale3)
    second = cyl_functorial(f, f, scale5, scale5)
    combined = cyl_functorial(f, f, scale5.compose(scale3), scale5.compose(scale3))
    assert second.compose(first) == combined


def test_homology_examples():
    assert homology(Z6, 0) == FgModule(ZZ, 0, (6,))
    assert homology(Z6, 1) == FgModule(ZZ, 0, ())
    ident = two_term(Matrix.identity(ZZ, 2))
    assert is_acyclic(ident)
    loose = ChainComplex(ZZ, {1: 2, 0: 1}, {})
    assert homology(loose, 1) == FgModule(ZZ, 2, ())
    assert homology(loose, 0) == FgModule(ZZ, 1, ())


def test_truncations_two_term():
    assert not truncate_ge(Z2, 1).ranks
    assert truncate_le(Z2, 0) == Z2


def test_truncations_three_term_example():
    x = ChainComplex(ZZ, {2: 1, 1: 1, 0: 1},
                     {2: Matrix.zeros(ZZ, 1, 1), 1: Matrix(ZZ, [[2]])})
    upper = truncate_ge(x, 1)
    assert upper.ranks == {2: 1}
    lower = truncate_le(x, 0)
    assert lower.ranks == {1: 1, 0: 1}
    assert lower.d(1) == Matrix(ZZ, [[2]])
    assert homology(lower, 0) == FgModule(ZZ, 0, (2,))


def test_truncations_outside_support():
    x = three_term()
    assert truncate_ge(x, -3) == x
    assert truncate_le(x, 5) == x
    assert not truncate_ge(x, 9).ranks
    assert not truncate_le(x, -9).ranks


def test_truncation_triple_exact():
    """Each truncation sequence is a ``ComplexSes``, so building it proves it exact."""
    for trial in range(15):
        sample = gen_a_object(PARAMS, trial).complex
        for n in range(sample.degree_range().start - 1, sample.degree_range().stop + 1):
            triple = truncation_triple(sample, n)
            assert type(triple) is ComplexSes and triple.middle == sample
            assert triple.left == truncate_ge(sample, n + 1) and triple.right == truncate_le(sample, n)


def test_truncation_splitting_examples():
    # two-term at n = 0: upper truncation vanishes, v is an isomorphism
    splitting = truncation_splitting(Z2, 0)
    assert not splitting.triple.left.ranks
    assert splitting.u.is_zero_map()
    # a complex with torsion homology in two degrees, all degrees: the
    # triple's witnesses are the components of u and v
    x = three_term()
    for n in (-1, 0, 1, 2):
        splitting = truncation_splitting(x, n)
        assert splitting.triple == truncation_triple(x, n)._replace(
            retractions=splitting.u.components, sections=splitting.v.components)


def test_forged_truncation_splittings_do_not_verify():
    """The law that the triple does not prove is checked at construction."""
    splitting = truncation_splitting(three_term(), 0)
    assert splitting._replace() == splitting
    u, v = splitting.u, splitting.v
    forgeries = [
        {"u": u + u},
        {"v": v + v},
        {"u": ChainMap.zero(u.source, u.target)},
        # maps that do not run back along the sequence
        {"u": ChainMap.identity(u.source)},
        {"triple": truncation_triple(three_term(), 1)},
    ]
    for changes in forgeries:
        with pytest.raises(WitnessError):
            splitting._replace(**changes)


def test_a_splitting_whose_u_and_v_compose_to_nonzero_is_refused():
    """u + t.proj still retracts the inclusion and v still sections the
    projection, so the triple built on them is exact, but u.v == t != 0."""
    splitting = truncation_splitting(three_term(), 0)
    triple, v = splitting.triple, splitting.v
    # lower is [Z -2-> Z] in degrees (1, 0), upper [Z -3-> Z] in (2, 1)
    t = ChainMap(triple.right, triple.left, {1: Matrix(ZZ, [[1]])})
    u = splitting.u + t.compose(triple.epi)
    forged = ComplexSes(triple.mono, triple.epi, u.components, v.components)
    assert u.compose(triple.mono) == ChainMap.identity(triple.left)
    assert not u.compose(v).is_zero_map()
    with pytest.raises(WitnessError, match="do not split"):
        type(splitting)(forged, u, v)
    with pytest.raises(WitnessError, match="do not split"):
        splitting._replace(triple=forged, u=u)


def test_truncation_splitting_refuses_free_homology():
    # kernel in the top degree is free homology: outside the torsion class
    x = ChainComplex(ZZ, {2: 1, 1: 1, 0: 1},
                     {2: Matrix.zeros(ZZ, 1, 1), 1: Matrix(ZZ, [[2]])})
    with pytest.raises(InvalidInputError):
        truncation_splitting(x, 0)


def test_truncation_splitting_random():
    """Each splitting is built, so its sequence is exact and u.v == 0;
    then f.u + v.g is the identity, as for every split exact sequence."""
    for trial in range(25):
        sample = gen_a_object(PARAMS, trial).complex
        degrees = sample.degree_range()
        for n in range(degrees.start - 1, degrees.stop + 1):
            splitting = truncation_splitting(sample, n)
            f, g = splitting.triple.mono, splitting.triple.epi
            assert f.compose(splitting.u) + splitting.v.compose(g) == ChainMap.identity(sample)


def test_nullhomotopy_examples():
    unit = two_term(Matrix(ZZ, [[1]]))
    found = nullhomotopy(ChainMap.identity(unit))
    assert found is not None
    assert found.at(0) == Matrix(ZZ, [[1]])
    assert nullhomotopy(ChainMap.identity(Z2)) is None
    zero_h = nullhomotopy(ChainMap.zero(Z2, Z2))
    assert zero_h is not None and not zero_h.components


def test_nullhomotopy_of_identity_iff_acyclic():
    for trial in range(12):
        rng = trial_rng(PARAMS, trial)
        sample = gen_a_object(PARAMS, trial, rng=rng, acyclic=bool(trial % 2)).complex
        witness = nullhomotopy(ChainMap.identity(sample))
        assert (witness is not None) == is_acyclic(sample)


def test_nullhomotopy_of_identity_iff_acyclic_over_f3x():
    params = GenParams(ring=F3, seed=99)
    for trial in range(12):
        rng = trial_rng(params, trial)
        sample = gen_a_object(params, trial, rng=rng, acyclic=bool(trial % 2)).complex
        witness = nullhomotopy(ChainMap.identity(sample))
        assert (witness is not None) == is_acyclic(sample)


def test_nullhomotopy_components_are_pinned():
    # An acyclic Z^2 -> Z^4 -> Z^2 whose contracting homotopies are not
    # unique.  The solver reads the homotopy off the Smith bases of the
    # complex, which depend on its values only, so it returns the same
    # one whatever order the ranks were given in.
    diffs = {
        2: Matrix(ZZ, [[1, 0], [3, 0], [4, 1], [1, 3]]),
        1: Matrix(ZZ, [[-10, 7, -3, 1], [-7, 6, -3, 1]]),
    }
    pinned = {
        1: Matrix(ZZ, [[0, 15, -12, 4], [0, -5, 4, -1]]),
        0: Matrix(ZZ, [[9, -13], [28, -40], [35, -50], [0, 0]]),
    }
    for ranks in ({2: 2, 1: 4, 0: 2}, {0: 2, 1: 4, 2: 2}):
        sample = ChainComplex(ZZ, ranks, diffs)
        assert nullhomotopy(ChainMap.identity(sample)).components == pinned
    # The homotopy law, dH + Hd == id, degree by degree.
    d = sample.d
    assert d(1) * pinned[0] == Matrix.identity(ZZ, 2)
    assert d(2) * pinned[1] + pinned[0] * d(1) == Matrix.identity(ZZ, 4)
    assert pinned[1] * d(2) == Matrix.identity(ZZ, 2)


def test_homotopy_between_refuses_non_parallel_maps():
    with pytest.raises(DimensionError):
        homotopy_between(ChainMap.identity(Z2), ChainMap.identity(Z6))


def test_homotopy_validation():
    with pytest.raises(InvalidInputError):
        Homotopy(ChainMap.identity(Z2), ChainMap.zero(Z2, Z2), {0: Matrix(ZZ, [[1]])})


def test_quasi_iso_degree():
    assert quasi_iso_degree(ChainMap.identity(Z2)) == math.inf
    assert quasi_iso_degree(ChainMap.zero(zero_complex(ZZ), Z2)) == -1
    spherical2 = ChainComplex(ZZ, {3: 1, 2: 1}, {3: Matrix(ZZ, [[5]])})
    assert quasi_iso_degree(ChainMap.zero(zero_complex(ZZ), spherical2)) == 1


def test_lemma_3_6_split_sequence():
    total = direct_sum(Z2, Z6)
    ses = ComplexSes(total.inclusions[0], total.projections[1])
    for n in (0, 1):
        kernels, images = kernel_image_sequences(ses, n)
        assert kernels and images


def test_lemma_3_6_hypothesis_signal():
    left = Z2                                  # H0 = Z/2 nonzero
    right = shift(two_term(Matrix(ZZ, [[3]])), -1)  # degrees (2,1), H1 = Z/3 nonzero
    total = direct_sum(left, right)
    ses = ComplexSes(total.inclusions[0], total.projections[1])
    with pytest.raises(HypothesisNotMetError):
        kernel_image_sequences(ses, 1)


def test_complex_ses_validation():
    bad_mono = ChainMap(Z2, Z2, {1: Matrix(ZZ, [[2]]), 0: Matrix(ZZ, [[2]])})
    with pytest.raises(InvalidInputError):
        ComplexSes(bad_mono, ChainMap.zero(Z2, zero_complex(ZZ)))


def test_quotient_by_split_mono():
    total = direct_sum(Z2, Z6)
    quotient, projection = quotient_by_split_mono(total.inclusions[0])
    for n in quotient.degree_range():
        assert module_iso(homology(quotient, n), homology(Z6, n))
    assert projection.source == total.complex


def test_chain_retraction():
    times5 = ChainMap(Z2, Z2, {1: Matrix(ZZ, [[5]]), 0: Matrix(ZZ, [[5]])})
    maps = structure_maps(times5)
    retraction = chain_retraction(maps.j2)
    assert retraction is not None
    assert retraction.compose(maps.j2) == ChainMap.identity(Z2)
    # multiplication by 2 is a mono with no retraction at all
    doubling = ChainMap(Z2, Z2, {1: Matrix(ZZ, [[2]]), 0: Matrix(ZZ, [[2]])})
    assert chain_retraction(doubling) is None


def test_chain_retraction_over_f3x():
    x = F3.poly([0, 1])
    cyclic = two_term(Matrix(F3, [[F3.poly([1, 1])]]))
    times_x = ChainMap(cyclic, cyclic, {1: Matrix(F3, [[x]]), 0: Matrix(F3, [[x]])})
    maps = structure_maps(times_x)
    for end in (maps.j1, maps.j2):
        retraction = chain_retraction(end)
        assert retraction is not None
        assert retraction.compose(end) == ChainMap.identity(end.source)
    # multiplication by x is a mono but x is not a unit
    assert chain_retraction(times_x) is None


def test_direct_sum_rejects_no_parts():
    with pytest.raises(InvalidInputError):
        direct_sum()


def test_direct_sum_rejects_mixed_rings():
    over_f2 = two_term(Matrix(fpx(2), [[(0, 1)]]))
    with pytest.raises(InvalidInputError):
        direct_sum(Z2, over_f2)


# The law checks multiply only blocks that exist; a side of the law with
# no blocks is zero, so the other side must be zero.  Each case below has
# a failing degree where only one side, or both, has blocks.


def lifted(ring, rows):
    """Small integers as constants of ``ring``."""
    return Matrix(ring, [[x if ring is ZZ else ring.poly([x]) for x in row] for row in rows])


def small_complex(ring, ranks, diffs):
    return ChainComplex(ring, ranks, {n: lifted(ring, m) for n, m in diffs.items()})


def small_map(source, target, comps):
    return ChainMap(source, target, {n: lifted(source.ring, m) for n, m in comps.items()})


def small_homotopy(lhs, rhs, comps):
    return Homotopy(lhs, rhs, {n: lifted(lhs.source.ring, m) for n, m in comps.items()})


@pytest.mark.parametrize("ring", [ZZ, F3], ids=["Z", "F3x"])
def test_chain_map_law_where_only_the_target_side_has_blocks(ring):
    # At degree 1, d_Y(1) . f_1 exists; f_0 . d_X(1) does not (X_0 = 0).
    X = small_complex(ring, {1: 1}, {})
    Y = small_complex(ring, {1: 1, 0: 1}, {1: [[1]]})
    with pytest.raises(InvalidInputError, match="degree 1"):
        small_map(X, Y, {1: [[1]]})
    # A lone side that multiplies out to zero passes.
    Y = small_complex(ring, {1: 2, 0: 1}, {1: [[1, 1]]})
    assert small_map(X, Y, {1: [[1], [-1]]}).components


@pytest.mark.parametrize("ring", [ZZ, F3], ids=["Z", "F3x"])
def test_chain_map_law_where_only_the_source_side_has_blocks(ring):
    # At degree 1, f_0 . d_X(1) exists; d_Y(1) . f_1 does not (Y_1 = 0).
    X = small_complex(ring, {1: 1, 0: 1}, {1: [[1]]})
    Y = small_complex(ring, {0: 1}, {})
    with pytest.raises(InvalidInputError, match="degree 1"):
        small_map(X, Y, {0: [[1]]})
    X = small_complex(ring, {1: 1, 0: 2}, {1: [[1], [-1]]})
    assert small_map(X, Y, {0: [[1, 1]]}).components


@pytest.mark.parametrize("ring", [ZZ, F3], ids=["Z", "F3x"])
def test_chain_map_law_where_both_sides_have_blocks(ring):
    X = small_complex(ring, {1: 1, 0: 1}, {1: [[2]]})
    with pytest.raises(InvalidInputError, match="degree 1"):
        small_map(X, X, {1: [[1]], 0: [[2]]})  # 2 . 1 against 2 . 2
    assert small_map(X, X, {1: [[2]], 0: [[2]]}).components


@pytest.mark.parametrize("ring", [ZZ, F3], ids=["Z", "F3x"])
def test_homotopy_law_where_only_dh_has_blocks(ring):
    # At degree 0, d_Y(1) . H_0 exists; H_{-1} does not, nor do the maps.
    X = small_complex(ring, {0: 1}, {})
    Y = small_complex(ring, {1: 1, 0: 1}, {1: [[1]]})
    zero = ChainMap.zero(X, Y)
    with pytest.raises(InvalidInputError, match="degree 0"):
        small_homotopy(zero, zero, {0: [[1]]})
    assert small_homotopy(small_map(X, Y, {0: [[1]]}), zero, {0: [[1]]}).components


@pytest.mark.parametrize("ring", [ZZ, F3], ids=["Z", "F3x"])
def test_homotopy_law_where_only_hd_has_blocks(ring):
    # At degree 1, H_0 . d_X(1) exists; H_1 does not (Y_2 = 0), nor do the maps.
    X = small_complex(ring, {1: 1, 0: 1}, {1: [[1]]})
    Y = small_complex(ring, {1: 1}, {})
    zero = ChainMap.zero(X, Y)
    with pytest.raises(InvalidInputError, match="degree 1"):
        small_homotopy(zero, zero, {0: [[1]]})
    assert small_homotopy(small_map(X, Y, {1: [[1]]}), zero, {0: [[1]]}).components


@pytest.mark.parametrize("ring", [ZZ, F3], ids=["Z", "F3x"])
def test_homotopy_law_where_dh_and_hd_both_have_blocks(ring):
    # The acyclic Z -> Z^2 -> Z; at degree 1, d(2) . H_1 and H_0 . d(1) both exist.
    C = small_complex(ring, {2: 1, 1: 2, 0: 1}, {2: [[1], [0]], 1: [[0, 1]]})
    ident, zero = ChainMap.identity(C), ChainMap.zero(C, C)
    with pytest.raises(InvalidInputError, match="degree 1"):
        small_homotopy(ident, zero, {0: [[0], [1]], 1: [[1, 1]]})
    assert small_homotopy(ident, zero, {0: [[0], [1]], 1: [[1, 0]]}).components


@pytest.mark.parametrize("ring", [ZZ, F3], ids=["Z", "F3x"])
def test_homotopy_law_where_only_the_maps_have_blocks(ring):
    C = small_complex(ring, {1: 1, 0: 1}, {1: [[2]]})
    ident, zero = ChainMap.identity(C), ChainMap.zero(C, C)
    with pytest.raises(InvalidInputError, match="homotopy identity fails"):
        Homotopy(ident, zero, {})  # lhs - rhs != 0, and no H terms anywhere
    with pytest.raises(InvalidInputError, match="homotopy identity fails"):
        Homotopy(ident, ident + ident, {})  # lhs and rhs both present, unequal
    assert Homotopy(ident, ident, {}).components == {}
