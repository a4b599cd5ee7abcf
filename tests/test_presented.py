import pytest

from koszulkit.errors import DimensionError, InvalidInputError
from koszulkit.fgmodules import FgModule
from koszulkit.generators import GenParams, gen_ses_morphism
from koszulkit.matrices import Matrix
from koszulkit.presented import (
    PresentedMap,
    PresentedModule,
    SesMorphism,
    ThreeByThree,
    cobase_change_check,
    direct_sum_modules,
    is_short_exact,
    nine_term_sequences,
    pullback,
    pushout,
)
from koszulkit.rings import ZZ, fpx


def free(n):
    return PresentedModule.free(ZZ, n)


def cyclic(m):
    return PresentedModule.cyclic(ZZ, m)


def pmap(source, target, rows):
    return PresentedMap(source, target, Matrix(ZZ, rows))


def test_canonical_forms():
    assert cyclic(6).canonical_form() == FgModule(ZZ, 0, (6,))
    assert free(2).canonical_form() == FgModule(ZZ, 2, ())
    assert cyclic(1).is_zero_module()


def test_map_validity():
    doubling = pmap(cyclic(2), cyclic(4), [[2]])
    assert doubling.is_injective()
    assert not doubling.is_surjective()
    with pytest.raises(InvalidInputError):
        pmap(cyclic(2), cyclic(4), [[1]])  # 1*2 = 2 is not a relation in Z/4



def test_maps_are_immutable():
    """Assignment after the check would leave an unchecked map: on the
    identity of Z, a source of Z/2 makes it ill-defined."""
    checked = pmap(cyclic(2), cyclic(4), [[2]])
    identity = PresentedMap.identity(free(1))
    for m, name, value in ((checked, "matrix", Matrix(ZZ, [[5]])), (identity, "source", cyclic(2))):
        before = getattr(m, name)
        with pytest.raises(AttributeError):
            setattr(m, name, value)
        assert getattr(m, name) is before


def test_nine_term_diagram_stores_tuples_of_pairs():
    """Built from lists, a diagram stores tuples of pairs: no row can be
    swapped after the check, and it equals and hashes as the diagram
    built from tuples."""
    grid = _square_grid(1)
    listed = ThreeByThree(list(map(list, grid.rows)), list(map(list, grid.cols)))
    assert all(type(side) is tuple for side in (listed.rows, listed.cols))
    assert all(type(pair) is tuple for pair in listed.rows + listed.cols)
    with pytest.raises(TypeError):
        listed.rows[0] = grid.rows[2]
    assert listed == grid and hash(listed) == hash(grid)


def test_kernel_image_cokernel():
    two = pmap(free(1), free(1), [[2]])
    ker, incl = two.kernel()
    assert ker.is_zero_module()
    image, into, onto = two.image()
    assert image.canonical_form() == FgModule(ZZ, 1, ())
    assert into.compose(onto).matrix == two.matrix
    assert two.cokernel_module().canonical_form() == FgModule(ZZ, 0, (2,))

    # projection Z -> Z/3 has kernel 3Z
    proj = pmap(free(1), cyclic(3), [[1]])
    ker, incl = proj.kernel()
    assert ker.canonical_form() == FgModule(ZZ, 1, ())
    assert incl.matrix == Matrix(ZZ, [[3]])


def test_map_equality_mod_relations():
    a = pmap(cyclic(4), cyclic(2), [[1]])
    b = pmap(cyclic(4), cyclic(2), [[3]])
    assert a.equals(b)
    assert not a.is_zero_map()


def test_pushout_identity_leg():
    f = pmap(free(1), free(1), [[2]])
    ident = PresentedMap.identity(free(1))
    obj, leg_f, leg_id = pushout(ident, f)
    # pushout along an identity is the target of the other leg
    assert obj.canonical_form() == FgModule(ZZ, 1, ())
    assert leg_id.compose(f).equals(leg_f.compose(ident))


def test_pushout_of_span_example():
    f = pmap(free(1), free(1), [[2]])
    a = pmap(free(1), free(1), [[3]])
    obj, leg_a, leg_b = pushout(f, a)
    assert obj.gens == 2
    assert obj.relations == Matrix(ZZ, [[2], [-3]])
    assert obj.canonical_form() == FgModule(ZZ, 1, ())
    assert leg_a.compose(f).equals(leg_b.compose(a))


def test_pullback():
    # pullback of Z -2-> Z <-3- Z is {(x, y) : 2x = 3y} = Z(3, 2)
    u = pmap(free(1), free(1), [[2]])
    v = pmap(free(1), free(1), [[3]])
    module, incl, leg_a, leg_b = pullback(u, v)
    assert module.canonical_form() == FgModule(ZZ, 1, ())
    assert u.compose(leg_a).equals(v.compose(leg_b))
    column = incl.matrix
    assert abs(column.entries[0][0]) == 3 and abs(column.entries[1][0]) == 2


def test_is_short_exact():
    mono = pmap(free(1), free(1), [[2]])
    epi = pmap(free(1), cyclic(2), [[1]])
    assert is_short_exact(mono, epi)
    not_epi = pmap(free(1), cyclic(4), [[2]])
    assert not is_short_exact(mono, not_epi)


def _split_row(left, right):
    total = direct_sum_modules([left, right])
    ring = ZZ
    mono = PresentedMap(left, total, Matrix(ring, [[1 if i == j else 0 for j in range(left.gens)]
                                                   for i in range(total.gens)]))
    epi = PresentedMap(total, right, Matrix(ring, [[1 if j == left.gens + i else 0 for j in range(total.gens)]
                                                   for i in range(right.gens)]))
    return total, mono, epi


def test_cobase_change_identity_verticals():
    left, right = cyclic(4), cyclic(3)
    total, mono, epi = _split_row(left, right)
    diagram = SesMorphism(mono, epi, mono, epi,
                          PresentedMap.identity(left), PresentedMap.identity(total),
                          PresentedMap.identity(right))
    assert cobase_change_check(diagram) is True


def test_cobase_change_doubling_right_vertical():
    # rows 0 -> Z = Z -> 0 with c = x2: both criterion sides are false, so they agree
    zero = free(0)
    z = free(1)
    mono = PresentedMap.zero(zero, z)
    epi = PresentedMap.identity(z)
    doubling = pmap(z, z, [[2]])
    diagram = SesMorphism(mono, epi, mono, epi,
                          PresentedMap.identity(zero), doubling, doubling)
    assert cobase_change_check(diagram) is True
    assert not doubling.is_iso()


def test_cobase_change_left_vertical_not_iso():
    # top row Z = Z -> 0, bottom row 0 = 0 -> 0: a kills Z but c is an iso
    z = free(1)
    zero = free(0)
    top_mono = PresentedMap.identity(z)
    top_epi = PresentedMap.zero(z, zero)
    bot_mono = PresentedMap.identity(zero)
    bot_epi = PresentedMap.identity(zero)
    a = PresentedMap.zero(z, zero)
    diagram = SesMorphism(top_mono, top_epi, bot_mono, bot_epi,
                          a, a, PresentedMap.identity(zero))
    assert cobase_change_check(diagram) is True
    assert not a.is_injective() or z.is_zero_module()


def test_ses_morphism_validation():
    z = free(1)
    mono = pmap(z, z, [[2]])
    not_epi = pmap(z, cyclic(4), [[2]])
    with pytest.raises(InvalidInputError):
        SesMorphism(mono, not_epi, mono, not_epi,
                    PresentedMap.identity(z), PresentedMap.identity(z),
                    PresentedMap.identity(cyclic(4)))


def test_nine_term_split_grid():
    a, b, c, d = cyclic(2), free(1), cyclic(9), cyclic(4)
    _, ix, px = _split_row(a, b)
    yp, iy_raw, py_raw = _split_row(direct_sum_modules([a, c]), direct_sum_modules([b, d]))
    _, iz, pz = _split_row(c, d)
    # columns are the complementary split inclusions/projections
    y, f_raw, g_raw = _split_row(a, c)
    ypp, fpp, gpp = _split_row(b, d)
    # assemble Yp with layout a, c, b, d from the row construction above:
    # rows use (a+c) then (b+d), columns need a+b and c+d picked out
    na, nb, nc, nd = a.gens, b.gens, c.gens, d.gens
    total = na + nc + nb + nd

    def pick(positions, height):
        return Matrix(ZZ, [[1 if (j < len(positions) and positions[j] == i) else 0
                            for j in range(len(positions))] for i in range(height)])

    def drop(positions, height):
        return Matrix(ZZ, [[1 if i == j else 0 for i in range(height)] for j in positions])

    xp = direct_sum_modules([a, b])
    zp = direct_sum_modules([c, d])
    fp = PresentedMap(xp, yp, pick(list(range(na)) + list(range(na + nc, na + nc + nb)), total))
    gp = PresentedMap(yp, zp, drop(list(range(na, na + nc)) + list(range(na + nc + nb, total)), total))
    grid = ThreeByThree(
        rows=((ix, px), (iy_raw, py_raw), (iz, pz)),
        cols=((f_raw, g_raw), (fp, gp), (fpp, gpp)),
    )
    first, second = nine_term_sequences(grid)
    assert first and second


def _square_grid(sign):
    """Rows and columns Z = Z -> 0 around a corner of zeros; the middle
    column's mono is ``sign`` times the identity."""
    z, o = free(1), free(0)
    ident, onto_zero, zero_id = pmap(z, z, [[1]]), PresentedMap.zero(z, o), PresentedMap.identity(o)
    rows = ((ident, onto_zero), (ident, onto_zero), (zero_id, zero_id))
    cols = ((ident, onto_zero), (pmap(z, z, [[sign]]), onto_zero), (zero_id, zero_id))
    return ThreeByThree(rows=rows, cols=cols)


def _left_vertical_on_a_free_source():
    """A generated diagram whose left vertical is rebuilt on a free module
    with as many generators as its source, which has relations."""
    diagram = gen_ses_morphism(GenParams(ring=ZZ, seed=1), 1)
    left = diagram.left
    return diagram._replace(left=PresentedMap(free(left.source.gens), left.target, left.matrix))


Z2_ROW = (pmap(free(1), free(1), [[2]]), pmap(free(1), cyclic(2), [[1]]))  # Z -2-> Z -> Z/2
NOT_ONTO = pmap(free(1), cyclic(4), [[2]])
ID1 = PresentedMap.identity(free(1))

# Arguments of the wrong ring or shape, and diagrams whose rows or squares
# fail, each with the error it raises.
REFUSALS = {
    "map-of-unfit-shape": (lambda: pmap(free(1), free(2), [[1]]), DimensionError),
    "map-across-rings": (lambda: PresentedMap(free(1), PresentedModule.free(fpx(2), 1), Matrix(ZZ, [[1]])),
                         InvalidInputError),
    "maps-that-do-not-compose": (lambda: ID1.compose(PresentedMap.identity(free(2))), DimensionError),
    "pushout-of-unshared-source": (lambda: pushout(ID1, PresentedMap.identity(cyclic(2))), InvalidInputError),
    "pullback-of-unshared-target": (lambda: pullback(ID1, PresentedMap.identity(cyclic(2))), InvalidInputError),
    "sequence-not-consecutive": (lambda: is_short_exact(ID1, PresentedMap.identity(free(2))), InvalidInputError),
    "bottom-row-not-exact": (lambda: SesMorphism(*Z2_ROW, Z2_ROW[0], NOT_ONTO, ID1, ID1,
                                                 PresentedMap.identity(cyclic(4))), InvalidInputError),
    "first-square": (lambda: SesMorphism(*Z2_ROW, *Z2_ROW, ID1, pmap(free(1), free(1), [[-1]]),
                                         PresentedMap.identity(cyclic(2))), InvalidInputError),
    "second-square": (lambda: SesMorphism(*Z2_ROW, *Z2_ROW, ID1, ID1, PresentedMap.zero(cyclic(2), cyclic(2))),
                      InvalidInputError),
    "vertical-from-another-module": (_left_vertical_on_a_free_source, InvalidInputError),
    "grid-row-not-exact": (lambda: ThreeByThree(rows=((Z2_ROW[0], NOT_ONTO),) * 3, cols=()), InvalidInputError),
    "grid-square": (lambda: _square_grid(-1), InvalidInputError),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS)
def test_refusals(call, error):
    with pytest.raises(error):
        call()


def test_maps_and_sequences_that_fail_their_predicates():
    _square_grid(1)  # valid with +1, so the "grid-square" refusal is the square's
    assert not ID1.equals(PresentedMap.identity(free(2)))
    assert not is_short_exact(ID1, ID1)  # the composite is not zero
    assert not is_short_exact(PresentedMap.zero(free(1), free(1)), ID1)  # not injective


def test_direct_sum_modules_rejects_no_parts():
    with pytest.raises(InvalidInputError, match="no modules"):
        direct_sum_modules([])


def test_direct_sum_modules_rejects_mixed_rings():
    with pytest.raises(InvalidInputError, match="different rings"):
        direct_sum_modules([cyclic(2), PresentedModule.cyclic(fpx(2), (0, 1))])


def test_presented_module_rejects_relations_over_another_ring():
    with pytest.raises(InvalidInputError, match="fpx:2.*Z"):
        PresentedModule(ZZ, 1, Matrix(fpx(2), [[(1,)]]))
    with pytest.raises(DimensionError):
        PresentedModule(ZZ, 2, Matrix(ZZ, [[1]]))
