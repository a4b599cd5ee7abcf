"""Seeded random generators for every object class the harness exercises.

Generation is deterministic given (params, seed): each trial derives its
own ``random.Random`` from the pair, so reports are reproducible byte
for byte.  Generators only produce valid instances -- complexes are
built from blocks whose validity is structural (direct sums conjugated
by unimodular changes of basis, extension twists whose square vanishes
identically, shear automorphisms assembled from genuine module
homomorphisms) -- so invalid-input error paths are exercised by curated
fixtures instead.

Changes of basis are applied, not multiplied.  A random unimodular
matrix is drawn as a list of elementary moves (add a multiple of one
coordinate to another, swap two, scale one by a unit), with scalars in
the work form of the ring.  The generators apply the moves to the
matrices they conjugate, as row operations for E . M and as inverse
column operations for M . E^-1, so a Koszul boundary, a scrambled
differential or a presentation changes basis without building E or its
inverse and without a matrix product.  A conjugation E . M . F^-1
(``_conjugate``) applies the column moves of F, then the row moves of E,
to one copy of M's rows and builds one matrix, and a scaling by the
unit one is skipped.  The shear automorphisms that
twist the module-level diagrams are moves too (``_shear_auto``): a unit
scaling of every atom, then at most one shear.  ``rand_unimodular`` and
``scramble_complex`` return E, E^-1 and the chain isomorphisms for the
callers that keep them; the generators build a checked chain map only
where it is part of the instance they return.  The draws and their
order are the same as when E and E^-1 were multiplied out, so the
instances are too.

Draws.  Every bounded integer is drawn by ``_below(rng, n)``, which
makes exactly the ``getrandbits`` calls of ``rng.randrange(n)``: CPython
draws k = n.bit_length() bits until the value is below n, and
``randrange``, ``randint`` and ``choice`` are that loop behind their
argument handling (Mersenne Twister: Matsumoto and Nishimura, ACM TOMACS
8(1), 1998, whose ``getrandbits(k)`` for k <= 32 is the top k bits of
one 32-bit output).  So the same generator state gives the same values
as those three calls, and the instances are the ones they drew.
``_draw_unimodular`` makes the same calls inline, and keeps
``rng.sample`` for an index pair of more than 21 coordinates (see
``_index_pair``); ``rng.random()`` is called as it is.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .complexes import (
    ChainComplex,
    ChainMap,
    ComplexSes,
    _Layout,
    _negated,
    _sum_layout,
    _table,
    direct_sum,
    two_term,
)
from .errors import InvalidInputError
from .koszul import PresentedKoszul
from .matrices import Matrix, _Checked, _product_sum, _selection, block, block_diag, hstack, inverse, vstack
from .presented import PresentedMap, PresentedModule, SesMorphism, ThreeByThree, direct_sum_modules
from .rings import Ring, ZZ


class GenParams(_Checked):
    """Bounds for instance generation; all generation is pure in (params, seed).

    ``max_entry`` bounds magnitudes over Z and degrees over F_p[x].
    """

    __slots__ = ("ring", "seed", "max_rank", "max_entry", "support_width", "trials")

    def __init__(self, ring: Ring = ZZ, seed: int = 0, max_rank: int = 3, max_entry: int = 9,
                 support_width: int = 3, trials: int = 100):
        self._store(ring, seed, max_rank, max_entry, support_width, trials)
        if max_entry < 1 or max_rank < 1 or trials < 0:
            raise InvalidInputError("generator bounds need max_entry >= 1, max_rank >= 1 and trials >= 0")


def trial_rng(params: GenParams, trial: int) -> random.Random:
    return random.Random(f"{params.ring.token}/{params.seed}/{trial}")


# ---------------------------------------------------------------------------
# Elements and matrices.


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for n >= 1, by the same ``getrandbits`` calls:
    draws of n.bit_length() bits until one is below n."""
    if n < 1:
        raise ValueError(f"empty range below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def rand_element(rng: random.Random, ring: Ring, bound: int, nonzero: bool = False):
    if ring.token == "Z":
        while True:
            value = _below(rng, 2 * bound + 1) - bound
            if value or not nonzero:
                return value
    degree_bound = max(1, min(bound, 3))
    p = ring.p
    while True:
        degree = _below(rng, degree_bound + 1)
        value = ring.poly([_below(rng, p) for _ in range(degree + 1)])
        if value or not nonzero:
            return value


def rand_unit(rng: random.Random, ring: Ring):
    if ring.token == "Z":
        return (1, -1)[_below(rng, 2)]
    return (1 + _below(rng, ring.p - 1),)


def rand_nonunit(rng: random.Random, ring: Ring):
    """Nonzero non-unit, for torsion block divisors."""
    if ring.token == "Z":
        sign = (1, -1)[_below(rng, 2)]
        return sign * (2 + _below(rng, 8))
    p = ring.p
    coeffs = [_below(rng, p) for _ in range(1 + _below(rng, 2))]
    return ring.poly(coeffs + [1 + _below(rng, p - 1)])


def rand_matrix(rng: random.Random, ring: Ring, rows: int, cols: int, bound: int) -> Matrix:
    return Matrix._raw(ring, rows, cols,
                       [[rand_element(rng, ring, bound) for _ in range(cols)] for _ in range(rows)])


def _index_pair(rng: random.Random, n: int):
    """``rng.sample(range(n), 2)``, with the same draws from ``rng``.

    For n <= 21 ``sample`` keeps a pool of the n indices: it draws
    i = randbelow(n), moves n - 1 into slot i and draws j = randbelow(n - 1)
    from the pool.  ``randrange`` makes the same ``randbelow`` calls
    without the pool; above 21 ``sample`` keeps a set instead.
    """
    if n > 21:
        return rng.sample(range(n), 2)
    i = _below(rng, n)
    j = _below(rng, n - 1)
    return i, n - 1 if j == i else j


# The kinds of elementary move in ``_draw_unimodular``.
_ADD, _SWAP, _SCALE = range(3)


def _draw_unimodular(rng: random.Random, ring: Ring, n: int) -> list:
    """The 2n + 2 elementary matrices E_1, ..., E_k of ``rand_unimodular``
    (none when n < 2, then at most one unit scaling), in the order they
    are drawn; their product is E = E_k ... E_1.

    A move is (_ADD, i, j, c) for I + c e_ij, (_SWAP, i, j, None) for the
    transposition of i and j, or (_SCALE, i, i, (u, u^-1)) for scaling
    coordinate i by the unit u.  Scalars are in the work form of ``ring``.

    The draws are those of ``rng.randrange(3)`` and ``_index_pair(rng, n)``
    per move, made inline as in ``_below``.
    """
    pack = ring.pack or (lambda a: a)
    bits = rng.getrandbits
    k, k1 = n.bit_length(), (n - 1).bit_length()
    moves = []
    for _ in range(2 * n + 2 if n > 1 else 0):
        op = bits(2)
        while op == 3:
            op = bits(2)
        if n > 21:
            i, j = rng.sample(range(n), 2)
        else:
            i = bits(k)
            while i >= n:
                i = bits(k)
            j = bits(k1)
            while j >= n - 1:
                j = bits(k1)
            if j == i:
                j = n - 1
        if op == _ADD:
            moves.append((_ADD, i, j, pack(rand_element(rng, ring, 2, nonzero=True))))
        elif op == _SWAP:
            moves.append((_SWAP, i, j, None))
        else:
            moves.append(_rand_scale(rng, ring, i))
    if n == 1 and _below(rng, 2):
        moves.append(_rand_scale(rng, ring, 0))
    return moves


def _rand_scale(rng: random.Random, ring: Ring, i: int) -> tuple:
    """The move scaling coordinate i by a random unit."""
    u = rand_unit(rng, ring)
    u = ring.pack(u) if ring.pack else u
    return (_SCALE, i, i, (u, ring.work.unit_inverse(u)))


def _conjugate(left: list, mat: Matrix, right: list) -> Matrix:
    """E . mat . F^-1 for the products E of the moves ``left`` and F of
    ``right``: the inverse column operations of ``right``, then the row
    operations of ``left``, each in order, on one copy of mat's rows.  A
    scaling by the unit one changes nothing and is skipped."""
    work = mat.ring.work
    one = work.one
    rows = [list(row) for row in mat._work]
    for op, i, j, c in right:
        if op == _ADD:
            for row in rows:
                if row[i]:
                    row[j] = work.sub(row[j], work.mul(c, row[i]))
        elif op == _SWAP:
            for row in rows:
                row[i], row[j] = row[j], row[i]
        elif c[1] != one:
            uinv = c[1]
            for row in rows:
                row[i] = work.mul(uinv, row[i])
    for op, i, j, c in left:
        if op == _ADD:
            work.submul(rows[i], work.neg(c), rows[j])
        elif op == _SWAP:
            rows[i], rows[j] = rows[j], rows[i]
        elif c[0] != one:
            u = c[0]
            rows[i] = [work.mul(u, x) for x in rows[i]]
    return Matrix._from_work(mat.ring, mat.rows, mat.cols, rows)


def _conjugated(rng: random.Random, mat: Matrix) -> Matrix:
    """E . mat . F^-1 for random unimodular E and F, drawn in that order."""
    left = _draw_unimodular(rng, mat.ring, mat.rows)
    return _conjugate(left, mat, _draw_unimodular(rng, mat.ring, mat.cols))


def rand_unimodular(rng: random.Random, ring: Ring, n: int):
    """Random product of elementary matrices, returned with its inverse."""
    moves = _draw_unimodular(rng, ring, n)
    eye = Matrix.identity(ring, n)
    return _conjugate(moves, eye, ()), _conjugate((), eye, moves)


# ---------------------------------------------------------------------------
# Complex scrambling.


def _scramble(rng: random.Random, complex_: ChainComplex, order):
    """The complex conjugated by degreewise unimodular changes of basis,
    with the moves drawn for each degree; ``order`` lists every degree of
    the complex, in the order its moves are drawn.

    With E_n the product of the moves at degree n, the new differential
    is E_{n-1} . d_n . E_n^-1, applied as row and column operations.
    """
    ring = complex_.ring
    moves = {n: _draw_unimodular(rng, ring, complex_.rank(n)) for n in order}
    diffs = {n: _conjugate(moves[n - 1], mat, moves[n]) for n, mat in complex_.diffs.items()}
    return ChainComplex(ring, complex_.ranks, diffs), moves


def scramble_complex(rng: random.Random, complex_: ChainComplex):
    """Conjugate by degreewise unimodular changes of basis.

    Returns the twisted complex with the forward and backward chain
    isomorphisms; both degrees move compatibly, so the result is a
    chain-isomorphic presentation with scrambled coordinates.
    """
    ring = complex_.ring
    twisted, moves = _scramble(rng, complex_, complex_.ranks)
    eye = {n: Matrix.identity(ring, r) for n, r in complex_.ranks.items()}
    fwd = ChainMap(complex_, twisted, {n: _conjugate(m, eye[n], ()) for n, m in moves.items()})
    bwd = ChainMap(twisted, complex_, {n: _conjugate((), eye[n], m) for n, m in moves.items()})
    return twisted, fwd, bwd


# ---------------------------------------------------------------------------
# Koszul complexes and torsion-homology complexes.


# The samples keep the divisors they were built from; only the tests
# build the expected modules from them (tests/constructions.py).


class KoszulSample(NamedTuple):
    complex: ChainComplex
    block_divisors: tuple


def gen_koszul(params: GenParams, trial: int, acyclic: bool = False,
               rng: Optional[random.Random] = None) -> KoszulSample:
    """Direct sum of [R -> R] blocks conjugated by unimodular changes of basis."""
    if rng is None:
        rng = trial_rng(params, trial)
    ring = params.ring
    r = 1 + _below(rng, params.max_rank)
    divisors = []
    for _ in range(r):
        if acyclic or rng.random() < 0.35:
            divisors.append(rand_unit(rng, ring))
        else:
            divisors.append(rand_nonunit(rng, ring))
    return KoszulSample(two_term(_conjugated(rng, Matrix.diagonal(ring, divisors))), tuple(divisors))


class AObjectSample(NamedTuple):
    complex: ChainComplex
    # degree -> the nonunit divisors of the blocks whose homology sits
    # there, a read-only table in increasing degree
    homology_divisors: dict


def gen_a_object(params: GenParams, trial: int, spherical: Optional[int] = None,
                 window_bottom: int = 0, rng: Optional[random.Random] = None,
                 acyclic: bool = False) -> AObjectSample:
    """Shifted Koszul blocks over a support window, then scrambled.

    Every block is a two-term [R -> aR] with a nonzero divisor, so the
    homology is torsion everywhere; a ``spherical`` degree restricts the
    non-unit blocks to sit there.
    """
    if rng is None:
        rng = trial_rng(params, trial)
    ring = params.ring
    width = max(2, 2 + _below(rng, max(1, params.support_width - 1)))
    top_base = window_bottom + width - 2
    count = 1 + _below(rng, params.max_rank + 1)
    blocks = []
    for _ in range(count):
        base = window_bottom + _below(rng, width - 1)
        if acyclic or (spherical is not None and base != spherical) or rng.random() < 0.3:
            div = rand_unit(rng, ring)
        else:
            div = rand_nonunit(rng, ring)
        blocks.append((base, div))
    if spherical is not None and not acyclic and not any(
            base == spherical and not ring.is_unit(div) for base, div in blocks):
        if window_bottom <= spherical <= top_base:
            blocks.append((spherical, rand_nonunit(rng, ring)))
    parts = [
        ChainComplex(ring, {base + 1: 1, base: 1}, {base + 1: Matrix(ring, [[div]])})
        for base, div in blocks
    ]
    total = _sum_layout(parts).complex
    # The draw order fixes the instances: increasing degree, negative degrees last.
    twisted, _ = _scramble(rng, total, sorted(total.ranks, key=lambda n: (n < 0, n)))
    expected = {}
    for base, div in blocks:
        if not ring.is_unit(div):
            expected.setdefault(base, []).append(div)
    return AObjectSample(twisted, _table((base, tuple(divs)) for base, divs in sorted(expected.items())))


def gen_chain_map(rng: random.Random, source: ChainComplex, target: ChainComplex,
                  bound: int = 2, terms: int = 2) -> ChainMap:
    """Sum of homotopy-shaped maps dH + Hd, plus a scalar multiple of the
    identity when source and target coincide."""
    ring = source.ring
    dX, dY = source.diffs.get, target.diffs.get
    out = None
    for _ in range(terms):
        h = {n: rand_matrix(rng, ring, target.rank(n + 1), source.rank(n), bound)
             for n in source.ranks if target.rank(n + 1)}
        comps = {}
        for n in set(source.ranks) | set(target.ranks):
            piece = _product_sum([(dY(n + 1), h.get(n)), (h.get(n - 1), dX(n))])
            if piece is not None:
                comps[n] = piece
        term = ChainMap(source, target, comps)
        out = term if out is None else out + term
    if source == target and rng.random() < 0.5:
        scalar = rand_element(rng, ring, bound, nonzero=True)
        ident = ChainMap.identity(source)
        scaled = ChainMap(source, target, {n: ident.at(n).scale(scalar) for n in source.ranks})
        out = scaled if out is None else out + scaled
    return ChainMap.zero(source, target) if out is None else out


# ---------------------------------------------------------------------------
# Admissible sequences of Koszul complexes.


def _extension(left: ChainComplex, right: ChainComplex, twist: dict) -> _Layout:
    """The direct-sum layout of ``left`` and ``right`` with differential
    d_n = [[dL_n, twist[n]], [0, dR_n]]; an absent or None twist block is
    zero.  The caller's twist makes the square vanish."""
    return _Layout([(left, 0), (right, 0)], lambda n: [[left.diffs.get(n), twist.get(n)],
                                                      [None, right.diffs.get(n)]])


class SesSample(NamedTuple):
    sequence: ComplexSes
    left: ChainComplex
    right: ChainComplex


def gen_admissible_ses(params: GenParams, trial: int,
                       left_acyclic: Optional[bool] = None,
                       rng: Optional[random.Random] = None) -> SesSample:
    """Extension-twisted direct sum of two Koszul complexes, scrambled.

    The middle complex carries the block boundary [[dX, e], [0, dW]]; an
    upper shear by a chain map W -> X varies the recorded splitting
    before the coordinate scramble.
    """
    if rng is None:
        rng = trial_rng(params, trial)
    ring = params.ring
    if left_acyclic is None:
        left_acyclic = rng.random() < 0.5
    right_acyclic = rng.random() < 0.5
    left = gen_koszul(params, trial, acyclic=left_acyclic, rng=rng).complex
    right = gen_koszul(params, trial, acyclic=right_acyclic, rng=rng).complex
    layout = _extension(left, right, {1: rand_matrix(rng, ring, left.rank(0), right.rank(1), 2)})
    # shear by a chain map right -> left to vary the stored witnesses
    shear = gen_chain_map(rng, right, left, bound=1, terms=1)
    twisted, moves = _scramble(rng, layout.complex, (1, 0))
    mono, epi, retractions, sections = {}, {}, {}, {}
    for n in (1, 0):
        s = shear.at(n)
        mono[n] = _conjugate(moves[n], layout.inclusion(0, n), ())
        epi[n] = _conjugate((), layout.inclusion(1, n).transpose(), moves[n])
        # Only a stored component is negated; an absent one is zero.
        retractions[n] = _conjugate(
            (), hstack([Matrix.identity(ring, left.rank(n)), -s if n in shear.components else s]), moves[n])
        sections[n] = _conjugate(moves[n], vstack([s, Matrix.identity(ring, right.rank(n))]), ())
    seq = ComplexSes(ChainMap(left, twisted, mono), ChainMap(twisted, right, epi), retractions, sections)
    return SesSample(seq, left, right)


def gen_admissible_mono(params: GenParams, trial: int,
                        rng: Optional[random.Random] = None) -> SesSample:
    """Split mono from an acyclic Koszul complex, with recorded splitting."""
    return gen_admissible_ses(params, trial, left_acyclic=True, rng=rng)


def gen_ses_of_complexes(params: GenParams, trial: int, acyclic_side: str = "left",
                         spherical: Optional[int] = None,
                         rng: Optional[random.Random] = None) -> SesSample:
    """Extension-twisted SES of bounded torsion-homology complexes.

    The twist block is a commutator dX.M - M.dZ, so the square of the
    middle boundary vanishes identically; one side can be forced acyclic
    (for the kernel/image sequence hypotheses) or both ends spherical.
    """
    if rng is None:
        rng = trial_rng(params, trial)
    ring = params.ring
    left = gen_a_object(params, trial, spherical=spherical, rng=rng,
                        acyclic=(acyclic_side == "left")).complex
    right = gen_a_object(params, trial, spherical=spherical, rng=rng,
                         acyclic=(acyclic_side == "right")).complex
    mixer = {n: rand_matrix(rng, ring, left.rank(n), right.rank(n), 1) for n in right.ranks if left.rank(n)}
    layout = _extension(left, right, {
        n: _product_sum([(left.diffs.get(n), mixer.get(n)), (_negated(mixer.get(n - 1)), right.diffs.get(n))])
        for n in right.ranks})
    twisted, moves = _scramble(rng, layout.complex, layout.complex.ranks)
    mono = ChainMap(left, twisted, {n: _conjugate(moves[n], layout.inclusion(0, n), ()) for n in left.ranks})
    epi = ChainMap(twisted, right, {
        n: _conjugate((), layout.inclusion(1, n).transpose(), moves[n]) for n in right.ranks})
    return SesSample(ComplexSes(mono, epi), left, right)


class QuasiIsoPair(NamedTuple):
    map: ChainMap


def gen_quasi_iso_pair(params: GenParams, trial: int,
                       rng: Optional[random.Random] = None) -> QuasiIsoPair:
    """Quasi-isomorphism of Koszul complexes: pad with a twisted acyclic
    summand, then scramble both sides."""
    if rng is None:
        rng = trial_rng(params, trial)
    ring = params.ring
    base = gen_koszul(params, trial, rng=rng).complex
    pad = gen_koszul(params, trial, acyclic=True, rng=rng).complex
    padded = _extension(base, pad, {1: rand_matrix(rng, ring, base.rank(0), pad.rank(1), 2)})
    source_twist, source_moves = _scramble(rng, base, (1, 0))
    target_twist, target_moves = _scramble(rng, padded.complex, (1, 0))
    # The inclusion base -> padded, conjugated by both changes of basis.
    return QuasiIsoPair(ChainMap(source_twist, target_twist, {
        n: _conjugate(target_moves[n], padded.inclusion(0, n), source_moves[n]) for n in source_moves}))


# ---------------------------------------------------------------------------
# Presented two-term complexes (entries in arbitrary f.g. modules).


class CObjectSample(NamedTuple):
    object: PresentedKoszul
    h0_divisors: tuple


def _change_basis(module: PresentedModule, moves: list) -> PresentedModule:
    return PresentedModule(module.ring, module.gens, _conjugate(moves, module.relations, ()))


def _inflate(rng: random.Random, module: PresentedModule, maps_in: list, maps_out: list):
    """Add a redundant generator equal to a random combination of the others.

    ``maps_in`` are matrices INTO the module (gain a row), ``maps_out``
    matrices OUT of it (gain a column: the image of the new generator).
    """
    ring = module.ring
    combo = rand_matrix(rng, ring, module.gens, 1, 1)
    rels = module.relations
    new_rels = hstack([
        vstack([rels, Matrix.zeros(ring, 1, rels.cols)]),
        vstack([combo, Matrix(ring, [[ring.neg(ring.one)]])]),
    ])
    grown = PresentedModule(ring, module.gens + 1, new_rels)
    maps_in = [vstack([m, Matrix.zeros(ring, 1, m.cols)]) for m in maps_in]
    maps_out = [hstack([m, m * combo]) for m in maps_out]
    return grown, maps_in, maps_out


def gen_c_object(params: GenParams, trial: int,
                 rng: Optional[random.Random] = None) -> CObjectSample:
    """Two-term complex of presented modules with injective boundary.

    Free blocks carry a nonsingular square boundary; torsion blocks are
    R/(m) -> R/(mk) acting by k (injective, cokernel R/(k)).  The
    presentation is then inflated with redundant generators and both
    degrees change basis, so nothing stays in block form.
    """
    if rng is None:
        rng = trial_rng(params, trial)
    ring = params.ring
    free_rank = _below(rng, max(1, params.max_rank - 1) + 1)
    torsion_count = _below(rng, 3) if free_rank else 1 + _below(rng, 2)
    expected = []
    if free_rank:
        divisors = [rand_element(rng, ring, params.max_entry, nonzero=True) for _ in range(free_rank)]
        free_boundary = _conjugated(rng, Matrix.diagonal(ring, divisors))
        expected.extend(divisors)
    else:
        free_boundary = Matrix.zeros(ring, 0, 0)
    top_parts = [PresentedModule.free(ring, free_rank)]
    bottom_parts = [PresentedModule.free(ring, free_rank)]
    torsion_maps = []
    for _ in range(torsion_count):
        m = rand_nonunit(rng, ring)
        k = rand_element(rng, ring, 3, nonzero=True)
        top_parts.append(PresentedModule.cyclic(ring, m))
        bottom_parts.append(PresentedModule.cyclic(ring, ring.mul(m, k)))
        torsion_maps.append(k)
        expected.append(k)
    top = direct_sum_modules(top_parts)
    bottom = direct_sum_modules(bottom_parts)
    boundary = block_diag(ring, [free_boundary, Matrix.diagonal(ring, torsion_maps)])
    for _ in range(_below(rng, 3)):
        top, maps_in, maps_out = _inflate(rng, top, [], [boundary])
        boundary = maps_out[0]
    for _ in range(_below(rng, 3)):
        bottom, maps_in, _ = _inflate(rng, bottom, [boundary], [])
        boundary = maps_in[0]
    top_moves = _draw_unimodular(rng, ring, top.gens)
    bottom_moves = _draw_unimodular(rng, ring, bottom.gens)
    top = _change_basis(top, top_moves)
    bottom = _change_basis(bottom, bottom_moves)
    boundary = _conjugate(bottom_moves, boundary, top_moves)
    obj = PresentedKoszul(PresentedMap(top, bottom, boundary))
    return CObjectSample(obj, tuple(expected))


# ---------------------------------------------------------------------------
# Idempotents on acyclic Koszul complexes.


def gen_idempotent(params: GenParams, trial: int,
                   rng: Optional[random.Random] = None):
    """Conjugated coordinate projection on a sum of two acyclic complexes."""
    if rng is None:
        rng = trial_rng(params, trial)
    ring = params.ring
    first = gen_koszul(params, trial, acyclic=True, rng=rng).complex
    second = gen_koszul(params, trial, acyclic=True, rng=rng).complex
    total = direct_sum(first, second)
    complex_, boundary = total.complex, total.complex.d(1)
    projector = total.inclusions[0].compose(total.projections[0])
    # Conjugate by the chain automorphism (E, d E d^-1) of the acyclic
    # sum: degree 1 gets E p_1 E^-1, and degree 0 gets d E p_1 E^-1 d^-1,
    # since p_0 = d p_1 d^-1.
    moves = _draw_unimodular(rng, ring, complex_.rank(1))
    top = _conjugate(moves, projector.at(1), moves)
    comps = {1: top, 0: boundary * top * inverse(boundary)}
    return complex_, ChainMap(complex_, complex_, comps)


# ---------------------------------------------------------------------------
# Module-level diagrams from cyclic atoms.


def _atom_hom_scalar(ring: Ring, target_modulus, source_modulus):
    """Generator of Hom(R/(source), R/(target)) as a multiplier, or None."""
    if ring.is_zero(target_modulus):
        if ring.is_zero(source_modulus):
            return ring.one
        return None
    if ring.is_zero(source_modulus):
        return ring.one
    g = ring.gcd(target_modulus, source_modulus)
    return ring.div_exact(target_modulus, g)


def _atoms_module(ring: Ring, moduli) -> PresentedModule:
    return direct_sum_modules([PresentedModule.cyclic(ring, m) for m in moduli]) \
        if moduli else PresentedModule.free(ring, 0)


def _rand_atom_hom(rng: random.Random, ring: Ring, targets, sources) -> Matrix:
    rows = []
    for mt in targets:
        row = []
        for ms in sources:
            gen_scalar = _atom_hom_scalar(ring, mt, ms)
            if gen_scalar is None or rng.random() < 0.4:
                row.append(ring.zero)
            else:
                row.append(ring.mul(gen_scalar, rand_element(rng, ring, 2)))
        rows.append(row)
    return Matrix._raw(ring, len(targets), len(sources), rows)


def _shear_auto(rng: random.Random, ring: Ring, moduli) -> list:
    """Automorphism of a sum of cyclic atoms, as moves: a unit scaling of
    every atom, then at most one shear by a module homomorphism."""
    moves = [_rand_scale(rng, ring, k) for k in range(len(moduli))]
    if len(moduli) > 1:
        i, j = _index_pair(rng, len(moduli))
        scalar = _atom_hom_scalar(ring, moduli[i], moduli[j])
        if scalar is not None:
            c = ring.mul(scalar, rand_element(rng, ring, 2))
            moves.append((_ADD, i, j, ring.pack(c) if ring.pack else c))
    return moves


def _atom_map(ring: Ring, target: list, source: list) -> Matrix:
    """The inclusion of the labelled atoms ``source`` into ``target``, or
    the projection of ``source`` onto ``target``, whichever is a sub-list."""
    if set(source) <= set(target):
        return _selection(ring, len(target), [target.index(atom) for atom in source])
    return _selection(ring, len(source), [source.index(atom) for atom in target]).transpose()


def _rand_moduli(rng: random.Random, ring: Ring, count: int, torsion_only: bool = False):
    out = []
    for _ in range(count):
        if not torsion_only and rng.random() < 0.3:
            out.append(ring.zero)
        else:
            out.append(rand_nonunit(rng, ring))
    return out


def _module_row(rng: random.Random, ring: Ring, first, second):
    """The split sequence of the atom sums ``first`` -> ``first + second``
    -> ``second``, twisted by the moves of a shear automorphism of the
    middle: returns (mono, epi, moves)."""
    total = list(first) + list(second)
    middle = _atoms_module(ring, total)
    incl = _selection(ring, len(total), range(len(first)))
    proj = _selection(ring, len(total), range(len(first), len(total))).transpose()
    moves = _shear_auto(rng, ring, total)
    mono = PresentedMap(_atoms_module(ring, first), middle, _conjugate(moves, incl, ()))
    epi = PresentedMap(middle, _atoms_module(ring, second), _conjugate((), proj, moves))
    return mono, epi, moves


def gen_module_ses(params: GenParams, trial: int, torsion_only: bool = False,
                   rng: Optional[random.Random] = None):
    """Short exact sequence of presented modules, shear-twisted.

    Returns (mono, epi) with middle a twisted sum of the two ends.
    """
    if rng is None:
        rng = trial_rng(params, trial)
    ring = params.ring
    left_moduli = _rand_moduli(rng, ring, 1 + _below(rng, 2), torsion_only)
    right_moduli = _rand_moduli(rng, ring, 1 + _below(rng, 2), torsion_only)
    return _module_row(rng, ring, left_moduli, right_moduli)[:2]


def gen_ses_morphism(params: GenParams, trial: int,
                     rng: Optional[random.Random] = None) -> SesMorphism:
    """Morphism of short exact sequences with controlled right vertical.

    Half the time the right vertical is a unit automorphism (so both
    criterion sides should come out True); otherwise it is a random,
    typically non-invertible, homomorphism.
    """
    if rng is None:
        rng = trial_rng(params, trial)
    ring = params.ring
    a_moduli = _rand_moduli(rng, ring, 1 + _below(rng, 2))
    c_moduli = _rand_moduli(rng, ring, 1 + _below(rng, 2))
    a2_moduli = _rand_moduli(rng, ring, 1 + _below(rng, 2))
    iso_case = rng.random() < 0.5
    c2_moduli = list(c_moduli) if iso_case else _rand_moduli(rng, ring, 1 + _below(rng, 2))
    top_mono, top_epi, top_moves = _module_row(rng, ring, a_moduli, c_moduli)
    bot_mono, bot_epi, bot_moves = _module_row(rng, ring, a2_moduli, c2_moduli)

    alpha = _rand_atom_hom(rng, ring, a2_moduli, a_moduli)
    if iso_case:
        gamma = Matrix.diagonal(ring, [rand_unit(rng, ring) for _ in c_moduli])
    else:
        gamma = _rand_atom_hom(rng, ring, c2_moduli, c_moduli)
    delta = _rand_atom_hom(rng, ring, a2_moduli, c_moduli)
    mixed = block(ring, [[alpha, delta], [None, gamma]],
                  [len(a2_moduli), len(c2_moduli)], [len(a_moduli), len(c_moduli)])
    middle_matrix = _conjugate(bot_moves, mixed, top_moves)
    left = PresentedMap(_atoms_module(ring, a_moduli), _atoms_module(ring, a2_moduli), alpha)
    middle = PresentedMap(top_mono.target, bot_mono.target, middle_matrix)
    right = PresentedMap(_atoms_module(ring, c_moduli), _atoms_module(ring, c2_moduli), gamma)
    return SesMorphism(top_mono, top_epi, bot_mono, bot_epi, left, middle, right)


def gen_three_by_three(params: GenParams, trial: int,
                       rng: Optional[random.Random] = None) -> ThreeByThree:
    """Nine-term diagram built from four corner atom groups, then twisted."""
    if rng is None:
        rng = trial_rng(params, trial)
    ring = params.ring
    atoms = {}
    for group in "abcd":
        for k, modulus in enumerate(_rand_moduli(rng, ring, 1 + _below(rng, 2))):
            atoms[group, k] = modulus
    objects = {key: [atom for atom in atoms if atom[0] in groups] for key, groups in (
        ("X", "a"), ("Xp", "ab"), ("Xpp", "b"), ("Y", "ac"), ("Yp", "abcd"), ("Ypp", "bd"),
        ("Z", "c"), ("Zp", "cd"), ("Zpp", "d"))}
    moduli = {key: [atoms[atom] for atom in labels] for key, labels in objects.items()}
    modules = {key: _atoms_module(ring, v) for key, v in moduli.items()}
    twists = {key: _shear_auto(rng, ring, moduli[key]) for key in ("Xp", "Y", "Yp", "Ypp", "Zp")}

    def pm(source, target):
        """The atom map ``source`` -> ``target``, twisted at both ends."""
        matrix = _atom_map(ring, objects[target], objects[source])
        matrix = _conjugate(twists.get(target, []), matrix, twists.get(source, []))
        return PresentedMap(modules[source], modules[target], matrix)

    rows = ((pm("X", "Xp"), pm("Xp", "Xpp")), (pm("Y", "Yp"), pm("Yp", "Ypp")),
            (pm("Z", "Zp"), pm("Zp", "Zpp")))
    cols = ((pm("X", "Y"), pm("Y", "Z")), (pm("Xp", "Yp"), pm("Yp", "Zp")),
            (pm("Xpp", "Ypp"), pm("Ypp", "Zpp")))
    return ThreeByThree(rows, cols)
