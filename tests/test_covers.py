import dataclasses
import json
import operator
import random

import numpy as np
import pytest

from coverhom import (
    AlgElement,
    Alphabet,
    FiniteQuotient,
    GroupWord,
    InvalidConfig,
    IsotypicProjector,
    PermImage,
    PropertyViolation,
    ResidueImage,
    TooLarge,
    UnitImage,
    assemble_witness_free,
    build_cover,
    central_slice,
    crt_lift,
    d_primitive_predicate,
    elevation_class,
    free_spec,
    gaschutz_check,
    in_central_subgroup,
    isotypic_projection_check,
    nonkernel_predicate,
    one,
    orbit_span_rank,
    quotient_from_bundle,
    quotient_from_json,
    rank_over_rationals,
    reduced_words,
    symbol,
)
from coverhom import cli, covers
from coverhom.algebra import AlgebraSpec, m_spec, quat_spec, sorted_spec
from coverhom.covers import (
    _RANK_PRIMES,
    _central_orbits,
    _rank_exact,
    _rank_mod_p,
    count_d_primitive_words,
    cyclotomic_polynomial,
    omega_powers,
    orbit_rows,
)
from coverhom.witness import _quaternion_images

from random_quotients import random_quotient

FREE2 = Alphabet("free", 2)
SURF2 = Alphabet("surface", 2)


def _tables(cover, bundle):
    """The (central, psi, d) tables of a witness cover, read off its units."""
    return (*central_slice(cover, bundle), bundle.modulus)


def _projector(cover, bundle):
    """The projector of a witness cover, on the tables read off its units."""
    return IsotypicProjector(cover, *_tables(cover, bundle))


def _deck_translate(cover, perm, vec):
    """The edge vector vec moved by the vertex permutation perm."""
    g = cover.ngens
    return {int(perm[eid // g]) * g + eid % g: c for eid, c in vec.items()}


def _residue_cover(d):
    """The cover of (Z/d)^2, which is abelian: C = <x1> is central and free."""
    return build_cover(FiniteQuotient(FREE2, (ResidueImage((1, 0), d), ResidueImage((0, 1), d))))


def _z3_free_cover():
    q = FiniteQuotient(FREE2, (ResidueImage((1,), 3), ResidueImage((0,), 3)))
    return build_cover(q)


def _s5_surface_cover():
    # genus 2 onto S_5: images (a, b, b, a), a a 5-cycle, b a transposition
    a, b = PermImage((1, 2, 3, 4, 0)), PermImage((1, 0, 2, 3, 4))
    return build_cover(FiniteQuotient(SURF2, (a, b, b, a)))


# ---------------------------------------------------------------------------
# construction


def test_free_cover_dims():
    c = _z3_free_cover()
    assert (c.n_vertices, c.n_edges) == (3, 6)
    assert c.dim_h1() == 4  # 6 - 3 + 1, and 1 + (n-1)|Q|
    gaschutz_check(c)


def test_surface_cover_dims():
    q = FiniteQuotient(SURF2, tuple(ResidueImage((v,), 3) for v in (1, 0, 0, 0)))
    c = build_cover(q)
    assert (c.n_vertices, c.n_edges, c.n_faces) == (3, 12, 3)
    assert c.dim_h1() == 8
    gaschutz_check(c)


def test_trivial_quotient_base_complex():
    q = FiniteQuotient(SURF2, tuple(ResidueImage((0,), 2) for _ in range(4)))
    c = build_cover(q)
    assert c.n_vertices == 1 and c.dim_h1() == 4
    qf = FiniteQuotient(FREE2, tuple(ResidueImage((0,), 2) for _ in range(2)))
    assert build_cover(qf).dim_h1() == 2


def test_surface_quotient_must_kill_relator():
    # x1 -> a, y1 -> b, x2 -> 1, y2 -> 1 with [a, b] != 1
    a = PermImage((1, 2, 0))
    b = PermImage((1, 0, 2))
    ident = _identity(a)
    q = FiniteQuotient(SURF2, (a, b, ident, ident))
    with pytest.raises(InvalidConfig, match="do not kill the surface relator"):
        build_cover(q)


def _x(spec):
    return one(spec) + symbol(spec, 0)


_X = _x(free_spec(3, 1, 2))


@pytest.mark.parametrize(
    "images",
    [
        # unchecked, the short vector's shift is broadcast: a 3-vertex cover
        (ResidueImage((1, 1), 3), ResidueImage((1,), 3)),
        # unchecked, the first image sets the layout: Z/15 taken mod 3
        (ResidueImage((1,), 3), ResidueImage((1,), 5)),
        # unchecked, factors of other algebras or a missing one: 9-vertex covers
        (UnitImage((_X,)), UnitImage((_x(free_spec(3, 1, 3)),))),
        (UnitImage((_X,)), UnitImage((_X, _X))),
        # unchecked, AttributeError and IndexError in the closure
        (PermImage((1, 0)), ResidueImage((1,), 3)),
        (PermImage((1, 0)), PermImage((1, 2, 0))),
    ],
)
def test_quotient_refuses_images_of_different_layouts(images):
    with pytest.raises(InvalidConfig, match="generator images of different layouts"):
        FiniteQuotient(FREE2, images)


def test_vertex_guard():
    q = FiniteQuotient(FREE2, (ResidueImage((1,), 7), ResidueImage((0,), 7)))
    with pytest.raises(TooLarge):
        build_cover(q, guard_vertices=5)


# The algebra of generator images, kept as test oracles: products,
# inverses and identities of images of one kind, and a canonical key per
# element.  The library holds group elements as rows on the Cayley graph.


def _mul(x, y):
    if isinstance(x, PermImage):
        return PermImage(tuple(x.map[j] for j in y.map))
    if isinstance(x, ResidueImage):
        return ResidueImage(tuple(a + b for a, b in zip(x.vec, y.vec)), x.mod)
    return UnitImage(map(operator.mul, x.units, y.units))


def _inverse(x):
    if isinstance(x, PermImage):
        inv = [0] * len(x.map)
        for i, j in enumerate(x.map):
            inv[j] = i
        return PermImage(tuple(inv))
    if isinstance(x, ResidueImage):
        return ResidueImage(tuple(-a for a in x.vec), x.mod)
    return UnitImage(map(AlgElement.inverse_unit, x.units))


def _identity(x):
    if isinstance(x, PermImage):
        return PermImage(tuple(range(len(x.map))))
    if isinstance(x, ResidueImage):
        return ResidueImage((0,) * len(x.vec), x.mod)
    return UnitImage(AlgElement.one(g.spec) for g in x.units)


def _key(x):
    if isinstance(x, PermImage):
        return x.map
    if isinstance(x, ResidueImage):
        return x.vec
    return x.units


def _evaluate(quotient, word):
    """theta(word), one product in the algebra per letter."""
    acc = _identity(quotient.images[0])
    for letter in word.letters:
        img = quotient.images[abs(letter) - 1]
        acc = _mul(acc, img if letter > 0 else _inverse(img))
    return acc


def _algebraic_order(x, guard=10 ** 6):
    """The order of the image x, by repeated products."""
    ident, acc, m = _key(_identity(x)), x, 1
    while _key(acc) != ident:
        acc = _mul(acc, x)
        m += 1
        assert m <= guard, "element order exceeds the guard"
    return m


def _reference_cover(quotient):
    """The per-element closure the row BFS replaced, kept as an oracle:
    one product in the group and one canonical key per edge.  Returns
    (elements, targets, tree_parent, nontree)."""
    ident = _identity(quotient.images[0])
    elements, index = [ident], {_key(ident): 0}
    tree_parent, targets = [None], []
    for v, elem in enumerate(elements):  # the list grows as vertices are found
        row = []
        for i, img in enumerate(quotient.images):
            nxt = _mul(elem, img)
            key = _key(nxt)
            if key not in index:
                index[key] = len(elements)
                elements.append(nxt)
                tree_parent.append((v, i))
            row.append(index[key])
        targets.append(row)
    tree = set(tree_parent[1:])
    nontree = [
        (v, i) for v in range(len(elements)) for i in range(len(quotient.images))
        if (v, i) not in tree
    ]
    return elements, targets, tree_parent, nontree


def _elements(cover):
    """The group element of each vertex, decoded from its row."""
    image = cover.quotient.images[0]
    if isinstance(image, PermImage):
        return [PermImage(row) for row in cover.rows.tolist()]
    if isinstance(image, ResidueImage):
        return [ResidueImage(row, image.mod) for row in cover.rows.tolist()]
    return [UnitImage(cover.code.units(row)) for row in cover.rows]


def _assert_matches_reference(quotient):
    cover = build_cover(quotient)
    elements, targets, tree_parent, nontree = _reference_cover(quotient)
    assert cover.targets.tolist() == targets
    assert [None] + list(map(tuple, cover.parents.tolist())) == tree_parent
    assert [divmod(e, cover.ngens) for e in cover.cotree.tolist()] == nontree
    assert list(map(_key, _elements(cover))) == list(map(_key, elements))
    return cover


def _unit_quotient(alphabet, *factor_images):
    """The quotient sending generator i to the tuple of the i-th image of
    every factor."""
    return FiniteQuotient(alphabet, [UnitImage(units) for units in zip(*factor_images)])


def _magnus_images(spec):
    return [one(spec) + symbol(spec, i) for i in range(spec.ngens)]


QUOTIENTS = {
    "perm-s5-surface": lambda: _s5_surface_cover().quotient,
    # rows of width 0: the trivial group, one vertex
    "perm-degree-0": lambda: FiniteQuotient(FREE2, (PermImage(()), PermImage(()))),
    "residue-z3": lambda: _z3_free_cover().quotient,
    "residue-z4xz6": lambda: FiniteQuotient(
        Alphabet("free", 3), tuple(ResidueImage(v, 12) for v in ((3, 2), (0, 2), (3, 0)))
    ),
    **{
        f"unit-{kind}-r{r}": (
            lambda kind=kind, r=r: _unit_quotient(FREE2, _magnus_images(AlgebraSpec(kind, r, 1, 2)))
        )
        for kind in ("free", "sorted") for r in (2, 3)
    },
    "unit-m-r3": lambda: _unit_quotient(FREE2, _magnus_images(m_spec(3, 1, 1))),
    # 1 + Ai + the Catalan tail in degree-0 unit k, and 1 + Bj
    "unit-quat-r3": lambda: _unit_quotient(FREE2, _quaternion_images(quat_spec(3, 1))[0][:2]),
    # factors over r = 3 and r = 2: the columns reduce by their own moduli
    "unit-two-factor": lambda: _unit_quotient(
        FREE2, _magnus_images(m_spec(3, 1, 1)), _magnus_images(sorted_spec(2, 1, 2))
    ),
    "unit-two-component-bundle": lambda: quotient_from_bundle(_two_component_bundle()),
}


@pytest.mark.parametrize("make", QUOTIENTS.values(), ids=QUOTIENTS.keys())
def test_build_cover_matches_the_per_element_closure(make):
    _assert_matches_reference(make())


def test_build_cover_matches_the_per_element_closure_on_random_quotients():
    rng = random.Random(2024)
    for alphabet in (FREE2, Alphabet("free", 3), SURF2, Alphabet("surface", 3)):
        for _ in range(4):
            _assert_matches_reference(random_quotient(alphabet, rng))


def test_rows_hold_residues_past_255():
    # (1 + X^200)^j = 1 + j X^200 over r = 257: a cyclic cover of order
    # 257, whose coefficient 256 a one-byte row would fold onto the identity
    spec = free_spec(257, 1, 1)
    image = one(spec) + AlgElement(spec, {bytes(200): 1})
    cover = _assert_matches_reference(_unit_quotient(Alphabet("free", 1), [image]))
    assert cover.n_vertices == 257 and cover.rows.dtype == np.uint16


def test_rows_of_a_large_modulus_are_exact():
    q = FiniteQuotient(FREE2, (ResidueImage((2 ** 61,), 2 ** 62), ResidueImage((0,), 2 ** 62)))
    cover = build_cover(q, guard_vertices=10)
    assert cover.rows.dtype == np.uint64 and cover.rows[1].tolist() == [2 ** 61]
    # entries and shifts below 2^63 add past int64
    q = FiniteQuotient(FREE2, (ResidueImage((2 ** 62,), 2 ** 63), ResidueImage((0,), 2 ** 63)))
    with pytest.raises(TooLarge, match="overflow int64"):
        build_cover(q)


def test_byte_guard_stops_the_build(monkeypatch):
    # 50 one-byte rows pass a 40-byte guard; the vertex guard is far off
    monkeypatch.setattr(covers, "ROW_BYTES_GUARD", 40)
    q = FiniteQuotient(FREE2, (ResidueImage((1,), 50), ResidueImage((0,), 50)))
    with pytest.raises(TooLarge, match="byte guard 40"):
        build_cover(q)
    # the right-multiplication tables count against it too
    with pytest.raises(TooLarge, match="right-multiplication tables"):
        build_cover(QUOTIENTS["unit-free-r3"]())


@pytest.mark.parametrize("make", [QUOTIENTS["perm-s5-surface"], QUOTIENTS["unit-two-factor"]],
                         ids=["perm-s5-surface", "unit-two-factor"])
@pytest.mark.parametrize("fold", [1, 5])
def test_a_digest_collision_restarts_the_closure(monkeypatch, make, fold):
    # the first closure folds the digests onto 1 or 5 values, so distinct
    # rows share one; the check against the stored rows sees it, and the
    # next salt builds the same cover
    digests, salts = covers._row_digests, []

    def folded(rows, salt):
        salts.append(salt)
        return [h % fold for h in digests(rows, salt)] if salt == 0 else digests(rows, salt)

    monkeypatch.setattr(covers, "_row_digests", folded)
    _assert_matches_reference(make())
    assert max(salts) == 1


def test_euler_characteristic_multiplicativity():
    rng = random.Random(77)
    for alphabet, chi_base in ((FREE2, -1), (Alphabet("surface", 2), -2), (Alphabet("surface", 3), -4)):
        for _ in range(3):
            q = random_quotient(alphabet, rng)
            c = build_cover(q)
            assert c.euler_characteristic() == c.n_vertices * chi_base


def test_gaschutz_random_quotients():
    rng = random.Random(123)
    for alphabet in (FREE2, Alphabet("free", 3), SURF2, Alphabet("surface", 3)):
        for _ in range(3):
            c = build_cover(random_quotient(alphabet, rng))
            gaschutz_check(c)


# ---------------------------------------------------------------------------
# elevations


def test_elevation_example():
    c = _z3_free_cover()
    m, vec = elevation_class(c, GroupWord(FREE2, (1,)), 0)
    assert m == 3
    assert vec  # nonzero cycle through all three vertices
    assert sorted(vec.items()) == [(0, 1), (2, 1), (4, 1)]


def test_elevation_kernel_word():
    c = _z3_free_cover()
    m, vec = elevation_class(c, GroupWord(FREE2, (2,)), 0)
    assert m == 1
    assert vec == {1: 1}


def test_elevation_trivial_word():
    c = _z3_free_cover()
    m, vec = elevation_class(c, GroupWord(FREE2, ()), 0)
    assert m == 1 and vec == {}


def test_elevation_deck_equivariance():
    rng = random.Random(9)
    for alphabet in (FREE2, SURF2):
        cover = build_cover(random_quotient(alphabet, rng))
        for _ in range(8):
            w = GroupWord(
                alphabet,
                tuple(
                    rng.choice((1, -1)) * rng.randrange(1, alphabet.ngens + 1)
                    for _ in range(rng.randrange(1, 5))
                ),
            )
            b = rng.randrange(cover.n_vertices)
            perm = cover.deck_perm(b)
            m0, v0 = elevation_class(cover, w, 0)
            mb, vb = elevation_class(cover, w, b)
            assert m0 == mb
            assert _deck_translate(cover, perm, v0) == vb


def test_word_orders_from_the_graph_match_the_algebra(sorted_witness_cover):
    # m is where the walk that builds the class first returns to its start
    for cover in (sorted_witness_cover, _s5_surface_cover()):
        quotient = cover.quotient
        for word in reduced_words(cover.alphabet, 4):
            m, _ = elevation_class(cover, word, 0)
            assert m == _algebraic_order(_evaluate(quotient, word)), word.render()


def test_fundamental_cycles_are_cycles():
    # boundary of each fundamental cycle vanishes: check via vertex degrees
    c = _z3_free_cover()
    for pos in range(c.cycle_rank):
        vec = c.fundamental_cycle(pos)
        boundary = {}
        for eid, coeff in vec.items():
            v, i = divmod(eid, c.ngens)
            w = int(c.targets[v, i])
            boundary[w] = boundary.get(w, 0) + coeff
            boundary[v] = boundary.get(v, 0) - coeff
        assert not any(boundary.values())


# ---------------------------------------------------------------------------
# spans and ranks


def test_rank_over_rationals_small():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 1}]
    assert rank_over_rationals(rows, 3) == 2
    assert rank_over_rationals([], 5) == 0
    assert _rank_exact(rows, 3) == 2


def test_rank_primes_are_the_16_largest_below_2_31():
    def is_prime(n):
        return n % 2 and all(n % f for f in range(3, int(n ** 0.5) + 1, 2))

    primes = [n for n in range(2 ** 31 - 1, min(_RANK_PRIMES) - 1, -1) if is_prime(n)]
    assert tuple(primes) == _RANK_PRIMES
    assert len(_RANK_PRIMES) == 16


def test_rank_modular_matches_exact_random():
    rng = random.Random(55)
    for _ in range(20):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = [
            {j: rng.randrange(-9, 10) for j in range(ncols) if rng.randrange(2)}
            for _ in range(nrows)
        ]
        assert rank_over_rationals(rows, ncols, seed=rng.randrange(99)) == _rank_exact(rows, ncols)


def test_rank_tall_deficient_matrix_matches_exact():
    # 300 rows of rank 12, eliminated transposed along the 40-column side
    rng = random.Random(61)
    left = [[rng.randrange(-3, 4) for _ in range(12)] for _ in range(300)]
    right = [[rng.randrange(-3, 4) for _ in range(40)] for _ in range(12)]
    rows = []
    for a in left:
        row = {j: sum(x * right[t][j] for t, x in enumerate(a)) for j in range(40)}
        rows.append({j: c for j, c in row.items() if c})
    assert rank_over_rationals(rows, 40, seed=3) == _rank_exact(rows, 40) == 12


def _rows_of_rank(rng, nrows, ncols, rank):
    """Sparse integer rows: a seeded nrows x rank times rank x ncols product."""
    left = [[rng.randrange(-3, 4) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randrange(-2, 3) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for a in left:
        row = {j: sum(x * right[t][j] for t, x in enumerate(a)) for j in range(ncols)}
        rows.append({j: c for j, c in row.items() if c})
    return rows


def _transpose(rows, ncols):
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, c in row.items():
            out[j][i] = c
    return out


def _planted_rows(rng, nrows, ncols):
    """(rows, ncols): random sparse integer rows, zero values included,
    with singletons planted: two row singletons on one column, a row that
    owns two singleton columns, and a row singleton on a column that other
    rows use.  Row order is shuffled."""
    rows = [
        {j: rng.randrange(-3, 4) for j in rng.sample(range(ncols), rng.randrange(1, min(ncols, 5)))}
        for _ in range(nrows)
    ]
    a, b = rng.sample(range(ncols), 2)
    rows += [{a: 2}, {a: -3}, {b: 7}, {b: 1, a: 4}]
    owner = {j: rng.randrange(1, 4) for j in rng.sample(range(ncols), 2)}
    rows.append({**owner, ncols: 1, ncols + 1: -5})
    rng.shuffle(rows)
    return rows, ncols + 2


def _rest_rows(entries, shape):
    """The entries left by _peel as sparse rows."""
    rows = [{} for _ in range(shape[0])]
    for i, j, c in zip(*(x.tolist() for x in entries)):
        rows[i][j] = c
    return rows


def test_peel_is_exact_on_planted_singletons():
    rng = random.Random(2024)
    for trial in range(40):
        rows, ncols = _planted_rows(rng, rng.randrange(3, 14), rng.randrange(3, 10))
        expect = _rank_exact(rows, ncols)
        k, entries, shape = covers._peel(covers._entries(rows), (len(rows), ncols))
        # the planted column a, owner row and column b peel at least
        assert k >= 3
        rest = _rest_rows(entries, shape)
        assert k + _rank_exact(rest, shape[1]) == expect
        # the peel ran to the end: no singleton row or column is left,
        # and the remainder is renumbered compactly
        assert all(len(row) >= 2 for row in rest)
        counts = np.bincount(entries[1], minlength=shape[1])
        assert (counts >= 2).all() and len(counts) == shape[1]
        assert rank_over_rationals(rows, ncols, seed=trial) == expect


def test_an_all_singleton_matrix_runs_no_prime(monkeypatch):
    # a chain peels one pivot a round, the last row singleton twice over
    rows = [{j: j + 2, j + 1: -1} for j in range(6)] + [{6: 3}, {6: -4}, {}, {2: 0}]
    monkeypatch.setattr(covers, "_rank_mod_p", lambda *args: pytest.fail("a prime ran"))
    assert rank_over_rationals(rows, 8) == _rank_exact(rows, 8) == 7


def test_disagreeing_primes_fall_back_to_the_exact_rank_of_the_remainder(monkeypatch):
    rows, ncols = _planted_rows(random.Random(7), 12, 6)
    # a dense 4 x 3 block on new columns, which no singleton step touches
    rows += [{ncols + j: x + j for j in range(3)} for x in (1, 4, 7, 9)]
    ncols += 3
    k, entries, shape = covers._peel(covers._entries(rows), (len(rows), ncols))
    assert k and shape[0]
    ranks = iter([0, 1])
    monkeypatch.setattr(covers, "_rank_mod_p", lambda *args: next(ranks))
    exact = []

    def recording(rows, ncols):
        exact.append((rows, ncols))
        return _rank_exact(rows, ncols)

    monkeypatch.setattr(covers, "_rank_exact", recording)
    rank = rank_over_rationals(rows, ncols)
    assert exact == [(_rest_rows(entries, shape), shape[1])]
    assert rank == k + _rank_exact(*exact[0]) == _rank_exact(rows, ncols)


def test_rank_of_huge_integers_is_exact():
    # values past int64 are reduced mod p as Python ints
    big = 2 ** 70
    rows = [{0: big, 1: 1, 2: 3}, {0: 1, 1: big, 2: 5}, {0: big + 1, 1: big + 1, 2: 8}, {0: 2 * big, 1: 2, 2: 6}]
    assert rank_over_rationals(rows, 3) == _rank_exact(rows, 3) == 2


def _rows_rank_mod_p(rows, ncols, p):
    """_rank_mod_p of sparse rows, through their entry arrays."""
    return _rank_mod_p(covers._entries(rows), (len(rows), ncols), p)


@pytest.mark.parametrize("budget", [None, 40])
def test_rank_mod_p_matches_exact_tall_wide_and_transposed(monkeypatch, budget):
    # a budget of 40 entries updates at most 2 hit rows per step, so the
    # first pivots of these matrices update their hit rows in many steps
    if budget is not None:
        monkeypatch.setattr(covers, "_BATCH_ENTRIES", budget)
    rng = random.Random(808)
    for nrows, ncols, rank in ((70, 18, 9), (18, 70, 9), (45, 30, 30), (30, 30, 17)):
        rows = _rows_of_rank(rng, nrows, ncols, rank)
        cols = _transpose(rows, ncols)
        expect = _rank_exact(rows, ncols)
        assert expect == _rank_exact(cols, nrows) == rank
        for p in _RANK_PRIMES[:2]:
            assert _rows_rank_mod_p(rows, ncols, p) == expect
            assert _rows_rank_mod_p(cols, nrows, p) == expect


def _reference_rank_mod_p(rows, ncols, p):
    """The column-by-column kernel _rank_mod_p replaced, kept as an
    oracle: every column is scanned below the current row, and each hit
    row is updated over its whole tail."""
    if not rows:
        return 0
    mat = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, c in row.items():
            mat[i, j] = c % p
    if len(rows) > ncols:
        mat = np.ascontiguousarray(mat.T)
    m, n = mat.shape
    r = 0
    for col in range(n):
        if r == m:
            break
        nz = np.flatnonzero(mat[r:, col])
        if nz.size == 0:
            continue
        if nz[0]:
            mat[[r, r + nz[0]]] = mat[[r + nz[0], r]]
        pivot = mat[r, col:]
        pivot *= pow(int(pivot[0]), -1, p)
        pivot %= p
        hit = r + nz[1:]
        step = max(1, covers._BATCH_ENTRIES // (n - col))
        for s in range(0, hit.size, step):
            idx = hit[s : s + step]
            block = mat[idx, col:]
            block -= block[:, :1] * pivot
            block %= p
            mat[idx, col:] = block
        r += 1
    return r


def _far_column_rows(rng, nrows, ncols, rank):
    """Sparse rows of rank <= ``rank`` on a few columns spread over more
    than 1,024: most columns of the sweep are zero, some rows are zero,
    and a cleared row's next nonzero is often far past the pivot."""
    spots = sorted(rng.sample(range(ncols), 12) + [0, 1])
    basis = [
        {j: rng.randrange(-2, 3) for j in rng.sample(spots, rng.randrange(1, 5))}
        for _ in range(rank)
    ]
    rows = []
    for _ in range(nrows):
        row = {}
        for vec in rng.sample(basis, rng.randrange(0, rank + 1)):
            c = rng.randrange(-3, 4)
            for j, x in vec.items():
                row[j] = row.get(j, 0) + c * x
        rows.append({j: c for j, c in row.items() if c})
    return rows


@pytest.mark.parametrize("budget", [None, 40])
def test_rank_mod_p_matches_the_column_kernel(monkeypatch, budget):
    # small primes can drop the rank below the rank over Q; the kernels
    # must still agree
    if budget is not None:
        monkeypatch.setattr(covers, "_BATCH_ENTRIES", budget)
    rng = random.Random(4127)
    primes = _RANK_PRIMES[:2] + (3, 5, 7)
    for trial in range(40):
        if trial % 4:
            nrows, ncols = rng.randrange(1, 25), rng.randrange(1, 25)
            rows = _rows_of_rank(rng, nrows, ncols, rng.randrange(0, min(nrows, ncols) + 1))
        else:
            nrows, ncols = rng.randrange(2, 30), rng.randrange(1300, 3000)
            rows = _far_column_rows(rng, nrows, ncols, rng.randrange(1, 8))
        cols = _transpose(rows, ncols)
        for p in primes:
            expect = _reference_rank_mod_p(rows, ncols, p)
            assert _rows_rank_mod_p(rows, ncols, p) == expect
            assert _rows_rank_mod_p(cols, nrows, p) == expect
    # zero rows and no columns at all: an empty matrix either way round
    assert _rows_rank_mod_p([{}, {}], 0, 3) == _reference_rank_mod_p([{}, {}], 0, 3) == 0


def test_rank_mod_p_rescans_past_the_last_column():
    # the last column holds the only pivot of rows 0 and 1
    rows = [{2: 1}, {2: 2}, {0: 1, 1: 1}]
    assert _rows_rank_mod_p(rows, 3, 7) == 2
    assert _rows_rank_mod_p(_transpose(rows, 3), 3, 7) == 2


@pytest.mark.parametrize(
    "rows, ncols, rank",
    [
        # the pivot row of column 0 is nonzero in column 1
        ([{0: 1, 1: 1}], 2, 1),
        ([{0: 1, 1: 1}, {0: 2, 1: 2}], 2, 1),
        ([{0: 3, 2: 5, 4: 1}, {0: 6, 2: 10, 4: 2}, {1: 1, 4: 1}], 5, 2),
        # row 0 clears row 1 to (0, -1, 0), which then clears row 2
        ([{0: 1, 1: 1, 2: 1}, {0: 1, 2: 1}, {1: 1}], 3, 2),
        ([{0: 1, 1: 2, 3: 1}, {0: 2, 1: 4, 2: 1, 3: 2}, {2: 1, 3: 1}, {3: 3}], 4, 3),
    ],
)
def test_rank_mod_p_drops_each_pivot_row(rows, ncols, rank):
    # a used pivot row that stays nonzero in later columns must not pivot
    # again, and the rows it clears are cleared on its whole support
    for p in (7, _RANK_PRIMES[0]):
        assert _rows_rank_mod_p(rows, ncols, p) == rank
        assert _rows_rank_mod_p(_transpose(rows, ncols), len(rows), p) == rank
        assert _reference_rank_mod_p(rows, ncols, p) == rank
    assert _rank_exact(rows, ncols) == rank


def _signed_key(row):
    """A row's sorted (position, coefficient) pairs, negated if needed so
    that the first coefficient is positive: one key per line of rows."""
    pairs = sorted(row.items())
    sign = 1 if pairs[0][1] > 0 else -1
    return tuple((j, sign * c) for j, c in pairs)


def _reference_orbit_rows(cover, predicate, max_len, basepoints):
    """The per-basepoint loop orbit_rows replaced, kept as an oracle: every
    word that passes is walked from every basepoint, and rows are compared
    up to sign."""
    rows = set()
    for word in reduced_words(cover.alphabet, max_len):
        if predicate(word):
            for b in basepoints:
                _, vec = elevation_class(cover, word, b)
                row = cover.restrict_to_cycles(vec)
                if row:
                    rows.add(_signed_key(row))
    return rows


def _row_set(rows):
    keys = {_signed_key(row) for row in rows}
    assert len(keys) == len(rows)  # no row twice, not even as its negative
    assert all(min(row.items())[1] > 0 for row in rows)
    return keys


def test_orbit_rows_match_per_basepoint_walks_surface():
    cover = _s5_surface_cover()
    primitive = d_primitive_predicate(3)
    rows = orbit_rows(cover, primitive, 3)
    assert _row_set(rows) == _reference_orbit_rows(cover, primitive, 3, range(120))
    assert [len(row) for row in rows] == sorted(len(row) for row in rows)


def test_orbit_rows_match_per_basepoint_walks_witness(sorted_witness_cover):
    cover = sorted_witness_cover
    rng = random.Random(5)
    basepoints = [0] + [rng.randrange(cover.n_vertices) for _ in range(2)]
    primitive = d_primitive_predicate(3)
    rows = orbit_rows(cover, primitive, 3, basepoints)
    assert _row_set(rows) == _reference_orbit_rows(cover, primitive, 3, basepoints)


def test_orbit_rows_translate_one_basepoint_per_coset():
    # theta(w) of order 3: the loop of w at 0 is the loop at theta(w) and
    # at theta(w)^2, the vertices where the rounds of its walk start
    cover = _s5_surface_cover()
    word = GroupWord(SURF2, (1, 2, -1, 2))
    starts = []
    m, loop = elevation_class(cover, word, 0, starts)
    assert starts[0] == 0 and len(starts) == m == 3
    for j in (1, 2):
        assert cover.walk_vec(word, starts[j - 1])[0] == starts[j]
        assert elevation_class(cover, word, starts[j]) == (3, loop)
    only_w = lambda w: w.letters == word.letters
    for basepoints in (
        [0, starts[1]],
        [starts[2], 0, starts[1], 7],
        [7, 7, 0, starts[1]],  # a basepoint listed twice
        range(120),
    ):
        for predicate, max_len in ((only_w, 4), (d_primitive_predicate(3), 2)):
            rows = orbit_rows(cover, predicate, max_len, basepoints)
            assert _row_set(rows) == _reference_orbit_rows(cover, predicate, max_len, basepoints)
    assert len(orbit_rows(cover, only_w, 4, [0, starts[1], starts[2]])) == 1


@pytest.mark.parametrize(
    "predicate",
    [lambda word: word.letters[0] > 0, lambda word: True],
    ids=["first-letter-positive", "all"],
)
def test_orbit_rows_walk_one_word_per_inverse_pair(monkeypatch, predicate):
    # "first letter positive" passes x1 but not x1^-1: a word is skipped
    # only when its inverse has passed and been walked, whatever the
    # predicate
    cover = _s5_surface_cover()
    walked = []

    def recording(cover, word, *args):
        walked.append(word.letters)
        return elevation_class(cover, word, *args)

    monkeypatch.setattr(covers, "elevation_class", recording)
    rows = orbit_rows(cover, predicate, 2)
    passed, expect = set(), []
    for word in reduced_words(cover.alphabet, 2):
        if predicate(word):
            if word.inverse().letters not in passed:
                expect.append(word.letters)
            passed.add(word.letters)
    assert walked == expect
    assert _row_set(rows) == _reference_orbit_rows(cover, predicate, 2, range(120))


def _break_deck_perm(monkeypatch, cover, fault):
    deck_perm = cover.deck_perm

    def wrong(v):
        if fault == "other_basepoint":  # a deck map, but taking 0 elsewhere
            return deck_perm((v + 1) % cover.n_vertices)
        if fault == "constant":  # every vertex to 0, which puts every
            # basepoint in the coset of vertex 0
            return np.zeros(cover.n_vertices, dtype=np.int64)
        perm = deck_perm(v).copy()
        perm[[1, 2]] = perm[[2, 1]]
        return perm

    monkeypatch.setattr(cover, "deck_perm", wrong)


@pytest.mark.parametrize("fault", ["swap", "other_basepoint", "constant"])
def test_orbit_span_refuses_a_translate_that_is_not_a_deck_map(monkeypatch, fault):
    cover = _s5_surface_cover()
    _break_deck_perm(monkeypatch, cover, fault)
    # without vertex 0, a constant map leaves no basepoint first in its
    # coset: the check must come before the cosets are read
    for basepoints in (None, range(1, 120)):
        with pytest.raises(PropertyViolation):
            orbit_span_rank(cover, lambda w: True, 1, basepoints)


@pytest.mark.parametrize("fault", ["swap", "other_basepoint"])
def test_projector_refuses_a_permutation_that_is_not_a_deck_map(
    monkeypatch, sorted_witness_bundle, sorted_witness_cover, fault
):
    cover = sorted_witness_cover
    central, _ = central_slice(cover, sorted_witness_bundle)
    _break_deck_perm(monkeypatch, cover, fault)
    with pytest.raises(PropertyViolation) as exc:
        _projector(cover, sorted_witness_bundle)
    # the identity is the first central vertex and takes no deck map: the
    # next one is the first generator of C
    first = central[1]
    assert central[0] == 0 and first
    assert exc.value.counterexample == first and f"deck_perm({first})" in str(exc.value)


def _reference_deck_perms(cover, vertices):
    """The algebraic deck maps deck_perm replaced, kept as an oracle: the
    left multiplications by each generator image, found by products in
    the group on the elements decoded from the rows, composed along each
    vertex's tree word."""
    elements = _elements(cover)
    index = {_key(elem): v for v, elem in enumerate(elements)}
    left = [
        np.array([index[_key(_mul(img, elem))] for elem in elements])
        for img in cover.quotient.images
    ]
    for v in vertices:
        perm = np.arange(cover.n_vertices)
        while v:  # the tree word read from v back to the root
            v, i = cover.parents[v - 1]
            perm = left[i][perm]
        yield perm


def test_deck_perm_matches_algebraic_left_multiplication(sorted_witness_cover):
    rng = random.Random(1723)
    for cover, vertices in (
        (_s5_surface_cover(), range(120)),
        (sorted_witness_cover, rng.sample(range(sorted_witness_cover.n_vertices), 20)),
    ):
        for v, ref in zip(vertices, _reference_deck_perms(cover, vertices)):
            assert np.array_equal(cover.deck_perm(v), ref)


def test_deck_perm_multiplies_nothing(monkeypatch, sorted_witness_bundle):
    cover = build_cover(quotient_from_bundle(sorted_witness_bundle))

    def refuse(self, other):
        raise AssertionError("deck_perm took a product in the algebra")

    monkeypatch.setattr(AlgElement, "__mul__", refuse)
    vertices = [0, 1, 5, cover.n_vertices - 1]
    perms = np.array([cover.deck_perm(v) for v in vertices])
    cover.check_deck_perms(vertices, perms)


def test_full_group_spans_everything():
    c = _z3_free_cover()
    rank, dim = orbit_span_rank(c, lambda w: True, 3)
    assert rank == dim == 4


def test_nonkernel_predicate_matches_the_algebra():
    rng = random.Random(1907)
    thetas = [random_quotient(alphabet, rng) for alphabet in (FREE2, SURF2) for _ in range(3)]
    thetas.append(QUOTIENTS["unit-m-r3"]())
    for theta in thetas:
        pred = nonkernel_predicate(theta)
        ident = _key(_identity(theta.images[0]))
        for word in reduced_words(theta.alphabet, 4):
            assert pred(word) == (_key(_evaluate(theta, word)) != ident), word.render()


def test_no_algebra_product_after_the_row_code(monkeypatch):
    images = QUOTIENTS["unit-two-factor"]().images
    theta_images = QUOTIENTS["unit-m-r3"]().images
    theta = FiniteQuotient(FREE2, theta_images)
    words = list(reduced_words(FREE2, 3))
    ident = _key(_identity(theta_images[0]))
    expect = [_key(_evaluate(theta, word)) != ident for word in words]
    order = len(_reference_cover(FiniteQuotient(FREE2, images))[0])

    def refuse(*args):
        raise AssertionError("a product in the algebra after the row code")

    monkeypatch.setattr(AlgElement, "__mul__", refuse)
    monkeypatch.setattr(AlgElement, "inverse_unit", refuse)
    assert build_cover(FiniteQuotient(FREE2, images)).n_vertices == order
    pred = nonkernel_predicate(FiniteQuotient(FREE2, theta_images))
    assert list(map(pred, words)) == expect


def test_observation_18_coprime_full_span():
    # deck Z/2, predicate from a Z/3 quotient: coprime orders force full span
    q = FiniteQuotient(FREE2, (ResidueImage((1,), 2), ResidueImage((1,), 2)))
    c = build_cover(q)
    theta = FiniteQuotient(FREE2, (ResidueImage((1,), 3), ResidueImage((1,), 3)))
    rank, dim = orbit_span_rank(c, nonkernel_predicate(theta), 4)
    assert rank == dim == 3


def test_surface_orbit_span_full_for_all_words():
    q = FiniteQuotient(SURF2, tuple(ResidueImage((v,), 2) for v in (1, 0, 0, 0)))
    c = build_cover(q)
    rank, dim = orbit_span_rank(c, lambda w: True, 3)
    assert rank == dim == gaschutz_check(c)["dim_h1"]


def test_d_primitive_predicate():
    pred = d_primitive_predicate(3)
    assert pred(GroupWord(FREE2, (1,)))
    assert not pred(GroupWord(FREE2, (1, 1, 1)))
    assert pred(GroupWord(FREE2, (1, 1, 1, 2)))


# ---------------------------------------------------------------------------
# cyclotomic arithmetic


def test_cyclotomic_polynomials():
    assert list(cyclotomic_polynomial(3)) == [1, 1, 1]
    assert list(cyclotomic_polynomial(5)) == [1, 1, 1, 1, 1]
    assert list(cyclotomic_polynomial(15)) == [1, -1, 0, 1, -1, 1, 0, -1, 1]


def test_omega_powers_relations():
    for d in (3, 5, 15):
        powers = omega_powers(d)
        assert len(powers) == d
        assert powers[0][0] == 1 and not any(powers[0][1:])
        # sum over all d-th roots of unity of omega^t is 0 for t != 0
        deg = len(powers[0])
        for t in range(1, d):
            total = [0] * deg
            for s in range(d):
                rep = powers[(t * s) % d]
                total = [a + b for a, b in zip(total, rep)]
            assert not any(total)


# ---------------------------------------------------------------------------
# the isotypic certificate (small scale; full scale in the acceptance suite)


def test_witness_cover_group_order(sorted_witness_cover):
    assert sorted_witness_cover.n_vertices == 2187
    assert sorted_witness_cover.dim_h1() == 2188


def test_unit_image_quotient_rejects_non_units():
    spec = free_spec(3, 1, 2)
    with pytest.raises(InvalidConfig):
        UnitImage((symbol(spec, 0),))
    with pytest.raises(InvalidConfig):
        UnitImage((one(spec), symbol(spec, 0)))
    UnitImage((one(spec), one(spec)))


def test_isotypic_certificate_small(sorted_witness_bundle, sorted_witness_cover):
    proj = _projector(sorted_witness_cover, sorted_witness_bundle)
    rec = isotypic_projection_check(proj, sorted_witness_bundle.exponent, max_word_len=3, seed=1)
    assert rec["central_order"] == 81
    assert rec["elements_certified"] == 2187 - 243
    assert rec["h1_witness_cycle"] is not None


def test_projector_refuses_a_surface_cover():
    # its zero test reads a cycle as zero in H_1 only if it is the zero
    # vector, which a surface cover's boundaries would make unsound
    with pytest.raises(InvalidConfig):
        IsotypicProjector(_s5_surface_cover(), [0], [0], 3)


def _two_component_bundle():
    """The r = 2 sorted and full witnesses as the components of one
    bundle, weights (1, 0): each vertex holds one unit per factor."""
    sorted_, full = (assemble_witness_free(2, 2, None, v) for v in ("sorted", "full"))
    return dataclasses.replace(sorted_, components=(
        dataclasses.replace(sorted_.components[0], q=1),
        dataclasses.replace(full.components[0], q=0),
    ))


def test_central_slice_of_a_two_component_bundle():
    bundle = _two_component_bundle()
    cover = build_cover(quotient_from_bundle(bundle))
    central, psi = central_slice(cover, bundle)
    assert cover.n_vertices == 32 and len(central) == 8
    assert psi == [0, 1, 1, 0, 1, 0, 0, 1]
    (sfac,), (ffac,) = (comp.factors for comp in bundle.components)
    # the units of every vertex, decoded from its row, against direct
    # evaluation of centrality and psi
    for v, row in enumerate(cover.rows):
        s, f = cover.code.units(row)
        assert (s.spec, f.spec) == (sfac.spec, ffac.spec)
        assert (v in central) == (in_central_subgroup(s) and in_central_subgroup(f))
        if v in central:
            # full weighs 0, so psi is the sorted factor's character alone
            value = psi[central.index(v)]
            assert value == sfac.chi_value(s) == bundle.psi_of_centrals(((s,), (f,)))
    proj = IsotypicProjector(cover, central, psi, bundle.modulus)
    assert proj.central_order == 8
    assert isotypic_projection_check(proj, bundle.exponent)["elements_certified"] == 24


def test_projector_invariants_hold_on_random_vectors(sorted_witness_bundle, sorted_witness_cover):
    # the sampled probes the exact certificate replaced, kept as an oracle:
    # P^2 = |C| P, and P commutes with the deck maps, on the three covers
    # of test_projector_kernel_matches_reference
    full, r2 = assemble_witness_free(3, 2, 1, "full"), assemble_witness_free(2, 2, None, "sorted")
    for bundle, cover in (
        (sorted_witness_bundle, sorted_witness_cover),
        (full, build_cover(quotient_from_bundle(full))),
        (r2, build_cover(quotient_from_bundle(r2))),
    ):
        proj = _projector(cover, bundle)
        assert proj.certified["central_order"] * proj.certified["orbits"] == cover.n_vertices
        rng = random.Random(1012)
        for _ in range(5):
            positions = rng.sample(range(cover.n_edges), rng.randrange(1, 6))
            vec = {e: rng.randrange(1, 5) for e in positions}
            once = proj.apply_int(vec)
            assert once
            scaled = {e: tuple(x * proj.central_order for x in v) for e, v in once.items()}
            assert proj.apply_cyc(once) == scaled
            perm = cover.deck_perm(rng.randrange(cover.n_vertices))
            assert proj.apply_int(_deck_translate(cover, perm, vec)) == _deck_translate(
                cover, perm, once
            )


def _x1_slice(cover, d=3):
    """The cyclic subgroup of x1, the vertices x1^j, with psi = j mod d.
    On the sorted (3, 2) cover it is closed, additive and free at d = 3,
    but not central."""
    central = [0]
    while (nxt := int(cover.targets[central[-1], 0])) != 0:
        central.append(nxt)
    return central, [j % d for j in range(len(central))]


def test_projector_refuses_a_slice_that_is_not_central(sorted_witness_cover):
    central, psi = _x1_slice(sorted_witness_cover)
    assert len(central) == 9 and central[1] == 1
    with pytest.raises(PropertyViolation, match="does not commute") as exc:
        IsotypicProjector(sorted_witness_cover, central, psi, 3)
    # x1 = vertex 1 commutes with itself but not with x2
    assert exc.value.counterexample == (1, 1)


def _reference_projector(cover, central, psi, d):
    """A dict-of-tuples projector kept as an oracle, on the tables the
    projector is given: one Z[omega] tuple update per (central element,
    entry)."""
    g, powers = cover.ngens, omega_powers(d)
    zero = (0,) * len(powers[0])
    perms = [cover.deck_perm(v) for v in central]

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def scale(a, c):
        return tuple(x * c for x in a)

    def mul_omega_power(val, t):
        out = zero
        for i, c in enumerate(val):
            if c:
                out = add(out, scale(powers[(t + i) % d], c))
        return out

    def apply_int(vec):
        out = {}
        for perm, t in zip(perms, psi):
            for eid, c in vec.items():
                nid = int(perm[eid // g]) * g + eid % g
                out[nid] = add(out.get(nid, zero), scale(powers[(-t) % d], c))
        return {e: v for e, v in out.items() if any(v)}

    def apply_cyc(vec):
        out = {}
        for perm, t in zip(perms, psi):
            for eid, val in vec.items():
                nid = int(perm[eid // g]) * g + eid % g
                out[nid] = add(out.get(nid, zero), mul_omega_power(val, (-t) % d))
        return {e: v for e, v in out.items() if any(v)}

    return apply_int, apply_cyc


def _matches_reference(cover, tables, seed):
    """The projector on the tables (central, psi, d) agrees with the
    reference on random sparse vectors; returns the projector and the
    reference's two maps."""
    proj = IsotypicProjector(cover, *tables)
    ref_int, ref_cyc = _reference_projector(cover, *tables)
    rng = random.Random(seed)
    for _ in range(10):
        positions = rng.sample(range(cover.n_edges), rng.randrange(1, 12))
        vec = {e: rng.choice((-1, 1)) * rng.randrange(1, 50) for e in positions}
        assert proj.apply_int(vec) == ref_int(vec)
        cyc = {e: tuple(rng.randrange(-9, 10) for _ in range(proj.deg)) for e in positions}
        assert proj.apply_cyc(cyc) == ref_cyc(cyc)
    return proj, ref_int, ref_cyc


def test_projector_kernel_matches_reference(sorted_witness_bundle, sorted_witness_cover):
    # the sorted and full variants at r = 3, and the sorted one at r = 2
    # (d = 2, deg = 1)
    full, r2 = assemble_witness_free(3, 2, 1, "full"), assemble_witness_free(2, 2, None, "sorted")
    for bundle, cover in (
        (sorted_witness_bundle, sorted_witness_cover),
        (full, build_cover(quotient_from_bundle(full))),
        (r2, build_cover(quotient_from_bundle(r2))),
    ):
        proj, ref_int, ref_cyc = _matches_reference(cover, _tables(cover, bundle), 2304)
        # an elevation class is killed and its image goes through apply_cyc
        _, vec = elevation_class(cover, GroupWord(FREE2, (1, 2, 2)), 5)
        assert proj.apply_int(vec) == ref_int(vec) == {}
        once = proj.apply_int(cover.fundamental_cycle(0))
        assert once and proj.apply_cyc(once) == ref_cyc(once)


def test_projector_is_exact_beyond_int64(sorted_witness_bundle, sorted_witness_cover):
    tables = _tables(sorted_witness_cover, sorted_witness_bundle)
    proj = IsotypicProjector(sorted_witness_cover, *tables)
    ref_int, ref_cyc = _reference_projector(sorted_witness_cover, *tables)
    # the results agree with the reference for orbit sums within int64
    # (at most 81 * 2 * 1 times the largest coefficient) and past it
    safe = (2 ** 63 - 1) // 162
    vec = {0: safe, 7: -safe}
    assert proj.apply_int(vec) == ref_int(vec)
    cyc = {3: (safe, -safe)}
    assert proj.apply_cyc(cyc) == ref_cyc(cyc)
    vec = {0: 1, 5: 2 ** 70 + 1}
    assert proj.apply_int(vec) == ref_int(vec) != {}
    cyc = {0: (0, -(2 ** 70)), 3: (2 ** 70, 1)}
    assert proj.apply_cyc(cyc) == ref_cyc(cyc) != {}


@pytest.mark.parametrize("d", [4, 5, 6])
def test_projector_matches_reference_at_composite_and_larger_d(d):
    cover = _residue_cover(d)
    proj, ref_int, ref_cyc = _matches_reference(cover, (*_x1_slice(cover, d), d), d)
    # Phi_4, Phi_5 and Phi_6 have degrees 2, 4 and 2
    assert proj.deg == {4: 2, 5: 4, 6: 2}[d]
    for pos in range(cover.cotree.size):
        once = proj.apply_int(cover.fundamental_cycle(pos))
        assert once == ref_int(cover.fundamental_cycle(pos))
        assert proj.apply_cyc(once) == ref_cyc(once)


def test_quotient_from_json_perm():
    data = {
        "domain": "free",
        "rank": 2,
        "type": "perm",
        "images": [[1, 2, 0], [0, 1, 2]],
    }
    c = build_cover(quotient_from_json(data))
    assert c.n_vertices == 3
    gaschutz_check(c)
    with pytest.raises(InvalidConfig):
        quotient_from_json({"domain": "free", "rank": 1, "type": "nope"})


def test_quotient_from_json_unit_images():
    import json

    from coverhom import sorted_spec

    spec = sorted_spec(3, 1, 2)
    data = {
        "domain": "free",
        "rank": 2,
        "type": "unit",
        "algebra": {"kind": "sorted", "r": 3, "k": 1, "ngens": 2},
        "images": [(one(spec) + symbol(spec, i)).to_dict() for i in range(2)],
    }
    cover = build_cover(quotient_from_json(json.loads(json.dumps(data))))
    assert cover.n_vertices == 2187


def test_quotient_from_json_refuses_fractional_coefficients():
    # 1.5 has no place in F_3; stored as is, it kept the closure from ever ending
    data = {
        "domain": "free",
        "rank": 1,
        "type": "unit",
        "algebra": {"kind": "free", "r": 3, "k": 1, "ngens": 1},
        "images": [{"monomials": [[[], 1], [[0], 1.5]]}],
    }
    with pytest.raises(InvalidConfig):
        quotient_from_json(data)


def test_projector_refuses_a_psi_that_is_not_additive(
    sorted_witness_bundle, sorted_witness_cover
):
    central, psi = central_slice(sorted_witness_cover, sorted_witness_bundle)
    shifted = [(p + 1) % 3 for p in psi]
    with pytest.raises(PropertyViolation, match="not additive") as exc:
        IsotypicProjector(sorted_witness_cover, central, shifted, 3)
    # the generators of C = (Z/3)^4 may take any psi, but then the identity
    # has phase 0, not 1
    assert exc.value.counterexample == 0 and "psi(0) = 1" in str(exc.value)
    # x1 has order 4 on (Z/4)^2, and 4 psi(x1) = 1 mod 3: the phase x1
    # adds does not come back to 0 at vertex 0
    cover = _residue_cover(4)
    central, psi = _x1_slice(cover, 3)
    with pytest.raises(PropertyViolation, match="not additive") as exc:
        IsotypicProjector(cover, central, psi, 3)
    assert exc.value.counterexample == (0, central[1])


def test_projector_refuses_a_slice_that_is_not_closed(
    sorted_witness_bundle, sorted_witness_cover
):
    # vertex 1, a generator image, joins C with psi = 0: its cube is in C
    # with psi != 0, so the phase x1 adds is not 0 at vertex 0
    central, psi = central_slice(sorted_witness_cover, sorted_witness_bundle)
    with pytest.raises(PropertyViolation, match="not additive") as exc:
        IsotypicProjector(sorted_witness_cover, central + [1], psi + [0], 3)
    assert exc.value.counterexample == (0, 1)
    # on (Z/4)^2, 0 and x1 make the group of x1, which holds x1^2 too
    cover = _residue_cover(4)
    powers, _ = _x1_slice(cover, 4)
    with pytest.raises(PropertyViolation, match="not closed") as exc:
        IsotypicProjector(cover, powers[:2], [0, 1], 4)
    assert exc.value.counterexample == powers[2]


def test_projector_refuses_tables_that_do_not_match(sorted_witness_cover):
    with pytest.raises(InvalidConfig, match="one psi value per central vertex"):
        IsotypicProjector(sorted_witness_cover, [0, 1], [0], 3)
    with pytest.raises(InvalidConfig, match="one psi value per central vertex"):
        IsotypicProjector(sorted_witness_cover, [], [], 3)


def test_central_orbits_refuse_an_action_that_is_not_free():
    # on (Z/2)^2, C = <x1> = {0, 1}; deck maps act freely, so only a vertex
    # listed twice leaves an orbit short of the |C| points the tables count
    cover = _residue_cover(2)
    with pytest.raises(PropertyViolation, match="does not act freely") as exc:
        _central_orbits(cover, [0, 1, 1], [0, 1, 1], 2)
    assert exc.value.counterexample == 0
    orbit, phase, members = _central_orbits(cover, [0, 1], [0, 1], 2)
    assert members.tolist() == [[0, 1], [2, 3]]
    assert orbit.tolist() == [0, 0, 1, 1] and phase.tolist() == [0, 1, 0, 1]


def _reference_central_orbits(cover, central, psi):
    """The stack of |C| deck maps the generator labelling replaced, kept as
    an oracle: orbit O is the rank of its least vertex r_O, and
    members[O, n] = c_n r_O has phase psi(c_n)."""
    perms = np.array([cover.deck_perm(v) for v in central])
    reps = np.flatnonzero(perms.min(axis=0) == np.arange(cover.n_vertices))
    members = perms[:, reps].T
    orbit = np.empty(cover.n_vertices, dtype=np.int64)
    orbit[members] = np.arange(len(members))[:, None]
    phase = np.empty(cover.n_vertices, dtype=np.int64)
    phase[members] = psi
    return orbit, phase, members


def test_central_orbits_match_the_stack_of_deck_maps(sorted_witness_bundle, sorted_witness_cover):
    # the covers of test_projector_kernel_matches_reference, the two-component
    # bundle, and (Z/d)^2 at d = 4, 5, 6
    cases = [(sorted_witness_cover, _tables(sorted_witness_cover, sorted_witness_bundle))]
    for bundle in (assemble_witness_free(3, 2, 1, "full"),
                   assemble_witness_free(2, 2, None, "sorted"), _two_component_bundle()):
        cover = build_cover(quotient_from_bundle(bundle))
        cases.append((cover, _tables(cover, bundle)))
    for d in (4, 5, 6):
        cover = _residue_cover(d)
        cases.append((cover, (*_x1_slice(cover, d), d)))
    for cover, (central, psi, d) in cases:
        orbit, phase, members = _central_orbits(cover, central, psi, d)
        ref_orbit, ref_phase, ref_members = _reference_central_orbits(cover, central, psi)
        assert np.array_equal(orbit, ref_orbit) and np.array_equal(phase, ref_phase)
        assert np.array_equal(members, np.sort(ref_members, axis=1))


def test_the_d6_crt_witness_cover_is_certified():
    # the CRT lift of the r = 2 and r = 3 sorted witnesses: C has 648
    # elements, labelled from a handful of deck maps
    bundle = crt_lift([assemble_witness_free(2, 2, 1, "sorted"),
                       assemble_witness_free(3, 2, 1, "sorted")])
    cover = build_cover(quotient_from_bundle(bundle))
    central, psi, d = _tables(cover, bundle)
    proj = IsotypicProjector(cover, central, psi, d)
    rec = isotypic_projection_check(proj, bundle.exponent)
    assert (d, proj.certified["orbits"]) == (6, 108)
    assert (rec["group_order"], rec["central_order"], rec["dim_h1"]) == (69_984, 648, 69_985)
    assert rec["elements_certified"] == 68_040
    # swap psi at the last central vertex and the last one before it with
    # another value: the generators still give the old psi there
    a = len(psi) - 1
    b = max(n for n in range(a) if psi[n] != psi[a])
    swapped = list(psi)
    swapped[a], swapped[b] = psi[b], psi[a]
    with pytest.raises(PropertyViolation, match="not additive") as exc:
        IsotypicProjector(cover, central, swapped, d)
    assert exc.value.counterexample == central[b]


def test_group_sweep_agrees_with_the_reference_on_short_words(
    sorted_witness_bundle, sorted_witness_cover
):
    # the sorted and full variants at r = 3, and the sorted one at r = 2
    full, r2 = assemble_witness_free(3, 2, 1, "full"), assemble_witness_free(2, 2, None, "sorted")
    for bundle, cover in (
        (sorted_witness_bundle, sorted_witness_cover),
        (full, build_cover(quotient_from_bundle(full))),
        (r2, build_cover(quotient_from_bundle(r2))),
    ):
        tables = _tables(cover, bundle)
        rec = isotypic_projection_check(IsotypicProjector(cover, *tables), bundle.exponent,
                                        max_word_len=3)
        # every d-primitive word is certified, so the slow path kills each
        # short one at any basepoint
        ref_int, _ = _reference_projector(cover, *tables)
        primitive = d_primitive_predicate(bundle.modulus)
        words = [w for w in reduced_words(FREE2, 3) if primitive(w)]
        assert rec["words_annihilated"] == len(words)
        rng = random.Random(bundle.modulus)
        for b in [0] + rng.sample(range(1, cover.n_vertices), 3):
            for word in words:
                assert ref_int(elevation_class(cover, word, b)[1]) == {}, (word.render(), b)
        # the elements certified are the vertices off ker alpha, with alpha
        # read off the algebra
        off = sum(
            any(bundle.alpha_of_images(bundle.images(cover.tree_word(v))))
            for v in range(cover.n_vertices)
        )
        assert rec["elements_certified"] == off


@pytest.mark.parametrize("table", ["phase", "orbit"])
def test_group_sweep_reads_the_power_off_the_tables(
    sorted_witness_bundle, sorted_witness_cover, table
):
    cover = sorted_witness_cover
    proj = _projector(cover, sorted_witness_bundle)
    # c = x1^3, the cube of vertex 1, loses its phase or leaves C
    c = 0
    for _ in range(sorted_witness_bundle.exponent):
        c = int(cover.targets[c, 0])
    assert c and proj.orbit[c] == proj.orbit[0] and proj.phase[c]
    values = getattr(proj, table).copy()
    values[c] = 0 if table == "phase" else proj.orbit[1]
    setattr(proj, table, values)
    with pytest.raises(PropertyViolation, match="not in C off ker psi") as exc:
        isotypic_projection_check(proj, sorted_witness_bundle.exponent, max_word_len=2)
    assert exc.value.counterexample == GroupWord(FREE2, (1,)).render()


def test_group_sweep_refuses_a_wrong_exponent(sorted_witness_bundle, sorted_witness_cover):
    proj = _projector(sorted_witness_cover, sorted_witness_bundle)
    with pytest.raises(PropertyViolation, match="not in C off ker psi"):
        isotypic_projection_check(proj, sorted_witness_bundle.exponent + 1, max_word_len=2)


def test_group_sweep_refuses_a_redirected_edge(sorted_witness_bundle, sorted_witness_cover):
    proj = _projector(sorted_witness_cover, sorted_witness_bundle)
    v, i = divmod(int(sorted_witness_cover.cotree[100]), sorted_witness_cover.ngens)
    targets = sorted_witness_cover.targets.copy()
    targets[v, i] = targets[v, 1 - i]
    proj.cover = dataclasses.replace(sorted_witness_cover, targets=targets)
    with pytest.raises(PropertyViolation, match="does not add") as exc:
        isotypic_projection_check(proj, sorted_witness_bundle.exponent, max_word_len=2)
    assert exc.value.counterexample == (v, i)


def test_group_sweep_names_the_first_vertex_off_ker_alpha(
    sorted_witness_bundle, sorted_witness_cover
):
    # psi = 0 averages over C, which kills no d-primitive class; vertex 1,
    # the image of x1, is the first vertex the sweep certifies
    central, _ = central_slice(sorted_witness_cover, sorted_witness_bundle)
    proj = IsotypicProjector(sorted_witness_cover, central, [0] * len(central), 3)
    with pytest.raises(PropertyViolation) as exc:
        isotypic_projection_check(proj, sorted_witness_bundle.exponent, max_word_len=3)
    word = sorted_witness_cover.tree_word(1).render()
    assert str(exc.value) == f"the e-th power of vertex 1 = theta({word}) is not in C off ker psi"
    assert exc.value.counterexample == word == GroupWord(FREE2, (1,)).render()


@pytest.mark.parametrize("fault", ["swap", "additive"])
def test_witness_e2e_reports_a_projector_it_cannot_build(
    monkeypatch, capsys, sorted_witness_cover, fault
):
    if fault == "swap":
        cover = dataclasses.replace(sorted_witness_cover)
        _break_deck_perm(monkeypatch, cover, "swap")
        monkeypatch.setattr(covers, "build_cover", lambda quotient, guard_vertices: cover)
    else:
        read = covers.central_slice

        def shifted(cover, bundle):  # psi + 1, which is not additive
            central, psi = read(cover, bundle)
            return central, [(p + 1) % 3 for p in psi]

        monkeypatch.setattr(covers, "central_slice", shifted)
    code = cli.main(
        ["witness-e2e", "--r", "3", "--n", "2", "--k", "1", "--max-word-len", "2"]
    )
    assert code == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("witness-free", "pass"), ("gaschutz", "pass"), ("isotypic-invariants", "fail")
    ]
    details = checks[-1]["details"]
    if fault == "swap":  # the first generator of C is refused its deck map
        assert f"deck_perm({details['counterexample']})" in details["error"]
    else:  # psi + 1 is 1 at the identity
        assert details["counterexample"] == 0 and "psi(0) = 1" in details["error"]


def test_projector_refuses_a_generator_permutation_that_is_not_a_deck_map(
    monkeypatch, sorted_witness_bundle, sorted_witness_cover
):
    # deck(x2) loses a transposition off C, where the centrality test does
    # not look: only the deck-map check on it can refuse
    cover = dataclasses.replace(sorted_witness_cover)
    x2 = int(cover.targets[0, 1])
    deck_perm = cover.deck_perm

    def wrong(v):
        perm = deck_perm(v)
        if v == x2:
            perm[[1, 2]] = perm[[2, 1]]
        return perm

    monkeypatch.setattr(cover, "deck_perm", wrong)
    with pytest.raises(PropertyViolation) as exc:
        _projector(cover, sorted_witness_bundle)
    assert exc.value.counterexample == x2 and f"deck_perm({x2})" in str(exc.value)


def test_witness_e2e_fails_the_invariants_of_a_slice_that_is_not_central(monkeypatch, capsys):
    monkeypatch.setattr(covers, "central_slice", lambda cover, bundle: _x1_slice(cover))
    code = cli.main(
        ["witness-e2e", "--r", "3", "--n", "2", "--k", "1", "--variant", "sorted",
         "--max-word-len", "2"]
    )
    assert code == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("witness-free", "pass"), ("gaschutz", "pass"), ("isotypic-invariants", "fail")
    ]
    assert checks[-1]["details"]["counterexample"] == [1, 1]
    assert "does not commute" in checks[-1]["details"]["error"]


def test_witness_e2e_records_a_projector_refusal_under_its_check(monkeypatch, capsys):
    # an empty central slice is a bad configuration of the projector: the
    # invariants check that builds it records the error, not an "aborted"
    # step after it
    monkeypatch.setattr(covers, "central_slice", lambda cover, bundle: ([], []))
    code = cli.main(
        ["witness-e2e", "--r", "3", "--n", "2", "--k", "1", "--max-word-len", "2"]
    )
    assert code == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("witness-free", "pass"), ("gaschutz", "pass"), ("isotypic-invariants", "error")
    ]
    assert "one psi value per central vertex" in checks[-1]["details"]["error"]


@pytest.mark.parametrize(
    "alphabet, max_len",
    [(FREE2, 6), (Alphabet("free", 3), 6), (SURF2, 4)],
    ids=["free2", "free3", "surface2"],
)
@pytest.mark.parametrize("d", [2, 3])
def test_count_d_primitive_words_matches_the_enumeration(alphabet, max_len, d):
    primitive = d_primitive_predicate(d)
    for length in range(max_len + 1):
        expect = sum(map(primitive, reduced_words(alphabet, length)))
        assert count_d_primitive_words(alphabet, length, d) == expect, length
