"""Finite covers from group quotients, their first homology with deck
action, elevation classes, and the isotypic-projection certificate.

A finite quotient theta of a free or surface group yields a cover: one
vertex per element of the image (discovered by closure from the
identity), a directed edge (v, i) from v to v * theta(gen_i) per
generator, and, in the surface case, one 2-cell per vertex whose boundary
walks the relator from that vertex.  The deck group acts by left
multiplication, which commutes with the right-multiplication edges.

The closure holds each group element as a row of integers (a
:class:`RowCode`): a permutation is its point map, a residue tuple its
vector, and a tuple of units its coefficients over the monomials
reachable from 1 under the generator images.  Right multiplication by a
generator is then affine on rows (a gather, an add mod m, or a sparse
right-multiplication table built from the algebra's own product), so
the BFS moves a whole level through each generator with numpy and keys
vertices by a digest of their rows, checked against the one stored copy
of each row.  The row dtype is the narrowest that holds every residue
exactly.  The rows held may not pass ``ROW_BYTES_GUARD`` bytes, nor the
vertices the caller's vertex guard: either stops the build with TooLarge.

Rows are the one representation of a group element; the image classes
only validate their input and give the row code.  Any later question
about a word is a walk on the Cayley graph, whose lift from v ends at
v * theta(word): the relator must close from vertex 0, and a word is
off the kernel of theta when its walk on theta's cover leaves 0.

Homology is computed in the fundamental-cycle coordinates of a BFS
spanning tree: a cycle is determined by its coefficients on the non-tree
edges, and in the surface case classes are taken modulo the rows of the
2-cell boundary map.  A rank is k + r.  The k pivots come from singleton
rows and columns, with no arithmetic, and are exact over Q.  r is the
rank of the rest modulo a random 31-bit prime, which is only a lower
bound on its rank over Q; a second independent prime must agree, and
otherwise an exact Fraction elimination of the rest gives r.

The subspace certificate: on a free cover, the averaging operator
pi = (1/|C|) sum_c omega^(-psi(c)) deck(c) over a central slice C kills
the elevation class of every d-primitive word (the class is fixed by a
deck element whose power lands in C off ker psi, and omega^psi(c) != 1
forces the projection to zero) while pi is nonzero on H_1, which
contains the regular representation.  The projector takes C and psi as
tables, the central vertex ids and psi of each mod d; for a cover built
from a witness bundle, ``central_slice`` reads them off the unit rows,
and nothing else in the certificate reads the algebra.  The kernel claim
is certified for every word at every basepoint by one sweep of the
Cayley graph: the exponent sums mod d of the tree words add e_i along
each edge (v, i), and every vertex off their kernel has its e-th power
in C off ker psi.  Cyclotomic arithmetic is exact, in the power basis of
Z[omega] modulo the d-th cyclotomic polynomial.
"""

import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import AlgebraSpec, AlgElement, _mul_terms
from .errors import InvalidConfig, PropertyViolation, TooLarge
from .witness import (
    Alphabet,
    GroupWord,
    WitnessBundle,
    generator_word,
    reduced_words,
    surface_relator,
)

# Bytes of vertex rows that build_cover may hold, and of the closure that
# builds the right-multiplication tables of unit rows (counted as 24 bytes
# an entry and 128 a column); past it the cover is refused with TooLarge.
ROW_BYTES_GUARD = 1 << 26

# ---------------------------------------------------------------------------
# generator images


class PermImage:
    """Permutation of {0..deg-1}; composition acts left-to-right on points."""

    __slots__ = ("map",)

    def __init__(self, mapping):
        mapping = tuple(mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise InvalidConfig(f"not a permutation: {mapping}")
        self.map = mapping

    def row_code(self, images):
        """Rows are point maps; x * g gathers the points of x by g's map."""
        deg = len(self.map)
        points = range(deg)
        return RowCode(points, [deg] * deg, [(img.map, points, [1] * deg, ()) for img in images])


class ResidueImage:
    """Element of (Z/m)^t written multiplicatively."""

    __slots__ = ("vec", "mod")

    def __init__(self, vec, mod):
        if mod < 2:
            raise InvalidConfig(f"modulus {mod} too small")
        self.vec = tuple(v % mod for v in vec)
        self.mod = mod

    def row_code(self, images):
        """Rows are residue vectors; x * g adds g's vector mod m."""
        t = len(self.vec)
        cols = range(t)
        return RowCode([0] * t, [self.mod] * t, [(cols, cols, [1] * t, img.vec) for img in images])


class UnitImage:
    """Tuple of units of truncated algebras, one per factor; the group is
    their componentwise product, taken on rows by the tables of
    ``row_code``."""

    __slots__ = ("units",)

    def __init__(self, units):
        self.units = tuple(units)
        if not all(map(AlgElement.is_unit_element, self.units)):
            raise InvalidConfig("cover images must be units with degree-0 part 1")

    def row_code(self, images):
        """Rows are coefficient vectors, factor after factor, over the
        monomials reachable from 1 by right multiplication with the terms
        of the generator images.  Generator i's table sends column a to
        the coefficients of (monomial a) * g_i, from the algebra's product
        kernel; the closure takes one product per column and generator."""
        start, mods, factors = [], [], []
        # coefficients stay Python ints until RowCode has checked them
        # against int64
        tables = [(array("q"), array("q"), []) for _ in images]
        for f, unit in enumerate(self.units):
            spec, base = unit.spec, len(start)
            monos, at = [spec.one_mono], {spec.one_mono: 0}
            for a in monos:  # the list grows as the closure finds monomials
                for img, (src, dst, coeff) in zip(images, tables):
                    for b, c in _mul_terms(spec, {a: 1}, img.units[f].terms).items():
                        if b not in at:
                            at[b] = len(monos)
                            monos.append(b)
                        src.append(base + at[a])
                        dst.append(base + at[b])
                        coeff.append(c)
                entries = sum(len(t[0]) for t in tables)
                if 24 * entries + 128 * (base + len(monos)) > ROW_BYTES_GUARD:
                    raise TooLarge(
                        f"the right-multiplication tables of {spec} pass the row byte "
                        f"guard {ROW_BYTES_GUARD}"
                    )
            start += [1] + [0] * (len(monos) - 1)
            mods += [spec.r] * len(monos)
            factors.append((spec, monos))
        return RowCode(start, mods, [(*t, ()) for t in tables], tuple(factors))


class RowCode:
    """Group elements as integer rows, for the closure in build_cover.

    ``start`` is the row of the identity.  Right multiplication by
    generator i is affine on rows: x * g_i adds x[src] * coeff into the
    columns dst, adds ``shift`` and reduces column j mod mods[j].  Rows are
    stored in ``dtype``, the narrowest unsigned type holding every residue
    below the largest modulus, so distinct elements have distinct bytes.
    Products are taken in int64, and a code whose sums could overflow it
    is refused with TooLarge.  ``factors`` lists the (spec, monomials) of
    the columns of unit rows, factor after factor, and is empty for
    permutations and residues."""

    def __init__(self, start, mods, steps, factors=()):
        top = max(mods, default=1) - 1
        self.factors = factors
        self.steps = []
        for src, dst, coeff, shift in steps:
            dst = np.asarray(dst, dtype=np.int64)
            fan_in = int(np.bincount(dst).max(initial=0))
            if top * max(coeff, default=0) * fan_in + max(shift, default=0) >= 2 ** 63:
                raise TooLarge(f"row entries up to {top} overflow int64 products")
            groups = _disjoint_groups(np.asarray(src, dtype=np.int64), dst,
                                      np.asarray(coeff, dtype=np.int64), fan_in)
            self.steps.append((groups, np.asarray(shift or 0, dtype=np.int64)))
        self.dtype = np.min_scalar_type(top)
        self.start = np.asarray(start, dtype=self.dtype)
        self.mods = np.asarray(mods, dtype=np.int64)

    def apply(self, rows, i):
        """The int64 rows times generator i."""
        groups, shift = self.steps[i]
        out = np.empty_like(rows)
        out[:] = shift
        for src, dst, coeff in groups:
            out[:, dst] += rows[:, src] * coeff
        out %= self.mods
        return out

    def units(self, row):
        """The factor units of a unit row."""
        units, at = [], 0
        for spec, monos in self.factors:
            coeffs = row[at : at + len(monos)].tolist()
            units.append(AlgElement._raw(spec, {m: c for m, c in zip(monos, coeffs) if c}))
            at += len(monos)
        return units


def _disjoint_groups(src, dst, coeff, fan_in):
    """The entries of a sparse table split into ``fan_in`` groups with
    distinct dst each, the k-th group holding the k-th entry into every
    column, so each group is one gather and one scatter-add."""
    order = np.argsort(dst, kind="stable")
    src, dst, coeff = src[order], dst[order], coeff[order]
    rank = np.arange(dst.size) - np.searchsorted(dst, dst)
    return tuple((src[rank == k], dst[rank == k], coeff[rank == k]) for k in range(fan_in))


@dataclass
class FiniteQuotient:
    """Generator images in a concrete finite group; the group itself is
    discovered by closure in :func:`build_cover`, which also refuses a
    surface quotient that does not kill the relator."""

    alphabet: Alphabet
    images: tuple

    def __post_init__(self):
        self.images = tuple(self.images)
        if len(self.images) != self.alphabet.ngens:
            raise InvalidConfig(
                f"need {self.alphabet.ngens} generator images, got {len(self.images)}"
            )

    def element_order(self, word: GroupWord) -> int:
        """The order of theta(word), read off the cover.  Only the
        benchmark tracer reads it, which patches it by name."""
        return elevation_class(build_cover(self), word)[0]


def quotient_from_bundle(bundle: WitnessBundle) -> FiniteQuotient:
    """The quotient rho: generators map to the tuple of factor images."""
    words = (generator_word(bundle.alphabet, i) for i in range(bundle.alphabet.ngens))
    images = [UnitImage(g for comp in bundle.images(w) for g in comp) for w in words]
    return FiniteQuotient(bundle.alphabet, images)


def central_slice(cover, bundle: WitnessBundle):
    """(central, psi) for a cover built by :func:`quotient_from_bundle`:
    the vertices whose factor units are all central, and psi of each,
    mod d.  A unit is central when its constant term is 1 and every other
    coefficient below the top degree is zero, one test on all the rows;
    units are built for the central vertices alone, for psi.  The one
    place the certificate reads the algebra."""
    one, low = [], []
    for spec, monos in cover.code.factors:
        for m in monos:
            one.append(m == spec.one_mono)
            low.append(m != spec.one_mono and spec.degree(m) < spec.cap)
    rows = cover.rows
    central = np.flatnonzero((rows[:, one] == 1).all(axis=1) & ~rows[:, low].any(axis=1)).tolist()
    psi = []
    for v in central:
        units = iter(cover.code.units(rows[v]))
        nested = tuple(tuple(next(units) for _ in comp.factors) for comp in bundle.components)
        psi.append(bundle.psi_of_centrals(nested))
    return central, psi


def _json_ints(value, what):
    """``value`` if it is a JSON list of integers, else InvalidConfig."""
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise InvalidConfig(f"{what} must be a list of integers, got {value!r}")
    return value


_JSON_TYPES = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def _json_field(data, key, kind, where="the quotient"):
    """``data[key]`` if ``data`` is a JSON object holding a value of type
    ``kind`` there, else InvalidConfig naming the key."""
    if type(data) is not dict:
        raise InvalidConfig(f"{where} must be a JSON object, got {data!r}")
    if key not in data:
        raise InvalidConfig(f"{where} has no {key!r} key")
    value = data[key]
    if type(value) is not kind:
        raise InvalidConfig(f"{key!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def quotient_from_json(data) -> FiniteQuotient:
    """Quotient description: {"domain": "free"|"surface", "rank"|"genus": g,
    "type": "perm"|"residue"|"unit", "images": [...]}, plus "mod" for
    residue images and "algebra": {"kind", "r", "k", "ngens"} for unit
    images; see the README for examples of each image encoding.  A missing
    key or a value of the wrong JSON type is refused with its name.
    Counts, points, residues and coefficients must be integers;
    permutations must share one degree and residue vectors one length."""
    kind = _json_field(data, "domain", str)
    alphabet = Alphabet(kind, _json_field(data, "rank" if kind == "free" else "genus", int))
    itype = _json_field(data, "type", str)
    raw = _json_field(data, "images", list)
    if itype == "perm":
        images = [PermImage(_json_ints(p, "a permutation")) for p in raw]
        sizes = {len(p.map) for p in images}
    elif itype == "residue":
        mod = _json_field(data, "mod", int)
        images = [ResidueImage(_json_ints(v, "a residue vector"), mod) for v in raw]
        sizes = {len(v.vec) for v in images}
    elif itype == "unit":
        a = _json_field(data, "algebra", dict)
        spec = AlgebraSpec(
            _json_field(a, "kind", str, "the algebra"),
            *(_json_field(a, key, int, "the algebra") for key in ("r", "k", "ngens")),
        )
        for e in raw:
            _json_field(e, "monomials", list, "a unit image")
        images = [UnitImage((AlgElement.from_dict(spec, e),)) for e in raw]
        sizes = set()
    else:
        raise InvalidConfig(f"unknown image type {itype!r}")
    if len(sizes) > 1:
        raise InvalidConfig(f"{itype} images of different sizes {sorted(sizes)}")
    return FiniteQuotient(alphabet, tuple(images))


# ---------------------------------------------------------------------------
# the cover complex


@dataclass
class CoverComplex:
    """Vertices, edges, spanning tree and (surface) 2-cells of the cover
    attached to a finite quotient.  Vertex v is the group element of row v
    of ``rows`` under ``code``; edge (v, i) has id v * ngens + i."""

    quotient: FiniteQuotient
    code: RowCode
    rows: np.ndarray
    targets: np.ndarray
    inv_targets: np.ndarray
    tree_parent: list
    nontree: list
    # edge id -> position among the non-tree edges; tree edges hold
    # len(nontree), which sorts after every position
    nontree_pos: np.ndarray
    _tree_levels: list = field(default=None, repr=False)
    _boundary_rows: list = field(default=None, repr=False)
    _dim_h1: int = field(default=None, repr=False)
    # plain copies for the walks, which read one entry per letter: the
    # head of edge (v, i) and the tail of the i-edge into v, both at
    # index v * ngens + i
    ngens: int = field(init=False, repr=False)
    _heads: list = field(init=False, repr=False)
    _tails: list = field(init=False, repr=False)

    def __post_init__(self):
        self.ngens = self.quotient.alphabet.ngens
        self._heads = self.targets.ravel().tolist()
        self._tails = self.inv_targets.ravel().tolist()

    @property
    def alphabet(self):
        return self.quotient.alphabet

    @property
    def n_vertices(self):
        return len(self.targets)

    @property
    def n_edges(self):
        return self.n_vertices * self.ngens

    @property
    def n_faces(self):
        return self.n_vertices if self.alphabet.kind == "surface" else 0

    @property
    def cycle_rank(self):
        return self.n_edges - self.n_vertices + 1

    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_faces

    # -- paths and cycles ------------------------------------------------

    def tree_path_vec(self, v: int) -> dict:
        """Edge vector of the tree path from the root to vertex v."""
        vec = {}
        while v:
            u, i = self.tree_parent[v]
            eid = u * self.ngens + i
            vec[eid] = vec.get(eid, 0) + 1
            v = u
        return vec

    def fundamental_cycle(self, pos: int) -> dict:
        """Cycle vector of the pos-th non-tree edge: tree path to its tail,
        the edge itself, then the tree path back from its head."""
        v, i = self.nontree[pos]
        vec = self.tree_path_vec(v)
        eid = v * self.ngens + i
        vec[eid] = vec.get(eid, 0) + 1
        for e, c in self.tree_path_vec(self._heads[eid]).items():
            s = vec.get(e, 0) - c
            if s:
                vec[e] = s
            else:
                vec.pop(e, None)
        return vec

    def walk_vec(self, word: GroupWord, basepoint: int = 0):
        """Edge vector of the lift of word starting at basepoint; returns
        (end_vertex, vector)."""
        vec = {}
        v = self._walk(word, basepoint, vec)
        return v, {e: c for e, c in vec.items() if c}

    def _walk(self, word: GroupWord, v: int, vec: dict) -> int:
        """Add the lift of word starting at vertex v to the edge vector vec
        (zero entries kept); returns the end vertex."""
        g, heads, tails = self.ngens, self._heads, self._tails
        for letter in word.letters:
            if letter > 0:
                eid = v * g + letter - 1
                vec[eid] = vec.get(eid, 0) + 1
                v = heads[eid]
            else:
                v = tails[v * g - letter - 1]
                eid = v * g - letter - 1
                vec[eid] = vec.get(eid, 0) - 1
        return v

    def restrict_to_cycles(self, vec: dict) -> dict:
        """Coordinates of a cycle in the fundamental-cycle basis: its
        coefficients on the non-tree edges."""
        out = {}
        tree = len(self.nontree)
        for eid, c in vec.items():
            pos = int(self.nontree_pos[eid])
            if pos != tree and c:
                out[pos] = c
        return out

    # -- deck action -------------------------------------------------------

    def tree_levels(self):
        """The spanning tree by depth: one (vertices, parents, letters)
        triple of arrays per level below the root, vertex u of a level
        being targets[parent, letter]."""
        if self._tree_levels is None:
            depth = [0] * self.n_vertices
            for u in range(1, self.n_vertices):
                depth[u] = depth[self.tree_parent[u][0]] + 1
            # BFS numbers the vertices level by level
            ends = np.searchsorted(depth, np.arange(1, depth[-1] + 2))
            parents, letters = np.array(self.tree_parent[1:], dtype=np.int64).reshape(-1, 2).T
            self._tree_levels = [
                (np.arange(lo, hi), parents[lo - 1 : hi - 1], letters[lo - 1 : hi - 1])
                for lo, hi in zip(ends[:-1], ends[1:])
            ]
        return self._tree_levels

    def deck_perm(self, v: int) -> np.ndarray:
        """Permutation of vertices given by left multiplication with the
        group element x_v of vertex v.  It sends 0 to v and commutes with
        the right-multiplication edges, so it sends a vertex with tree
        parent (w, i) to targets[perm[w], i]: filled level by level down
        the spanning tree, with no product in the group."""
        perm = np.empty(self.n_vertices, dtype=np.int64)
        perm[0] = v
        for verts, parents, letters in self.tree_levels():
            perm[verts] = self.targets[perm[parents], letters]
        return perm

    def check_deck_perms(self, vertices, perms: np.ndarray):
        """Raise PropertyViolation naming the first vertex v whose row of
        ``perms`` is not the deck transformation taking 0 to v: a vertex
        permutation that sends 0 to v and commutes with the edge map."""
        step = max(1, _BATCH_ENTRIES // self.n_edges)
        for at in range(0, len(vertices), step):
            block = perms[at : at + step]
            ok = (self.targets[block] == block[:, self.targets]).all(axis=(1, 2))
            ok &= block[:, 0] == vertices[at : at + step]
            if not ok.all():
                v = int(vertices[at + int(np.argmin(ok))])
                raise PropertyViolation(
                    f"deck_perm({v}) is not the deck transformation taking 0 to {v}",
                    counterexample=v,
                )

    def deck_translate(self, perm: np.ndarray, vec: dict) -> dict:
        g = self.ngens
        return {int(perm[eid // g]) * g + eid % g: c for eid, c in vec.items()}

    # -- homology ----------------------------------------------------------

    def boundary_rows(self):
        """2-cell boundaries in fundamental-cycle coordinates."""
        if self.alphabet.kind != "surface":
            return []
        if self._boundary_rows is None:
            relator = surface_relator(self.alphabet.rank)
            self._boundary_rows = [
                self.restrict_to_cycles(self.walk_vec(relator, basepoint=v)[1])
                for v in range(self.n_vertices)
            ]
        return self._boundary_rows

    def dim_h1(self, seed: int = 0) -> int:
        if self._dim_h1 is None:
            if self.alphabet.kind == "free":
                self._dim_h1 = self.cycle_rank
            else:
                rk = rank_over_rationals(self.boundary_rows(), self.cycle_rank, seed)
                self._dim_h1 = self.cycle_rank - rk
        return self._dim_h1


def build_cover(quotient: FiniteQuotient, guard_vertices: int = 10 ** 5) -> CoverComplex:
    """Closure BFS from the identity, one level at a time; the discovery
    edges form the spanning tree.  Deterministic: vertices in BFS order,
    vertex-major within a level, generators in index order.

    The rows of a level go through every generator at once, in chunks of
    about ``_BATCH_ENTRIES`` entries a generator.  The rows are held once,
    in one array in vertex order, whose slice for a level is the next
    input.  A head is a new vertex when the digest of its row is not yet a
    key, and every head is checked against the stored row of the vertex
    its digest names.  A collision starts the closure again with the next
    salt, which changes every digest but no vertex number.  After every
    chunk the build stops with TooLarge if the vertices pass
    ``guard_vertices`` or their rows ``ROW_BYTES_GUARD`` bytes; everything
    else it holds is a chunk's temporaries or a few words a vertex.  Then a
    surface quotient is refused with InvalidConfig unless the relator's
    walk from vertex 0, which ends at theta(relator), closes."""
    code = quotient.images[0].row_code(quotient.images)
    salt = 0
    while (cover := _closure(quotient, code, guard_vertices, salt)) is None:
        salt += 1
    alphabet = quotient.alphabet
    if alphabet.kind == "surface" and cover._walk(surface_relator(alphabet.rank), 0, {}):
        raise InvalidConfig("generator images do not kill the surface relator")
    return cover


def _closure(quotient, code, guard_vertices, salt):
    """build_cover with digests salted by ``salt``, or None after a digest
    collision."""
    g = quotient.alphabet.ngens
    width, row_bytes = code.start.size, code.start.nbytes
    cap = min(guard_vertices, ROW_BYTES_GUARD // row_bytes) if row_bytes else guard_vertices
    rows = np.empty((max(cap, 1), width), dtype=code.dtype)
    rows[0] = code.start
    index = {_row_digests(rows[:1], salt)[0]: 0}  # digest -> vertex
    targets, parents = [], []
    lo, hi = 0, 1  # the vertices of the current level
    step = max(1, _BATCH_ENTRIES // max(1, width * g))
    while lo < hi:
        for at in range(lo, hi, step):
            block = rows[at : min(at + step, hi)].astype(np.int64)
            heads = np.stack([code.apply(block, i) for i in range(g)], axis=1)
            heads = heads.astype(code.dtype).reshape(len(block) * g, width)
            known = len(index)
            ids = np.array(
                [index.setdefault(key, len(index)) for key in _row_digests(heads, salt)],
                dtype=np.int64,
            )
            if len(index) > guard_vertices:
                raise TooLarge(f"cover exceeds the vertex guard {guard_vertices}")
            if len(index) * row_bytes > ROW_BYTES_GUARD:
                raise TooLarge(
                    f"cover rows of {row_bytes} bytes pass the byte guard {ROW_BYTES_GUARD} "
                    f"at {len(index)} vertices"
                )
            # new vertices are numbered in order of their first edge
            vals, pos = np.unique(ids, return_index=True)
            pos = pos[vals >= known]
            rows[known : len(index)] = heads[pos]
            if not (rows[ids] == heads).all():
                return None
            parents.append(np.column_stack((at + pos // g, pos % g)))
            targets.append(ids)
        lo, hi = hi, len(index)
    n = len(index)
    targets = np.concatenate(targets).reshape(n, g)
    inv_targets = np.empty_like(targets)
    inv_targets[targets, np.arange(g)] = np.arange(n)[:, None]
    parents = np.concatenate(parents)
    tree = np.zeros(n * g, dtype=bool)
    tree[parents[:, 0] * g + parents[:, 1]] = True
    cotree = np.flatnonzero(~tree)
    nontree_pos = np.full(n * g, cotree.size, dtype=np.int64)
    nontree_pos[cotree] = np.arange(cotree.size)
    return CoverComplex(
        quotient,
        code,
        rows[:n],
        targets,
        inv_targets,
        [None] + list(map(tuple, parents.tolist())),
        list(zip((cotree // g).tolist(), (cotree % g).tolist())),
        nontree_pos,
    )


def _row_digests(rows, salt):
    """A hash of the bytes of each row of a C-contiguous 2-D array,
    preceded by ``salt`` zero bytes."""
    if not rows.shape[1]:
        return [hash(bytes(salt))] * len(rows)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()
    if salt:
        keys = [bytes(salt) + key for key in keys]
    return list(map(hash, keys))


# ---------------------------------------------------------------------------
# exact rank


# the 16 largest primes below 2^31
_RANK_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579,
    2147483563, 2147483549, 2147483543, 2147483497,
    2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249,
)
# entries per numpy update or scan slice of _rank_mod_p, per batch of
# orbit_rows and the deck-map check, and per generator in a chunk of the
# cover build, so temporaries stay small whatever the matrix shape
_BATCH_ENTRIES = 1 << 14
# width of the first window _leads scans; each further window is 4x wider
_LEAD_WINDOW = 256


def _leads(mat, rows, start):
    """First nonzero column at or after ``start`` of each of the given
    rows of mat, or the column count where a row has none.  The rows are
    scanned in windows growing fourfold, since a lead after an update is
    usually near the old one."""
    n = mat.shape[1]
    lead = np.full(rows.size, n, dtype=np.int64)
    todo = np.arange(rows.size)
    lo, width = start, _LEAD_WINDOW
    while todo.size and lo < n:
        w = min(width, n - lo, _BATCH_ENTRIES)
        step = max(1, _BATCH_ENTRIES // w)
        for s in range(0, todo.size, step):
            idx = todo[s : s + step]
            window = mat[rows[idx], lo : lo + w] != 0
            found = window.any(axis=1)
            lead[idx[found]] = lo + window[found].argmax(axis=1)
        todo = todo[lead[todo] == n]
        lo += w
        width *= 4
    return lead


def _entries(rows):
    """The nonzero entries of integer rows (sparse dicts) as three arrays:
    row, column and value.  Values are int64, or Python ints in an object
    array when one does not fit."""
    at = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    cols = np.fromiter((j for row in rows for j in row), dtype=np.int64, count=at.size)
    vals = [c for row in rows for c in row.values()]
    try:
        vals = np.array(vals, dtype=np.int64)
    except OverflowError:
        vals = np.array(vals, dtype=object)
    live = vals != 0
    return at[live], cols[live], vals[live]


def _peel(entries, shape):
    """(k, entries, shape): the singleton phase of structured elimination,
    exact over Q, so that rank = k + rank of the entries left.

    A column with one entry makes its row independent of the others: that
    row counts 1 and is dropped.  A row with one entry, at column j, is a
    multiple of e_j, and as a pivot it clears column j from every row:
    column j counts 1 and is dropped, and with it every row that is a
    multiple of e_j.  The two passes, one bincount each, repeat until
    neither finds anything.  The rows and columns left are renumbered in
    order, so ``shape`` is that of the remainder."""
    at, cols, vals = entries
    k = 0
    while at.size:
        owners = np.zeros(shape[0], dtype=bool)
        owners[at[np.bincount(cols, minlength=shape[1])[cols] == 1]] = True
        keep = ~owners[at]
        at, cols, vals = at[keep], cols[keep], vals[keep]
        pivots = np.zeros(shape[1], dtype=bool)
        pivots[cols[np.bincount(at, minlength=shape[0])[at] == 1]] = True
        found = int(np.count_nonzero(owners)) + int(np.count_nonzero(pivots))
        if not found:
            break
        k += found
        keep = ~pivots[cols]
        at, cols, vals = at[keep], cols[keep], vals[keep]
    live_rows, at = np.unique(at, return_inverse=True)
    live_cols, cols = np.unique(cols, return_inverse=True)
    return k, (at, cols, vals), (live_rows.size, live_cols.size)


def _dense_mod_p(entries, shape, p):
    """Integer entries as a dense matrix of residues mod p.  The rank
    primes are below 2^31, so residues are stored as int32, half the
    memory of int64; updates are computed in int64.  rank(A) = rank(A^T),
    so a matrix with more rows than columns is filled transposed and its
    elimination runs along the short side."""
    at, cols, vals = entries
    if shape[0] > shape[1]:
        at, cols, shape = cols, at, shape[::-1]
    mat = np.zeros(shape, dtype=np.int32)
    mat[at, cols] = vals % p
    return mat


def _rank_mod_p(entries, shape, p):
    """Rank modulo p of the (row, column, value) ``entries`` of a matrix of
    the given shape, by elimination on the dense matrix of
    ``_dense_mod_p``, along its short side.

    Each step visits one pivot column only: the least lead (first nonzero
    column) among the live rows.  The rows leading there are the pivot and
    the rows it clears; they are updated on the pivot's support alone,
    since the pivot row is zero elsewhere, and then their new leads are
    found by a scan from the next column.  Rows whose lead runs off the
    end are zero and drop out."""
    if not entries[0].size:
        return 0
    mat = _dense_mod_p(entries, shape, p)
    n = mat.shape[1]
    lead = _leads(mat, np.arange(mat.shape[0]), 0)
    r = 0
    while True:
        col = int(lead.min(initial=n))
        if col == n:
            return r
        leaders = np.flatnonzero(lead == col)
        lead[leaders[0]] = n  # the pivot row is used up
        r += 1
        hit = leaders[1:]
        if not hit.size:
            continue
        row = mat[leaders[0]]
        supp = col + np.flatnonzero(row[col:])
        pivot = row[supp].astype(np.int64) * pow(int(row[col]), -1, p) % p
        step = max(1, _BATCH_ENTRIES // supp.size)
        for s in range(0, hit.size, step):
            idx = (hit[s : s + step, None], supp)
            block = mat[idx].astype(np.int64)
            block -= block[:, :1] * pivot
            block %= p
            mat[idx] = block
        lead[hit] = _leads(mat, hit, col + 1)


def _rank_exact(rows, ncols):
    mat = [
        [Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows
    ]
    r = 0
    for col in range(ncols):
        if r == len(mat):
            break
        piv = next((t for t in range(r, len(mat)) if mat[t][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for t in range(r + 1, len(mat)):
            f = mat[t][col]
            if f:
                mat[t] = [a - f * b for a, b in zip(mat[t], mat[r])]
        r += 1
    return r


def rank_over_rationals(rows, ncols, seed: int = 0) -> int:
    """Rank of integer rows (sparse dicts) over Q, as k + r.  k pivots are
    peeled from singleton rows and columns by ``_peel``, exactly over Q.
    r is the rank of the remainder modulo two independent random 31-bit
    primes; a mod-p rank is only a lower bound on the rank over Q, and the
    two must agree.  Otherwise exact Fraction elimination of the remainder
    gives r."""
    rng = random.Random(seed)
    p1, p2 = rng.sample(_RANK_PRIMES, 2)
    k, entries, shape = _peel(_entries(rows), (len(rows), ncols))
    if not entries[0].size:
        return k
    r = _rank_mod_p(entries, shape, p1)
    if r == _rank_mod_p(entries, shape, p2):
        return k + r
    rest = [{} for _ in range(shape[0])]
    for i, j, c in zip(*(x.tolist() for x in entries)):
        rest[i][j] = c
    return k + _rank_exact(rest, shape[1])


# ---------------------------------------------------------------------------
# structure checks


def gaschutz_check(cover: CoverComplex, seed: int = 0) -> dict:
    """dim H_1 = 1 + (n-1)|Q| for free covers, 2 + (2g-2)|Q| for surface
    covers; plus multiplicativity of the Euler characteristic."""
    V = cover.n_vertices
    alphabet = cover.alphabet
    dim = cover.dim_h1(seed)
    if alphabet.kind == "free":
        expect = 1 + (alphabet.rank - 1) * V
        chi_base = 1 - alphabet.rank
    else:
        expect = 2 + (2 * alphabet.rank - 2) * V
        chi_base = 2 - 2 * alphabet.rank
    if dim != expect:
        raise PropertyViolation(
            f"dim H1 = {dim} but the module formula gives {expect} at |Q| = {V}"
        )
    if cover.euler_characteristic() != V * chi_base:
        raise PropertyViolation(
            f"Euler characteristic {cover.euler_characteristic()} != {V} * {chi_base}"
        )
    return {
        "group_order": V,
        "dim_h1": dim,
        "edges": cover.n_edges,
        "faces": cover.n_faces,
    }


def elevation_class(cover: CoverComplex, word: GroupWord, basepoint: int = 0, starts=None):
    """(m, edge vector) with m the order of theta(word) and the vector the
    lift of word^m starting at the basepoint.  Both come from one walk on
    the Cayley graph: the lift of word from vertex x ends at
    x * theta(word), so word is walked again until the lift first returns
    to the basepoint, after m rounds.  The vertices where the rounds start,
    basepoint * theta(word)^j for j < m, are appended to the list
    ``starts`` when one is given."""
    vec, rounds = {}, [basepoint]
    v = cover._walk(word, basepoint, vec)
    while v != basepoint:
        if len(rounds) >= cover.n_vertices:
            raise TooLarge(f"element order exceeds guard {cover.n_vertices}")
        rounds.append(v)
        v = cover._walk(word, v, vec)
    if starts is not None:
        starts.extend(rounds)
    return len(rounds), {e: c for e, c in vec.items() if c}


def d_primitive_predicate(d: int):
    return lambda word: any(v % d for v in word.exponent_vector())


def count_d_primitive_words(alphabet: Alphabet, max_len: int, d: int) -> int:
    """The number of freely reduced words of length <= max_len that are
    d-primitive, without listing them: a dynamic program over (last
    letter, exponent vector mod d), one layer per length."""
    n = alphabet.ngens
    steps = [(letter, i, 1 if letter > 0 else d - 1)
             for i in range(n) for letter in (i + 1, -i - 1)]
    layer = {(0, (0,) * n): 1}  # the empty word, with no last letter
    total = 0
    for _ in range(max_len):
        nxt = {}
        for (last, vec), count in layer.items():
            for letter, i, step in steps:
                if letter == -last:
                    continue
                grown = vec[:i] + ((vec[i] + step) % d,) + vec[i + 1:]
                key = (letter, grown)
                nxt[key] = nxt.get(key, 0) + count
        layer = nxt
        total += sum(count for (_, vec), count in layer.items() if any(vec))
    return total


def nonkernel_predicate(theta: FiniteQuotient, guard_vertices: int = 10 ** 5):
    """The words off the kernel of theta: their walk on theta's cover,
    built once here under ``guard_vertices``, does not return to 0."""
    cover = build_cover(theta, guard_vertices)
    return lambda word: cover._walk(word, 0, {}) != 0


def _stack_walks(walks):
    """Integer edge vectors (sparse dicts) as two (len(walks), width)
    arrays of edge ids and coefficients, one walk per row, padded with
    edge 0 and coefficient 0."""
    width = max((len(vec) for vec in walks), default=0)
    eids = np.zeros((len(walks), width), dtype=np.int64)
    coeffs = np.zeros((len(walks), width), dtype=np.int64)
    for n, vec in enumerate(walks):
        eids[n, : len(vec)] = list(vec)
        coeffs[n, : len(vec)] = list(vec.values())
    return eids, coeffs


def orbit_rows(cover: CoverComplex, predicate, max_len: int, basepoints=None):
    """The nonzero rows, in fundamental-cycle coordinates, of the
    elevation classes of every freely reduced word of length <= max_len
    passing the predicate, based at every given vertex (all of them when
    None).  Rows are distinct up to sign, each with a positive first
    entry: a row and its negative span the same line.

    One word of each inverse pair is walked, once, at vertex 0: a word is
    skipped when its inverse has passed and been walked, since at any
    basepoint the lift of w^-m is the loop of w^m walked backwards, whose
    row is the negative of w's.  The elevation at b is the deck translate
    of the walk by deck_perm(b), which maps edge (v, i) to (perm[v], i).
    That holds exactly when the permutation commutes with the edge map and
    sends 0 to b, which is checked for every b before its permutation is
    used.

    The loop at b passes through b * theta(w)^j = perm[v_j], v_j the
    vertices where the rounds of the walk at 0 start, and it is the loop
    at each of them.  So w is translated to b only when no basepoint
    listed before b lies in that coset b<theta(w)>; the rows left are
    deduplicated on their bytes, for the other coincidences."""
    if basepoints is None:
        basepoints = range(cover.n_vertices)
    basepoints = np.fromiter(basepoints, dtype=np.int64)
    walks, starts, walked = [], [], set()
    for word in reduced_words(cover.alphabet, max_len):
        if word.inverse().letters not in walked and predicate(word):
            walked.add(word.letters)
            start = []
            _, vec = elevation_class(cover, word, 0, start)
            if vec:
                walks.append(vec)
                starts.append(start)
    if not walks or not basepoints.size:
        return []
    g, tree = cover.ngens, len(cover.nontree)
    eids, coeffs = _stack_walks(walks)
    width = eids.shape[1]
    pad = coeffs == 0
    verts, letters = eids // g, eids % g
    # the round starts of each walk, padded with vertex 0, whose translate
    # is the basepoint itself
    rounds = np.zeros((len(starts), max(map(len, starts))), dtype=np.int64)
    for t, start in enumerate(starts):
        rounds[t, : len(start)] = start
    # the position of each vertex's first listing among the basepoints, or
    # past the end
    first = np.full(cover.n_vertices, basepoints.size, dtype=np.int64)
    np.minimum.at(first, basepoints, np.arange(basepoints.size))
    rows, seen = [], set()
    chunk = max(1, _BATCH_ENTRIES // max(cover.n_vertices, rounds.size))
    step = max(1, _BATCH_ENTRIES // width)
    for at in range(0, basepoints.size, chunk):
        bases = basepoints[at : at + chunk]
        perms = np.array([cover.deck_perm(int(b)) for b in bases], dtype=np.int64)
        cover.check_deck_perms(bases, perms)
        # (basepoint, walk) pairs whose coset has no basepoint listed earlier
        cosets = first[perms[:, rounds]].min(axis=2)
        kept = np.nonzero(cosets == np.arange(at, at + bases.size)[:, None])
        for lo in range(0, kept[0].size, step):
            b, t = (x[lo : lo + step] for x in kept)
            # one row per pair: (position, coefficient) pairs sorted by the
            # cycle position of the translated edge; tree edges and padding
            # sort last and are cut off at the row's size.  Each row is
            # signed so that its first coefficient is positive.
            pos = cover.nontree_pos[perms[b[:, None], verts[t]] * g + letters[t]]
            pos[pad[t]] = tree
            order = np.argsort(pos, axis=1, kind="stable")
            pos = np.take_along_axis(pos, order, axis=1)
            vals = np.take_along_axis(coeffs[t], order, axis=1)
            vals *= np.sign(vals[:, :1])
            grid = np.stack((pos, vals), axis=2).reshape(-1, 2 * width)
            sizes = np.count_nonzero(pos != tree, axis=1).tolist()
            raw, stride = grid.tobytes(), grid.strides[0]
            for n, k in enumerate(sizes):
                key = raw[n * stride : n * stride + 2 * k * grid.itemsize]
                if k and key not in seen:
                    seen.add(key)
                    pairs = grid[n, : 2 * k].tolist()
                    rows.append(dict(zip(pairs[::2], pairs[1::2])))
    # shortest rows first: sparse early pivots keep the fill-in of the
    # rank elimination down
    rows.sort(key=len)
    return rows


def orbit_span_rank(
    cover: CoverComplex,
    predicate,
    max_len: int,
    basepoints=None,
    seed: int = 0,
):
    """Rank of the span of the elevation classes of every freely reduced
    word of length <= max_len passing the predicate, over all basepoints
    (pass an explicit iterable of vertices to subsample large covers).
    Surface case: rank in H_1, i.e. modulo the 2-cell boundaries."""
    rows = orbit_rows(cover, predicate, max_len, basepoints)
    dim = cover.dim_h1(seed)
    boundaries = cover.boundary_rows()
    if boundaries:
        total = rank_over_rationals(boundaries + rows, cover.cycle_rank, seed)
        # dim_h1 already ranked the boundaries: their rank is cycle_rank - dim
        rank = total - (cover.cycle_rank - dim)
    else:
        rank = rank_over_rationals(rows, cover.cycle_rank, seed)
    return rank, dim


# ---------------------------------------------------------------------------
# cyclotomic arithmetic (power basis of Z[omega] mod Phi_d)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int):
    """Coefficients (low to high, monic) of the d-th cyclotomic polynomial."""
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(e))
    return tuple(poly)


def _poly_div_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[shift] = q
        if q:
            for i, dc in enumerate(den):
                num[shift + i] -= q * dc
    assert not any(num)
    return out


@lru_cache(maxsize=None)
def omega_powers(d: int):
    """Power-basis representations of omega^t, t in 0..d-1."""
    phi = cyclotomic_polynomial(d)
    deg = len(phi) - 1
    reps = []
    rep = [0] * deg
    rep[0] = 1
    for _ in range(d):
        reps.append(tuple(rep))
        rep = [0] + rep
        lead = rep.pop()
        if lead:
            for i in range(deg):
                rep[i] -= lead * phi[i]
    return tuple(reps)


# ---------------------------------------------------------------------------
# isotypic projection


class IsotypicProjector:
    """The operator P = sum_c omega^(-psi(c)) deck(c) over a central slice
    C of a free cover (the 1/|C| normalisation is irrelevant for kernel
    and image questions and is kept out to stay in Z[omega]).  It is
    given as tables: the vertices of C, psi of each mod d, and d; for a
    witness cover :func:`central_slice` reads them off the algebra.

    C acts freely on the vertices by left multiplication, so every vertex
    is u = c_u r_O, with c_u in C and r_O the least vertex of u's C-orbit
    O, and deck(c) moves edge (y, i) to (c y, i).  Hence

        (Pv)(u, i) = omega^(-psi(c_u)) S(O, i),
        S(O, i) = sum over y in O of omega^(psi(c_y)) v(y, i),

    one sum per orbit and letter instead of a |C|-fold scatter.  Both
    facts it rests on are certified at construction, each raising
    PropertyViolation: psi(c c') = psi(c) + psi(c') mod d on C (so C is
    closed and each psi value lies in 0..d-1), and the C-orbits partition
    the vertices with |C| points each.  Pv is zero exactly when every
    S(O, i) is, since omega^(-psi) is a unit.

    Vectors are sparse dicts edge id -> coefficient: an int for
    ``apply_int``, a power-basis tuple for ``apply_cyc``.  Each S(O, i) is
    summed in int64 as d slots, the coefficients of omega^0..omega^(d-1):
    every input coefficient lands in one slot, and the factor
    omega^(-psi(c_u)) only permutes the slots.  A value is reduced to the
    power basis last, as sum_t slot_t * omega^t.  So every slot and every
    partial sum is bounded by the absolute input coefficients of one orbit
    added up, at most |C| * deg * max|input|, and every reduced entry by
    that times max|omega rep|, which is ``_entry_bound`` * max|input|.
    A bound of 2^63 or more raises TooLarge; below it every result is
    exact."""

    def __init__(self, cover: CoverComplex, central, psi, d: int):
        if cover.alphabet.kind != "free":
            # is_zero_in_h1 reads a cycle as zero in H_1 only when it is the
            # zero vector, which is sound only without 2-cells
            raise InvalidConfig("the isotypic projector needs the cover of a free group")
        if not central or len(psi) != len(central):
            raise InvalidConfig(
                f"need one psi value per central vertex, got {len(psi)} for {len(central)}"
            )
        self.cover = cover
        self.d = d
        self.central_vertices = list(central)
        # (|C|, V): vertex permutation of each central deck element, checked
        # to be the deck map it stands for; only the orbit tables are kept
        perms = np.array([cover.deck_perm(v) for v in central], dtype=np.int64)
        cover.check_deck_perms(central, perms)
        psi = np.array(psi, dtype=np.int64)
        self._check_additive(perms, psi)
        # orbit and phase psi(c_u) of each vertex u; members[O, n] = c_n r_O
        self.orbit, self.phase, self.members = _central_orbits(perms, psi)
        powers = omega_powers(d)
        self.deg = len(powers[0])
        # (d, deg): row t is omega^t in the power basis
        self.basis = np.array(powers, dtype=np.int64)
        self._entry_bound = (
            len(central) * self.deg * max(abs(x) for rep in powers for x in rep)
        )

    def _check_additive(self, perms, psi):
        """Raise PropertyViolation naming central vertices a, b whose
        product is not central or has psi(ab) != psi(a) + psi(b) mod d.
        perms[:, central] is the multiplication table of C."""
        central = self.central_vertices
        at = np.full(self.cover.n_vertices, -1, dtype=np.int64)
        at[central] = np.arange(len(central))
        step = max(1, _BATCH_ENTRIES // len(central))
        for lo in range(0, len(central), step):
            prod = at[perms[lo : lo + step, central]]
            ok = (prod >= 0) & (psi[prod] == (psi[lo : lo + step, None] + psi) % self.d)
            if not ok.all():
                i, j = np.argwhere(~ok)[0]
                a, b = central[lo + int(i)], central[int(j)]
                raise PropertyViolation(
                    f"psi is not additive on the central slice at vertices {a} and {b}",
                    counterexample=(a, b),
                )

    @property
    def central_order(self):
        return len(self.central_vertices)

    def apply_int(self, vec: dict) -> dict:
        """Apply to an integer edge vector; entries land in Z[omega]."""
        return self._apply(vec, [(c,) for c in vec.values()])

    def apply_cyc(self, vec: dict) -> dict:
        """Apply to a Z[omega]-valued edge vector."""
        return self._apply(vec, list(vec.values()))

    def _guard(self, peak):
        if self._entry_bound * peak >= 2 ** 63:
            raise TooLarge(
                f"projector entries may reach {self._entry_bound * peak}, beyond int64"
            )

    def _apply(self, vec: dict, coeffs: list) -> dict:
        """S(O, i) for every orbit and letter the entries of vec touch,
        expanded over the orbit's members; coeffs[n] holds the leading
        power-basis coefficients of the n-th entry of vec."""
        if not vec:
            return {}
        self._guard(max(abs(x) for row in coeffs for x in row))
        vals = np.array(coeffs, dtype=np.int64)
        eids = np.fromiter(vec, dtype=np.int64, count=len(vec))
        g, d = self.cover.ngens, self.d
        verts = eids // g
        # entry n holds vals[n, j] * omega^j, which goes to slot phase + j of
        # the sum of its (orbit, letter) key
        keys, at = np.unique(self.orbit[verts] * g + eids % g, return_inverse=True)
        slots = (self.phase[verts, None] + np.arange(vals.shape[1])) % d
        sums = np.zeros((keys.size, d), dtype=np.int64)
        np.add.at(sums, (at[:, None], slots), vals)
        # omega^(-p) sum_t s_t omega^t = sum_t s_(t+p) omega^t, so images[k, p]
        # is omega^(-p) S(k) in the power basis
        images = sums[:, (np.arange(d)[:, None] + np.arange(d)) % d] @ self.basis
        live = images[:, 0].any(axis=1)
        keys, images = keys[live], images[live]
        members = self.members[keys // g]
        eout = (members * g + (keys % g)[:, None]).ravel()
        vout = images[np.arange(keys.size)[:, None], self.phase[members]].reshape(-1, self.deg)
        order = np.argsort(eout)
        return dict(zip(eout[order].tolist(), map(tuple, vout[order].tolist())))

    def is_zero_in_h1(self, cyc_vec: dict) -> bool:
        """Zero test for a Z[omega]-valued cycle: a free cover has no
        2-cells, so H_1 is its cycle space."""
        return not cyc_vec


def _central_orbits(perms, psi):
    """(orbit, phase, members) of the action on the vertices of the
    central slice C, given by its deck permutations ``perms`` (|C|, V)
    and its psi values.  Row O of ``members`` is c r_O for each c in C,
    r_O the least vertex of orbit O; a vertex u = c_u r_O has orbit[u] =
    O and phase[u] = psi(c_u).  Raises PropertyViolation unless the orbits
    partition the vertices with |C| points each: C acts freely."""
    n_vertices = perms.shape[1]
    reps = np.flatnonzero(perms.min(axis=0) == np.arange(n_vertices))
    members = perms[:, reps].T
    hits = np.bincount(members.ravel(), minlength=n_vertices)
    if (hits != 1).any():
        u = int(np.flatnonzero(hits != 1)[0])
        raise PropertyViolation(
            f"the central slice does not act freely: vertex {u} is in "
            f"{hits[u]} orbit places instead of one",
            counterexample=u,
        )
    orbit = np.empty(n_vertices, dtype=np.int64)
    orbit[members] = np.arange(len(members))[:, None]
    phase = np.empty(n_vertices, dtype=np.int64)
    phase[members] = psi
    return orbit, phase, members


def _tree_words(cover: CoverComplex) -> np.ndarray:
    """(V, depth) array whose row v spells the spanning-tree word of v from
    the root as letter indices, padded at the end with ngens."""
    levels = cover.tree_levels()
    words = np.full((cover.n_vertices, len(levels)), cover.ngens, dtype=np.int64)
    for depth, (verts, parents, letters) in enumerate(levels):
        words[verts] = words[parents]
        words[verts, depth] = letters
    return words


def isotypic_projection_check(
    proj: IsotypicProjector,
    exponent: int,
    max_word_len: int = 6,
    seed: int = 0,
) -> dict:
    """The subspace certificate for one cover, for every word at every
    basepoint.

    Let w be d-primitive and g = theta(w) of order m.  The lift of w^m at
    vertex 0 passes through 1, g, ..., g^(m-1), and deck(g) rotates its m
    pieces, so its class E is fixed by deck(g) and by deck(g^e).  If g^e = c
    lies in C with psi(c) != 0, then P deck(c) = omega^psi(c) P, since the
    projector certified psi additive on C, so (1 - omega^psi(c)) PE = 0 and
    PE = 0.  At basepoint b the class is deck(b) E, fixed by deck(b g b^-1),
    which has the exponent sums of g.  So two sweeps of the Cayley graph
    settle every word:

    (a) alpha, the exponent sums mod d of each vertex's tree word, adds e_i
        along every edge (v, i); then alpha(theta(w)) is the exponent vector
        of w mod d, and the images of the d-primitive words are the
        vertices off ker alpha;
    (b) every vertex g off ker alpha has g^e in C, the C-orbit of vertex 0,
        with phase psi(g^e) != 0, for the given ``exponent`` e.

    The powers are taken by square-and-multiply on all those vertices at
    once, a product x y being the tree word of y walked from x.  Last, (c)
    the projector is nonzero on H_1, witnessed by a fundamental cycle.
    Together these certify that the d-primitive classes span a proper
    subspace of H_1 of the cover.  ``max_word_len`` only sets the reported
    count of d-primitive words of that length or less.
    """
    cover, d, g = proj.cover, proj.d, proj.cover.ngens
    words = _tree_words(cover)
    alpha = np.stack([np.count_nonzero(words == i, axis=1) % d for i in range(g)], axis=1)
    # (V, g, g): the exponent sums at the head of edge (v, i), less e_i
    off = (alpha[cover.targets] - np.eye(g, dtype=np.int64)) % d != alpha[:, None]
    if off.any():
        v, i = (int(x) for x in np.argwhere(off.any(axis=2))[0])
        raise PropertyViolation(
            f"edge ({v}, {i}) does not add e_{i + 1} to the exponent sums mod {d}",
            counterexample=(v, i),
        )
    # the padding letter ngens stays put
    steps = np.column_stack((cover.targets, np.arange(cover.n_vertices)))

    def product(x, y):
        for letters in words[y].T:
            x = steps[x, letters]
        return x

    primitive = np.flatnonzero(alpha.any(axis=1))
    power, base, e = np.zeros_like(primitive), primitive, exponent
    while e:
        if e & 1:
            power = product(power, base)
        e >>= 1
        if e:
            base = product(base, base)
    ok = (proj.orbit[power] == proj.orbit[0]) & (proj.phase[power] != 0)
    if not ok.all():
        v = int(primitive[np.argmin(ok)])
        word = GroupWord(cover.alphabet, tuple(int(x) + 1 for x in words[v] if x < g)).render()
        raise PropertyViolation(
            f"the e-th power of vertex {v} = theta({word}) is not in C off ker psi",
            counterexample=word,
        )
    witness_pos = None
    for pos in range(len(cover.nontree)):
        image = proj.apply_int(cover.fundamental_cycle(pos))
        if not proj.is_zero_in_h1(image):
            witness_pos = pos
            break
    if witness_pos is None:
        raise PropertyViolation(
            "projection vanished on every fundamental cycle; it cannot be "
            "zero on H_1, which contains the regular representation"
        )
    return {
        "group_order": cover.n_vertices,
        "central_order": proj.central_order,
        "dim_h1": cover.dim_h1(seed),
        "words_annihilated": count_d_primitive_words(cover.alphabet, max_word_len, d),
        "elements_certified": int(primitive.size),
        "h1_witness_cycle": witness_pos,
        "modulus": d,
    }


def isotypic_invariants(proj: IsotypicProjector, samples: int = 5, seed: int = 0) -> dict:
    """Idempotence (S^2 = |C| S) and commutation with the deck action on
    random sparse integer vectors."""
    rng = random.Random(seed)
    cover = proj.cover
    order = proj.central_order
    for _ in range(samples):
        vec = {
            rng.randrange(cover.n_edges): rng.randrange(1, 5)
            for _ in range(rng.randrange(1, 6))
        }
        once = proj.apply_int(vec)
        twice = proj.apply_cyc(once)
        scaled = {e: tuple(x * order for x in v) for e, v in once.items()}
        if twice != scaled:
            raise PropertyViolation("projector is not idempotent up to |C|")
        v = rng.randrange(cover.n_vertices)
        perm = cover.deck_perm(v)
        left = proj.apply_int(cover.deck_translate(perm, vec))
        if left != cover.deck_translate(perm, once):
            raise PropertyViolation("projector does not commute with the deck action")
    return {"samples": samples}


# ---------------------------------------------------------------------------
# random quotients for the dimension-formula checks


def random_quotient(alphabet: Alphabet, rng, max_size: int = 200) -> FiniteQuotient:
    """A random finite quotient with |image| <= max_size: permutation
    images for free groups; for surface groups either residue tuples or
    the pair pattern (a, b, b, a, c, c, ...) whose commutators cancel."""
    for _ in range(64):
        if alphabet.kind == "free":
            deg = rng.choice((3, 4, 5))
            images = tuple(
                PermImage(_random_perm(rng, deg)) for _ in range(alphabet.ngens)
            )
        elif rng.randrange(2):
            mod = rng.choice((2, 3, 4, 5, 6, 7))
            images = tuple(
                ResidueImage([rng.randrange(mod)], mod)
                for _ in range(alphabet.ngens)
            )
        else:
            deg = rng.choice((3, 4, 5))
            a, b = _random_perm(rng, deg), _random_perm(rng, deg)
            pairs = [(PermImage(a), PermImage(b)), (PermImage(b), PermImage(a))]
            while len(pairs) < alphabet.rank:
                c = PermImage(_random_perm(rng, deg))
                pairs.append((c, c))
            images = tuple(img for pair in pairs for img in pair)
        quotient = FiniteQuotient(alphabet, images)
        try:
            cover = build_cover(quotient, guard_vertices=max_size + 1)
        except TooLarge:
            continue
        if cover.n_vertices > 1:
            return quotient
    raise TooLarge(f"no random quotient of size <= {max_size} found")


def _random_perm(rng, deg):
    perm = list(range(deg))
    rng.shuffle(perm)
    return tuple(perm)
