"""Exact arithmetic in four truncated algebras over a prime field F_r.

All four algebras share the same skeleton: a graded F_r-algebra with a
finite monomial basis, truncated so that every monomial of total degree
greater than D = r^k is identified with zero.  The kinds are

* ``free``   -- non-commuting variables X1..Xn, no further relations.
* ``sorted`` -- quotient of ``free`` by X_j X_i = 0 for j > i; only words
  with non-decreasing generator indices survive.
* ``m``      -- variables X1, Y1, ..., Xg, Yg; any word containing X_i Y_i
  or Y_i X_i adjacently is zero.  Cross terms of a pair die, so 1 + X_i
  and 1 + Y_i commute in the unit group.
* ``quat``   -- quaternions over F_r[A, B] / (A^(D+1), A^D B, B^2); a
  monomial is A^u B^v times one of the units 1, i, j, k, with u + v <= D
  and v <= 1.

Elements are sparse maps from monomial keys to nonzero coefficients in
[1, r).  Word monomials are byte strings of generator indices (generator i
is the single byte i), quaternion monomials are (u, v, unit) triples.
Within the word kinds a product monomial can only become inadmissible at
the junction of the two factors, which keeps multiplication O(1) per term
pair.  Elements are immutable once built and every operation is pure, so
values can be shared freely.
"""

import functools
import heapq
import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import mul

from .errors import InvalidConfig, NotAUnit, SpecMismatch, TooLarge
from .modular import is_prime

KINDS = ("free", "sorted", "m", "quat")
WORD_KINDS = ("free", "sorted", "m")

QUAT_UNIT_NAMES = ("1", "i", "j", "k")

# Bound on the work of one inverse: term pairs multiplied, each weighted by
# its degree + 1 (about the letters the inverse stores).
INVERSE_GUARD = 10 ** 7

# A word product goes by blocks when its term pairs reach this many per
# pair of (degree, letter) buckets of its factors, and one term pair at a
# time otherwise (see _mul_terms).  Blocks cost a fixed setup per product
# and per bucket pair: they measured slower than the loop below 16 pairs
# a bucket pair, about even from 16 to 64, and faster from 64 on.
BLOCK_PAIRS = 64

# Hamilton table i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j.
# Flat-indexed by 4*l1 + l2 -> (sign, unit).  The table is validated
# end-to-end by the surface-relator check in the witness module.
_QMUL = (
    (1, 0), (1, 1), (1, 2), (1, 3),
    (1, 1), (-1, 0), (1, 3), (-1, 2),
    (1, 2), (-1, 3), (-1, 0), (1, 1),
    (1, 3), (1, 2), (-1, 1), (-1, 0),
)


@dataclass(frozen=True)
class AlgebraSpec:
    """Which truncated algebra: kind, prime r, truncation exponent k, and
    the number of word generators (quat always has the two variables A, B).

    The truncation degree is D = r^k: monomials of higher total degree
    are zero.  The spec is the one place that knows how its kind spells a
    monomial: the key of 1, the degree, the sort order, the JSON form and
    the word adjacency rule.

    ``reads``, a set S of admissible words of degree D (word kinds only,
    kept as a sorted tuple), makes the algebra the quotient A_S of A by
    the degree-D words outside S.  A degree-D word times any monomial of
    positive degree is zero, so any set of them spans a two-sided ideal,
    and the projection A -> A_S (:func:`project`) is a ring map: it keeps
    every coefficient below degree D and the coefficients on S, and
    products in A_S compute only those (:func:`_mul_read_terms`).  None,
    the default, is A itself.  ``repr`` leaves ``reads`` out: the ids of
    parametrized tests print specs of A, and S can be long.
    """

    kind: str
    r: int
    k: int
    ngens: int
    reads: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidConfig(f"unknown algebra kind {self.kind!r}")
        if not is_prime(self.r):
            raise InvalidConfig(f"r must be prime, got {self.r}")
        if self.r == 2 and self.kind in ("m", "quat"):
            raise InvalidConfig("r = 2 is only supported by the free/sorted kinds")
        if self.k < 1:
            raise InvalidConfig(f"k must be >= 1, got {self.k}")
        if self.kind == "quat":
            if self.ngens != 2:
                raise InvalidConfig("quat kind has exactly the two variables A, B")
        elif self.ngens < 1 or self.ngens > 255:
            raise InvalidConfig(f"generator count out of range: {self.ngens}")
        if self.kind == "m" and (self.ngens % 2 or self.ngens < 2):
            raise InvalidConfig("m kind needs an even symbol count X_i, Y_i")
        if self.reads is not None:
            if self.kind == "quat":
                raise InvalidConfig("the quat kind has no quotient by top-degree words")
            self._set_reads(self.reads)

    def _set_reads(self, words):
        """Check S and keep it as a sorted tuple, with the tables its
        products read beside the fields, where they are neither compared
        nor hashed: ``read_set``, S as a frozenset, and ``read_splits``,
        each word w of S with its D + 1 prefixes and the matching
        suffixes.  The coefficient of w in a * b is the sum over the
        splits w = p q of a[p] b[q], and every split of an admissible word
        is admissible."""
        full, words = replace(self, reads=None), list(words)
        for word in words:
            if not (isinstance(word, bytes) and len(word) == self.cap and monomial_ok(full, word)):
                raise InvalidConfig(
                    f"read monomial {word!r} is not an admissible word of degree {self.cap}"
                )
        reads, ends = tuple(sorted(set(words))), range(self.cap + 1)
        put = object.__setattr__
        put(self, "reads", reads)
        put(self, "read_set", frozenset(reads))
        put(self, "read_splits", tuple(
            (w, tuple(w[:i] for i in ends), tuple(w[i:] for i in ends)) for w in reads
        ))
        put(self, "_full", full)

    @property
    def cap(self) -> int:
        """Truncation degree D = r^k."""
        return self.r ** self.k

    @property
    def full(self):
        """The algebra A this spec is a quotient of: itself when ``reads``
        is None."""
        return self if self.reads is None else self._full

    # -- the per-kind monomial format ----------------------------------

    @property
    def one_mono(self):
        """The monomial key of 1."""
        return (0, 0, 0) if self.kind == "quat" else b""

    @property
    def degree(self):
        """Total degree of a monomial key, as a function: the builtin
        ``len`` for the word kinds, so degree loops stay at C speed."""
        return (lambda m: m[0] + m[1]) if self.kind == "quat" else len

    @property
    def order_key(self):
        """Graded-lex sort key of a monomial key, as a function."""
        if self.kind == "quat":
            return lambda m: (m[0] + m[1], m[1], m[2])
        return lambda m: (len(m), m)

    def mono_key(self, mono):
        """Monomial key from its JSON list form."""
        return tuple(mono) if self.kind == "quat" else bytes(mono)

    def adjacent_ok(self, a: int, b: int) -> bool:
        """Whether generator b may directly follow generator a in a word."""
        if self.kind == "sorted":
            return a <= b
        if self.kind == "m":
            return a ^ 1 != b  # the partner of index t is t ^ 1
        return True

    def gen_name(self, i: int) -> str:
        if self.kind == "quat":
            return "AB"[i]
        if self.kind == "m":
            return ("X" if i % 2 == 0 else "Y") + str(i // 2 + 1)
        return f"X{i + 1}"


def free_spec(r: int, k: int, n: int) -> AlgebraSpec:
    return AlgebraSpec("free", r, k, n)


def sorted_spec(r: int, k: int, n: int) -> AlgebraSpec:
    return AlgebraSpec("sorted", r, k, n)


def m_spec(r: int, k: int, genus: int) -> AlgebraSpec:
    if genus < 1:
        raise InvalidConfig(f"genus must be >= 1, got {genus}")
    return AlgebraSpec("m", r, k, 2 * genus)


def quat_spec(r: int, k: int) -> AlgebraSpec:
    return AlgebraSpec("quat", r, k, 2)


def monomial_ok(spec: AlgebraSpec, mono) -> bool:
    """Admissibility of a single monomial under the spec's relations; in a
    quotient A_S a word of degree D must lie in S."""
    cap = spec.cap
    if spec.kind == "quat":
        u, v, unit = mono
        return 0 <= v <= 1 and 0 <= u and u + v <= cap and 0 <= unit <= 3
    if not isinstance(mono, bytes) or len(mono) > cap:
        return False
    if any(c >= spec.ngens for c in mono):
        return False
    if not all(spec.adjacent_ok(a, b) for a, b in zip(mono, mono[1:])):
        return False
    return spec.reads is None or len(mono) < cap or mono in spec.read_set


def count_basis_monomials(spec: AlgebraSpec) -> int:
    """Number of admissible monomials (the F_r-dimension of the algebra)."""
    cap, n = spec.cap, spec.ngens
    if spec.kind == "quat":
        return 4 * (2 * (cap + 1) - 1)
    if spec.kind == "free":
        return sum(n ** length for length in range(cap + 1))
    if spec.kind == "sorted":
        return sum(math.comb(n + length - 1, length) for length in range(cap + 1))
    # m kind: first symbol free, then anything but the previous partner
    return 1 + sum(n * (n - 1) ** (length - 1) for length in range(1, cap + 1))


@functools.lru_cache(maxsize=8)
def _times_table(r):
    """times[a][b] = a * b mod r, for a, b in [0, r)."""
    return tuple(tuple(a * b % r for b in range(r)) for a in range(r))


def _mul_word_loop(spec, top, aterms, bterms):
    """Sparse word-algebra product, one term pair at a time.  Both inputs
    hold admissible monomials, so a product monomial can only fail at the
    junction; over-degree pairs are skipped by bucketing the right factor
    by degree."""
    kind, r = spec.kind, spec.r
    bydeg = {}
    for mb, cb in bterms.items():
        bydeg.setdefault(len(mb), []).append((mb, cb))
    bdegs = sorted(bydeg)
    out = {}
    get = out.get
    for ma, ca in aterms.items():
        la = len(ma)
        lim = top - la
        if kind == "free" or not la:
            for db in bdegs:
                if db > lim:
                    break
                for mb, cb in bydeg[db]:
                    key = ma + mb
                    out[key] = get(key, 0) + ca * cb
        elif kind == "sorted":
            tail = ma[-1]
            for db in bdegs:
                if db > lim:
                    break
                for mb, cb in bydeg[db]:
                    if db and mb[0] < tail:
                        continue
                    key = ma + mb
                    out[key] = get(key, 0) + ca * cb
        else:  # m kind: the partner of index t is t ^ 1
            bad = ma[-1] ^ 1
            for db in bdegs:
                if db > lim:
                    break
                for mb, cb in bydeg[db]:
                    if db and mb[0] == bad:
                        continue
                    key = ma + mb
                    out[key] = get(key, 0) + ca * cb
    reduced = {}
    for mono, c in out.items():
        c %= r
        if c:
            reduced[mono] = c
    return reduced


def _word_buckets(spec, terms, last):
    """Word terms grouped by degree and their last (``last``) or first
    letter, as a bytes slice: {(degree, slice): (monomials,
    coefficients)}.  The slice is empty for the empty word and for every
    word of the free kind, whose junctions are all admissible."""
    split = spec.kind != "free"
    out = {}
    for mono, c in terms.items():
        key = (len(mono), (mono[-1:] if last else mono[:1]) if split else b"")
        group = out.get(key)
        if group is None:
            out[key] = ([mono], [c])
        else:
            group[0].append(mono)
            group[1].append(c)
    return out


def _mul_word_blocks(spec, top, left, right):
    """Word-algebra product of the left factor bucketed by (degree, last
    letter) and the right factor by (degree, first letter).

    Within one left degree d every product monomial splits one way only,
    as its first d letters times the rest, and no product of coefficients
    in [1, r) vanishes mod the prime r.  So each admissible bucket pair is
    written whole into that degree's part, and only the parts of different
    left degrees are added, mod r, dropping zeros."""
    r, adjacent_ok = spec.r, spec.adjacent_ok
    times = _times_table(r)
    parts = {}
    for (la, last), (amonos, acoeffs) in left.items():
        part = parts.setdefault(la, {})
        for (lb, first), (bmonos, bcoeffs) in right.items():
            if la + lb > top or (last and first and not adjacent_ok(last[0], first[0])):
                continue
            part.update(zip(
                [x + y for x in amonos for y in bmonos],
                [row[cb] for ca in acoeffs for row in (times[ca],) for cb in bcoeffs],
            ))
    out, *rest = sorted(parts.values(), key=len, reverse=True)
    for part in rest:
        get = out.get
        for mono, c in part.items():
            s = (get(mono, 0) + c) % r
            if s:
                out[mono] = s
            else:
                del out[mono]
    return out


def _mul_quat_terms(r, top, aterms, bterms):
    bydeg = {}
    for mb, cb in bterms.items():
        bydeg.setdefault(mb[0] + mb[1], []).append((mb, cb))
    bdegs = sorted(bydeg)
    out = {}
    get = out.get
    qmul = _QMUL
    for (u1, v1, l1), ca in aterms.items():
        lim = top - u1 - v1
        base = 4 * l1
        for db in bdegs:
            if db > lim:
                break
            for (u2, v2, l2), cb in bydeg[db]:
                v = v1 + v2
                if v > 1:
                    continue
                sign, unit = qmul[base + l2]
                key = (u1 + u2, v, unit)
                out[key] = get(key, 0) + sign * ca * cb
    reduced = {}
    for mono, c in out.items():
        c %= r
        if c:
            reduced[mono] = c
    return reduced


def _bucket_count(spec, terms, last):
    """The number of buckets :func:`_word_buckets` makes of ``terms``,
    counted without building them."""
    if spec.kind == "free":
        return len(set(map(len, terms)))
    return len({(len(mono), mono[-1:] if last else mono[:1]) for mono in terms})


def _drop_unread(spec, terms):
    """``terms`` without the degree-D words outside ``spec.reads``."""
    cap, reads = spec.cap, spec.read_set
    return {m: c for m, c in terms.items() if len(m) < cap or m in reads}


def _mul_terms(spec, aterms, bterms, top=None):
    """Product of two term maps with coefficients in [1, r), by the spec's
    kernel, keeping the degrees <= ``top`` (default the truncation degree
    D).  The result's coefficients are reduced mod r, zeros dropped.

    Word products with at least ``BLOCK_PAIRS`` term pairs per pair of
    buckets go by :func:`_mul_word_blocks`; the buckets are counted first
    and built only for that path.  Every other product, the quaternion
    ones included, goes one term pair at a time.  Products to degree D
    in a quotient A_S go by :func:`_mul_read_terms`."""
    top = spec.cap if top is None else top
    if spec.kind == "quat":
        return _mul_quat_terms(spec.r, top, aterms, bterms)
    if spec.reads is not None and top == spec.cap:
        return _mul_read_terms(spec, aterms, bterms)
    pairs = len(aterms) * len(bterms)
    if pairs >= BLOCK_PAIRS:
        buckets = _bucket_count(spec, aterms, True) * _bucket_count(spec, bterms, False)
        if pairs >= BLOCK_PAIRS * buckets:
            left, right = _word_buckets(spec, aterms, True), _word_buckets(spec, bterms, False)
            return _mul_word_blocks(spec, top, left, right)
    return _mul_word_loop(spec, top, aterms, bterms)


def _mul_read_terms(spec, aterms, bterms):
    """Product in the quotient A_S = ``spec``, to degree D.  At degree D
    it computes each word w of S as the sum of a[p] b[q] over its D + 1
    splits w = p q, and below D it computes as in A, skipping that pass
    when the factors' least degrees sum to D.  A product with fewer term
    pairs than S has splits is instead taken whole in A and its degree-D
    words outside S dropped.  Each path is the faster one on the products
    the witness sweeps send it (README, "Performance notes")."""
    cap = spec.cap
    if len(aterms) * len(bterms) < len(spec.reads) * (cap + 1):
        return _drop_unread(spec, _mul_terms(spec.full, aterms, bterms))
    low = min(map(len, aterms), default=cap) + min(map(len, bterms), default=cap)
    out = _mul_terms(spec, aterms, bterms, cap - 1) if low < cap else {}
    r, aget, bget = spec.r, aterms.get, bterms.get
    for word, heads, tails in spec.read_splits:
        c = sum(map(mul, map(aget, heads, repeat(0)), map(bget, tails, repeat(0)))) % r
        if c:
            out[word] = c
    return out


class AlgElement:
    """A sparse element of a truncated algebra.

    ``terms`` maps monomial keys to coefficients in [1, r).  Build
    elements with :func:`one`, :func:`symbol` or ``AlgElement(spec,
    terms)``; arithmetic goes through the overloaded operators.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: AlgebraSpec, terms: dict):
        reduced = {}
        for mono, coeff in terms.items():
            if isinstance(mono, tuple):
                mono = spec.mono_key(mono)
            if not monomial_ok(spec, mono):
                raise InvalidConfig(f"monomial {mono!r} not admissible for {spec}")
            c = coeff % spec.r
            if c:
                reduced[mono] = (reduced.get(mono, 0) + c) % spec.r
        self.spec = spec
        self.terms = {m: c for m, c in reduced.items() if c}

    @classmethod
    def _raw(cls, spec, terms):
        elem = cls.__new__(cls)
        elem.spec = spec
        elem.terms = terms
        return elem

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, spec):
        return cls._raw(spec, {})

    @classmethod
    def one(cls, spec):
        return cls._raw(spec, {spec.one_mono: 1})

    @classmethod
    def symbol(cls, spec, i):
        """The degree-1 generator X_i (word kinds) or A/B (quat, unit 1)."""
        if spec.kind == "quat":
            if i not in (0, 1):
                raise InvalidConfig("quat symbols are A (0) and B (1)")
            mono = (1 - i, i, 0)
        else:
            if not 0 <= i < spec.ngens:
                raise InvalidConfig(f"generator index {i} out of range")
            mono = bytes([i])
        return cls._raw(spec, {mono: 1})

    # -- ring structure ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgElement):
            if other.spec != self.spec:
                raise SpecMismatch(f"{other.spec} != {self.spec}")
            return other
        if isinstance(other, int):
            c = other % self.spec.r
            if not c:
                return AlgElement.zero(self.spec)
            return AlgElement._raw(self.spec, {self.spec.one_mono: c})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        r = self.spec.r
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = (out.get(mono, 0) + c) % r
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return AlgElement._raw(self.spec, out)

    __radd__ = __add__

    def __neg__(self):
        r = self.spec.r
        return AlgElement._raw(self.spec, {m: r - c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.spec.r
            if not c:
                return AlgElement.zero(self.spec)
            return AlgElement._raw(self.spec, {m: (v * c) % self.spec.r for m, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return AlgElement._raw(self.spec, _mul_terms(self.spec, self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, e):
        return power(self, e)

    def __eq__(self, other):
        return (
            isinstance(other, AlgElement)
            and self.spec == other.spec
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    # -- structure maps ----------------------------------------------

    def augmentation(self) -> int:
        """Constant term."""
        return self.terms.get(self.spec.one_mono, 0)

    def linear_coeffs(self):
        """Degree-1 coefficient vector in fixed generator order.

        Word kinds: coefficients of X_0..X_(n-1).  Quat kind: coefficients
        of (A, Ai, Aj, Ak, B, Bi, Bj, Bk).
        """
        t = self.terms
        if self.spec.kind == "quat":
            return tuple(t.get((1, 0, l), 0) for l in range(4)) + tuple(
                t.get((0, 1, l), 0) for l in range(4)
            )
        return tuple(t.get(bytes([i]), 0) for i in range(self.spec.ngens))

    def graded_part(self, degree: int):
        """The homogeneous component of the given total degree."""
        deg = self.spec.degree
        sel = {m: c for m, c in self.terms.items() if deg(m) == degree}
        return AlgElement._raw(self.spec, sel)

    def min_degree(self):
        """Minimal degree with a nonzero term, or None for the zero element."""
        if not self.terms:
            return None
        return min(map(self.spec.degree, self.terms))

    def is_unit_element(self) -> bool:
        """In the group 1 + (positive degree): the degree-0 part is exactly 1.

        For the quat kind this is stronger than augmentation() == 1, since
        pure quaternion units i, j, k also live in degree 0.
        """
        return self.graded_part(0) == AlgElement.one(self.spec)

    def inverse_unit(self):
        """Two-sided inverse of an element of 1 + (positive degree).

        Solved degree by degree: with a = 1 + u, the inverse b satisfies
        b_d = -sum_{e=1..d} u_e b_{d-e}, which costs one truncated product
        overall and stays sparse when the inverse is sparse.  Only degrees
        that are sums of degrees of u are visited.  When the term pairs to
        multiply, each weighted by its degree + 1, would pass
        ``INVERSE_GUARD`` the inverse is refused with TooLarge.
        """
        spec = self.spec
        if not self.is_unit_element():
            raise NotAUnit("inverse_unit needs degree-0 part exactly 1")
        r, cap, deg = spec.r, spec.cap, spec.degree
        u_by_deg = {}
        for mono, c in self.terms.items():
            d = deg(mono)
            if d:
                u_by_deg.setdefault(d, {})[mono] = c
        b_by_deg = {0: {spec.one_mono: 1}}
        todo = sorted(u_by_deg)  # a heap of the degrees b may reach
        queued, work = set(todo), 0
        while todo:
            d = heapq.heappop(todo)
            parts = [(upart, b_by_deg[d - e])
                     for e, upart in u_by_deg.items() if d - e in b_by_deg]
            work += (d + 1) * sum(len(a) * len(b) for a, b in parts)
            if work > INVERSE_GUARD:
                raise TooLarge(f"the inverse in {spec} passes the guard {INVERSE_GUARD}")
            acc = {}
            for upart, bpart in parts:
                for mono, c in _mul_terms(spec, upart, bpart).items():
                    acc[mono] = acc.get(mono, 0) + c
            layer = {mono: -c % r for mono, c in acc.items() if c % r}
            if layer:
                b_by_deg[d] = layer
                for e in u_by_deg:
                    if d + e <= cap and d + e not in queued:
                        queued.add(d + e)
                        heapq.heappush(todo, d + e)
        out = {}
        for layer in b_by_deg.values():
            out.update(layer)
        return AlgElement._raw(spec, out)

    # -- canonical forms ----------------------------------------------

    def canonical_items(self):
        """Terms sorted in graded-lex monomial order."""
        key = self.spec.order_key
        return sorted(self.terms.items(), key=lambda item: key(item[0]))

    def render(self) -> str:
        """Canonical text form, e.g. ``1 + 2*X1 + X1.X2``."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.canonical_items():
            name = self._mono_name(mono)
            if name == "1":
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(name)
            else:
                parts.append(f"{coeff}*{name}")
        return " + ".join(parts)

    def _mono_name(self, mono) -> str:
        spec = self.spec
        if spec.kind == "quat":
            u, v, l = mono
            bits = []
            if u:
                bits.append("A" if u == 1 else f"A^{u}")
            if v:
                bits.append("B")
            if l:
                bits.append(QUAT_UNIT_NAMES[l])
            return ".".join(bits) if bits else "1"
        if not mono:
            return "1"
        bits = []
        run_sym, run_len = mono[0], 1
        for c in mono[1:]:
            if c == run_sym:
                run_len += 1
            else:
                bits.append((run_sym, run_len))
                run_sym, run_len = c, 1
        bits.append((run_sym, run_len))
        return ".".join(
            spec.gen_name(s) + (f"^{n}" if n > 1 else "") for s, n in bits
        )

    def __repr__(self):
        return f"<{self.spec.kind}:{self.render()}>"

    # -- serialisation -------------------------------------------------

    def to_dict(self):
        monos = []
        for mono, coeff in self.canonical_items():
            monos.append([list(mono), coeff])
        return {"monomials": monos}

    @classmethod
    def from_dict(cls, spec, data):
        """Inverse of :meth:`to_dict`: each term is a [monomial,
        coefficient] pair, a monomial a list of integers and its
        coefficient an integer.  A monomial may appear only once."""
        terms = {}
        for term in data["monomials"]:
            if type(term) is not list or len(term) != 2:
                raise InvalidConfig(f"term {term!r} is not a [monomial, coefficient] pair")
            mono, coeff = term
            integral = isinstance(mono, list) and all(type(x) is int for x in mono)
            if not integral or type(coeff) is not int:
                raise InvalidConfig(f"monomial {mono!r} * {coeff!r} is not integral")
            key = spec.mono_key(mono)
            if key in terms:
                raise InvalidConfig(f"monomial {mono!r} appears more than once")
            terms[key] = coeff
        return cls(spec, terms)


# -- module-level operation aliases ------------------------------------


def zero(spec) -> AlgElement:
    return AlgElement.zero(spec)


def one(spec) -> AlgElement:
    return AlgElement.one(spec)


def symbol(spec, i) -> AlgElement:
    return AlgElement.symbol(spec, i)


def quat_term(spec, u, v, unit, coeff=1) -> AlgElement:
    return AlgElement(spec, {(u, v, unit): coeff})


def truncate(a: AlgElement, top: int) -> AlgElement:
    """``a`` modulo the degrees above ``top``.  Those degrees span an
    ideal, so truncation commutes with sums and products."""
    spec = a.spec
    if top >= spec.cap:
        return a
    deg = spec.degree
    return AlgElement._raw(spec, {m: c for m, c in a.terms.items() if deg(m) <= top})


def truncated_product(a: AlgElement, b: AlgElement, top: int) -> AlgElement:
    """a * b modulo the degrees above ``top``, by the product kernel cut
    at ``top`` instead of D.  Below D it skips ``AlgElement.__mul__``, so
    the benchmark's layer wrappers do not count it."""
    spec = a.spec
    if top >= spec.cap:
        return a * b
    if b.spec != spec:
        raise SpecMismatch(f"{b.spec} != {spec}")
    return AlgElement._raw(spec, _mul_terms(spec, a.terms, b.terms, top))


def project(a: AlgElement, spec: AlgebraSpec) -> AlgElement:
    """The image of ``a``, an element of ``spec.full``, in the quotient
    ``spec`` = A_S: the degree-D words outside S are dropped, and an
    element with no degree-D term keeps its terms as they are."""
    if a.spec != spec.full:
        raise SpecMismatch(f"project takes an element of the full algebra {spec.full}")
    terms = a.terms
    if spec.reads is not None and spec.cap in map(len, terms):
        terms = _drop_unread(spec, terms)
    return AlgElement._raw(spec, terms)


def _digit_plan(spec: AlgebraSpec, e: int):
    """The base-r digits e_j of e for r^j <= D, and need[j], the highest
    degree of z_j = y^(r^j) that can still reach c (1 + y)^e, for e >= 0:
    None when no digit from j on is nonzero, D at a nonzero digit, and
    otherwise need[j + 1] less the (r - 1) r^j degrees that z_j^r adds."""
    r, cap = spec.r, spec.cap
    digits = []
    q, step = e, 1
    while step <= cap:
        q, digit = divmod(q, r)
        digits.append(digit)
        step *= r
    need = [None] * (len(digits) + 1)
    for j in reversed(range(len(digits))):
        if digits[j]:
            need[j] = cap
        elif need[j + 1] is not None:
            need[j] = need[j + 1] - (r - 1) * r ** j
    return digits, need


def power_reach(spec: AlgebraSpec, e: int) -> int:
    """The highest degree of y that c (1 + y)^e reads, for c a nonzero
    scalar: power(a, e) == power(truncate(a, t), e) for every such a and
    every t >= power_reach(spec, e).  D for e < 2; 1 for e = r^k, and
    for e = 930 at D = 3 and 5; 0 when the power is the scalar c^e."""
    if e < 2:
        return spec.cap
    need = _digit_plan(spec, e)[1][0]
    return 0 if need is None else need


def power(a: AlgElement, e: int) -> AlgElement:
    """Exact e-th power.

    When the degree-0 part of ``a`` is a nonzero scalar c, write
    a = c(1 + y).  The algebra has characteristic r, so
    (1 + y)^(r^j) = 1 + y^(r^j), and

        a^e = c^e * prod_j (1 + z_j)^(e_j),  z_0 = y,  z_(j+1) = z_j^r,

    over the base-r digits e_j of e.  z_j starts in degree r^j, so the
    product stops at the first r^j > D, and each z_j is cut to the degrees
    that can still reach the result (:func:`_digit_plan`).  So the power
    reads y only up to degree :func:`power_reach`, and the witness sweeps
    build their images no further.  Any other element (a quaternion unit
    i, j, k in degree 0, or c = 0) is raised by plain square-and-multiply,
    dropping only partial powers that start above degree D.
    Every ring product goes through ``*``, where the benchmark's layer
    wrappers count it.  In a quotient A_S those products compute degree D
    only on S, and the projection A -> A_S is a ring map, so
    power(project(a, A_S), e) == project(power(a, e), A_S): the witness
    sweeps power there, keeping just the top-degree words chi reads.

    A negative e needs a = c(1 + y) with c != 0 and 1 + y a unit; only
    1 + y is inverted, a^e = c^e ((1 + y)^(-1))^|e|.  Any other element
    raises NotAUnit.
    """
    if e < 0:
        c = a.augmentation()
        if not c:
            raise NotAUnit("a negative power needs a nonzero constant term")
        r = a.spec.r
        return power((a * pow(c, -1, r)).inverse_unit(), -e) * pow(c, e, r)
    spec = a.spec
    if e == 0:
        return AlgElement.one(spec)
    if e == 1:
        return a
    r, cap, deg, one_mono = spec.r, spec.cap, spec.degree, spec.one_mono
    c = a.terms.get(one_mono, 0)
    if not c:
        return _chain_power(a, e, a.min_degree() or 0, cap)
    inv = pow(c, -1, r)
    y = {}
    for mono, coeff in a.terms.items():
        if deg(mono):
            y[mono] = coeff * inv % r
        elif mono != one_mono:
            return _chain_power(a, e, 0, cap)
    digits, need = _digit_plan(spec, e)
    result = None
    z, step = AlgElement._raw(spec, y), 1
    for j, digit in enumerate(digits):
        if need[j] is None:
            break
        if digit:
            # (1 + z)^digit by the binomial theorem; z^i vanishes once i*r^j > D
            factor, zi = 1 + (z if digit == 1 else z * digit), z
            for i in range(2, min(digit, cap // step) + 1):
                zi = zi * z
                factor = factor + zi * math.comb(digit, i)
            result = factor if result is None else result * factor
        if need[j + 1] is not None:
            z = _chain_power(z, r, step, need[j + 1])
        step *= r
    if result is None:
        result = AlgElement.one(spec)
    ce = pow(c, e, r)
    return result if ce == 1 else result * ce


def _chain_power(x, n, low, top):
    """x^n by left-to-right square-and-multiply, for x starting in degree
    ``low``, keeping only the degrees <= ``top`` of the result: a partial
    power x^m keeps degrees <= top - (n - m) * low, since each of the
    n - m factors still to come adds at least ``low``."""
    x = acc = truncate(x, top - (n - 1) * low)
    m = 1
    for bit in bin(n)[3:]:
        m *= 2
        acc = truncate(acc * acc, top - (n - m) * low)
        if bit == "1":
            m += 1
            acc = truncate(acc * x, top - (n - m) * low)
    return acc


def random_element(spec, rng, max_terms=6, unit=False):
    """Random sparse element; ``unit=True`` puts it in 1 + (positive degree)."""
    terms = {}
    for _ in range(max_terms):
        mono = _random_monomial(spec, rng)
        terms[mono] = rng.randrange(1, spec.r)
    if unit:
        # no degree-0 components other than the constant 1
        deg = spec.degree
        terms = {m: c for m, c in terms.items() if deg(m)}
        terms[spec.one_mono] = 1
    return AlgElement._raw(spec, terms)


def _random_monomial(spec, rng):
    cap = spec.cap
    if spec.kind == "quat":
        v = rng.randrange(2)
        u = rng.randrange(cap + 1 - v)
        return (u, v, rng.randrange(4))
    length = min(rng.randrange(cap + 1), rng.randrange(cap + 1))
    if spec.kind == "sorted":
        return bytes(sorted(rng.randrange(spec.ngens) for _ in range(length)))
    out = []
    for _ in range(length):
        g = rng.randrange(spec.ngens)
        if out and not spec.adjacent_ok(out[-1], g):
            g ^= 1  # m kind: the partner would be killed; use the admissible twin
        out.append(g)
    return bytes(out)
