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
values can be shared freely between concurrent workers.
"""

import math
from dataclasses import dataclass

from .errors import InvalidConfig, NotAUnit, SpecMismatch
from .modular import is_prime

KINDS = ("free", "sorted", "m", "quat")
WORD_KINDS = ("free", "sorted", "m")

QUAT_UNIT_NAMES = ("1", "i", "j", "k")

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
    """

    kind: str
    r: int
    k: int
    ngens: int

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

    @property
    def cap(self) -> int:
        """Truncation degree D = r^k."""
        return self.r ** self.k

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
    """Admissibility of a single monomial under the spec's relations."""
    cap = spec.cap
    if spec.kind == "quat":
        u, v, unit = mono
        return 0 <= v <= 1 and 0 <= u and u + v <= cap and 0 <= unit <= 3
    if not isinstance(mono, bytes) or len(mono) > cap:
        return False
    if any(c >= spec.ngens for c in mono):
        return False
    return all(spec.adjacent_ok(a, b) for a, b in zip(mono, mono[1:]))


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


def iter_basis_monomials(spec: AlgebraSpec):
    """Yield every admissible monomial in graded-lex order."""
    if spec.kind == "quat":
        for deg in range(spec.cap + 1):
            for v in (0, 1):
                u = deg - v
                if u < 0:
                    continue
                for unit in range(4):
                    yield (u, v, unit)
        return
    layer = [spec.one_mono]
    yield spec.one_mono
    for _ in range(spec.cap):
        nxt = []
        for mono in layer:
            for g in range(spec.ngens):
                if mono and not spec.adjacent_ok(mono[-1], g):
                    continue
                ext = mono + bytes([g])
                nxt.append(ext)
                yield ext
        layer = nxt


def _mul_word_terms(kind, cap, aterms, bterms):
    """Sparse word-algebra product.  Both inputs hold admissible monomials,
    so a product monomial can only fail at the junction; over-degree pairs
    are skipped by bucketing the right factor by degree."""
    bydeg = {}
    for mb, cb in bterms.items():
        bydeg.setdefault(len(mb), []).append((mb, cb))
    bdegs = sorted(bydeg)
    out = {}
    get = out.get
    for ma, ca in aterms.items():
        la = len(ma)
        lim = cap - la
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
    return out


def _mul_quat_terms(cap, aterms, bterms):
    bydeg = {}
    for mb, cb in bterms.items():
        bydeg.setdefault(mb[0] + mb[1], []).append((mb, cb))
    bdegs = sorted(bydeg)
    out = {}
    get = out.get
    qmul = _QMUL
    for (u1, v1, l1), ca in aterms.items():
        lim = cap - u1 - v1
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
    return out


def _mul_terms(spec, aterms, bterms):
    """Unreduced product of two term maps, by the spec's kernel."""
    if spec.kind == "quat":
        return _mul_quat_terms(spec.cap, aterms, bterms)
    return _mul_word_terms(spec.kind, spec.cap, aterms, bterms)


class AlgElement:
    """A sparse element of a truncated algebra.

    ``terms`` maps monomial keys to coefficients in [1, r).  Build
    elements with :func:`one`, :func:`symbol` or ``AlgElement(spec,
    terms)``; arithmetic goes through the overloaded operators.
    """

    __slots__ = ("spec", "terms", "_key")

    def __init__(self, spec: AlgebraSpec, terms: dict, _validated: bool = False):
        if not _validated:
            reduced = {}
            for mono, coeff in terms.items():
                if isinstance(mono, tuple):
                    mono = spec.mono_key(mono)
                if not monomial_ok(spec, mono):
                    raise InvalidConfig(f"monomial {mono!r} not admissible for {spec}")
                c = coeff % spec.r
                if c:
                    reduced[mono] = (reduced.get(mono, 0) + c) % spec.r
            terms = {m: c for m, c in reduced.items() if c}
        self.spec = spec
        self.terms = terms
        self._key = None

    @classmethod
    def _raw(cls, spec, terms):
        elem = cls.__new__(cls)
        elem.spec = spec
        elem.terms = terms
        elem._key = None
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
        spec = self.spec
        raw = _mul_terms(spec, self.terms, other.terms)
        r = spec.r
        out = {}
        for mono, c in raw.items():
            c %= r
            if c:
                out[mono] = c
        return AlgElement._raw(spec, out)

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
        return hash((self.spec, self.canonical_key()))

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
        overall and stays sparse when the inverse is sparse.
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
        for d in range(1, cap + 1):
            acc = {}
            for e, upart in u_by_deg.items():
                if e > d:
                    continue
                bpart = b_by_deg.get(d - e)
                if not bpart:
                    continue
                piece = _mul_terms(spec, upart, bpart)
                for mono, c in piece.items():
                    acc[mono] = acc.get(mono, 0) + c
            layer = {}
            for mono, c in acc.items():
                c = (-c) % r
                if c:
                    layer[mono] = c
            if layer:
                b_by_deg[d] = layer
        out = {}
        for layer in b_by_deg.values():
            out.update(layer)
        return AlgElement._raw(spec, out)

    # -- canonical forms ----------------------------------------------

    def canonical_items(self):
        """Terms sorted in graded-lex monomial order."""
        key = self.spec.order_key
        return sorted(self.terms.items(), key=lambda item: key(item[0]))

    def canonical_key(self):
        if self._key is None:
            self._key = tuple(self.canonical_items())
        return self._key

    def canonical_bytes(self) -> bytes:
        """Bit-exact serialisation: length-prefixed monomial byte strings."""
        chunks = []
        for mono, coeff in self.canonical_items():
            if self.spec.kind == "quat":
                u, v, l = mono
                chunks.append(u.to_bytes(2, "little") + bytes([v, l, coeff]))
            else:
                chunks.append(len(mono).to_bytes(2, "little") + mono + bytes([coeff]))
        return b"".join(chunks)

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
        return cls(spec, {spec.mono_key(m): c for m, c in data["monomials"]})

    def __getstate__(self):
        return (self.spec, self.terms)

    def __setstate__(self, state):
        self.spec, self.terms = state
        self._key = None


# -- module-level operation aliases ------------------------------------


def zero(spec) -> AlgElement:
    return AlgElement.zero(spec)


def one(spec) -> AlgElement:
    return AlgElement.one(spec)


def symbol(spec, i) -> AlgElement:
    return AlgElement.symbol(spec, i)


def quat_term(spec, u, v, unit, coeff=1) -> AlgElement:
    return AlgElement(spec, {(u, v, unit): coeff})


def power(a: AlgElement, e: int) -> AlgElement:
    """Exact e-th power.  Negative e inverts first (unit required).

    For a sparse base and small exponent, repeated multiplication beats
    square-and-multiply in a truncated algebra: squarings of the dense
    intermediate powers dominate otherwise.
    """
    if e < 0:
        return power(a.inverse_unit(), -e)
    result = AlgElement.one(a.spec)
    if e == 0:
        return result
    if e == 1:
        return a
    if len(a.terms) <= 64 and e <= 4 * a.spec.cap:
        acc = a
        for _ in range(e - 1):
            acc = acc * a
        return acc
    base = a
    while True:
        if e & 1:
            result = result * base
        e >>= 1
        if not e:
            return result
        base = base * base


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
