"""Homogeneous polynomials over F_r with no zero outside the origin.

The construction starts from P_1(a_1, a_2) = a_1 - a_1*a_2^(r-1) + a_2,
whose value is a_2 when a_2 != 0 and a_1 otherwise, and nests it:
P_i = P_1(P_{i-1}, a_{i+1}).  The result is then homogenised to degree
r^k by multiplying each monomial with a power of one of its own variables,
which changes no value on F_r^n because a^(r-1) = 1 for a != 0.  The
homogenised polynomial is nonzero on all of F_r^n minus the origin
whenever r^k > (n-1)(r-1).

Monomials of such a polynomial fall into three classes, used downstream
to split the polynomial across algebra factors:

* type I    -- a power of a single variable, exponent = 1 mod (r-1);
* type II   -- at least three distinct variables;
* type III  -- exactly two variables, exponents = 1 and = 0 mod (r-1).

With the variables grouped in pairs (x_i, y_i), type III splits into IIIa
(variables from different pairs) and IIIb (both from one pair).
"""

import itertools
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidConfig, ObservationViolation, PropertyViolation, TooLarge
from .modular import is_prime


class MonomialType(Enum):
    I = "I"
    II = "II"
    IIIA = "IIIa"
    IIIB = "IIIb"


@dataclass
class Poly:
    """Sparse polynomial in commuting variables over F_r.

    ``terms`` maps exponent tuples (length ``nvars``) to coefficients in
    [1, r).  ``names`` is only used for rendering.
    """

    r: int
    nvars: int
    terms: dict
    names: tuple = ()

    def __post_init__(self):
        if not self.names:
            self.names = tuple(f"a{i + 1}" for i in range(self.nvars))
        clean = {}
        for expo, coeff in self.terms.items():
            expo = tuple(expo)
            if len(expo) != self.nvars or any(e < 0 for e in expo):
                raise InvalidConfig(f"bad exponent vector {expo}")
            c = coeff % self.r
            if c:
                clean[expo] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, r, nvars, names=()):
        return cls(r, nvars, {}, names)

    @classmethod
    def variable(cls, r, nvars, i, names=()):
        expo = tuple(1 if t == i else 0 for t in range(nvars))
        return cls(r, nvars, {expo: 1}, names)

    @classmethod
    def monomial(cls, r, nvars, expo, coeff=1, names=()):
        return cls(r, nvars, {tuple(expo): coeff}, names)

    # -- ring operations --------------------------------------------------

    def _check(self, other):
        if self.r != other.r or self.nvars != other.nvars:
            raise InvalidConfig("polynomials live over different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            s = (out.get(expo, 0) + c) % self.r
            if s:
                out[expo] = s
            else:
                out.pop(expo, None)
        return Poly(self.r, self.nvars, out, self.names)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c %= self.r
        if not c:
            return Poly.zero(self.r, self.nvars, self.names)
        return Poly(self.r, self.nvars, {e: (v * c) % self.r for e, v in self.terms.items()}, self.names)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return Poly(self.r, self.nvars, out, self.names)

    def pow(self, e):
        acc = Poly(self.r, self.nvars, {(0,) * self.nvars: 1}, self.names)
        for _ in range(e):
            acc = acc * self
        return acc

    # -- queries -----------------------------------------------------------

    def evaluate(self, point) -> int:
        """Value at a point of F_r^n (ints, reduced mod r)."""
        r = self.r
        total = 0
        for expo, coeff in self.terms.items():
            v = coeff
            for a, e in zip(point, expo):
                if e:
                    v = v * pow(a % r, e, r) % r
                    if not v:
                        break
            total += v
        return total % r

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def substitute_vars(self, mapping, nvars, names=()):
        """Re-index variables: mapping[i] is the new index of variable i."""
        out = {}
        for expo, coeff in self.terms.items():
            new = [0] * nvars
            for i, e in enumerate(expo):
                if e:
                    new[mapping[i]] += e
            key = tuple(new)
            out[key] = out.get(key, 0) + coeff
        return Poly(self.r, nvars, out, names)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), tuple(-x for x in e))):
            coeff = self.terms[expo]
            vars_ = [
                self.names[i] + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(expo)
                if e
            ]
            body = "*".join(vars_) if vars_ else "1"
            if coeff == 1 and vars_:
                parts.append(body)
            else:
                parts.append(f"{coeff}*{body}" if vars_ else str(coeff))
        return " + ".join(parts)


def minimal_k(r: int, n: int) -> int:
    """Smallest k >= 1 with r^k > (n-1)(r-1)."""
    if n < 1:
        raise InvalidConfig(f"need n >= 1, got {n}")
    if not is_prime(r):
        raise InvalidConfig(f"r must be prime, got {r}")
    bound = (n - 1) * (r - 1)
    k = 1
    while r ** k <= bound:
        k += 1
    return k


def _base_chain(r: int, n: int, names) -> Poly:
    # P_1 = a_1 - a_1 a_2^(r-1) + a_2, then P_i = P_1(P_{i-1}, a_{i+1})
    p = Poly(
        r,
        n,
        {
            _unit_expo(n, 0, 1): 1,
            _mixed_expo(n, 0, 1, 1, r - 1): -1,
            _unit_expo(n, 1, 1): 1,
        },
        names,
    )
    for i in range(2, n):
        nxt_var = Poly.variable(r, n, i, names)
        high = Poly.monomial(r, n, _unit_expo(n, i, r - 1), 1, names)
        p = p - p * high + nxt_var
    return p


def _unit_expo(n, i, e):
    return tuple(e if t == i else 0 for t in range(n))


def _mixed_expo(n, i, ei, j, ej):
    return tuple(ei if t == i else ej if t == j else 0 for t in range(n))


def homogenize(poly: Poly, degree: int) -> Poly:
    """Raise every monomial to the target degree by multiplying with a power
    of its lexicographically-first variable with nonzero exponent.  Values on
    F_r^n are unchanged since a^(r-1) = 1 off zero."""
    out = {}
    for expo, coeff in poly.terms.items():
        e = sum(expo)
        if e > degree:
            raise InvalidConfig(f"monomial degree {e} exceeds target {degree}")
        if e < degree:
            pivot = next(i for i, v in enumerate(expo) if v)
            expo = tuple(
                v + (degree - e) if i == pivot else v for i, v in enumerate(expo)
            )
        out[expo] = (out.get(expo, 0) + coeff) % poly.r
    return Poly(poly.r, poly.nvars, {e: c for e, c in out.items() if c}, poly.names)


def build_nonvanishing(r: int, n: int, k: int, names=()) -> Poly:
    """The homogeneous degree-r^k polynomial with no zero on F_r^n - {0}."""
    if not is_prime(r):
        raise InvalidConfig(f"r must be prime, got {r}")
    if n < 2:
        raise InvalidConfig(f"need n >= 2, got {n}")
    if k < 1 or r ** k <= (n - 1) * (r - 1):
        raise InvalidConfig(
            f"k = {k} too small: need r^k > (n-1)(r-1) = {(n - 1) * (r - 1)}"
        )
    return homogenize(_base_chain(r, n, names), r ** k)


def classify_monomial(r: int, expo, paired: bool = False):
    """Type of one exponent vector; raises ObservationViolation when it fits
    none of the classes."""
    support = [i for i, e in enumerate(expo) if e]
    if not support:
        raise ObservationViolation("constant monomial has no type")
    if len(support) == 1:
        if expo[support[0]] % (r - 1) != 1 % (r - 1):
            raise ObservationViolation(
                f"single-variable exponent {expo[support[0]]} != 1 mod {r - 1}"
            )
        return MonomialType.I
    if len(support) >= 3:
        return MonomialType.II
    i, j = support
    residues = {expo[i] % (r - 1), expo[j] % (r - 1)}
    if residues != {1 % (r - 1), 0}:
        raise ObservationViolation(
            f"two-variable monomial {expo} has residues {residues} mod {r - 1}"
        )
    if paired and i // 2 == j // 2:
        return MonomialType.IIIB
    return MonomialType.IIIA


def classify(poly: Poly, paired: bool = False):
    """Partition a homogeneous polynomial by monomial type.

    With ``paired`` the variables are read as x_1, y_1, x_2, y_2, ... and
    type III splits into IIIa / IIIb.  Returns a MonomialType -> Poly map
    (IIIa carries all of type III when unpaired).
    """
    if not poly.is_homogeneous():
        raise InvalidConfig("classification needs a homogeneous polynomial")
    buckets = {t: {} for t in MonomialType}
    for expo, coeff in poly.terms.items():
        t = classify_monomial(poly.r, expo, paired)
        buckets[t][expo] = coeff
    return {
        t: Poly(poly.r, poly.nvars, terms, poly.names)
        for t, terms in buckets.items()
    }


def canonicalize_pair_monomials(poly: Poly) -> Poly:
    """Rewrite each type-IIIb monomial x^u y^v into the pointwise-equal
    canonical shape with the residue-1 variable at exponent 1 and the other
    at r^k - 1.  Needed before splitting a polynomial across pair factors."""
    if not poly.is_homogeneous():
        raise InvalidConfig("canonicalisation needs a homogeneous polynomial")
    degree = poly.total_degree()
    r = poly.r
    out = {}
    for expo, coeff in poly.terms.items():
        t = classify_monomial(r, expo, paired=True)
        if t is MonomialType.IIIB:
            i, j = [v for v, e in enumerate(expo) if e]
            if expo[i] % (r - 1) == 1 % (r - 1):
                lead, rest = i, j
            else:
                lead, rest = j, i
            expo = tuple(
                1 if v == lead else degree - 1 if v == rest else 0
                for v in range(poly.nvars)
            )
        out[expo] = (out.get(expo, 0) + coeff) % r
    return Poly(r, poly.nvars, {e: c for e, c in out.items() if c}, poly.names)


def verify_nonvanishing(poly: Poly, limit: int = 10 ** 8) -> dict:
    """Brute-force evaluation on every nonzero point of F_r^n.

    Returns the details of the check; a zero raises PropertyViolation with
    the point as its counterexample.  TooLarge refuses the check before any
    point is evaluated when its work, the r^n - 1 points times the terms of
    the polynomial, passes ``limit`` term evaluations.
    """
    r, n = poly.r, poly.nvars
    if (r ** n - 1) * len(poly.terms) > limit:
        raise TooLarge(
            f"{r}^{n} - 1 points times {len(poly.terms)} terms exceed the guard of "
            f"{limit} term evaluations"
        )
    checked = 0
    for point in itertools.product(range(r), repeat=n):
        if not any(point):
            continue
        checked += 1
        if poly.evaluate(point) == 0:
            raise PropertyViolation(f"P vanishes at the nonzero point {point}", counterexample=point)
    return {"points_checked": checked}
