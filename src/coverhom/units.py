"""The unit groups 1 + (augmentation ideal) of the truncated algebras.

For each algebra the elements with constant term 1 form a group G under
multiplication.  Two structure maps matter downstream:

* the abelianisation ``G -> F_r^n`` reading off the degree-1 coefficients
  (for the quaternion kind only the coefficients of Ai, Bj, Aj, Bi);
* membership in the central subgroup C = 1 + (top-degree part), which
  contains all r^k-th powers because binomial coefficients C(r^k, e)
  vanish mod r for 0 < e < r^k.

A :class:`CentralCharacter` is a homomorphism C -> F_r given by a weighted
sum of top-degree coefficients.  ``character_for_monomial`` picks, for a
commutative monomial in the abelianised variables, an admissible word
whose coefficient in g^(r^k) is exactly the monomial evaluated at the
abelianisation of g; this is what makes a polynomial in the linear data
readable off the top-degree slice.
"""

import itertools
import random
from dataclasses import dataclass, replace
from functools import cached_property

from .algebra import (
    AlgElement,
    AlgebraSpec,
    count_basis_monomials,
    monomial_ok,
    power,
    project,
    random_element,
    symbol,
)
from .errors import (
    InvalidConfig,
    NotInC,
    PropertyViolation,
    UnsupportedMonomialType,
)
from .nonvanishing import Poly


def abelianization(g: AlgElement):
    """Linear-class vector of a unit.

    Word kinds: the full degree-1 coefficient vector.  Quat kind: the
    4-vector of coefficients of Ai, Bj, Aj, Bi, in that order.
    """
    if g.spec.kind == "quat":
        t = g.terms
        return (
            t.get((1, 0, 1), 0),
            t.get((0, 1, 2), 0),
            t.get((1, 0, 2), 0),
            t.get((0, 1, 1), 0),
        )
    return g.linear_coeffs()


def in_central_subgroup(g: AlgElement) -> bool:
    """True iff g - 1 is supported purely in the top degree r^k: the
    constant term is 1 and every other monomial has degree r^k (degree-0
    quaternion units i, j, k are below it).  Reads g's terms in place
    instead of building g - 1, and counts the top-degree monomials with
    ``list.count``, which runs at C speed for the word kinds."""
    spec = g.spec
    if g.terms.get(spec.one_mono, 0) % spec.r != 1:
        return False
    return list(map(spec.degree, g.terms)).count(spec.cap) == len(g.terms) - 1


@dataclass(frozen=True)
class CentralCharacter:
    """Homomorphism C -> F_r: a weighted sum of top-degree coefficients.

    ``items`` is a tuple of (monomial key, weight) pairs; every monomial
    must be admissible of degree exactly r^k.  ``words`` is the set of
    those monomials.
    """

    spec: AlgebraSpec
    items: tuple

    def __post_init__(self):
        for mono, weight in self.items:
            if not monomial_ok(self.spec, mono):
                raise InvalidConfig(f"monomial {mono!r} not admissible")
            if self.spec.degree(mono) != self.spec.cap:
                raise InvalidConfig(f"monomial {mono!r} is not of top degree")
            if not 0 < weight < self.spec.r:
                raise InvalidConfig(f"weight {weight} out of range")
        object.__setattr__(self, "words", frozenset(mono for mono, _ in self.items))

    def __call__(self, c: AlgElement) -> int:
        """The character of c, an element of its algebra A or of a
        quotient A_S of A whose S holds every word the character reads."""
        if c.spec.full != self.spec:
            raise InvalidConfig("element from a different algebra")
        if c.spec.reads is not None and not self.words <= c.spec.read_set:
            raise InvalidConfig("element from a quotient that drops a word the character reads")
        if not in_central_subgroup(c):
            raise NotInC("character evaluated outside 1 + (top degree)")
        total = 0
        for mono, weight in self.items:
            total += weight * c.terms.get(mono, 0)
        return total % self.spec.r

    @cached_property
    def reading(self) -> AlgebraSpec:
        """The quotient A_S of the character's algebra, S the words it
        reads (word kinds only)."""
        return replace(self.spec, reads=self.words)

    def power(self, g: AlgElement, e: int) -> AlgElement:
        """The image of g^e in A_S, for g in the character's algebra:
        exact below the top degree D, where centrality is read, and on the
        words the character reads at D."""
        return power(project(g, self.reading), e)

    def render(self) -> str:
        probe = AlgElement._raw(self.spec, dict(self.items))
        return probe.render()


def character_for_monomial(expo, spec: AlgebraSpec) -> bytes:
    """An admissible word realising a commutative monomial.

    The exponent multiset of the returned word equals ``expo``; the word's
    coefficient in g^(r^k) is then the monomial evaluated at the
    abelianisation of g, because every admissible word of length r^k shows
    up exactly once in the expansion of the linear part's r^k-th power.

    For the m kind the word is grown from a two-variable seed taken from
    distinct pairs, appending each remaining variable block on a side
    where it creates no same-pair adjacency.  Monomials supported on a
    single pair (x_i, y_i) admit no such word and are rejected.
    """
    if spec.kind == "quat":
        raise InvalidConfig("use the quaternion projection characters instead")
    expo = tuple(expo)
    if len(expo) != spec.ngens:
        raise InvalidConfig(f"expected {spec.ngens} exponents, got {len(expo)}")
    if sum(expo) != spec.cap:
        raise InvalidConfig(f"monomial degree {sum(expo)} != r^k = {spec.cap}")
    support = [i for i, e in enumerate(expo) if e]
    if not support:
        raise InvalidConfig("constant monomial")
    if spec.kind in ("free", "sorted"):
        return b"".join(bytes([i]) * expo[i] for i in support)
    # m kind
    if len(support) == 1:
        return bytes([support[0]]) * expo[support[0]]
    pairs = [i // 2 for i in support]
    if len(set(pairs)) == 1:
        raise UnsupportedMonomialType(
            f"monomial on the single pair {pairs[0] + 1} has no admissible word"
        )
    first = support[0]
    second = next(i for i in support if i // 2 != first // 2)
    word = bytes([first]) * expo[first] + bytes([second]) * expo[second]
    for i in support:
        if i in (first, second):
            continue
        block = bytes([i]) * expo[i]
        if word[-1] != i ^ 1:
            word = word + block
        elif word[0] != i ^ 1:
            word = block + word
        else:
            raise AssertionError("both ends blocked; distinct factors cannot collide")
    if not monomial_ok(spec, word):
        raise AssertionError(f"constructed word {word!r} not admissible")
    return word


def character_from_poly(spec: AlgebraSpec, poly: Poly) -> CentralCharacter:
    """Bundle one word per monomial of a homogeneous polynomial into a
    single central character, so that chi(g^(r^k)) = poly(abelianization(g))."""
    if poly.nvars != spec.ngens or poly.r != spec.r:
        raise InvalidConfig("polynomial shape does not match the algebra")
    items = []
    for expo, coeff in poly.terms.items():
        word = character_for_monomial(expo, spec)
        items.append((word, coeff))
    order = spec.order_key
    items.sort(key=lambda it: order(it[0]))
    return CentralCharacter(spec, tuple(items))


def linear_class_units(spec: AlgebraSpec):
    """One representative unit 1 + sum a_i X_i per linear class, the zero
    class included."""
    for vec in itertools.product(range(spec.r), repeat=spec.ngens):
        g = AlgElement.one(spec)
        for i, a in enumerate(vec):
            if a:
                g = g + symbol(spec, i) * a
        yield vec, g


# Algebras with more basis monomials than this are refused before anything
# is powered: powers go dense in the truncation and would exhaust memory.
MONOMIAL_GUARD = 10 ** 6


def check_degree_guard(spec: AlgebraSpec):
    """Raise InvalidConfig if the truncation degree D of ``spec`` passes
    ``MONOMIAL_GUARD``: the algebra has a basis monomial of every degree up
    to D, so more than D of them.  Unlike the count, this reads D alone."""
    if spec.cap > MONOMIAL_GUARD:
        raise InvalidConfig(
            f"factor algebra of truncation degree {spec.r}^{spec.k} has more than "
            f"{MONOMIAL_GUARD} basis monomials, beyond the sweep guard"
        )


def check_monomial_guard(spec: AlgebraSpec):
    """Raise InvalidConfig if ``spec`` has more than ``MONOMIAL_GUARD`` basis
    monomials; D is compared first, since the count sums over range(D + 1)."""
    check_degree_guard(spec)
    size = count_basis_monomials(spec)
    if size > MONOMIAL_GUARD:
        raise InvalidConfig(
            f"factor algebra has {size} basis monomials, beyond the sweep guard "
            f"{MONOMIAL_GUARD}; this parameter size is constructible but not "
            "verifiable by dense powering"
        )


def verify_power_character(
    spec: AlgebraSpec,
    poly: Poly,
    samples: int = 0,
    seed: int = 0,
    assert_nonzero: bool = False,
) -> dict:
    """Check chi_P(g^(r^k)) = P(abelianization(g)) with g^(r^k) central.

    Walks one representative per linear class, which suffices because
    r^k-th powers depend only on the linear part (the freshman's-dream
    invariant, itself property-tested), then ``samples`` random sparse
    units.  Each unit is powered in the quotient A_S that chi reads
    (:meth:`CentralCharacter.power`), which keeps every degree below D
    and the words chi reads at D.  Raises PropertyViolation with the
    offending unit on failure, and InvalidConfig, before any power, past
    ``MONOMIAL_GUARD``.
    """
    check_monomial_guard(spec)
    chi = character_from_poly(spec, poly)
    e = spec.cap
    tested = 0

    def check(g, vec):
        nonlocal tested
        c = chi.power(g, e)
        if not in_central_subgroup(c):
            raise PropertyViolation(
                f"g^{e} not central for {g.render()}", counterexample=g.to_dict()
            )
        got = chi(c)
        expect = poly.evaluate(vec)
        if got != expect:
            raise PropertyViolation(
                f"chi(g^{e}) = {got} != P(alpha) = {expect} for {g.render()}",
                counterexample=g.to_dict(),
            )
        if assert_nonzero and any(v % spec.r for v in vec) and got == 0:
            raise PropertyViolation(
                f"witness value vanished on nonzero class {vec}",
                counterexample=g.to_dict(),
            )
        tested += 1

    classes = 0
    for vec, g in linear_class_units(spec):
        check(g, vec)
        classes += 1
    rng = random.Random(seed)
    for _ in range(samples):
        g = random_element(spec, rng, max_terms=rng.randrange(1, 8), unit=True)
        check(g, abelianization(g))
    return {"classes": classes, "tested": tested, "r": spec.r, "k": spec.k}
