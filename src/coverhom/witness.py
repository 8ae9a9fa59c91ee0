"""Words in free and surface groups, their embeddings into unit groups,
and the witness bundles built from them.

A witness bundle packages, for a free group F_n or a surface group of
genus g, a finite group G of units (never materialised), the maps

* ``rho``  -- generators to units, one image per algebra factor,
* ``alpha`` -- abelianisation read off the linear coefficients,
* ``psi``  -- a character of the central slice C = 1 + (top degree),

and an exponent e, such that every g outside ker(alpha) has g^e in C but
outside ker(psi).  The free case needs one factor.  The surface case
multiplies an adjacency-killed factor (types I, II, IIIa of the
non-vanishing polynomial) with 2g quaternion factors, one per handle
collapse, each contributing one same-pair monomial x_i^(D-1) y_i or
x_i y_i^(D-1) plus corrections that are pushed back into the first
factor.  A CRT lift combines bundles over distinct primes into one over
Z/d with exponent e = sum q_i r_i^k.
"""

import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .algebra import (
    AlgElement,
    AlgebraSpec,
    free_spec,
    m_spec,
    one,
    power,
    power_reach,
    quat_spec,
    quat_term,
    sorted_spec,
    symbol,
    truncate,
    truncated_product,
)
from .errors import InvalidConfig, PropertyViolation
from .modular import catalan_mod, crt_coefficients
from .nonvanishing import (
    MonomialType,
    Poly,
    build_nonvanishing,
    canonicalize_pair_monomials,
    classify,
    minimal_k,
)
from .units import (
    CentralCharacter,
    abelianization,
    character_from_poly,
    check_degree_guard,
    check_monomial_guard,
    in_central_subgroup,
)

# ---------------------------------------------------------------------------
# words


@dataclass(frozen=True)
class Alphabet:
    """Free rank-n alphabet or the 2g-letter surface alphabet x_i, y_i."""

    kind: str
    rank: int

    def __post_init__(self):
        if self.kind not in ("free", "surface"):
            raise InvalidConfig(f"unknown alphabet kind {self.kind!r}")
        if self.rank < 1 or (self.kind == "surface" and self.rank < 2):
            raise InvalidConfig(f"rank {self.rank} too small for {self.kind}")

    @property
    def ngens(self) -> int:
        return self.rank if self.kind == "free" else 2 * self.rank

    def gen_name(self, i: int) -> str:
        if self.kind == "free":
            return f"x{i + 1}"
        return ("x" if i % 2 == 0 else "y") + str(i // 2 + 1)


def _reduce_letters(letters):
    out = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class GroupWord:
    """Word in the generators; letters are nonzero signed 1-based indices.

    Words reduce freely on construction.  The surface relator
    x_1 y_1 x_1^-1 y_1^-1 ... is available from :func:`surface_relator`;
    no reduction modulo the relator is ever applied.
    """

    alphabet: Alphabet
    letters: tuple

    def __post_init__(self):
        n = self.alphabet.ngens
        for letter in self.letters:
            if letter == 0 or abs(letter) > n:
                raise InvalidConfig(f"letter {letter} outside alphabet")
        object.__setattr__(self, "letters", _reduce_letters(self.letters))

    def __mul__(self, other):
        if self.alphabet != other.alphabet:
            raise InvalidConfig("words over different alphabets")
        return GroupWord(self.alphabet, self.letters + other.letters)

    def inverse(self):
        return GroupWord(self.alphabet, tuple(-l for l in reversed(self.letters)))

    def pow(self, e: int):
        if e < 0:
            return self.inverse().pow(-e)
        return GroupWord(self.alphabet, self.letters * e)

    def exponent_vector(self):
        vec = [0] * self.alphabet.ngens
        for letter in self.letters:
            vec[abs(letter) - 1] += 1 if letter > 0 else -1
        return tuple(vec)

    def __len__(self):
        return len(self.letters)

    def render(self) -> str:
        if not self.letters:
            return "1"
        bits = []
        for letter in self.letters:
            name = self.alphabet.gen_name(abs(letter) - 1)
            bits.append(name if letter > 0 else name + "^-1")
        return ".".join(bits)


def generator_word(alphabet: Alphabet, i: int) -> GroupWord:
    return GroupWord(alphabet, (i + 1,))


def word_from_exponents(alphabet: Alphabet, residues) -> GroupWord:
    """The positive word x_1^a_1 x_2^a_2 ... representing a class."""
    letters = []
    for i, a in enumerate(residues):
        if a < 0:
            raise InvalidConfig("class representatives use nonnegative exponents")
        letters.extend([i + 1] * a)
    return GroupWord(alphabet, tuple(letters))


def surface_relator(genus: int) -> GroupWord:
    alphabet = Alphabet("surface", genus)
    letters = []
    for i in range(genus):
        x, y = 2 * i + 1, 2 * i + 2
        letters += [x, y, -x, -y]
    return GroupWord(alphabet, tuple(letters))


def reduced_words(alphabet: Alphabet, max_len: int):
    """All freely reduced words of length <= max_len, by length then
    lexicographically in the fixed letter order x1, x1^-1, x2, ..."""
    order = []
    for i in range(1, alphabet.ngens + 1):
        order += [i, -i]
    layer = [()]
    for _ in range(max_len):
        nxt = []
        for prefix in layer:
            for letter in order:
                if prefix and prefix[-1] == -letter:
                    continue
                word = prefix + (letter,)
                nxt.append(word)
                yield GroupWord(alphabet, word)
        layer = nxt


def _random_letters(ngens: int, rng, length: int) -> tuple:
    """``length`` random signed letters over ``ngens`` generators, not yet
    reduced: a generator, then a sign, per letter."""
    letters = []
    for _ in range(length):
        letter = rng.randrange(1, ngens + 1)
        if rng.randrange(2):
            letter = -letter
        letters.append(letter)
    return tuple(letters)


def random_word(alphabet: Alphabet, rng, length: int) -> GroupWord:
    return GroupWord(alphabet, _random_letters(alphabet.ngens, rng, length))


# ---------------------------------------------------------------------------
# embeddings


@lru_cache(maxsize=None)
def _magnus_images(spec: AlgebraSpec):
    imgs = tuple(one(spec) + symbol(spec, i) for i in range(spec.ngens))
    invs = tuple(g.inverse_unit() for g in imgs)
    return imgs, invs


@lru_cache(maxsize=1024)
def _syllable(images, spec: AlgebraSpec, letter: int, m: int, top: int) -> AlgElement:
    """The image g^m of a run of m equal letters modulo the degrees above
    ``top``, where ``images(spec)`` gives the generator images and their
    inverses.  Built from the two halves of the run, so the recursion
    stays shallow."""
    if m == 1:
        imgs, invs = images(spec)
        return truncate(imgs[letter - 1] if letter > 0 else invs[-letter - 1], top)
    half = m // 2
    return truncated_product(
        _syllable(images, spec, letter, half, top),
        _syllable(images, spec, letter, m - half, top),
        top,
    )


def _word_image(word: GroupWord, spec: AlgebraSpec, images, top=None) -> AlgElement:
    """The image of a word modulo the degrees above ``top`` (default none)
    as one product per syllable: each run of equal letters is looked up
    whole in the syllable cache."""
    top = spec.cap if top is None else min(top, spec.cap)
    acc = None
    for letter, run in itertools.groupby(word.letters):
        g = _syllable(images, spec, letter, sum(1 for _ in run), top)
        acc = g if acc is None else truncated_product(acc, g, top)
    return one(spec) if acc is None else acc


def magnus_image(word: GroupWord, spec: AlgebraSpec, top=None) -> AlgElement:
    """Image of a word under generator i -> 1 + X_i, modulo the degrees
    above ``top`` when one is given.

    Works for the free and sorted kinds (free alphabet) and the
    adjacency-killed kind (surface alphabet: the pair cross terms vanish,
    so 1 + X_i and 1 + Y_i commute and the surface relator dies).
    """
    if spec.kind == "quat":
        raise InvalidConfig("use quaternion_image for the quat kind")
    if word.alphabet.ngens != spec.ngens:
        raise InvalidConfig(
            f"word has {word.alphabet.ngens} generators, algebra {spec.ngens}"
        )
    return _word_image(word, spec, _magnus_images, top)


def catalan_series(r: int, k: int) -> AlgElement:
    """The tail series E = -sum_{m>=1} C_{m-1} A^{2m} in the quaternion
    algebra, truncated at degree r^k.  Satisfies A^2 + E + E^2 = 0 exactly
    in the truncation; odd r only, since the closed form halves.  Its
    algebra is refused past ``units.MONOMIAL_GUARD`` basis monomials
    before any term is computed."""
    spec = quat_spec(r, k)  # rejects r = 2
    check_monomial_guard(spec)
    terms = {}
    for m in range(1, spec.cap // 2 + 1):
        c = (-catalan_mod(m - 1, r)) % r
        if c:
            terms[(2 * m, 0, 0)] = c
    return AlgElement._raw(spec, terms)


@lru_cache(maxsize=None)
def _quaternion_images(spec: AlgebraSpec):
    e_series = catalan_series(spec.r, spec.k)
    e_k = AlgElement._raw(spec, {(u, v, 3): c for (u, v, _), c in e_series.terms.items()})
    x1 = one(spec) + quat_term(spec, 1, 0, 1) + e_k
    y1 = one(spec) + quat_term(spec, 0, 1, 2)
    x2 = one(spec) + quat_term(spec, 1, 0, 2) - e_k
    y2 = one(spec) + quat_term(spec, 0, 1, 1)
    imgs = (x1, y1, x2, y2)
    invs = tuple(g.inverse_unit() for g in imgs)
    return imgs, invs


def quaternion_image(word: GroupWord, spec: AlgebraSpec, top=None) -> AlgElement:
    """Image of a genus-2 surface word under

        x1 -> 1 + Ai + Ek,  y1 -> 1 + Bj,  x2 -> 1 + Aj - Ek,  y2 -> 1 + Bi

    with E the Catalan tail series, modulo the degrees above ``top`` when
    one is given.  The genus-2 relator maps to 1.
    """
    if spec.kind != "quat":
        raise InvalidConfig("quaternion_image needs the quat kind")
    if word.alphabet != Alphabet("surface", 2):
        raise InvalidConfig("quaternion_image takes genus-2 surface words")
    return _word_image(word, spec, _quaternion_images, top)


def collapse_to_genus_two(word: GroupWord, pair: int, swapped: bool = False) -> GroupWord:
    """Collapse all handles except ``pair`` and its cyclic successor.

    Pair ``pair`` (1-based) maps to (x1, y1), pair ``pair + 1`` (wrapping
    around to 1) maps to (x2, y2), everything else to the identity; with
    ``swapped`` the x and y roles are exchanged afterwards.  The image of
    the genus-g relator is trivial in the genus-2 surface group.
    """
    g = word.alphabet.rank
    if word.alphabet.kind != "surface":
        raise InvalidConfig("collapse acts on surface words")
    if not 1 <= pair <= g:
        raise InvalidConfig(f"pair index {pair} out of range 1..{g}")
    succ = pair % g + 1
    target = Alphabet("surface", 2)
    letters = []
    for letter in word.letters:
        idx = abs(letter) - 1
        p, role = idx // 2 + 1, idx % 2
        if p == pair:
            local = 0
        elif p == succ:
            local = 1
        else:
            continue
        if swapped:
            role ^= 1
        new = 2 * local + role + 1
        letters.append(new if letter > 0 else -new)
    return GroupWord(target, tuple(letters))


# ---------------------------------------------------------------------------
# quaternion power character data


def quat_power_poly(r: int, k: int) -> Poly:
    """The unsigned polynomial (x1^2 + x2^2)^((D-3)/2) (x1^2 y1 - x1 x2 y2)
    in the local variables (x1, y1, x2, y2): the coefficient of
    A^(D-1) B j in g^D, up to a fixed sign, for g in the image of the
    quaternion embedding."""
    cap = r ** k
    names = ("x1", "y1", "x2", "y2")
    base = Poly(r, 4, {(2, 0, 0, 0): 1, (0, 0, 2, 0): 1}, names)
    lead = Poly(r, 4, {(2, 1, 0, 0): 1, (1, 0, 1, 1): -1}, names)
    return base.pow((cap - 3) // 2) * lead


@lru_cache(maxsize=None)
def quat_sign(r: int, k: int) -> int:
    """The sign relating the A^(D-1) B j coefficient of g^D to the
    unsigned polynomial, probed once on a word with nonzero value."""
    spec = quat_spec(r, k)
    cap = spec.cap
    alphabet = Alphabet("surface", 2)
    probe = GroupWord(alphabet, (1, 2))  # abelianisation (1, 1, 0, 0)
    g = quaternion_image(probe, spec)
    c = power(g, cap)
    got = c.terms.get((cap - 1, 1, 2), 0)
    expect = quat_power_poly(r, k).evaluate(abelianization(g))
    if expect != 1 or got not in (1, r - 1):
        raise PropertyViolation(
            f"sign probe failed at (r={r}, k={k}): coefficient {got}, unsigned {expect}"
        )
    return got


# ---------------------------------------------------------------------------
# witness bundles


@dataclass(frozen=True)
class MagnusFactor:
    """A word-algebra factor together with its central character."""

    spec: AlgebraSpec
    chi: CentralCharacter

    def image(self, word: GroupWord, top=None) -> AlgElement:
        return magnus_image(word, self.spec, top)

    def power(self, g: AlgElement, e: int) -> AlgElement:
        """The image of g^e in the quotient A_S that chi reads
        (:meth:`CentralCharacter.power`)."""
        return self.chi.power(g, e)

    def chi_value(self, central: AlgElement) -> int:
        return self.chi(central)


@dataclass(frozen=True)
class QuatFactor:
    """A quaternion factor for one handle collapse.

    ``weight`` is the coefficient of the same-pair monomial this factor
    contributes; ``sign`` corrects the orientation of the A^(D-1) B j
    projection and is folded into the stored character.
    """

    spec: AlgebraSpec
    pair: int
    swapped: bool
    weight: int
    sign: int
    chi: CentralCharacter

    def image(self, word: GroupWord, top=None) -> AlgElement:
        return quaternion_image(
            collapse_to_genus_two(word, self.pair, self.swapped), self.spec, top
        )

    def power(self, g: AlgElement, e: int) -> AlgElement:
        """g^e in the full algebra: the degree-0 units i, j, k mix the
        top-degree monomials, and the products are at most 4 x 4 terms."""
        return power(g, e)

    def chi_value(self, central: AlgElement) -> int:
        return (self.weight * self.chi(central)) % self.spec.r


def _factor_verdict(factor, g: AlgElement, e: int):
    """(whether the factor's g^e is central, its character value or None
    when it is not): all that a witness check reads of one factor."""
    c = factor.power(g, e)
    if not in_central_subgroup(c):
        return False, None
    return True, factor.chi_value(c)


@dataclass(frozen=True)
class PrimeComponent:
    """All factors of one prime, with its CRT weight q (1 when alone)."""

    r: int
    k: int
    q: int
    poly: Poly
    factors: tuple


@dataclass(frozen=True)
class WitnessBundle:
    """The tuple (G, C, rho, alpha, psi, e), with G represented implicitly
    as the image of rho and all maps evaluated on demand."""

    domain: str
    variant: str | None
    rank: int
    modulus: int
    exponent: int
    components: tuple

    @property
    def alphabet(self) -> Alphabet:
        if self.domain == "free":
            return Alphabet("free", self.rank)
        return Alphabet("surface", self.rank // 2)

    @cached_property
    def sweep_top(self) -> int:
        """The degree the sweep builds images to: the highest degree of any
        factor's image that its e-th power reads, and at least 1, where
        alpha is read."""
        return max(
            1,
            *(power_reach(f.spec, self.exponent) for comp in self.components for f in comp.factors),
        )

    def images(self, word: GroupWord, top=None):
        """rho(word) per component and factor, modulo the degrees above
        ``top`` when one is given."""
        return tuple(
            tuple(f.image(word, top) for f in comp.factors) for comp in self.components
        )

    def verdict(self, images, memo=None):
        """(whether every factor's e-th power is central, psi of the powers
        or None when one is not).

        psi adds up the factors' verdicts (:func:`_factor_verdict`), each a
        function of its factor and image alone, and stops at the first
        factor whose power is not central.  ``memo``, a dict, maps
        (component, factor, image) to that verdict, so an image seen
        before is not powered again.  The key names the factor because
        factors may share an algebra, and so an image, while their
        characters differ: the quaternion factors of a surface bundle do.

        Each factor powers by its ``power``: a word-algebra factor in the
        quotient A_S of its algebra, S the degree-D words its character
        reads.  The projection to A_S is a ring map that keeps the
        constant term, every degree below D and the coefficients on S,
        which is all the verdict reads, so it is exact."""
        e = self.exponent
        memo = {} if memo is None else memo
        values = []
        for c, (comp, imgs) in enumerate(zip(self.components, images)):
            comp_values = []
            for f, (factor, g) in enumerate(zip(comp.factors, imgs)):
                key = (c, f, g)
                verdict = memo.get(key)
                if verdict is None:
                    verdict = memo[key] = _factor_verdict(factor, g, e)
                central, value = verdict
                if not central:
                    return False, None
                comp_values.append(value)
            values.append(comp_values)
        return True, self.psi_of_values(values)

    def alpha_of_images(self, images):
        """Sum of q_i-weighted per-prime abelianisations, mod d.

        Each component reads alpha off its first (word-algebra) factor.
        """
        d = self.modulus
        total = [0] * self.rank
        for comp, comp_imgs in zip(self.components, images):
            vec = abelianization(comp_imgs[0])
            for j, a in enumerate(vec):
                total[j] = (total[j] + comp.q * a) % d
        return tuple(total)

    def psi_of_centrals(self, powered) -> int:
        return self.psi_of_values(
            [f.chi_value(c) for f, c in zip(comp.factors, comp_cent)]
            for comp, comp_cent in zip(self.components, powered)
        )

    def psi_of_values(self, values) -> int:
        """psi from the factors' character values, one sequence per
        component: the q_i-weighted sum of each component's total mod r_i,
        mod d."""
        total = 0
        for comp, comp_values in zip(self.components, values):
            total += comp.q * (sum(comp_values) % comp.r)
        return total % self.modulus

    def expected_value(self, alpha_ints) -> int:
        """sum q_i * P_i(alpha mod r_i) mod d; nonzero whenever alpha != 0
        mod d because each P_i has no zero off the origin of F_{r_i}."""
        d = self.modulus
        total = 0
        for comp in self.components:
            total += comp.q * comp.poly.evaluate([a % comp.r for a in alpha_ints])
        return total % d


def assemble_witness_free(r: int, n: int, k: int | None = None, variant: str = "full") -> WitnessBundle:
    """Free witness: one Magnus factor over the free or sorted algebra."""
    if variant not in ("full", "sorted"):
        raise InvalidConfig(f"unknown variant {variant!r}")
    if k is None:
        k = minimal_k(r, n)
    spec = (free_spec if variant == "full" else sorted_spec)(r, k, n)
    if spec.cap <= (n - 1) * (r - 1):
        raise InvalidConfig(f"k = {k} below minimal_k(r={r}, n={n}) = {minimal_k(r, n)}")
    # the character's words have length D: refuse a D past the guard first
    check_degree_guard(spec)
    poly = build_nonvanishing(r, n, k)
    chi = character_from_poly(spec, poly)
    comp = PrimeComponent(r, k, 1, poly, (MagnusFactor(spec, chi),))
    return WitnessBundle("free", variant, n, r, spec.cap, (comp,))


def assemble_witness_surface(r: int, genus: int, k: int | None = None) -> WitnessBundle:
    """Surface witness: an adjacency-killed factor plus 2g quaternion
    factors wired so that psi(rho(w)^(r^k)) = P(alpha(w)) for the
    non-vanishing polynomial P."""
    if genus < 2:
        raise InvalidConfig(f"genus must be >= 2, got {genus}")
    n = 2 * genus
    if k is None:
        k = minimal_k(r, n)
    mspec = m_spec(r, k, genus)  # rejects r = 2
    cap = mspec.cap
    if cap <= (n - 1) * (r - 1):
        raise InvalidConfig(f"k = {k} below minimal_k(r={r}, n={n}) = {minimal_k(r, n)}")
    names = tuple(
        ("x" if i % 2 == 0 else "y") + str(i // 2 + 1) for i in range(n)
    )
    poly = canonicalize_pair_monomials(build_nonvanishing(r, n, k, names))
    parts = classify(poly, paired=True)
    q_poly = parts[MonomialType.I] + parts[MonomialType.II] + parts[MonomialType.IIIA]

    iiib = parts[MonomialType.IIIB].terms
    sign = quat_sign(r, k)
    local = quat_power_poly(r, k)
    qspec = quat_spec(r, k)
    chi_h = CentralCharacter(qspec, (((cap - 1, 1, 2), sign),))

    factors = []
    for p in range(genus):
        succ = (p + 1) % genus
        # leading exponents of the handle's a and b factors, x^(cap-1) y and x y^(cap-1)
        ea = tuple(cap - 1 if i == 2 * p else 1 if i == 2 * p + 1 else 0 for i in range(n))
        eb = tuple(1 if i == 2 * p else cap - 1 if i == 2 * p + 1 else 0 for i in range(n))
        for swapped, lead in ((False, ea), (True, eb)):
            weight = iiib.get(lead, 0)
            if swapped:
                mapping = [2 * p + 1, 2 * p, 2 * succ + 1, 2 * succ]
            else:
                mapping = [2 * p, 2 * p + 1, 2 * succ, 2 * succ + 1]
            factors.append(QuatFactor(qspec, p + 1, swapped, weight, sign, chi_h))
            if weight:
                correction = local.substitute_vars(mapping, n, names) - Poly.monomial(
                    r, n, lead, 1, names
                )
                q_poly = q_poly - correction.scale(weight)

    chi0 = character_from_poly(mspec, q_poly)
    all_factors = (MagnusFactor(mspec, chi0),) + tuple(factors)

    relator = surface_relator(genus)
    for f in all_factors:
        if f.image(relator) != one(f.spec):
            raise PropertyViolation(
                f"relator not killed in factor {f}", counterexample=relator.render()
            )

    comp = PrimeComponent(r, k, 1, poly, all_factors)
    return WitnessBundle("surface", None, n, r, cap, (comp,))


def crt_lift(bundles) -> WitnessBundle:
    """Combine single-prime bundles over distinct primes (shared k and
    domain) into one bundle over Z/d with exponent e = sum q_i r_i^k."""
    bundles = list(bundles)
    if not bundles:
        raise InvalidConfig("need at least one bundle")
    first = bundles[0]
    for b in bundles:
        if len(b.components) != 1:
            raise InvalidConfig("crt_lift takes single-prime bundles")
        if (b.domain, b.variant, b.rank) != (first.domain, first.variant, first.rank):
            raise InvalidConfig("bundles must share domain, variant and rank")
        if b.components[0].k != first.components[0].k:
            raise InvalidConfig("bundles must share k")
    primes = [b.components[0].r for b in bundles]
    k = first.components[0].k
    qs, e = crt_coefficients(primes, k)
    comps = tuple(
        replace(b.components[0], q=q) for b, q in zip(bundles, qs)
    )
    return WitnessBundle(
        first.domain, first.variant, first.rank, math.prod(primes), e, comps
    )


# ---------------------------------------------------------------------------
# verification


def check_witness_word(bundle: WitnessBundle, word: GroupWord, memo=None) -> int:
    """All bundle properties on one word; returns the psi value.

    Checks: alpha of the images equals the mod-d exponent vector,
    rho(word)^e is central in every factor, psi equals sum q_i P_i(alpha),
    and the value is nonzero whenever alpha is nonzero mod d.

    The images are built only up to ``bundle.sweep_top``, the degree the
    e-th power reads, so the powers are exact; each word-algebra power is
    taken in the quotient that keeps just the top-degree words its
    character reads (:meth:`WitnessBundle.verdict`).  ``memo``, a dict kept
    across the words of one sweep, maps each (component, factor, truncated
    image) to that factor's verdict, so each factor powers each distinct
    image once, and each class alpha mod d to its expected value.  The
    images, the alpha check, the psi comparison and the nonzero test still
    run on every word.
    """
    d = bundle.modulus
    alpha_d = tuple(v % d for v in word.exponent_vector())
    images = bundle.images(word, bundle.sweep_top)
    got_alpha = bundle.alpha_of_images(images)
    if got_alpha != alpha_d:
        raise PropertyViolation(
            f"alpha mismatch for {word.render()}: {got_alpha} != {alpha_d}",
            counterexample=word.render(),
        )
    memo = {} if memo is None else memo
    central, psi = bundle.verdict(images, memo)
    if not central:
        raise PropertyViolation(
            f"rho(w)^{bundle.exponent} not central for {word.render()}",
            counterexample=word.render(),
        )
    expect = memo.get(alpha_d)
    if expect is None:
        expect = memo[alpha_d] = bundle.expected_value(alpha_d)
    if psi != expect:
        raise PropertyViolation(
            f"psi = {psi} != expected {expect} for {word.render()}",
            counterexample=word.render(),
        )
    if any(alpha_d) and psi == 0:
        raise PropertyViolation(
            f"psi vanished on the nonzero class {alpha_d}",
            counterexample=word.render(),
        )
    return psi


# At most this many classes are swept exhaustively; beyond it they are sampled.
CLASS_CAP = 10000


def sweep_words(
    bundle: WitnessBundle,
    exhaustive: bool = True,
    samples: int = 0,
    seed: int = 0,
    sample_len: int = 6,
):
    """The class count and the words :func:`verify_witness` checks, in
    order: the positive word of each nonzero class, then ``samples``
    random words, each distinct freely reduced word once, at its first
    occurrence.  Every nonzero class when ``exhaustive`` and d^rank is at
    most ``CLASS_CAP``; else min(CLASS_CAP, samples, d^rank - 1) distinct
    nonzero classes drawn at random (at least one).

    Every random word is drawn, with the calls to the generator that
    :func:`random_word` makes, so the draws do not depend on which of them
    repeat; a draw is kept as its reduced letters, and only a first
    occurrence is made a :class:`GroupWord`."""
    rng = random.Random(seed)
    d, rank = bundle.modulus, bundle.rank
    if exhaustive and d ** rank <= CLASS_CAP:
        classes = [vec for vec in itertools.product(range(d), repeat=rank) if any(vec)]
    else:
        seen = set()
        want = min(CLASS_CAP, max(samples, 1), d ** rank - 1)
        while len(seen) < want:
            vec = tuple(rng.randrange(d) for _ in range(rank))
            if any(vec):
                seen.add(vec)
        classes = sorted(seen)
    alphabet = bundle.alphabet

    def first_occurrences():
        # distinct classes have distinct positive words
        seen = set()
        for vec in classes:
            word = word_from_exponents(alphabet, vec)
            seen.add(word.letters)
            yield word
        for _ in range(samples):
            length = rng.randrange(1, sample_len + 1)
            letters = _reduce_letters(_random_letters(alphabet.ngens, rng, length))
            if letters not in seen:
                seen.add(letters)
                yield GroupWord(alphabet, letters)

    return len(classes), first_occurrences()


def verify_witness(
    bundle: WitnessBundle,
    exhaustive: bool = True,
    samples: int = 0,
    seed: int = 0,
    sample_len: int = 6,
) -> dict:
    """Walk abelianisation classes via representative positive words, then
    random words (:func:`sweep_words`).  Exhaustive when d^rank is at most
    ``CLASS_CAP``, else sampled.  Word-algebra factors beyond
    ``units.MONOMIAL_GUARD`` basis monomials are refused.

    Each distinct word is checked once: :func:`check_witness_word` is a
    function of the bundle and the word alone, so a repeated draw would
    only repeat its verdict.  ``samples`` counts the random draws,
    ``words_checked`` the distinct words, class words included.  One memo
    serves the whole sweep, so each factor raises each distinct truncated
    image to the e-th power once, and each class gets its expected value
    once.  When the power reads only degree 1, as for e = r^k and for a
    CRT exponent, a component's truncated images are fixed by the class
    mod its prime r_i, so the sweep takes at most r_i^rank powers per
    factor however many words it checks: 9 + 25 for the CRT lift of 3
    and 5 in rank 2.
    """
    for comp in bundle.components:
        for f in comp.factors:
            if isinstance(f, MagnusFactor):
                check_monomial_guard(f.spec)
    classes, words = sweep_words(bundle, exhaustive, samples, seed, sample_len)
    memo = {}
    checked = 0
    for word in words:
        check_witness_word(bundle, word, memo)
        checked += 1
    return {
        "classes": classes,
        "samples": samples,
        "words_checked": checked,
        "modulus": bundle.modulus,
        "exponent": bundle.exponent,
    }


def verify_quat_power_identity(r: int, k: int, samples: int = 1000, seed: int = 0) -> dict:
    """The A^(D-1) B j coefficient of g^D equals the fixed sign times the
    unsigned polynomial at the abelianisation, for random genus-2 words."""
    spec = quat_spec(r, k)
    cap = spec.cap
    sign = quat_sign(r, k)
    local = quat_power_poly(r, k)
    alphabet = Alphabet("surface", 2)
    top = max(1, power_reach(spec, cap))
    rng = random.Random(seed)
    for t in range(samples):
        word = random_word(alphabet, rng, rng.randrange(1, 9))
        g = quaternion_image(word, spec, top)
        c = power(g, cap)
        if not in_central_subgroup(c):
            raise PropertyViolation(f"g^{cap} not central for {word.render()}")
        got = c.terms.get((cap - 1, 1, 2), 0)
        expect = sign * local.evaluate(abelianization(g)) % r
        if got != expect:
            raise PropertyViolation(
                f"power identity failed for {word.render()}: {got} != {expect}",
                counterexample=word.render(),
            )
    return {"r": r, "k": k, "sign": sign, "samples": samples}


def verify_relator_kill(rs=(3, 5, 7), ks=(1, 2, 3)) -> dict:
    """The quaternion embedding kills the genus-2 relator exactly, and the
    Catalan tail satisfies A^2 + E + E^2 = 0 exactly, for each (r, k)."""
    relator = surface_relator(2)
    combos = []
    for r in rs:
        for k in ks:
            spec = quat_spec(r, k)
            img = quaternion_image(relator, spec)
            if img != one(spec):
                raise PropertyViolation(
                    f"relator image nontrivial at (r={r}, k={k}): {img.render()}"
                )
            e_series = catalan_series(r, k)
            a_sq = quat_term(spec, 2, 0, 0)
            if a_sq + e_series + e_series * e_series != AlgElement.zero(spec):
                raise PropertyViolation(f"A^2 + E + E^2 != 0 at (r={r}, k={k})")
            combos.append([r, k])
    return {"combos": combos}
