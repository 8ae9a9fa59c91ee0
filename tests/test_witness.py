import collections
import dataclasses
import functools
import itertools
import random

import pytest

from coverhom import (
    AlgElement,
    Alphabet,
    GroupWord,
    InvalidConfig,
    PropertyViolation,
    abelianization,
    assemble_witness_free,
    assemble_witness_surface,
    catalan_series,
    check_witness_word,
    collapse_to_genus_two,
    crt_lift,
    free_spec,
    generator_word,
    m_spec,
    magnus_image,
    one,
    power,
    quat_spec,
    quat_term,
    quaternion_image,
    random_word,
    reduced_words,
    sorted_spec,
    surface_relator,
    symbol,
    verify_quat_power_identity,
    verify_relator_kill,
    verify_witness,
    word_from_exponents,
)
from coverhom import units, witness
from coverhom.algebra import truncate
from coverhom.witness import quat_power_poly, quat_sign, sweep_words

FREE2 = Alphabet("free", 2)
SURF2 = Alphabet("surface", 2)


# ---------------------------------------------------------------------------
# words


def test_words_reduce_freely():
    w = GroupWord(FREE2, (1, -1, 2))
    assert w.letters == (2,)
    assert (w * w.inverse()).letters == ()
    assert GroupWord(FREE2, (1, 2, -2, -1)).letters == ()


def test_word_exponent_vector():
    w = GroupWord(SURF2, (1, 2, -1, 3, 3))
    assert w.exponent_vector() == (0, 1, 2, 0)


def test_surface_relator_shape():
    rel = surface_relator(2)
    assert rel.letters == (1, 2, -1, -2, 3, 4, -3, -4)
    assert rel.exponent_vector() == (0, 0, 0, 0)


def test_reduced_words_enumeration():
    words = list(reduced_words(FREE2, 2))
    # 4 of length 1, 12 of length 2
    assert len(words) == 16
    assert all(len(w) in (1, 2) for w in words)
    assert len({w.letters for w in words}) == 16


def test_word_validation():
    with pytest.raises(InvalidConfig):
        GroupWord(FREE2, (3,))
    with pytest.raises(InvalidConfig):
        GroupWord(FREE2, (0,))


# ---------------------------------------------------------------------------
# magnus embedding


def test_magnus_generator_images():
    spec = free_spec(3, 1, 2)
    assert magnus_image(generator_word(FREE2, 0), spec) == one(spec) + symbol(spec, 0)
    assert magnus_image(GroupWord(FREE2, (1, -1)), spec) == one(spec)


def test_magnus_commutator_has_trivial_linear_part():
    spec = free_spec(3, 1, 2)
    w = GroupWord(FREE2, (1, 2, -1, -2))
    img = magnus_image(w, spec)
    assert img.linear_coeffs() == (0, 0)
    # leading term is X1 X2 - X2 X1
    assert img.graded_part(2).terms == {bytes([0, 1]): 1, bytes([1, 0]): 2}


def test_magnus_abelianization_matches_exponents():
    rng = random.Random(3)
    for spec in (free_spec(3, 2, 2), sorted_spec(3, 2, 2)):
        for _ in range(100):
            w = random_word(FREE2, rng, rng.randrange(1, 9))
            img = magnus_image(w, spec)
            expect = tuple(v % 3 for v in w.exponent_vector())
            assert abelianization(img) == expect


def test_magnus_m_kind_kills_relator():
    spec = m_spec(3, 2, 2)
    assert magnus_image(surface_relator(2), spec) == one(spec)


# ---------------------------------------------------------------------------
# the quaternion embedding


def test_catalan_series_values():
    e = catalan_series(3, 2)
    a = lambda u: (u, 0, 0)
    assert e.terms == {a(2): 2, a(4): 2, a(6): 1, a(8): 1}
    # no constant or linear coefficients, ever
    for r, k in [(3, 1), (5, 2), (7, 1)]:
        s = catalan_series(r, k)
        assert s.min_degree() is None or s.min_degree() >= 2


def test_catalan_series_defining_identity():
    # A^2 + E + E^2 = 0 exactly in the truncated ring
    for r, k in [(3, 1), (3, 2), (5, 1), (7, 2)]:
        spec = quat_spec(r, k)
        e = catalan_series(r, k)
        assert quat_term(spec, 2, 0, 0) + e + e * e == one(spec) * 0


def test_catalan_series_against_convolution_oracle():
    # independent oracle: integer convolution of Catalan numbers mod r
    import math

    r, k = 3, 2
    cap = 3 ** 2
    cats = [math.comb(2 * m, m) - math.comb(2 * m, m + 1) for m in range(cap)]
    coeffs = {2 * m: (-cats[m - 1]) % r for m in range(1, cap // 2 + 1)}
    e = catalan_series(r, k)
    # E^2 coefficients by direct convolution
    sq = {}
    for d1, c1 in coeffs.items():
        for d2, c2 in coeffs.items():
            if d1 + d2 <= cap:
                sq[d1 + d2] = (sq.get(d1 + d2, 0) + c1 * c2) % r
    esq = e * e
    for deg, c in sq.items():
        assert esq.terms.get((deg, 0, 0), 0) == c % r


def test_catalan_series_rejects_two():
    with pytest.raises(InvalidConfig):
        catalan_series(2, 1)


def test_quaternion_generator_images_exact():
    spec = quat_spec(3, 1)
    y1 = quaternion_image(generator_word(SURF2, 1), spec)
    assert y1 == one(spec) + quat_term(spec, 0, 1, 2)
    x1 = quaternion_image(generator_word(SURF2, 0), spec)
    assert abelianization(x1) == (1, 0, 0, 0)
    assert x1.terms == {(0, 0, 0): 1, (1, 0, 1): 1, (2, 0, 3): 2}  # 1 + Ai + 2A^2 k


def _reference_image(word, spec):
    """The letter-by-letter product the syllable walk replaced, kept as an
    oracle: one product per letter, starting from 1."""
    kind_images = witness._quaternion_images if spec.kind == "quat" else witness._magnus_images
    imgs, invs = kind_images(spec)
    acc = one(spec)
    for letter in word.letters:
        acc = acc * (imgs[letter - 1] if letter > 0 else invs[-letter - 1])
    return acc


def _image(word, spec):
    return (quaternion_image if spec.kind == "quat" else magnus_image)(word, spec)


@pytest.mark.parametrize(
    "spec, alphabet",
    [
        (free_spec(3, 2, 2), FREE2),
        (sorted_spec(3, 2, 2), FREE2),
        (m_spec(3, 1, 2), SURF2),
        (quat_spec(3, 1), SURF2),
    ],
    ids=["free", "sorted", "m", "quat"],
)
def test_syllable_images_match_the_letter_by_letter_product(spec, alphabet):
    for word in reduced_words(alphabet, 4):
        assert _image(word, spec) == _reference_image(word, spec), word.render()


@pytest.mark.parametrize(
    "spec", [free_spec(3, 1, 2), free_spec(5, 1, 2), sorted_spec(5, 1, 2)],
    ids=["free3", "free5", "sorted5"],
)
def test_syllable_images_of_the_class_words(spec):
    # the sweep's class representatives x1^a x2^b: two long syllables
    for a in range(15):
        for b in range(15):
            word = word_from_exponents(FREE2, (a, b))
            assert _image(word, spec) == _reference_image(word, spec), word.render()


def test_relator_kill_grid():
    rec = verify_relator_kill((3, 5, 7), (1, 2, 3))
    assert len(rec["combos"]) == 9


def test_quat_power_identity_spot_values():
    spec = quat_spec(3, 2)
    sign = quat_sign(3, 2)
    local = quat_power_poly(3, 2)
    spots = {
        (1, 2): 1,  # alpha (1,1,0,0) -> unsigned value 1
        (3, 4): 0,  # alpha (0,0,1,1)
        (1, 2, 3, 4): 0,  # alpha (1,1,1,1)
    }
    for letters, unsigned in spots.items():
        g = quaternion_image(GroupWord(SURF2, letters), spec)
        c = power(g, 9)
        got = c.terms.get((8, 1, 2), 0)
        assert got == sign * unsigned % 3
        assert local.evaluate(abelianization(g)) == unsigned


def test_quat_power_identity_random():
    verify_quat_power_identity(3, 2, samples=300, seed=21)
    verify_quat_power_identity(5, 1, samples=100, seed=22)


# ---------------------------------------------------------------------------
# handle collapse


def test_collapse_examples():
    al3 = Alphabet("surface", 3)
    x1 = GroupWord(al3, (1,))
    x3 = GroupWord(al3, (5,))
    assert collapse_to_genus_two(x1, 1).letters == (1,)
    assert collapse_to_genus_two(x3, 1).letters == ()
    # swapped exchanges the x and y roles
    assert collapse_to_genus_two(GroupWord(SURF2, (1,)), 1, swapped=True).letters == (2,)
    # successor pair wraps around
    assert collapse_to_genus_two(x1, 3).letters == (3,)


def test_collapse_kills_relator_through_tau():
    spec = quat_spec(3, 1)
    for genus in (2, 3, 4):
        rel = surface_relator(genus)
        for pair in range(1, genus + 1):
            for swapped in (False, True):
                img = quaternion_image(collapse_to_genus_two(rel, pair, swapped), spec)
                assert img == one(spec)


# ---------------------------------------------------------------------------
# witness bundles


def test_free_witness_exact_psi():
    bundle = assemble_witness_free(3, 2, 1, "full")
    chi = bundle.components[0].factors[0].chi
    assert dict(chi.items) == {
        bytes([0, 0, 0]): 1,
        bytes([0, 1, 1]): 2,
        bytes([1, 1, 1]): 1,
    }
    assert bundle.exponent == 3 and bundle.modulus == 3


@pytest.mark.parametrize("variant", ["full", "sorted"])
def test_free_witness_verifies(variant):
    bundle = assemble_witness_free(3, 2, 1, variant)
    rec = verify_witness(bundle, exhaustive=True, samples=300, seed=5)
    assert rec["classes"] == 8


def test_free_witness_r2():
    bundle = assemble_witness_free(2, 2, 1, "full")
    rec = verify_witness(bundle, exhaustive=True, samples=100, seed=6)
    assert rec["classes"] == 3


def test_free_witness_k_too_small():
    with pytest.raises(InvalidConfig):
        assemble_witness_free(3, 4, 1)


def test_surface_witness_structure():
    bundle = assemble_witness_surface(3, 2, 2)
    comp = bundle.components[0]
    assert len(comp.factors) == 5  # one adjacency-killed + 2g quaternion
    weights = [(f.pair, f.swapped, f.weight) for f in comp.factors[1:]]
    assert weights == [(1, False, 0), (1, True, 2), (2, False, 0), (2, True, 2)]
    assert bundle.exponent == 9


def test_surface_witness_minimal_k_guard():
    with pytest.raises(InvalidConfig):
        assemble_witness_surface(3, 2, 1)


def test_surface_witness_class_checks():
    bundle = assemble_witness_surface(3, 2, 2)
    al = bundle.alphabet
    for vec in [(1, 1, 0, 0), (0, 1, 0, 2), (2, 0, 1, 0)]:
        psi = check_witness_word(bundle, word_from_exponents(al, vec))
        assert psi == bundle.expected_value(vec) != 0
    # words with inverse letters too
    rng = random.Random(31)
    for _ in range(5):
        check_witness_word(bundle, random_word(al, rng, 4))


def test_alpha_of_images_matches_abelianization():
    bundle = assemble_witness_surface(3, 2, 2)
    rng = random.Random(41)
    for _ in range(10):
        w = random_word(bundle.alphabet, rng, 5)
        imgs = bundle.images(w)
        expect = tuple(v % 3 for v in w.exponent_vector())
        assert bundle.alpha_of_images(imgs) == expect


# ---------------------------------------------------------------------------
# CRT lift


def test_crt_field_values():
    b3 = assemble_witness_free(3, 2, 1)
    b5 = assemble_witness_free(5, 2, 1)
    lifted = crt_lift([b3, b5])
    assert lifted.modulus == 15
    assert lifted.exponent == 930
    assert [c.q for c in lifted.components] == [100, 126]


def test_crt_single_prime_is_identity():
    b3 = assemble_witness_free(3, 2, 1)
    lifted = crt_lift([b3])
    assert lifted.exponent == 3 and lifted.modulus == 3


def test_crt_rejects_mismatched_rank():
    b3 = assemble_witness_free(3, 2, 2)
    b5 = assemble_witness_free(5, 3, 2)
    with pytest.raises(InvalidConfig):
        crt_lift([b3, b5])
    with pytest.raises(InvalidConfig):
        crt_lift([assemble_witness_free(3, 2, 1), assemble_witness_free(5, 2, 2)])


def test_crt_witness_all_classes():
    b3 = assemble_witness_free(3, 2, 1)
    b5 = assemble_witness_free(5, 2, 1)
    lifted = crt_lift([b3, b5])
    rec = verify_witness(lifted, exhaustive=True, samples=50, seed=8)
    assert rec["classes"] == 224


def test_crt_mixed_kernel_component():
    # abelianisation 0 mod 3 but not mod 5: the value is 0 mod 3, nonzero mod 5
    b3 = assemble_witness_free(3, 2, 1)
    b5 = assemble_witness_free(5, 2, 1)
    lifted = crt_lift([b3, b5])
    w = word_from_exponents(lifted.alphabet, (3, 0))
    psi = check_witness_word(lifted, w)
    assert psi % 3 == 0 and psi % 5 != 0


def test_verify_witness_guards_oversized_sweeps():
    # constructible but not sweepable: dense powers would exhaust memory
    bundle = assemble_witness_surface(5, 2, 2)
    assert bundle.exponent == 25
    with pytest.raises(InvalidConfig):
        verify_witness(bundle, exhaustive=False, samples=1)


def test_sampled_sweep_stops_at_the_nonzero_classes():
    # more samples than the 3^4 - 1 = 80 nonzero classes: the draw of
    # distinct classes must stop at 80 rather than loop for ever
    bundle = assemble_witness_surface(3, 2, 2)
    rec = verify_witness(bundle, exhaustive=False, samples=100)
    assert rec["classes"] == 80 and rec["samples"] == 100


# ---------------------------------------------------------------------------
# truncated sweeps


@functools.cache
def _bundle(name):
    if name == "free":
        return assemble_witness_free(3, 2, 1)
    if name == "crt":
        return crt_lift([assemble_witness_free(3, 2, 1), assemble_witness_free(5, 2, 1)])
    return assemble_witness_surface(3, 2, 2)


SWEEP = {"exhaustive": True, "samples": 60, "seed": 3}


@pytest.mark.parametrize("name", ["free", "crt", "surface"])
def test_sweep_images_are_the_full_images_truncated(name):
    # e = r^k or 930 reads degree 1 only, so the sweep builds no more
    bundle = _bundle(name)
    top = bundle.sweep_top
    assert top == 1
    _, words = sweep_words(bundle, **SWEEP)
    for word in words:
        full = bundle.images(word)
        cut = tuple(tuple(truncate(g, top) for g in comp) for comp in full)
        assert bundle.images(word, top) == cut, word.render()


@pytest.mark.parametrize("name", ["free", "crt", "surface"])
def test_check_witness_word_with_and_without_a_memo(name):
    bundle = _bundle(name)
    memo = {}
    _, words = sweep_words(bundle, **SWEEP)
    for word in words:
        psi = check_witness_word(bundle, word)
        assert check_witness_word(bundle, word, memo) == psi
        assert psi == bundle.expected_value(word.exponent_vector())
    # a factor's truncated image is fixed by the class mod its prime, so
    # each factor holds at most one verdict per class mod r_c, and each
    # class mod d one expected value, however many random words
    verdicts = collections.Counter(key[:2] for key in memo if isinstance(key[-1], AlgElement))
    assert sum(len(comp.factors) for comp in bundle.components) == len(verdicts)
    for (c, _), count in verdicts.items():
        assert count <= bundle.components[c].r ** bundle.rank
    expected = [key for key in memo if not isinstance(key[-1], AlgElement)]
    assert len(expected) <= bundle.modulus ** bundle.rank


@pytest.mark.parametrize("name", ["free", "crt", "surface"])
def test_a_non_central_verdict_is_kept_in_the_memo(monkeypatch, name):
    # a mutant whose word-algebra "power" is the image itself: a word
    # outside the kernel has no central power, and a memo that has seen
    # its factor images before must say so again
    bundle = _bundle(name)
    monkeypatch.setattr(witness.MagnusFactor, "power", lambda self, g, e: g)
    memo = {}
    _, words = sweep_words(bundle, **SWEEP)
    nonzero = [w for w in words if any(v % bundle.modulus for v in w.exponent_vector())]
    for word in nonzero + nonzero:
        with pytest.raises(PropertyViolation, match="not central"):
            check_witness_word(bundle, word, memo)


def _draws(bundle, exhaustive=True, samples=0, seed=0, sample_len=6):
    """Every word the sweep draws, repeats included, in order: the
    positive word of each class, then ``samples`` words from
    :func:`random_word`, all from one ``random.Random(seed)``.  The loop
    over every draw that the sweep replaced, kept as the oracle of the
    draws' order and of the generator calls."""
    rng = random.Random(seed)
    d, rank = bundle.modulus, bundle.rank
    if exhaustive and d ** rank <= witness.CLASS_CAP:
        classes = [vec for vec in itertools.product(range(d), repeat=rank) if any(vec)]
    else:
        seen = set()
        want = min(witness.CLASS_CAP, max(samples, 1), d ** rank - 1)
        while len(seen) < want:
            vec = tuple(rng.randrange(d) for _ in range(rank))
            if any(vec):
                seen.add(vec)
        classes = sorted(seen)
    drawn = [word_from_exponents(bundle.alphabet, vec) for vec in classes]
    for _ in range(samples):
        drawn.append(random_word(bundle.alphabet, rng, rng.randrange(1, sample_len + 1)))
    return drawn


@pytest.mark.parametrize("name", ["free", "crt", "surface"])
@pytest.mark.parametrize(
    "sweep",
    [
        SWEEP,
        {"exhaustive": True, "samples": 300, "seed": 1},
        {"exhaustive": True, "samples": 200, "seed": 17, "sample_len": 3},
        {"exhaustive": False, "samples": 40, "seed": 5},
        {"exhaustive": False, "samples": 150, "seed": 23, "sample_len": 4},
    ],
    ids=["seed3", "seed1", "seed17-short", "sampled-seed5", "sampled-seed23"],
)
def test_sweep_words_yields_the_first_occurrence_of_each_draw(name, sweep):
    bundle = _bundle(name)
    drawn = _draws(bundle, **sweep)
    classes, words = sweep_words(bundle, **sweep)
    assert classes == len(drawn) - sweep["samples"]
    first = {}
    for word in drawn:
        first.setdefault(word.letters, word)
    assert list(words) == list(first.values())
    assert len(first) < len(drawn)


def _reference_verify(bundle, **sweep):
    """The sweep as a loop over every draw, repeats included, through one
    memo: what verify_witness must agree with, word for word."""
    memo = {}
    for word in _draws(bundle, **sweep):
        check_witness_word(bundle, word, memo)


def _violation(verify, bundle):
    with pytest.raises(PropertyViolation) as info:
        verify(bundle, **SWEEP)
    return str(info.value), info.value.counterexample


def _first_failure(bundle, words, memo=None):
    for word in words:
        try:
            check_witness_word(bundle, word, memo)
        except PropertyViolation:
            return word.render()
    return None


def _assert_caught_at_the_first_word(mutant):
    """The mutant fails, and at the same word of the sweep whether each
    word is checked alone, through one memo, by the loop over every draw
    or by verify_witness."""
    words = _draws(mutant, **SWEEP)
    first = _first_failure(mutant, words)
    assert first is not None
    assert _first_failure(mutant, words, {}) == first
    reference = _violation(_reference_verify, mutant)
    assert reference[1] == first
    assert _violation(verify_witness, mutant) == reference


@pytest.mark.parametrize("name", ["free", "crt", "surface"])
def test_verify_witness_checks_each_distinct_word_once(monkeypatch, name):
    # the draws repeat words, and each is checked at its first occurrence
    bundle = _bundle(name)
    drawn = _draws(bundle, **SWEEP)
    distinct = list(dict.fromkeys(word.letters for word in drawn))
    assert len(distinct) < len(drawn)
    checked = []
    check = witness.check_witness_word

    def counted(bundle, word, memo=None):
        checked.append(word.letters)
        return check(bundle, word, memo)

    monkeypatch.setattr(witness, "check_witness_word", counted)
    rec = verify_witness(bundle, **SWEEP)
    assert checked == distinct
    assert rec["words_checked"] == len({word.letters for word in drawn})
    assert rec["samples"] == SWEEP["samples"]


def _generators_for_inverses(kind_images):
    """``kind_images`` with each inverse letter sent to its generator's
    image: every positive class word passes, a random word may not."""

    @functools.cache
    def images(spec):
        imgs = kind_images(spec)[0]
        return imgs, imgs

    return images


@pytest.mark.parametrize("name", ["free", "crt"])
def test_a_recurring_first_failure_is_reported_as_by_every_draw(monkeypatch, name):
    # the mutant passes every class word and first fails on a random word
    # that the sample draws again later: checking it once must report the
    # same word and violation as the loop over every draw
    bundle = _bundle(name)
    mutant = _generators_for_inverses(witness._magnus_images)
    monkeypatch.setattr(witness, "_magnus_images", mutant)
    message, counterexample = _violation(_reference_verify, bundle)
    drawn = _draws(bundle, **SWEEP)
    renders = [word.render() for word in drawn]
    first = renders.index(counterexample)
    assert first >= sweep_words(bundle, **SWEEP)[0]
    assert renders.count(counterexample) >= 2
    assert _violation(verify_witness, bundle) == (message, counterexample)


@pytest.mark.parametrize(
    "name, comp, factor, item",
    [("free", 0, 0, 1), ("crt", 1, 0, 0), ("surface", 0, 0, 0), ("surface", 0, 2, 0)],
    ids=["free", "crt", "surface-m", "surface-quat"],
)
def test_a_changed_character_weight_is_caught(name, comp, factor, item):
    bundle = _bundle(name)
    comps = list(bundle.components)
    factors = list(comps[comp].factors)
    chi = factors[factor].chi
    items = list(chi.items)
    mono, weight = items[item]
    items[item] = (mono, weight % (chi.spec.r - 1) + 1)
    factors[factor] = dataclasses.replace(
        factors[factor], chi=dataclasses.replace(chi, items=tuple(items))
    )
    comps[comp] = dataclasses.replace(comps[comp], factors=tuple(factors))
    _assert_caught_at_the_first_word(dataclasses.replace(bundle, components=tuple(comps)))


@pytest.mark.parametrize("name", ["free", "surface"])
def test_a_character_word_left_out_of_the_quotient_is_refused(monkeypatch, name):
    # the verdict powers the word-algebra image in A_S, S the words chi
    # reads; a word chi weighs but S left out would read 0 there, so the
    # character refuses such a quotient, on the first word of the sweep
    bundle = _bundle(name)
    factor = bundle.components[0].factors[0]
    assert factor.chi.reading.reads == tuple(sorted(mono for mono, _ in factor.chi.items))
    _, *kept = factor.chi.items
    narrow = dataclasses.replace(factor.spec, reads=[mono for mono, _ in kept])
    word = word_from_exponents(bundle.alphabet, [1] * bundle.rank)
    images = bundle.images(word, bundle.sweep_top)
    assert bundle.verdict(images)[0]
    monkeypatch.setattr(units.CentralCharacter, "reading", property(lambda chi: narrow))
    with pytest.raises(InvalidConfig, match="drops a word the character reads"):
        bundle.verdict(images)
    with pytest.raises(InvalidConfig, match="drops a word the character reads"):
        verify_witness(bundle, **SWEEP)


def _doubled_linear_part(kind_images, index):
    """``kind_images`` with the linear part of generator ``index`` doubled."""

    @functools.cache
    def images(spec):
        imgs = list(kind_images(spec)[0])
        imgs[index] = imgs[index] + imgs[index].graded_part(1)
        return tuple(imgs), tuple(g.inverse_unit() for g in imgs)

    return images


@pytest.mark.parametrize(
    "name, kind_images, index",
    [
        ("free", "_magnus_images", 1),
        ("crt", "_magnus_images", 0),
        ("surface", "_magnus_images", 3),
        ("surface", "_quaternion_images", 0),
    ],
    ids=["free", "crt", "surface-m", "surface-quat"],
)
def test_a_changed_linear_coefficient_is_caught(monkeypatch, name, kind_images, index):
    bundle = _bundle(name)
    mutant = _doubled_linear_part(getattr(witness, kind_images), index)
    monkeypatch.setattr(witness, kind_images, mutant)
    _assert_caught_at_the_first_word(bundle)
