import random

import pytest

from coverhom import (
    CentralCharacter,
    InvalidConfig,
    NotInC,
    Poly,
    PropertyViolation,
    UnsupportedMonomialType,
    abelianization,
    build_nonvanishing,
    character_for_monomial,
    character_from_poly,
    free_spec,
    in_central_subgroup,
    m_spec,
    one,
    power,
    quat_spec,
    quat_term,
    random_element,
    sorted_spec,
    symbol,
    verify_power_character,
)
from coverhom import units
from coverhom.algebra import AlgElement, monomial_ok, project


def test_abelianization_word():
    spec = free_spec(3, 1, 2)
    g = one(spec) + symbol(spec, 0) * 2 + symbol(spec, 1)
    assert abelianization(g) == (2, 1)
    assert abelianization(one(spec)) == (0, 0)


def test_abelianization_quat():
    spec = quat_spec(3, 1)
    assert abelianization(one(spec) + quat_term(spec, 1, 0, 1)) == (1, 0, 0, 0)
    assert abelianization(one(spec) + quat_term(spec, 0, 1, 2)) == (0, 1, 0, 0)
    assert abelianization(one(spec) + quat_term(spec, 1, 0, 2)) == (0, 0, 1, 0)
    assert abelianization(one(spec) + quat_term(spec, 0, 1, 1)) == (0, 0, 0, 1)


def test_abelianization_is_homomorphism():
    rng = random.Random(5)
    for spec in (free_spec(3, 2, 2), sorted_spec(3, 2, 2), m_spec(3, 2, 2), quat_spec(3, 2)):
        r = spec.r
        for _ in range(300):
            g = random_element(spec, rng, unit=True)
            h = random_element(spec, rng, unit=True)
            left = abelianization(g * h)
            right = tuple(
                (a + b) % r for a, b in zip(abelianization(g), abelianization(h))
            )
            assert left == right


def test_in_central_subgroup():
    spec = free_spec(3, 1, 2)
    assert in_central_subgroup(one(spec) + AlgElement(spec, {bytes([0, 1, 0]): 1}))
    assert not in_central_subgroup(one(spec) + symbol(spec, 0))
    assert in_central_subgroup(one(spec))
    qs = quat_spec(3, 1)
    assert in_central_subgroup(one(qs) + quat_term(qs, 2, 1, 2))
    assert not in_central_subgroup(one(qs) + quat_term(qs, 1, 1, 2))


def _central_by_difference(g):
    """The definition in_central_subgroup replaced, kept as an oracle:
    g - 1 is zero or starts in the top degree."""
    md = (g - 1).min_degree()
    return md is None or md >= g.spec.cap


@pytest.mark.parametrize(
    "spec",
    [
        free_spec(3, 1, 2), free_spec(3, 2, 2), sorted_spec(3, 1, 2), sorted_spec(3, 2, 3),
        m_spec(3, 1, 2), m_spec(3, 2, 2), quat_spec(3, 1), quat_spec(3, 2),
    ],
    ids=str,
)
def test_in_central_subgroup_matches_the_difference_definition(spec):
    rng = random.Random(spec.cap * 10 + len(spec.kind))
    seen = set()
    for _ in range(300):
        top = random_element(spec, rng, max_terms=4).graded_part(spec.cap)
        candidates = [
            random_element(spec, rng),  # any constant term, 0 included
            random_element(spec, rng, unit=True),
            one(spec) + top,
            one(spec) * 2 + top,  # a constant other than 1
        ]
        if spec.kind == "quat":
            # quaternion units i, j, k also live in degree 0
            candidates.append(one(spec) + top + quat_term(spec, 0, 0, rng.randrange(1, 4)))
        for g in candidates:
            expect = _central_by_difference(g)
            assert in_central_subgroup(g) == expect, g.render()
            seen.add(expect)
    assert seen == {True, False}


def test_central_subgroup_is_central():
    rng = random.Random(11)
    for spec in (free_spec(3, 1, 2), sorted_spec(3, 2, 2), m_spec(3, 1, 2), quat_spec(3, 2)):
        cap = spec.cap
        for _ in range(200):
            g = random_element(spec, rng, unit=True)
            c = one(spec) + random_element(spec, rng, max_terms=3).graded_part(cap)
            assert c * g == g * c


def test_powers_land_in_central():
    rng = random.Random(13)
    for spec in (free_spec(3, 1, 2), sorted_spec(3, 2, 2), m_spec(3, 1, 2), quat_spec(3, 2)):
        for _ in range(100):
            g = random_element(spec, rng, unit=True)
            assert in_central_subgroup(power(g, spec.cap))


def test_psi_examples():
    spec = free_spec(3, 1, 2)
    x, y = bytes([0]), bytes([1])
    chi = CentralCharacter(spec, ((x * 3, 1),))
    cube = power(one(spec) + symbol(spec, 0), 3)
    assert chi(cube) == 1
    assert chi(one(spec)) == 0
    chi3 = CentralCharacter(spec, ((x * 3, 1), (x + y * 2, 2), (y * 3, 1)))
    big = power(one(spec) + symbol(spec, 0) + symbol(spec, 1), 3)
    assert chi3(big) == (1 - 1 + 1) % 3


def test_psi_requires_central():
    spec = free_spec(3, 1, 2)
    chi = CentralCharacter(spec, ((bytes([0, 0, 0]), 1),))
    with pytest.raises(NotInC):
        chi(one(spec) + symbol(spec, 0))


def test_psi_rejects_low_degree_targets():
    spec = free_spec(3, 1, 2)
    with pytest.raises(InvalidConfig):
        CentralCharacter(spec, ((bytes([0]), 1),))


def test_psi_homomorphism_on_central():
    rng = random.Random(19)
    for spec in (free_spec(3, 1, 2), m_spec(3, 1, 2), quat_spec(3, 1)):
        cap, r = spec.cap, spec.r
        if spec.kind == "quat":
            items = (((cap - 1, 1, 2), 1), ((cap, 0, 1), 2))
        else:
            mono = bytes([0]) * cap
            items = ((mono, 1),)
        chi = CentralCharacter(spec, items)
        for _ in range(200):
            c1 = one(spec) + random_element(spec, rng).graded_part(cap)
            c2 = one(spec) + random_element(spec, rng).graded_part(cap)
            assert chi(c1 * c2) == (chi(c1) + chi(c2)) % r


def test_character_for_monomial_free_and_sorted():
    for spec in (free_spec(3, 1, 2), sorted_spec(3, 1, 2)):
        word = character_for_monomial((3, 0), spec)
        assert word == bytes([0, 0, 0])
        assert monomial_ok(spec, word)
    word = character_for_monomial((1, 2), sorted_spec(3, 1, 2))
    assert word == bytes([0, 1, 1])


def test_character_for_monomial_m_kind():
    spec = m_spec(3, 2, 2)
    # x1^8 y2: seed from distinct pairs, no same-pair adjacency
    word = character_for_monomial((8, 0, 0, 1), spec)
    assert monomial_ok(spec, word)
    assert sorted(word) == sorted(bytes([0] * 8 + [3]))
    # type II with all four variables
    word = character_for_monomial((5, 2, 1, 1), spec)
    assert monomial_ok(spec, word)
    assert sorted(word) == sorted(bytes([0] * 5 + [1] * 2 + [2] + [3]))
    with pytest.raises(UnsupportedMonomialType):
        character_for_monomial((8, 1, 0, 0), spec)
    with pytest.raises(InvalidConfig):
        character_for_monomial((1, 0, 0, 0), spec)  # degree != r^k


def test_character_from_poly_free_witness():
    spec = free_spec(3, 1, 2)
    poly = build_nonvanishing(3, 2, 1)
    chi = character_from_poly(spec, poly)
    assert dict(chi.items) == {
        bytes([0, 0, 0]): 1,
        bytes([0, 1, 1]): 2,
        bytes([1, 1, 1]): 1,
    }


def test_verify_power_character_exhaustive():
    spec = free_spec(3, 1, 2)
    poly = build_nonvanishing(3, 2, 1)
    rec = verify_power_character(spec, poly, samples=300, seed=7, assert_nonzero=True)
    assert rec["classes"] == 9
    # value is zero only on the zero class
    for vec in [(0, 0), (1, 0), (1, 2)]:
        g = one(spec) + symbol(spec, 0) * vec[0] + symbol(spec, 1) * vec[1]
        chi = character_from_poly(spec, poly)
        val = chi(power(g, 3))
        assert (val == 0) == (vec == (0, 0))


def test_verify_power_character_powers_in_the_characters_quotient(monkeypatch):
    # chi reads only its own words at the top degree, so each unit is
    # powered in the quotient A_S that keeps them, and its power there is
    # the full power with the other top-degree words dropped
    spec = free_spec(3, 1, 2)
    poly = build_nonvanishing(3, 2, 1)
    chi = character_from_poly(spec, poly)
    powered = []

    def recorded(g, e):
        powered.append((g, e))
        return power(g, e)

    monkeypatch.setattr(units, "power", recorded)
    verify_power_character(spec, poly, samples=30, seed=2)
    assert len(powered) == 9 + 30
    for g, e in powered:
        assert g.spec == chi.reading and e == spec.cap
        assert power(g, e) == project(power(AlgElement(spec, g.terms), e), chi.reading)


def test_verify_power_character_holds_for_any_homogeneous_poly():
    # the character construction works for any homogeneous degree-r^k
    # polynomial, not just the non-vanishing one
    spec = free_spec(3, 1, 2)
    assert verify_power_character(spec, Poly(3, 2, {(2, 1): 1}))["classes"] == 9


def test_verify_power_character_catches_vanishing_witness():
    # a1^3 vanishes on the nonzero class (0, 1): the witness assertion fails
    spec = free_spec(3, 1, 2)
    with pytest.raises(PropertyViolation):
        verify_power_character(
            spec, Poly(3, 2, {(3, 0): 1}), assert_nonzero=True
        )


def test_mismatched_character_detected():
    # evaluating the character of one polynomial against another disagrees
    spec = free_spec(3, 1, 2)
    chi = character_from_poly(spec, build_nonvanishing(3, 2, 1))
    other = Poly(3, 2, {(3, 0): 1})
    g = one(spec) + symbol(spec, 1)  # P(0,1) = 1 but a1^3 gives 0
    assert chi(power(g, 3)) != other.evaluate((0, 1))
