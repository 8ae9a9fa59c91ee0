import itertools

import pytest

from coverhom import (
    InvalidConfig,
    MonomialType,
    ObservationViolation,
    Poly,
    PropertyViolation,
    TooLarge,
    build_nonvanishing,
    canonicalize_pair_monomials,
    classify,
    minimal_k,
    verify_nonvanishing,
)
from coverhom.nonvanishing import _base_chain, classify_monomial, homogenize


def test_minimal_k_examples():
    assert minimal_k(3, 2) == 1  # 3 > 1*2
    assert minimal_k(3, 4) == 2  # need > 6
    assert minimal_k(3, 1) == 1  # 3 > 0
    assert minimal_k(5, 2) == 1  # 5 > 4
    assert minimal_k(2, 2) == 1  # 2 > 1


def test_base_polynomial_value_semantics():
    # P_1 equals a_2 when a_2 != 0 and a_1 otherwise
    for r in (3, 5):
        p1 = _base_chain(r, 2, ())
        for a1, a2 in itertools.product(range(r), repeat=2):
            expect = a2 if a2 else a1
            assert p1.evaluate((a1, a2)) == expect % r


def test_exact_polynomial_n2():
    p = build_nonvanishing(3, 2, 1)
    assert p.terms == {(3, 0): 1, (1, 2): 2, (0, 3): 1}  # a1^3 - a1 a2^2 + a2^3
    assert p.render() == "a1^3 + 2*a1*a2^2 + a2^3"


def test_k_too_small():
    with pytest.raises(InvalidConfig):
        build_nonvanishing(3, 2, 0)
    with pytest.raises(InvalidConfig):
        build_nonvanishing(3, 4, 1)  # 3 <= 6
    with pytest.raises(InvalidConfig):
        build_nonvanishing(3, 1, 1)  # n >= 2


@pytest.mark.parametrize("r,n,k", [(3, 2, 1), (3, 3, 2), (3, 4, 2), (5, 2, 1), (2, 2, 1), (2, 3, 2)])
def test_brute_force_nonvanishing(r, n, k):
    p = build_nonvanishing(r, n, k)
    assert p.is_homogeneous() and p.total_degree() == r ** k
    rec = verify_nonvanishing(p)
    assert rec["points_checked"] == r ** n - 1


def test_verify_detects_zero():
    # a1 * a2 vanishes off the origin, e.g. at (1, 0)
    p = Poly(3, 2, {(1, 1): 1})
    assert p.evaluate((1, 0)) == 0
    with pytest.raises(PropertyViolation) as exc:
        verify_nonvanishing(p)
    assert exc.value.counterexample == (0, 1)
    assert p.evaluate(exc.value.counterexample) == 0


def test_verify_guard():
    p = build_nonvanishing(3, 4, 2)
    with pytest.raises(TooLarge):
        verify_nonvanishing(p, limit=10)


@pytest.mark.parametrize("r,n", [(3, 2), (3, 3), (5, 2)])
def test_homogenization_pointwise(r, n):
    base = _base_chain(r, n, ())
    homog = homogenize(base, r ** minimal_k(r, n))
    for point in itertools.product(range(r), repeat=n):
        assert base.evaluate(point) == homog.evaluate(point)


def test_homogenization_preserves_residues():
    r, n, k = 3, 4, 2
    base = _base_chain(r, n, ())
    homog = homogenize(base, r ** k)
    base_residues = {
        tuple(e % (r - 1) for e in expo) for expo in base.terms
    }
    homog_residues = {
        tuple(e % (r - 1) for e in expo) for expo in homog.terms
    }
    assert homog_residues <= base_residues


def test_classification_examples():
    r = 3
    assert classify_monomial(r, (9, 0, 0, 0)) is MonomialType.I
    assert classify_monomial(r, (8, 1, 0, 0), paired=True) is MonomialType.IIIB
    assert classify_monomial(r, (8, 0, 1, 0), paired=True) is MonomialType.IIIA
    assert classify_monomial(r, (1, 7, 1, 0)) is MonomialType.II
    with pytest.raises(ObservationViolation):
        classify_monomial(3, (2, 0))  # single variable, exponent != 1 mod 2


def test_classify_covers_all_outputs():
    # Only types I, II, III occur in the construction's output
    for r, n, k in [(3, 2, 1), (3, 4, 2), (5, 2, 1), (5, 4, 2)]:
        p = build_nonvanishing(r, n, k)
        parts = classify(p, paired=(n % 2 == 0))
        merged = sum(len(sub.terms) for sub in parts.values())
        assert merged == len(p.terms)


def test_no_bad_two_variable_monomials():
    for r, n, k in [(3, 4, 2), (5, 4, 2)]:
        p = build_nonvanishing(r, n, k)
        for expo in p.terms:
            support = [e for e in expo if e]
            if len(support) == 2:
                residues = sorted(e % (r - 1) for e in support)
                assert residues == [0, 1 % (r - 1)]


def test_canonicalize_pair_monomials():
    p = build_nonvanishing(3, 4, 2)
    canon = canonicalize_pair_monomials(p)
    # same values everywhere, same degree, IIIb terms in the (1, D-1) shape
    for point in itertools.product(range(3), repeat=4):
        assert p.evaluate(point) == canon.evaluate(point)
    iiib = classify(canon, paired=True)[MonomialType.IIIB]
    assert iiib.terms == {(1, 8, 0, 0): 2, (0, 0, 1, 8): 2}


def test_poly_arithmetic():
    a = Poly(5, 2, {(1, 0): 2})
    b = Poly(5, 2, {(0, 1): 3})
    assert (a + b).terms == {(1, 0): 2, (0, 1): 3}
    assert (a * b).terms == {(1, 1): 1}  # 6 mod 5
    assert (a - a).terms == {}
    assert a.pow(2).terms == {(2, 0): 4}
    assert Poly(5, 2, {}).evaluate((1, 2)) == 0
