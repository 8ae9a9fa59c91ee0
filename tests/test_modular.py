import math

import pytest

from coverhom import InvalidConfig, catalan_mod, crt_coefficients
from coverhom.modular import _lucas_binomial


def test_crt_coefficients_example():
    qs, e = crt_coefficients((3, 5), 1)
    assert qs == [100, 126]
    assert e == 100 * 3 + 126 * 5 == 930
    # direct modular arithmetic on the stated congruences
    assert qs[0] % 9 == 1 and qs[0] % 25 == 0
    assert qs[1] % 9 == 0 and qs[1] % 25 == 1


def test_crt_single_prime():
    qs, e = crt_coefficients((3,), 1)
    assert qs == [1] and e == 3


def test_crt_repeated_prime_rejected():
    with pytest.raises(InvalidConfig):
        crt_coefficients((3, 3), 1)


@pytest.mark.parametrize("primes,k", [((3, 5), 1), ((3, 5, 7), 2), ((5, 11), 3)])
def test_crt_congruence_families(primes, k):
    qs, e = crt_coefficients(primes, k)
    for i, qi in enumerate(qs):
        for j, rj in enumerate(primes):
            assert qi % rj ** (k + 1) == (1 if i == j else 0)
    assert e == sum(q * r ** k for q, r in zip(qs, primes))


def _pascal_mod(n, r):
    # independent oracle: Pascal's triangle reduced mod r
    row = [1]
    for _ in range(n):
        row = [1] + [(a + b) % r for a, b in zip(row, row[1:])] + [1]
    return row


def test_binomial_examples():
    assert _lucas_binomial(3, 1, 3) == 0  # C(3,1) = 3
    assert _lucas_binomial(9, 4, 3) == 0  # 126 = 3 * 42
    assert _lucas_binomial(9, 9, 3) == 1


def test_binomial_against_pascal():
    for n in (5, 9, 27):
        row = _pascal_mod(n, 3)
        for e in range(n + 1):
            assert _lucas_binomial(n, e, 3) == row[e]


def test_binomial_out_of_range():
    # a digit of e exceeds the matching digit of n
    assert _lucas_binomial(5, 6, 3) == 0


def test_prime_power_binomials_vanish():
    # C(r^k, e) = 0 mod r for 0 < e < r^k; exhaustive at r = 3, k <= 3
    for k in (1, 2, 3):
        n = 3 ** k
        for e in range(1, n):
            assert _lucas_binomial(n, e, 3) == 0
        assert _lucas_binomial(n, 0, 3) == 1 and _lucas_binomial(n, n, 3) == 1


def test_catalan_values():
    # 1, 1, 2, 5, 14, 42, 132
    cats = [math.comb(2 * m, m) // (m + 1) for m in range(7)]
    for m, c in enumerate(cats):
        for r in (3, 5, 7):
            assert catalan_mod(m, r) == c % r


def test_catalan_mod_by_lucas_matches_the_exact_formula():
    for r in (2, 3, 5, 7, 11):
        for m in range(400):
            exact = math.comb(2 * m, m) - math.comb(2 * m, m + 1)
            assert catalan_mod(m, r) == exact % r, (m, r)
    # Lucas's theorem needs a prime modulus
    with pytest.raises(InvalidConfig, match="not prime"):
        catalan_mod(3, 4)
