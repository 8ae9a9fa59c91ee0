"""Exact modular arithmetic helpers.

Elements of F_r and Z/d are plain Python ints reduced into [0, m); the
helpers below never use floating point.  CRT coefficients are arbitrary
precision, since the combined exponent e = sum q_i * r_i^k exceeds machine
width already for moderate moduli.
"""

import math

from .errors import InvalidConfig


def is_prime(n: int) -> bool:
    """Trial-division primality check for configuration values (small n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def crt_coefficients(primes, k: int):
    """CRT weights for lifting per-prime data to Z/d, d = prod(primes).

    Returns (qs, e) with q_i = 1 mod r_i^(k+1), q_i = 0 mod r_j^(k+1) for
    j != i, and e = sum_i q_i * r_i^k.
    """
    primes = list(primes)
    if not primes:
        raise InvalidConfig("need at least one prime")
    if len(set(primes)) != len(primes):
        raise InvalidConfig(f"primes must be distinct: {primes}")
    for r in primes:
        if not is_prime(r):
            raise InvalidConfig(f"{r} is not prime")
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    mods = [r ** (k + 1) for r in primes]
    total = math.prod(mods)
    qs = []
    for m in mods:
        rest = total // m
        qs.append(rest * pow(rest, -1, m))
    e = sum(q * r ** k for q, r in zip(qs, primes))
    return qs, e


def catalan_mod(m: int, r: int) -> int:
    """m-th Catalan number mod the prime r, as C(2m, m) - C(2m, m + 1) with
    both binomials taken by Lucas's theorem: the product mod r of the
    binomials of their base-r digits, O(log m) small binomials, where the
    exact values have O(m) digits."""
    if m < 0:
        raise InvalidConfig(f"Catalan index must be >= 0, got {m}")
    if not is_prime(r):
        raise InvalidConfig(f"{r} is not prime")
    return (_lucas_binomial(2 * m, m, r) - _lucas_binomial(2 * m, m + 1, r)) % r


def _lucas_binomial(n: int, e: int, r: int) -> int:
    """C(n, e) mod the prime r, for n, e >= 0; zero when e > n, since some
    base-r digit of e then exceeds the matching digit of n."""
    out = 1
    while e and out:
        out = out * math.comb(n % r, e % r) % r
        n, e = n // r, e // r
    return out
