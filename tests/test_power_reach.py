"""Powers read their base only up to ``power_reach``: in characteristic r,
(1 + y)^(r^j) = 1 + y^(r^j), so c (1 + y)^e is fixed by y modulo the
degrees above a bound.  The witness sweeps build their images only that
far, so these properties are what make the truncated sweep exact."""

import functools
import random
from dataclasses import replace

import pytest

from coverhom import free_spec, m_spec, one, power, quat_spec, random_element, sorted_spec
from coverhom.algebra import (
    power_reach,
    project,
    truncate,
    truncated_product,
)

from basis_monomials import iter_basis_monomials

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SPECS = [
    free_spec(2, 2, 2),
    free_spec(3, 1, 2),
    free_spec(5, 1, 2),
    sorted_spec(3, 2, 2),
    m_spec(3, 1, 2),
    m_spec(3, 2, 1),
    quat_spec(3, 2),
    quat_spec(5, 1),
]
IDS = ["free2", "free3", "free5", "sorted", "m", "m-k2", "quat", "quat5"]


def _exponents(spec):
    r, cap = spec.r, spec.cap
    return sorted({1, 2, r - 1, r, cap, cap + 1, 930})


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), terms=st.integers(1, 6), scale=st.integers(1, 4))
def test_power_reads_its_base_only_up_to_the_reach(spec, seed, terms, scale):
    rng = random.Random(seed)
    a = random_element(spec, rng, max_terms=terms, unit=True) * (scale % (spec.r - 1) + 1)
    for e in _exponents(spec):
        reach = power_reach(spec, e)
        assert power(a, e) == power(truncate(a, reach), e), (a, e, reach)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), top=st.integers(0, 9))
def test_truncated_product_is_the_product_modulo_the_top(spec, seed, top):
    rng = random.Random(seed)
    a = random_element(spec, rng, max_terms=5)
    b = random_element(spec, rng, max_terms=5)
    assert truncated_product(a, b, top) == truncate(a * b, top)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_power_reach_values(spec):
    r, cap = spec.r, spec.cap
    assert power_reach(spec, 0) == power_reach(spec, 1) == cap
    # a nonzero digit at r^0 reads every degree
    assert power_reach(spec, cap + 1) == cap
    # (1 + y)^(r^k) = 1 + y^(r^k) reads the linear part only
    assert power_reach(spec, cap) == 1
    if r in (3, 5) and cap == r:
        assert power_reach(spec, 930) == 1  # the CRT exponent at D = 3 and 5
    # every digit below r^(k+1) is zero: the power is the scalar c^e
    assert power_reach(spec, cap * r) == 0
    assert power(random_element(spec, random.Random(1), unit=True), cap * r) == one(spec)


# the sweeps power word-algebra images in a quotient A_S, S a set of
# degree-D words: the projection A -> A_S is a ring map, so it commutes
# with powers, and the kernel computes degree D only on S
QUOTIENT_SPECS = [
    free_spec(3, 1, 2),
    free_spec(5, 1, 2),
    sorted_spec(3, 2, 2),
    sorted_spec(5, 1, 3),
    m_spec(3, 1, 2),
    m_spec(5, 1, 2),
    m_spec(3, 2, 2),
]
QUOTIENT_IDS = ["free3", "free5", "sorted3", "sorted5", "m3", "m5", "m3-k2"]


@functools.cache
def _top_words(spec):
    return [m for m in iter_basis_monomials(spec) if len(m) == spec.cap]


@pytest.mark.parametrize("spec", QUOTIENT_SPECS, ids=QUOTIENT_IDS)
def test_powers_in_a_quotient_are_the_projected_powers(spec):
    rng = random.Random(QUOTIENT_SPECS.index(spec))
    top = _top_words(spec)
    for _ in range(8):
        quotient = replace(spec, reads=rng.sample(top, rng.randrange(1, min(len(top), 24) + 1)))
        a = random_element(spec, rng, max_terms=rng.randrange(1, 8), unit=True)
        a = a * rng.randrange(1, spec.r)
        for e in (spec.cap, 930, rng.randrange(2, 3000), -rng.randrange(1, 50)):
            got = power(project(a, quotient), e)
            assert got.spec == quotient
            assert got == project(power(a, e), quotient), (a, e, quotient.reads)
