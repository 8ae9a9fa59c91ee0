"""The product kernel against a reference: the term-pair loop that adds
every product into one map and reduces it mod r afterwards, testing each
junction by ``spec.adjacent_ok``.  Every word product outside the top
degree of a quotient A_S goes by ``algebra._mul_word_loop``, so the cases
here range from single terms to dense powers whose coefficients cancel
mod r."""

import random
from dataclasses import replace

import pytest

from coverhom import AlgebraSpec, free_spec, m_spec, random_element, sorted_spec, zero
from coverhom.algebra import _QMUL, _mul_terms, power, project, symbol

from basis_monomials import iter_basis_monomials


def _reference_mul(spec, aterms, bterms, top=None):
    """The product of two term maps, one term pair at a time, with every
    junction tested by ``spec.adjacent_ok``; coefficients mod r, zeros
    dropped."""
    top = spec.cap if top is None else top
    deg = spec.degree
    out = {}
    for ma, ca in aterms.items():
        for mb, cb in bterms.items():
            if deg(ma) + deg(mb) > top:
                continue
            if spec.kind == "quat":
                (u1, v1, l1), (u2, v2, l2) = ma, mb
                if v1 + v2 > 1:
                    continue
                sign, unit = _QMUL[4 * l1 + l2]
                key, c = (u1 + u2, v1 + v2, unit), sign * ca * cb
            else:
                if ma and mb and not spec.adjacent_ok(ma[-1], mb[0]):
                    continue
                key, c = ma + mb, ca * cb
            out[key] = out.get(key, 0) + c
    return {mono: c % spec.r for mono, c in out.items() if c % spec.r}


KERNEL_SPECS = [
    AlgebraSpec(kind, r, k, ngens)
    for kind, ngens in (("free", 2), ("sorted", 3), ("m", 4), ("quat", 2))
    for r in (2, 3, 5, 7)
    for k in (1, 2)
    if r ** k <= 25 and not (r == 2 and kind in ("m", "quat"))
]


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
def test_kernel_matches_reference_on_random_elements(spec):
    rng = random.Random(KERNEL_SPECS.index(spec))
    for _ in range(150):
        a = random_element(spec, rng, max_terms=rng.choice((1, 3, 10, 60)))
        b = random_element(spec, rng, max_terms=rng.choice((1, 3, 10, 60)))
        top = rng.choice((None, rng.randrange(spec.cap + 1)))
        got = _mul_terms(spec, a.terms, b.terms, top)
        assert got == _reference_mul(spec, a.terms, b.terms, top), (a, b, top)
        assert all(0 < c < spec.r for c in got.values())


def _full_linear(spec, rng):
    """A degree-1 element with every generator, random nonzero
    coefficients."""
    y = zero(spec)
    for i in range(spec.ngens):
        y = y + symbol(spec, i) * rng.randrange(1, spec.r)
    return y


# (spec, i, j) for y^i * y^j: the m-kind y^3 * y^3 in four letters has
# 36 x 36 terms, the size of the surface sweep's products below degree D,
# y^3 * y^6 has 36 x 972, and the sorted y^4 * y^5 in four letters 35 x 56
DENSE = [
    (m_spec(3, 2, 2), 3, 3),
    (m_spec(3, 2, 2), 3, 6),
    (m_spec(3, 2, 2), 6, 3),
    (m_spec(3, 2, 2), 1, 1),
    (m_spec(3, 2, 2), 2, 2),
    (free_spec(3, 2, 2), 3, 6),
    (free_spec(3, 2, 2), 2, 2),
    (sorted_spec(3, 2, 3), 3, 6),
    (sorted_spec(3, 2, 4), 4, 5),
    (sorted_spec(3, 2, 4), 5, 4),
]


@pytest.mark.parametrize("spec, i, j", DENSE, ids=[f"{s.kind}-y{i}-y{j}" for s, i, j in DENSE])
def test_kernel_matches_reference_on_dense_powers(spec, i, j):
    rng = random.Random(i * 10 + j)
    y = _full_linear(spec, rng)
    a, b = power(y, i), power(y, j)
    for top in (None, i + j - 1, i + j):
        got = _mul_terms(spec, a.terms, b.terms, top)
        assert got == _reference_mul(spec, a.terms, b.terms, top)


CANCEL = [(free_spec(3, 2, 3), 2), (sorted_spec(3, 2, 4), 4), (m_spec(3, 2, 2), 3)]


@pytest.mark.parametrize("spec, d", CANCEL, ids=["free", "sorted", "m"])
def test_kernel_cancels_across_left_degrees(spec, d):
    # a = (all words of degrees d and d + 1), b = (all of degree d + 1)
    # + 2 (all of degree d): a word w of degree 2d + 1 is hit as
    # w[:d] * w[d:] with coefficient 1 and as w[:d+1] * w[d+1:] with 2, so
    # it cancels mod 3, in the loop's final reduction
    words = [m for m in iter_basis_monomials(spec) if d <= len(m) <= d + 1]
    a = {m: 1 for m in words}
    b = {m: 2 if len(m) == d else 1 for m in words}
    got = _mul_terms(spec, a, b)
    assert got == _reference_mul(spec, a, b)
    assert sorted({len(m) for m in got}) == [n for n in (2 * d, 2 * d + 2) if n <= spec.cap]


QUOTIENTS = [free_spec(3, 2, 2), sorted_spec(3, 2, 3), m_spec(5, 1, 2)]


@pytest.mark.parametrize("spec", QUOTIENTS, ids=["free", "sorted", "m"])
def test_quotient_products_match_the_projected_reference(spec):
    # in A_S a product to degree D is taken whole, its degree-D words
    # outside S dropped, when it has fewer term pairs than S has splits,
    # and otherwise read at degree D off the splits of each word of S,
    # with no pass below D when the factors' least degrees sum to D
    rng = random.Random(QUOTIENTS.index(spec))
    top = [m for m in iter_basis_monomials(spec) if len(m) == spec.cap]
    y = _full_linear(spec, rng)
    powers = [power(y, i) for i in range(spec.cap + 1)]
    paths = set()
    for _ in range(60):
        quotient = replace(spec, reads=rng.sample(top, rng.randrange(1, 25)))
        # mixed degrees, so that degree D and the degrees below it both get terms
        a, b = (sum(rng.sample(powers, rng.randrange(1, 4)), zero(spec)) for _ in range(2))
        pa, pb = project(a, quotient), project(b, quotient)
        got = _mul_terms(quotient, pa.terms, pb.terms)
        assert got == {m: c for m, c in _reference_mul(spec, a.terms, b.terms).items()
                       if len(m) < spec.cap or m in quotient.read_set}
        if len(pa.terms) * len(pb.terms) < len(quotient.reads) * (spec.cap + 1):
            paths.add("whole")
        else:
            paths.add(min(map(len, pa.terms)) + min(map(len, pb.terms)) < spec.cap)
    assert paths == {"whole", False, True}
