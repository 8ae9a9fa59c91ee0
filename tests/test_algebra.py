import itertools
import random

import pytest

from coverhom import (
    AlgElement,
    InvalidConfig,
    NotAUnit,
    SpecMismatch,
    free_spec,
    m_spec,
    one,
    power,
    quat_spec,
    quat_term,
    random_element,
    sorted_spec,
    symbol,
    zero,
)
from coverhom.algebra import count_basis_monomials, iter_basis_monomials, monomial_ok

ALL_SPECS = [
    free_spec(3, 1, 2),
    free_spec(3, 2, 2),
    sorted_spec(3, 1, 2),
    sorted_spec(3, 2, 3),
    m_spec(3, 1, 2),
    m_spec(3, 2, 2),
    quat_spec(3, 1),
    quat_spec(3, 2),
]


def test_spec_validation():
    with pytest.raises(InvalidConfig):
        free_spec(4, 1, 2)  # not prime
    with pytest.raises(InvalidConfig):
        m_spec(2, 1, 2)  # r = 2 rejected off the free case
    with pytest.raises(InvalidConfig):
        quat_spec(2, 1)
    with pytest.raises(InvalidConfig):
        free_spec(3, 0, 2)
    # r = 2 is fine for the free/sorted kinds
    assert free_spec(2, 1, 2).cap == 2
    assert sorted_spec(2, 3, 2).cap == 8


def test_monomial_counts():
    assert count_basis_monomials(free_spec(3, 1, 2)) == 15
    assert count_basis_monomials(sorted_spec(3, 1, 2)) == 10
    assert count_basis_monomials(m_spec(3, 2, 2)) == 39365
    assert count_basis_monomials(quat_spec(3, 1)) == 28


@pytest.mark.parametrize("spec", [free_spec(3, 1, 2), sorted_spec(3, 1, 2), m_spec(3, 1, 2), quat_spec(3, 1)])
def test_iter_matches_count_and_admissibility(spec):
    monos = list(iter_basis_monomials(spec))
    assert len(monos) == len(set(monos)) == count_basis_monomials(spec)
    assert all(monomial_ok(spec, m) for m in monos)


def test_m_kind_kills_adjacent_pairs():
    spec = m_spec(3, 2, 2)
    x1, y1, x2 = symbol(spec, 0), symbol(spec, 1), symbol(spec, 2)
    assert not (x1 * y1)
    assert not (y1 * x1)
    assert (x1 * x2 * y1)  # different pairs survive
    assert (x1 * x1)


def test_sorted_kind_kills_descents():
    spec = sorted_spec(3, 1, 2)
    x1, x2 = symbol(spec, 0), symbol(spec, 1)
    assert not (x2 * x1)
    assert (x1 * x2).terms == {bytes([0, 1]): 1}


def test_quat_hamilton_products():
    spec = quat_spec(3, 1)
    ai = quat_term(spec, 1, 0, 1)
    bj = quat_term(spec, 0, 1, 2)
    assert (ai * bj).terms == {(1, 1, 3): 1}  # AB k
    assert (bj * ai).terms == {(1, 1, 3): 2}  # -AB k
    b = quat_term(spec, 0, 1, 0)
    assert not (b * b)  # B^2 = 0
    a = quat_term(spec, 1, 0, 0)
    assert not (power(a, 3) * b)  # A^(r^k) B = 0
    assert not power(a, 4)  # A^(r^k + 1) = 0


def test_quat_unit_square_table():
    spec = quat_spec(3, 1)
    for unit in (1, 2, 3):
        sq = quat_term(spec, 0, 0, unit) * quat_term(spec, 0, 0, unit)
        assert sq.terms == {(0, 0, 0): 2}  # i^2 = j^2 = k^2 = -1


def test_spec_mismatch():
    with pytest.raises(SpecMismatch):
        symbol(free_spec(3, 1, 2), 0) * symbol(free_spec(3, 2, 2), 0)


def test_inverse_geometric_series():
    # (1 + A)^-1 = 1 + sum (-1)^e A^e, truncated at D = 3
    spec = free_spec(3, 1, 2)
    inv = (one(spec) + symbol(spec, 0)).inverse_unit()
    x = bytes([0])
    assert inv.terms == {b"": 1, x: 2, x * 2: 1, x * 3: 2}


def test_inverse_of_one():
    for spec in ALL_SPECS:
        assert one(spec).inverse_unit() == one(spec)


def test_inverse_m_kind_adjacency():
    spec = m_spec(3, 1, 1)
    g = one(spec) + symbol(spec, 0) + symbol(spec, 1)
    inv = g.inverse_unit()
    assert g * inv == one(spec)
    assert inv * g == one(spec)
    # cross terms die, so each symbol inverts like a one-variable series
    x, y = bytes([0]), bytes([1])
    assert inv.terms == {b"": 1, x: 2, y: 2, x * 2: 1, y * 2: 1, x * 3: 2, y * 3: 2}


def test_inverse_requires_unit():
    spec = free_spec(3, 1, 2)
    with pytest.raises(NotAUnit):
        symbol(spec, 0).inverse_unit()
    with pytest.raises(NotAUnit):
        (one(spec) * 2).inverse_unit()


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_inverse_random_units(spec):
    rng = random.Random(ALL_SPECS.index(spec))
    for _ in range(1000):
        g = random_element(spec, rng, max_terms=rng.randrange(1, 6), unit=True)
        inv = g.inverse_unit()
        assert g * inv == one(spec)
        assert inv * g == one(spec)


def test_power_small_expansions():
    spec = free_spec(3, 1, 2)
    u = one(spec) + symbol(spec, 0)
    # oracle: binomial expansion with Pascal coefficients mod 3
    assert power(u, 3).terms == {b"": 1, bytes([0, 0, 0]): 1}

    v = one(spec) + symbol(spec, 0) + symbol(spec, 1)
    cube = power(v, 3)
    # oracle: every word of length 3 appears once (enumerate sequences)
    expected = {b"": 1}
    for seq in itertools.product((0, 1), repeat=3):
        expected[bytes(seq)] = 1
    assert cube.terms == expected

    ss = sorted_spec(3, 1, 2)
    w = one(ss) + symbol(ss, 0) + symbol(ss, 1)
    expected_sorted = {b"": 1}
    for seq in itertools.product((0, 1), repeat=3):
        if tuple(sorted(seq)) == seq:
            expected_sorted[bytes(seq)] = 1
    assert power(w, 3).terms == expected_sorted


def test_power_negative_exponent():
    spec = free_spec(3, 2, 2)
    rng = random.Random(4)
    g = random_element(spec, rng, unit=True)
    assert power(g, -2) == power(g.inverse_unit(), 2)
    assert power(g, 0) == one(spec)


def test_power_square_multiply_matches_sequential():
    spec = free_spec(5, 1, 2)
    rng = random.Random(9)
    g = random_element(spec, rng, unit=True)
    seq = one(spec)
    for _ in range(30):
        seq = seq * g
    assert power(g, 30) == seq


def _reference_power(a, e):
    """The square-and-multiply power that the base-r digit expansion
    replaced, kept as the oracle: sequential products for a sparse base
    and a small exponent, binary powering otherwise."""
    if e < 0:
        return _reference_power(a.inverse_unit(), -e)
    result = one(a.spec)
    if e == 0:
        return result
    if e == 1:
        return a
    if len(a.terms) <= 64 and e <= 4 * a.spec.cap:
        acc = a
        for _ in range(e - 1):
            acc = acc * a
        return acc
    base = a
    while True:
        if e & 1:
            result = result * base
        e >>= 1
        if not e:
            return result
        base = base * base


POWER_SPECS = ALL_SPECS + [free_spec(2, 2, 2), free_spec(5, 1, 2), quat_spec(5, 1)]


@pytest.mark.parametrize("spec", POWER_SPECS)
def test_power_matches_reference(spec):
    # the digit expansion covers every c * (1 + y) with c != 0; nilpotent
    # elements (c = 0) and a quaternion unit in degree 0 take the fallback
    rng = random.Random(POWER_SPECS.index(spec))
    r, cap = spec.r, spec.cap
    elements = []
    for _ in range(6):
        u = random_element(spec, rng, max_terms=rng.randrange(1, 6), unit=True)
        elements.append(u)
        if r > 2:
            elements.append(u * rng.randrange(2, r))
        nil = random_element(spec, rng, max_terms=4)
        elements.append(nil - nil.graded_part(0))
    if spec.kind == "quat":
        elements.append(quat_term(spec, 0, 0, 1) + quat_term(spec, 1, 0, 2))
        elements.append(one(spec) + quat_term(spec, 0, 0, 1) + quat_term(spec, 0, 1, 3))
    exponents = {2, r - 1, r, cap, cap + 1, cap * r, 930, rng.randrange(5000)}
    for a in elements:
        for e in sorted(exponents):
            assert power(a, e) == _reference_power(a, e), (a, e)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_ring_axioms_random(spec):
    rng = random.Random(ALL_SPECS.index(spec))
    for _ in range(10000):
        a = random_element(spec, rng, max_terms=3)
        b = random_element(spec, rng, max_terms=3)
        c = random_element(spec, rng, max_terms=3)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_truncation_soundness(spec):
    rng = random.Random(17)
    for _ in range(300):
        a = random_element(spec, rng, max_terms=4)
        b = random_element(spec, rng, max_terms=4)
        da, db = a.min_degree(), b.min_degree()
        if da is None or db is None:
            assert not (a * b)
            continue
        prod = a * b
        dp = prod.min_degree()
        assert dp is None or dp >= da + db


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_freshmans_dream(spec):
    # u^(r^k) = 1 + (linear part)^(r^k): binomials C(r^k, e) vanish and any
    # term touching degree >= 2 overshoots the truncation
    rng = random.Random(ALL_SPECS.index(spec))
    e = spec.cap
    for _ in range(200):
        u = random_element(spec, rng, max_terms=rng.randrange(1, 6), unit=True)
        ell = u.graded_part(1)
        assert power(u, e) == one(spec) + power(ell, e)


@pytest.mark.parametrize("spec", [free_spec(3, 1, 2), sorted_spec(3, 1, 2), m_spec(3, 1, 2)])
def test_kernel_matches_adjacency_rule(spec):
    # the fast product kernel only tests the junction of the two factors;
    # it must agree with the spec's adjacency rule on every basis pair
    basis = list(iter_basis_monomials(spec))
    for a in basis:
        for b in basis:
            prod = AlgElement(spec, {a: 1}) * AlgElement(spec, {b: 1})
            assert bool(prod) == monomial_ok(spec, a + b)


def test_structure_maps():
    spec = free_spec(3, 1, 2)
    g = AlgElement(spec, {b"": 1, bytes([0]): 2, bytes([1]): 1, bytes([0, 1]): 1})
    assert g.augmentation() == 1
    assert g.linear_coeffs() == (2, 1)
    assert g.graded_part(2).terms == {bytes([0, 1]): 1}
    assert g.graded_part(0) == one(spec)
    assert zero(spec).min_degree() is None
    assert g.min_degree() == 0


def test_render_and_canonical_order():
    spec = free_spec(3, 1, 2)
    g = AlgElement(spec, {bytes([0, 1]): 1, b"": 1, bytes([0]): 2})
    assert g.render() == "1 + 2*X1 + X1.X2"
    q = quat_spec(3, 1)
    h = AlgElement(q, {(2, 1, 2): 1, (0, 0, 0): 1})
    assert h.render() == "1 + A^2.B.j"


def test_serialisation_round_trip():
    rng = random.Random(23)
    for spec in ALL_SPECS:
        g = random_element(spec, rng, max_terms=5)
        assert AlgElement.from_dict(spec, g.to_dict()) == g
        assert isinstance(g.canonical_bytes(), bytes)


def test_canonical_bytes_distinguishes():
    spec = free_spec(3, 1, 2)
    a = one(spec) + symbol(spec, 0)
    b = one(spec) + symbol(spec, 1)
    assert a.canonical_bytes() != b.canonical_bytes()
    assert a.canonical_bytes() == (one(spec) + symbol(spec, 0)).canonical_bytes()
