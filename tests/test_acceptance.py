"""Acceptance suite: one test per criterion, each printing a pass line
with its headline numbers (run pytest with -s to see them).  Budgets are
asserted where stated.
"""

import random
import time

import pytest

from coverhom import (
    GroupWord,
    IsotypicProjector,
    assemble_witness_free,
    assemble_witness_surface,
    build_cover,
    build_nonvanishing,
    central_slice,
    crt_lift,
    free_spec,
    gaschutz_check,
    isotypic_projection_check,
    m_spec,
    minimal_k,
    nonkernel_predicate,
    one,
    orbit_span_rank,
    power,
    quat_spec,
    random_element,
    sorted_spec,
    verify_nonvanishing,
    verify_power_character,
    verify_quat_power_identity,
    verify_relator_kill,
    verify_witness,
)
from coverhom.covers import FiniteQuotient, ResidueImage
from coverhom.units import abelianization
from coverhom.witness import Alphabet, quat_power_poly, quat_sign, quaternion_image

from random_quotients import random_quotient


def _report(name, elapsed, detail):
    print(f"\n[acceptance] {name}: PASS in {elapsed:.2f}s ({detail})")


def test_criterion_01_nonvanishing_polynomial():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        k = minimal_k(3, n)
        poly = build_nonvanishing(3, n, k)
        rec = verify_nonvanishing(poly)
        assert rec["points_checked"] == 3 ** n - 1
    exact = build_nonvanishing(3, 2, 1)
    assert exact.terms == {(3, 0): 1, (1, 2): 2, (0, 3): 1}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion 1 (non-vanishing polynomial)", elapsed, "n in {2,3,4}, all points nonzero")


def test_criterion_02_free_witness_both_variants():
    t0 = time.perf_counter()
    poly = build_nonvanishing(3, 2, 1)
    for make in (free_spec, sorted_spec):
        spec = make(3, 1, 2)
        rec = verify_power_character(
            spec, poly, samples=10000, seed=2024, assert_nonzero=True
        )
        assert rec["classes"] == 9
        assert rec["tested"] == 10009
    for variant in ("full", "sorted"):
        bundle = assemble_witness_free(3, 2, 1, variant)
        assert verify_witness(bundle, exhaustive=True, samples=200, seed=7)["classes"] == 8
    # Remark-13 regime: the free case runs at r = 2
    bundle2 = assemble_witness_free(2, 2, 1, "full")
    assert verify_witness(bundle2, exhaustive=True, samples=200, seed=8)["classes"] == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("criterion 2 (free witness)", elapsed, "2 variants x (8 classes + 10^4 units), r=2 runs")


def test_criterion_03_freshmans_dream_all_kinds():
    t0 = time.perf_counter()
    specs = {
        "free": [free_spec(3, 1, 2), free_spec(3, 2, 2)],
        "sorted": [sorted_spec(3, 1, 2), sorted_spec(3, 2, 2)],
        "m": [m_spec(3, 1, 2), m_spec(3, 2, 2)],
        "quat": [quat_spec(3, 1), quat_spec(3, 2)],
    }
    per_kind = 1024
    for index, pair in enumerate(specs.values()):
        rng = random.Random(index)
        checked = 0
        for spec in pair:
            e = spec.cap
            for _ in range(per_kind // 2):
                u = random_element(spec, rng, max_terms=rng.randrange(1, 7), unit=True)
                ell = u.graded_part(1)
                assert power(u, e) == one(spec) + power(ell, e)
                checked += 1
        assert checked >= 1000
    elapsed = time.perf_counter() - t0
    _report("criterion 3 (freshman's dream)", elapsed, "1024 random units per kind, k in {1,2}")


def test_criterion_04_relator_kill_grid():
    t0 = time.perf_counter()
    rec = verify_relator_kill((3, 5, 7), (1, 2, 3))
    assert len(rec["combos"]) == 9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("criterion 4 (relator kill + tail identity)", elapsed, "(r,k) in {3,5,7}x{1,2,3}")


def test_criterion_05_quaternion_power_identity():
    t0 = time.perf_counter()
    rec = verify_quat_power_identity(3, 2, samples=1000, seed=11)
    sign = quat_sign(3, 2)
    assert rec["sign"] == sign
    spec = quat_spec(3, 2)
    local = quat_power_poly(3, 2)
    alphabet = Alphabet("surface", 2)
    spots = {(1, 2): 1, (3, 4): 0, (1, 2, 3, 4): 0}
    for letters, unsigned in spots.items():
        g = quaternion_image(GroupWord(alphabet, letters), spec)
        c = power(g, 9)
        got = c.terms.get((8, 1, 2), 0)
        assert got == (sign * unsigned) % 3
        assert local.evaluate(abelianization(g)) == unsigned
        if unsigned:
            assert got in (1, 2)  # value is +-1
    elapsed = time.perf_counter() - t0
    _report("criterion 5 (quaternion power identity)", elapsed, f"10^3 words, sign {sign:+d}, spot values hit")


def test_criterion_06_surface_witness_exhaustive():
    t0 = time.perf_counter()
    bundle = assemble_witness_surface(3, 2, 2)
    rec = verify_witness(bundle, exhaustive=True, samples=10, sample_len=4, seed=13)
    assert rec["classes"] == 80
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report("criterion 6 (surface witness)", elapsed, "all 80 classes, psi = P(alpha) != 0")


def test_criterion_07_end_to_end_small_witness(sorted_witness_bundle, sorted_witness_cover):
    from coverhom import d_primitive_predicate

    t0 = time.perf_counter()
    cover = sorted_witness_cover
    order = cover.n_vertices
    assert cover.dim_h1() == 1 + (2 - 1) * order  # the free-cover module formula
    rec = isotypic_projection_check(
        IsotypicProjector(cover, *central_slice(cover, sorted_witness_bundle), 3),
        sorted_witness_bundle.exponent,
        max_word_len=6,
        seed=17,
    )
    assert rec["words_annihilated"] > 1000
    assert rec["elements_certified"] == 1944  # |G| (1 - 3^-2): every 3-primitive element
    assert rec["h1_witness_cycle"] is not None
    # direct rank measurement on a sampled basepoint set: more rows than
    # columns, yet far from full rank, as the certificate forces
    rng = random.Random(99)
    basepoints = [0] + [rng.randrange(order) for _ in range(5)]
    rank, dim = orbit_span_rank(
        cover, d_primitive_predicate(3), 5, basepoints=basepoints, seed=23
    )
    assert rank < dim
    assert rank <= dim - order // 81  # the isotypic component is missing
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(
        "criterion 7 (end-to-end certificate)",
        elapsed,
        f"|G|={order}, dim H1={cover.dim_h1()}, all {rec['elements_certified']} primitive "
        f"elements certified, projection nonzero on H1, sampled span rank {rank} < {dim}",
    )


def test_criterion_08_dimension_formulas_random_quotients():
    t0 = time.perf_counter()
    rng = random.Random(2718)
    for alphabet in (Alphabet("free", 2), Alphabet("free", 3)):
        for _ in range(5):
            cover = build_cover(random_quotient(alphabet, rng, max_size=200))
            rec = gaschutz_check(cover)
            assert rec["dim_h1"] == 1 + (alphabet.rank - 1) * cover.n_vertices
    for alphabet in (Alphabet("surface", 2), Alphabet("surface", 3)):
        for _ in range(5):
            cover = build_cover(random_quotient(alphabet, rng, max_size=200))
            rec = gaschutz_check(cover)
            assert rec["dim_h1"] == 2 + (2 * alphabet.rank - 2) * cover.n_vertices
    elapsed = time.perf_counter() - t0
    _report("criterion 8 (dimension formulas)", elapsed, "5 random quotients per domain, sizes <= 200")


def test_criterion_09_coprime_full_span():
    t0 = time.perf_counter()
    alphabet = Alphabet("free", 2)
    deck = FiniteQuotient(alphabet, (ResidueImage((1,), 2), ResidueImage((1,), 2)))
    cover = build_cover(deck)
    theta = FiniteQuotient(alphabet, (ResidueImage((1,), 3), ResidueImage((1,), 3)))
    rank, dim = orbit_span_rank(cover, nonkernel_predicate(theta), 4)
    assert rank == dim == 3
    elapsed = time.perf_counter() - t0
    _report("criterion 9 (coprime full span)", elapsed, f"rank {rank} = dim H1 at L <= 4")


def test_criterion_10_crt_lift():
    t0 = time.perf_counter()
    bundles = [assemble_witness_free(3, 2, 1), assemble_witness_free(5, 2, 1)]
    lifted = crt_lift(bundles)
    assert lifted.exponent == 930 and lifted.modulus == 15
    rec = verify_witness(lifted, exhaustive=True, samples=800, seed=19)
    assert rec["classes"] == 224
    assert rec["classes"] + rec["samples"] >= 1000
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 10 (CRT lift)",
        elapsed,
        "d=15, e=930, all 224 classes + samples, psi nonzero mod 15",
    )
