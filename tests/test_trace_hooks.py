"""The benchmark's layer wrappers (perfbench/tracer.py) patch coverhom
functions and methods by name; a rename in src/ must fail here rather
than turn traced benchmark runs into failed runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

from coverhom import Alphabet, d_primitive_predicate, reduced_words

ROOT = Path(__file__).resolve().parent.parent


def _traced(tmp_path, *argv):
    return _traced_run(tmp_path, *argv)[0]


def _traced_run(tmp_path, *argv):
    """The layer metrics and the report of one traced command."""
    layers = tmp_path / "layers.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"), str(layers),
         "--", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(layers.read_text()), json.loads(proc.stdout)


def test_trace_cli_installs_and_records(tmp_path):
    metrics = _traced(tmp_path, "nvpoly", "--r", "3", "--n", "2")
    assert "algebra.power.calls" in metrics


def test_trace_cli_records_the_projector(tmp_path):
    # the wrappers count len() of the projector's argument and result, so
    # a change to its dict-in / dict-out contract must show here
    metrics = _traced(
        tmp_path, "witness-e2e", "--r", "3", "--n", "2", "--k", "1", "--max-word-len", "2"
    )
    assert metrics["covers.projector.init.calls"] == 1
    # the invariants are certified at construction, with one deck map per
    # generator of C = (Z/3)^4 and per generator image; only the witness
    # cycle is projected
    assert metrics["covers.projector.apply.calls"] == 1
    assert metrics["covers.deck_perm.calls"] == 4 + 2
    assert metrics["covers.projector.apply.out_nnz"] > 0
    # word orders are read off the cover's graph, not multiplied out in
    # the algebra
    assert metrics["covers.element_order.calls_per_word"] == 0.0
    # the certificate sweeps the group: it walks no word, and zero-tests
    # only the witness cycle
    assert metrics["covers.elevation_class.calls"] == 0
    assert metrics["covers.projector.zero_test.calls"] == 1


def test_trace_cli_counts_power_products(tmp_path):
    # e = 930 at D = 3 and 5 takes a handful of products through the digit
    # expansion; square-and-multiply takes 14, and a product that bypasses
    # AlgElement.__mul__ would vanish from the count.  The sweep's images
    # stop at degree 1, where the power reads them, so a factor's image is
    # fixed by the class mod its prime, and the memo, keyed by factor and
    # image, powers each of the 9 classes mod 3 once in the first factor
    # and each of the 25 classes mod 5 once in the second, however many
    # words the sweep checks: 34 powers, where one per class mod 15 and
    # factor took 450.  The sweep checks each distinct word once, and the
    # report counts them: some of the 30 draws repeat a word, so fewer
    # than 224 + 30.  The expected value sum q_i P_i(alpha mod r_i) is
    # memoised per component and class mod r_i: 9 + 25 evaluations, where
    # one per class mod 15 and component took 450.
    metrics, report = _traced_run(
        tmp_path, "crt-lift", "--primes", "3,5", "--n", "2", "--k", "1", "--samples", "30"
    )
    assert metrics["algebra.power.calls"] == 9 + 25
    assert metrics["nonvanishing.evaluate.calls"] == 9 + 25
    assert 0 < metrics["algebra.power.mul_per_call"] < 5
    (sweep,) = [c["details"] for c in report["checks"] if c["name"] == "witness-free"]
    assert 224 < sweep["words_checked"] < 224 + 30
    assert metrics["witness.check_witness_word.calls"] == sweep["words_checked"]


def test_trace_cli_surface_powers_keep_only_the_read_words(tmp_path):
    # the m-factor powers run in the quotient that keeps, at the top
    # degree 9, only the 19 words its character reads: full degree-9
    # products gave 564,306 output terms over the sweep, the quotient
    # about 29,000, from the same 401 powers of 4 products each
    metrics = _traced(
        tmp_path, "verify-surface", "--r", "3", "--genus", "2", "--k", "2", "--samples", "0"
    )
    assert metrics["algebra.mul.out_terms"] < 60_000
    assert metrics["algebra.power.calls"] == 401
    assert metrics["algebra.power.mul_per_call"] == 4.0


def test_trace_cli_walks_each_orbit_word_once(tmp_path):
    # the orbit rows of every basepoint are deck translates of one walk
    # per word, and a word's inverse gives the negated row, so
    # elevation_class runs once per word that passes with no inverse that
    # passed before it
    quot = tmp_path / "s5.json"
    quot.write_text(json.dumps({
        "domain": "surface", "genus": 2, "type": "perm",
        "images": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4], [1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],
    }))
    metrics = _traced(
        tmp_path, "cover-report", "--quotient", str(quot), "--orbit", "d-primitive",
        "--d", "3", "--max-word-len", "2",
    )
    primitive = d_primitive_predicate(3)
    passed, walked = set(), 0
    for word in reduced_words(Alphabet("surface", 2), 2):
        if primitive(word):
            walked += word.inverse().letters not in passed
            passed.add(word.letters)
    assert metrics["covers.elevation_class.calls"] == walked
    assert metrics["covers.rank_over_rationals.calls"] == 2
