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
    layers = tmp_path / "layers.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"), str(layers),
         "--", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(layers.read_text())


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
    assert metrics["covers.projector.apply.out_nnz"] > 0
    assert metrics["covers.element_order.calls_per_word"] == 1.0


def test_trace_cli_counts_power_products(tmp_path):
    # e = 930 at D = 3 and 5 takes a handful of products through the digit
    # expansion; square-and-multiply takes 14, and a product that bypasses
    # AlgElement.__mul__ would vanish from the count
    metrics = _traced(
        tmp_path, "crt-lift", "--primes", "3,5", "--n", "2", "--k", "1", "--samples", "30"
    )
    assert metrics["algebra.power.calls"] == 508
    assert 0 < metrics["algebra.power.mul_per_call"] < 5


def test_trace_cli_walks_each_orbit_word_once(tmp_path):
    # the orbit rows of every basepoint are deck translates of one walk
    # per word, so elevation_class runs once per word that passes
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
    words = [w for w in reduced_words(Alphabet("surface", 2), 2) if primitive(w)]
    assert metrics["covers.elevation_class.calls"] == len(words)
    assert metrics["covers.rank_over_rationals.calls"] == 2
