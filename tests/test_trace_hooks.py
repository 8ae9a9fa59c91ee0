"""The benchmark's layer wrappers (perfbench/tracer.py) patch coverhom
functions and methods by name; a rename in src/ must fail here rather
than turn traced benchmark runs into failed runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
