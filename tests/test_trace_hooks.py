"""The benchmark's layer wrappers (perfbench/tracer.py) patch coverhom
functions and methods by name; a rename in src/ must fail here rather
than turn traced benchmark runs into failed runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_cli_installs_and_records(tmp_path):
    layers = tmp_path / "layers.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"), str(layers),
         "--", "nvpoly", "--r", "3", "--n", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(layers.read_text())
    assert "algebra.power.calls" in metrics
