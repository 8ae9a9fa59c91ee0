"""The reports of the benchmark's four command lines at ``--seed 1``,
against the reports kept in ``golden_reports.json``.  Timings are zeroed
and the quotient file's path is replaced by ``{quotient}``; everything
else must match byte for byte, so a change meant to keep every report
identical fails here when it does not.  Regenerate the fixture only with
a change that means to alter a report, and say which fields moved."""

import json
import random
from pathlib import Path

import pytest

from coverhom.cli import main

FIXTURE = Path(__file__).resolve().parent / "golden_reports.json"
QUOTIENT = "{quotient}"

COMMANDS = {
    "surface-sweep": ("verify-surface", "--r", "3", "--genus", "2", "--k", "2", "--samples", "0"),
    "crt-sweep": ("crt-lift", "--primes", "3,5", "--n", "2", "--k", "1", "--samples", "3000"),
    "surface-cover": ("cover-report", "--quotient", QUOTIENT, "--orbit", "d-primitive",
                      "--d", "3", "--max-word-len", "3"),
    "witness-e2e": ("witness-e2e", "--r", "3", "--n", "2", "--k", "1", "--variant", "sorted",
                    "--max-word-len", "5", "--orbit-rank", "--orbit-basepoints", "3"),
}


def s5_quotient(seed):
    """Genus-2 surface quotient onto S_5 with images (a, b, b, a), a a
    5-cycle and b a transposition, its five points relabelled by a
    shuffle drawn from ``seed``."""
    rng = random.Random(seed)
    sigma = list(range(5))
    rng.shuffle(sigma)

    def relabel(perm):
        out = [0] * 5
        for i, j in enumerate(perm):
            out[sigma[i]] = sigma[j]
        return out

    a = relabel([1, 2, 3, 4, 0])
    b = relabel([1, 0, 2, 3, 4])
    return {"domain": "surface", "genus": 2, "type": "perm", "images": [a, b, b, a]}


def normalised_report(name, tmp_path, capsys):
    """(exit code, report text) of the named command at ``--seed 1``, with
    every ``wall_time_s`` set to 0.0 and the quotient path to
    ``{quotient}``."""
    quotient = tmp_path / "quotient.json"
    quotient.write_text(json.dumps(s5_quotient(1)))
    argv = [str(quotient) if a == QUOTIENT else a for a in COMMANDS[name]]
    code = main(argv + ["--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    for check in report["checks"]:
        check["wall_time_s"] = 0.0
    if "quotient" in report["config"]:
        report["config"]["quotient"] = QUOTIENT
    return code, json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_benchmark_reports_match_the_golden_reports(name, tmp_path, capsys):
    code, text = normalised_report(name, tmp_path, capsys)
    assert code == 0
    golden = json.loads(FIXTURE.read_text())[name]
    assert text == json.dumps(golden, sort_keys=True)
