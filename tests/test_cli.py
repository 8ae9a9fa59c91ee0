import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from coverhom import assemble_witness_free, covers
from coverhom.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_nvpoly_passes(capsys):
    code, out = _run(capsys, "nvpoly", "--r", "3", "--n", "4")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert all(c["status"] == "pass" for c in report["checks"])
    assert report["config"]["k"] == 2


def test_verify_surface_k_too_small(capsys):
    # refused before any check runs: no report
    code, out = _run(capsys, "verify-surface", "--r", "3", "--genus", "2", "--k", "1")
    assert code == 2
    assert out == ""


def test_verify_free_sorted_passes(capsys):
    code, out = _run(
        capsys,
        "verify-free", "--r", "3", "--n", "2", "--k", "1",
        "--variant", "sorted", "--samples", "100",
    )
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert "witness-free" in names


def test_bad_prime_exits_two(capsys):
    assert main(["nvpoly", "--r", "4", "--n", "2"]) == 2
    assert main(["verify-free", "--r", "9", "--n", "2"]) == 2


def test_missing_quotient_file_exits_two(capsys):
    assert main(["cover-report", "--quotient", "/nonexistent.json"]) == 2


def test_unwritable_out_exits_two(tmp_path, capsys):
    # a directory cannot take the report: one line on stderr, no traceback
    assert main(["nvpoly", "--r", "3", "--n", "2", "--out", str(tmp_path)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_report_determinism(capsys):
    argv = ["verify-free", "--r", "3", "--n", "2", "--k", "1", "--samples", "50", "--seed", "9"]
    code1, out1 = _run(capsys, *argv)
    code2, out2 = _run(capsys, *argv)
    assert code1 == code2 == 0

    def strip_times(text):
        report = json.loads(text)
        for check in report["checks"]:
            check.pop("wall_time_s", None)
        return report

    assert strip_times(out1) == strip_times(out2)


def test_report_appends_jsonl(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["nvpoly", "--r", "3", "--n", "2", "--out", str(out)]
    assert main(argv) == 0
    assert main(argv) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["schema"] == 1 for line in lines)


def test_cover_report_with_orbit(tmp_path, capsys):
    quot = tmp_path / "q.json"
    quot.write_text(
        json.dumps(
            {"domain": "free", "rank": 2, "type": "residue", "mod": 3, "images": [[1], [0]]}
        )
    )
    code, out = _run(
        capsys,
        "cover-report", "--quotient", str(quot), "--orbit", "all", "--max-word-len", "3",
    )
    assert code == 0
    report = json.loads(out)
    orbit = next(c for c in report["checks"] if c["name"] == "orbit-span")
    assert orbit["details"]["rank"] == orbit["details"]["dim_h1"] == 4


def test_crt_lift_command(capsys):
    code, out = _run(
        capsys,
        "crt-lift", "--primes", "3,5", "--n", "2", "--k", "1", "--samples", "20",
    )
    assert code == 0
    report = json.loads(out)
    lift = next(c for c in report["checks"] if c["name"] == "lift")
    assert lift["details"]["exponent"] == 930
    assert lift["details"]["modulus"] == 15


def test_witness_e2e_small(capsys):
    code, out = _run(
        capsys,
        "witness-e2e", "--r", "3", "--n", "2", "--k", "1",
        "--variant", "sorted", "--max-word-len", "2",
    )
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert "proper-subspace-certificate" in names
    assert all(c["status"] == "pass" for c in report["checks"])


def test_failed_check_exits_one(monkeypatch, capsys):
    # a property violation becomes a fail record with the counterexample
    # and flips the exit code to 1
    from coverhom import cli
    from coverhom.errors import PropertyViolation

    def violating_check(*args, **kwargs):
        raise PropertyViolation("boom", counterexample={"word": "x1"})

    checks = []
    assert cli._timed(checks, "witness-free", violating_check) is None
    fail = {"error": "boom", "counterexample": {"word": "x1"}}
    assert (checks[0]["name"], checks[0]["status"], checks[0]["details"]) == (
        "witness-free", "fail", fail
    )
    monkeypatch.setattr(cli, "verify_witness", violating_check)
    code, out = _run(capsys, "verify-free", "--r", "3", "--n", "2", "--k", "1", "--samples", "10")
    assert code == 1
    last = json.loads(out)["checks"][-1]
    assert (last["name"], last["status"], last["details"]) == ("witness-free", "fail", fail)


def test_witness_e2e_orbit_rank_guard(capsys):
    # a tripped size guard is a configuration problem: exit 2, with the
    # report of the checks done so far and the aborted check last
    code, out = _run(
        capsys,
        "witness-e2e", "--r", "3", "--n", "2", "--k", "1", "--max-word-len", "2",
        "--orbit-rank", "--orbit-word-len", "3", "--guard-dim", "10",
    )
    assert code == 2
    checks = json.loads(out)["checks"]
    assert [c["status"] for c in checks] == ["pass"] * 4 + ["guard"]
    assert checks[-1]["name"] == "orbit-span"
    assert "exceeds --guard-dim 10" in checks[-1]["details"]["error"]


def test_error_record_takes_the_check_name(capsys):
    # the m-kind factor at r = 5, g = 2 is beyond the sweep guard: the
    # witness sweep stops with the name its pass record would have
    code, out = _run(capsys, "verify-surface", "--r", "5", "--genus", "2")
    assert code == 2
    last = json.loads(out)["checks"][-1]
    assert (last["name"], last["status"]) == ("witness-surface", "error")


def test_power_guard_trips_before_anything_is_powered(tmp_path):
    # the full algebra at r = 3, n = 2, k = 3 has 2^28 - 1 basis monomials;
    # power-character stops at the guard instead of powering in it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "coverhom", "verify-free", "--r", "3", "--n", "2", "--k", "3"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 2
    last = json.loads(proc.stdout)["checks"][-1]
    assert (last["name"], last["status"]) == ("power-character-free", "error")
    assert "268435455 basis monomials" in last["details"]["error"]


def test_witness_e2e_reports_the_resolved_k(capsys):
    # --k omitted: the report gives the k the witness was built with
    code, out = _run(capsys, "witness-e2e", "--r", "2", "--n", "2", "--max-word-len", "2")
    assert code == 0
    assert json.loads(out)["config"]["k"] == 1


def test_witness_e2e_reports_distinct_basepoints(capsys):
    # 20 draws on a 32-vertex cover repeat some vertices; the report counts
    # each basepoint once, and the rank is that of all 20 draws
    code, out = _run(capsys, "witness-e2e", "--r", "2", "--n", "2", "--max-word-len", "2",
                     "--orbit-rank", "--orbit-basepoints", "20")
    assert code == 0
    orbit = {c["name"]: c for c in json.loads(out)["checks"]}["orbit-span"]["details"]
    rng = random.Random(0)
    draws = [0] + [rng.randrange(32) for _ in range(19)]
    assert orbit["basepoints"] == len(set(draws)) < 20
    cover = covers.build_cover(covers.quotient_from_bundle(
        assemble_witness_free(2, 2, None, "sorted")))
    rank, _ = covers.orbit_span_rank(cover, covers.d_primitive_predicate(2), 5, draws)
    assert orbit["rank"] == rank


@pytest.mark.parametrize("count", ["32", "50"])
def test_witness_e2e_takes_every_basepoint_from_the_group_order_on(capsys, count):
    # a request of at least |G| = 32 is exhaustive, not 32 or 50 draws
    # with repeats
    code, out = _run(capsys, "witness-e2e", "--r", "2", "--n", "2", "--max-word-len", "2",
                     "--orbit-rank", "--orbit-basepoints", count)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    orbit = checks["orbit-span"]["details"]
    assert orbit["basepoints"] == checks["gaschutz"]["details"]["group_order"] == 32
    cover = covers.build_cover(covers.quotient_from_bundle(
        assemble_witness_free(2, 2, None, "sorted")))
    rank, _ = covers.orbit_span_rank(cover, covers.d_primitive_predicate(2), 5)
    assert orbit["rank"] == rank


def test_main_starts_openblas_single_threaded(monkeypatch, capsys):
    # covers never calls BLAS, so its thread pool is not started; a value
    # the user set is kept
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert _run(capsys, "nvpoly", "--r", "3", "--n", "2")[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert _run(capsys, "nvpoly", "--r", "3", "--n", "2")[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_guard_outside_a_check_still_reports(capsys):
    # the vertex guard trips in build_cover, between two checks
    code, out = _run(
        capsys,
        "witness-e2e", "--r", "3", "--n", "2", "--k", "1", "--max-word-len", "2",
        "--guard-vertices", "100",
    )
    assert code == 2
    report = json.loads(out)
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("witness-free", "pass"), ("aborted", "guard")
    ]
    assert report["config"]["max_word_len"] == 2


RESIDUE = {"domain": "free", "rank": 2, "type": "residue", "mod": 3, "images": [[1], [0]]}
S5 = {
    "domain": "surface",
    "genus": 2,
    "type": "perm",
    "images": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4], [1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],
}


@pytest.mark.parametrize(
    "argv, names",
    [
        (("nvpoly", "--r", "3", "--n", "2"), ["polynomial", "nonvanishing", "classification"]),
        (("verify-free", "--r", "3", "--n", "2", "--k", "1", "--samples", "10"),
         ["nonvanishing", "power-character-free", "witness-free"]),
        (("verify-surface", "--r", "3", "--genus", "2", "--classes", "sampled", "--samples", "5"),
         ["nonvanishing", "relator-kill", "quat-power-identity", "witness-surface"]),
        (("cover-report", "--quotient", "q.json", "--orbit", "all", "--max-word-len", "2"),
         ["gaschutz", "orbit-span"]),
        (("witness-e2e", "--r", "3", "--n", "2", "--k", "1", "--max-word-len", "2",
          "--orbit-rank", "--orbit-word-len", "2", "--orbit-basepoints", "2"),
         ["witness-free", "gaschutz", "isotypic-invariants", "isotypic-projection",
          "orbit-span", "proper-subspace-certificate"]),
        (("crt-lift", "--primes", "2,3", "--n", "2", "--samples", "10"), ["lift", "witness-free"]),
    ],
    ids=lambda value: value[0] if isinstance(value, tuple) else None,
)
def test_each_command_names_its_checks(tmp_path, monkeypatch, capsys, argv, names):
    # the names the benchmark looks its gated and timed checks up by
    (tmp_path / "q.json").write_text(json.dumps(RESIDUE))
    monkeypatch.chdir(tmp_path)
    code, out = _run(capsys, *argv)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [(name, "pass") for name in names]


def _bad_quotient_exit(tmp_path, text):
    quot = tmp_path / "q.json"
    quot.write_text(text)
    return main(["cover-report", "--quotient", str(quot)])


def test_wide_unit_rows_trip_the_byte_guard(tmp_path, capsys):
    # 1 + X1 and 1 + X2 reach all 2^28 - 1 monomials of the free algebra at
    # r = 3, k = 3: the closure of the row columns stops at the byte guard
    # instead of listing them
    quotient = {
        "domain": "free", "rank": 2, "type": "unit",
        "algebra": {"kind": "free", "r": 3, "k": 3, "ngens": 2},
        "images": [{"monomials": [[[], 1], [[i], 1]]} for i in range(2)],
    }
    assert _bad_quotient_exit(tmp_path, json.dumps(quotient)) == 2
    assert "pass the row byte guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"rank": 2, "type": "residue", "mod": 3, "images": [[1], [0]]}', "'domain'"),
        ("[1, 2]", "JSON object"),
        ('{"domain": "free", "rank": 2, "type": "residue", "mod": 3, "images": 5}', "'images'"),
    ],
)
def test_quotient_schema_error_names_the_field(tmp_path, capsys, text, field):
    assert _bad_quotient_exit(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert field in err and len(err.strip().splitlines()) == 1
    assert "KeyError" not in err and "TypeError" not in err


def test_quotient_non_unit_quat_image_exits_two(tmp_path, capsys):
    # 1 + i has constant term 1 but its degree-0 part is not 1
    quotient = {
        "domain": "free",
        "rank": 1,
        "type": "unit",
        "algebra": {"kind": "quat", "r": 3, "k": 1, "ngens": 2},
        "images": [{"monomials": [[[0, 0, 0], 1], [[0, 0, 1], 1]]}],
    }
    assert _bad_quotient_exit(tmp_path, json.dumps(quotient)) == 2


@pytest.mark.parametrize(
    "quotient, orbit, theta, message",
    [
        (RESIDUE, "theta-nonkernel", None, "--orbit theta-nonkernel needs --theta"),
        # theta(word) would read a generator image theta does not have
        (RESIDUE, "theta-nonkernel", {**RESIDUE, "rank": 1, "images": [[1]]},
         "free group of rank 1"),
        (S5, "theta-nonkernel", RESIDUE, "free group of rank 2"),
        # a misspelt or missing --orbit left theta unread, and the run passed
        (RESIDUE, None, RESIDUE, "--theta is read only with --orbit theta-nonkernel"),
        (RESIDUE, "d-primitive", RESIDUE, "--theta is read only with --orbit theta-nonkernel"),
    ],
    ids=["missing", "free-rank-1", "surface-genus-2", "no-orbit", "d-primitive-orbit"],
)
def test_theta_quotient_is_refused_before_the_cover(
    tmp_path, capsys, monkeypatch, quotient, orbit, theta, message
):
    (tmp_path / "q.json").write_text(json.dumps(quotient))
    argv = ["cover-report", "--quotient", str(tmp_path / "q.json")]
    if orbit is not None:
        argv += ["--orbit", orbit]
    if theta is not None:
        (tmp_path / "t.json").write_text(json.dumps(theta))
        argv += ["--theta", str(tmp_path / "t.json")]
    monkeypatch.setattr(covers, "build_cover", lambda *args, **kwargs: pytest.fail("cover built"))
    _one_line_refusal(capsys, argv, message)


def _one_line_refusal(capsys, argv, *needles):
    """Run argv: exit 2, no report, and one stderr line holding the needles."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and all(needle in lines[0] for needle in needles), lines


def test_theta_past_the_vertex_guard_is_refused_before_any_check(tmp_path, capsys):
    # theta onto Z/7 has 7 vertices; the quotient's 3 fit the guard of 5
    (tmp_path / "q.json").write_text(json.dumps(RESIDUE))
    (tmp_path / "t.json").write_text(json.dumps({**RESIDUE, "mod": 7}))
    _one_line_refusal(
        capsys,
        ["cover-report", "--quotient", str(tmp_path / "q.json"), "--orbit", "theta-nonkernel",
         "--theta", str(tmp_path / "t.json"), "--guard-vertices", "5"],
        "vertex guard 5",
    )


# genus 2: x1 -> a, y1 -> b, x2, y2 -> 1, with [a, b] != 1 in S_3
UNKILLED = {"domain": "surface", "genus": 2, "type": "perm",
            "images": [[1, 2, 0], [1, 0, 2], [0, 1, 2], [0, 1, 2]]}


def test_quotient_not_killing_the_relator_names_its_file(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(UNKILLED))
    _one_line_refusal(capsys, ["cover-report", "--quotient", str(path)],
                      f"bad quotient file {path}:", "do not kill the surface relator")


def test_theta_not_killing_the_relator_names_its_file(tmp_path, capsys):
    (tmp_path / "q.json").write_text(json.dumps(S5))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(UNKILLED))
    _one_line_refusal(
        capsys,
        ["cover-report", "--quotient", str(tmp_path / "q.json"), "--orbit", "theta-nonkernel",
         "--theta", str(path)],
        f"bad quotient file {path}:", "do not kill the surface relator",
    )


def test_bad_primes_exit_two_with_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["crt-lift", "--primes", "3,x", "--n", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "argument --primes: not a comma-separated list" in lines[0]


def test_quotient_not_json_exits_two(tmp_path, capsys):
    assert _bad_quotient_exit(tmp_path, "not json {") == 2


def test_quotient_missing_key_exits_two(tmp_path, capsys):
    quotient = {"domain": "free", "type": "residue", "mod": 3, "images": [[1], [0]]}
    assert _bad_quotient_exit(tmp_path, json.dumps(quotient)) == 2


def test_quotient_monomial_out_of_byte_range_exits_two(tmp_path, capsys):
    # word monomials are stored as bytes: a letter of 300 cannot be one
    quotient = {
        "domain": "free",
        "rank": 2,
        "type": "unit",
        "algebra": {"kind": "sorted", "r": 3, "k": 1, "ngens": 2},
        "images": [{"monomials": [[[], 1], [[300], 1]]}, {"monomials": [[[], 1]]}],
    }
    assert _bad_quotient_exit(tmp_path, json.dumps(quotient)) == 2


def test_quotient_repeated_monomial_exits_two(tmp_path, capsys):
    # the image could mean 1 + X1 or 1 + 2*X1, so it is refused
    quotient = {
        "domain": "free",
        "rank": 1,
        "type": "unit",
        "algebra": {"kind": "free", "r": 3, "k": 1, "ngens": 1},
        "images": [{"monomials": [[[], 1], [[0], 1], [[0], 1]]}],
    }
    assert _bad_quotient_exit(tmp_path, json.dumps(quotient)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "monomial [0] appears more than once" in lines[0]


def test_quotient_residue_lengths_differ_exits_two(tmp_path, capsys):
    # mixed lengths would be zipped and the longer vector truncated
    quotient = {"domain": "free", "rank": 2, "type": "residue", "mod": 3, "images": [[1], [1, 2]]}
    assert _bad_quotient_exit(tmp_path, json.dumps(quotient)) == 2


def test_quotient_perm_degrees_differ_exits_two(tmp_path, capsys):
    quotient = {"domain": "free", "rank": 2, "type": "perm", "images": [[1, 0], [1, 2, 0]]}
    assert _bad_quotient_exit(tmp_path, json.dumps(quotient)) == 2


def test_quotient_with_an_oversized_inverse_exits_two(tmp_path, capsys):
    # the inverse of 1 + X1 + ... + X255 would hold all 255^3 words of length 3
    quotient = {
        "domain": "free",
        "rank": 1,
        "type": "unit",
        "algebra": {"kind": "free", "r": 3, "k": 1, "ngens": 255},
        "images": [{"monomials": [[[], 1]] + [[[i], 1] for i in range(255)]}],
    }
    assert _bad_quotient_exit(tmp_path, json.dumps(quotient)) == 2


WITNESS = ("witness-e2e", "--r", "3", "--n", "2", "--k", "1", "--max-word-len", "2")


@pytest.mark.parametrize(
    "argv, option",
    [
        # the basepoint list was [0] plus count - 1 draws: 0 and -3 gave one
        (WITNESS + ("--orbit-rank", "--orbit-basepoints", "0"), "--orbit-basepoints"),
        # no word of length <= -1 exists, so nothing was checked
        (WITNESS[:-1] + ("-1",), "--max-word-len"),
        (WITNESS + ("--orbit-rank", "--orbit-word-len", "-1"), "--orbit-word-len"),
        (("cover-report", "--quotient", "q.json", "--orbit", "all", "--max-word-len", "-2"),
         "--max-word-len"),
        # d = 0 divided by zero; d = 1 makes no word d-primitive
        (("cover-report", "--quotient", "q.json", "--d", "0"), "--d"),
        # a negative count ran 10 or 0 samples, and the report echoed it
        (("verify-free", "--r", "3", "--n", "2", "--samples", "-5"), "--samples"),
        (("verify-surface", "--r", "3", "--genus", "2", "--samples", "-5"), "--samples"),
        (("crt-lift", "--primes", "3,5", "--n", "2", "--samples", "-5"), "--samples"),
        # a guard of 0 passed a one-vertex cover; -5 reported "cover
        # exceeds the vertex guard -5"
        (("cover-report", "--quotient", "q.json", "--guard-vertices", "0"), "--guard-vertices"),
        (("cover-report", "--quotient", "q.json", "--guard-vertices", "-5"), "--guard-vertices"),
        (("cover-report", "--quotient", "q.json", "--guard-dim", "0"), "--guard-dim"),
        (WITNESS + ("--guard-vertices", "-5"), "--guard-vertices"),
        (WITNESS + ("--guard-dim", "0"), "--guard-dim"),
        (("nvpoly", "--r", "3", "--n", "2", "--guard-points", "0"), "--guard-points"),
    ],
)
def test_vacuous_count_exits_two_with_one_line(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and f"argument {option}: must be at least" in lines[0]


def test_sweep_commands_start_without_numpy(tmp_path):
    # covers is the one module that needs numpy, and only cover-report
    # and witness-e2e reach it; the package still exports its names
    script = f"""
import sys
from coverhom.cli import main
for argv in (
    ["nvpoly", "--r", "3", "--n", "2"],
    ["verify-free", "--r", "3", "--n", "2", "--k", "1", "--samples", "10"],
    ["verify-surface", "--r", "3", "--genus", "2", "--classes", "sampled", "--samples", "5"],
    ["crt-lift", "--primes", "2,3", "--n", "2", "--samples", "10"],
):
    assert main([*argv, "--out", {str(tmp_path / "reports.jsonl")!r}]) == 0, argv
assert "numpy" not in sys.modules, "a sweep command imported numpy"
from coverhom import IsotypicProjector, build_cover
assert "numpy" in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "reports.jsonl").read_text().splitlines()) == 4
