"""coverhom benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``.  Every measured run is a fresh ``python3 -m coverhom ...``
process with the workload's command line, a ``--seed`` drawn from N, and
``COVERHOM_JOBS`` unset, so it uses the configuration users get.  Each
report is checked field by field against the workload's known answers;
a run fails when its exit code is nonzero, a check is not ``pass`` or a
field differs.

``--trace 0`` sets up the inputs several times in fresh processes
(``setup_s``), then runs the command back to back until another run would
overrun ``--seconds``, and reports medians of ``wall_s``, ``cpu_s`` and
``peak_rss_mb``.  ``--trace 1`` runs the command once untraced and once
with the layer wrappers of ``tracer.py``, and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``; the last
line of standard output is the JSON result.  ``--smoke`` runs the smallest
size of each workload, for the benchmark's own test.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
CLI = [sys.executable, "-m", "coverhom"]
QUOTIENT = "{quotient}"

# checks whose wall_time_s the CLI measures (the others are fixed at 0.0)
TIMED_CHECKS = (
    "witness-free",
    "witness-surface",
    "nonvanishing",
    "relator-kill",
    "quat-power-identity",
    "gaschutz",
    "isotypic-invariants",
    "isotypic-projection",
    "orbit-span",
)


@dataclass(frozen=True)
class Workload:
    """A coverhom command line and the report fields every run must show.
    ``expect`` maps check name -> {details field: value}; ``relation`` is
    a further test on {check name: details}."""

    argv: tuple
    expect: dict
    relation: object = None


WORKLOADS = {
    "surface-sweep": Workload(
        # no random words: their cost varies by up to 1.5x between seeds
        ("verify-surface", "--r", "3", "--genus", "2", "--k", "2", "--samples", "0"),
        {"witness-surface": {"classes": 80, "exponent": 9, "samples": 0}},
    ),
    "crt-sweep": Workload(
        ("crt-lift", "--primes", "3,5", "--n", "2", "--k", "1", "--samples", "3000"),
        {"witness-free": {"classes": 224, "exponent": 930, "modulus": 15}},
    ),
    "surface-cover": Workload(
        ("cover-report", "--quotient", QUOTIENT, "--orbit", "d-primitive", "--d", "3",
         "--max-word-len", "3"),
        {"gaschutz": {"group_order": 120, "dim_h1": 242}, "orbit-span": {"dim_h1": 242}},
        lambda c: c["orbit-span"]["rank"] < c["orbit-span"]["dim_h1"],
    ),
    "witness-e2e": Workload(
        ("witness-e2e", "--r", "3", "--n", "2", "--k", "1", "--variant", "sorted",
         "--max-word-len", "5", "--orbit-rank", "--orbit-basepoints", "3"),
        {
            "isotypic-projection": {"words_annihilated": 424, "dim_h1": 2188, "central_order": 81},
            "orbit-span": {"dim_h1": 2188, "proper_subspace": True},
        },
        # a proper subspace must miss at least the |G|/|C| = 27 dimensions of the psi-block
        lambda c: c["orbit-span"]["rank"] <= 2188 - 2187 // 81,
    ),
}

SMOKE = {
    "surface-sweep": Workload(
        ("verify-surface", "--r", "3", "--genus", "2", "--k", "2", "--classes", "sampled",
         "--samples", "5"),
        {"witness-surface": {"classes": 5, "exponent": 9}},
    ),
    "crt-sweep": Workload(
        ("crt-lift", "--primes", "3,5", "--n", "2", "--k", "1", "--samples", "30"),
        {"witness-free": {"classes": 224, "exponent": 930, "modulus": 15}},
    ),
    "surface-cover": Workload(
        ("cover-report", "--quotient", QUOTIENT, "--orbit", "d-primitive", "--d", "3",
         "--max-word-len", "1"),
        {"gaschutz": {"group_order": 120, "dim_h1": 242}, "orbit-span": {"dim_h1": 242}},
        lambda c: c["orbit-span"]["rank"] < c["orbit-span"]["dim_h1"],
    ),
    "witness-e2e": Workload(
        ("witness-e2e", "--r", "3", "--n", "2", "--k", "1", "--variant", "sorted",
         "--max-word-len", "3"),
        {"isotypic-projection": {"words_annihilated": 48, "dim_h1": 2188, "central_order": 81}},
    ),
}


def s5_quotient(seed):
    """Genus-2 surface quotient onto S_5 with images (a, b, b, a), a a
    5-cycle and b a transposition; [a, b][b, a] = 1 kills the relator.
    The seed relabels the five points.  A relabelling is an isomorphism
    that the cover's BFS follows step for step, so every seed gives the
    same cover, ranks and cost, under different vertex keys."""
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


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: Path
    checks: dict = field(default_factory=dict)


def spawn(cmd, stdout, env):
    """Run cmd to completion; wall time from spawn to exit, CPU time and
    peak RSS from the child's own rusage."""
    with open(stdout, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, cwd=ROOT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, stdout)


def report_checks(stdout):
    lines = stdout.read_text().strip().splitlines()
    return {c["name"]: c for c in json.loads(lines[-1])["checks"]} if lines else {}


def gate(workload, sample):
    """(None, checks) when the run is correct, else (reason, checks)."""
    if sample.code != 0:
        return f"exit code {sample.code}", {}
    try:
        checks = report_checks(sample.stdout)
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}", {}
    bad = [name for name, c in checks.items() if c.get("status") != "pass"]
    if bad:
        return f"checks not passed: {bad}", checks
    for name, fields in workload.expect.items():
        details = checks.get(name, {}).get("details", {})
        for key, want in fields.items():
            if details.get(key) != want:
                return f"{name}.{key} = {details.get(key)!r}, expected {want!r}", checks
    if workload.relation is not None:
        try:
            ok = workload.relation({name: c["details"] for name, c in checks.items()})
        except KeyError as exc:
            return f"missing field {exc}", checks
        if not ok:
            return "report fields violate the workload's invariant", checks
    return None, checks


class Bench:
    """One benchmark run of one workload.  The i-th command of the run
    gets the i-th coverhom seed drawn from the workload seed, so a run's
    median covers several inputs and one seed always gives the same ones."""

    def __init__(self, name, smoke, seed, work):
        self.name = name
        self.workload = (SMOKE if smoke else WORKLOADS)[name]
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "COVERHOM_JOBS"}
        self.env["PYTHONPATH"] = str(SRC)
        quotient = work / "quotient.json"
        if QUOTIENT in self.workload.argv:
            quotient.write_text(json.dumps(s5_quotient(seed)))
        self.argv = [str(quotient) if a == QUOTIENT else a for a in self.workload.argv]
        self.seeds = random.Random(seed)
        self.runs = 0
        self.failures = 0

    def run(self, prefix, seed):
        self.runs += 1
        out = self.work / f"run-{self.runs}.out"
        sample = spawn(prefix + self.argv + ["--seed", str(seed)], out, self.env)
        reason, sample.checks = gate(self.workload, sample)
        if reason:
            self.failures += 1
            print(f"{self.name}: run {self.runs} failed: {reason}", file=sys.stderr)
        return sample

    def setup_s(self):
        cmd = [sys.executable, str(HERE / "setup_inputs.py")] + self.argv
        walls = []
        for i in range(SETUP_REPEATS):
            sample = spawn(cmd, self.work / f"setup-{i}.out", self.env)
            if sample.code != 0:
                raise RuntimeError(f"input setup exited with {sample.code}")
            walls.append(sample.wall_s)
        return statistics.median(walls)

    def end_to_end(self, seconds):
        setup = self.setup_s()
        samples = []
        t0 = time.perf_counter()
        while True:
            samples.append(self.run(CLI, self.seeds.randrange(2 ** 31)))
            longest = max(s.wall_s for s in samples)
            if time.perf_counter() - t0 + longest > seconds:
                break
        print(f"{self.name}: medians of {len(samples)} runs and {SETUP_REPEATS} setups",
              file=sys.stderr)
        return {
            "wall_s": statistics.median(s.wall_s for s in samples),
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
            "setup_s": setup,
        }

    def per_layer(self):
        seed = self.seeds.randrange(2 ** 31)
        plain = self.run(CLI, seed)
        layers_path = self.work / "layers.json"
        traced = self.run([sys.executable, str(HERE / "trace_cli.py"), str(layers_path), "--"], seed)
        metrics = json.loads(layers_path.read_text()) if traced.code == 0 else {}
        for name in TIMED_CHECKS:
            metrics[f"cli.check.{name}.wall_s"] = plain.checks.get(name, {}).get("wall_time_s", 0.0)
        sweeps = [c["details"] for n, c in plain.checks.items() if n.startswith("witness-")]
        metrics["witness.verify_witness.classes"] = sum(d.get("classes", 0) for d in sweeps)
        metrics["witness.verify_witness.samples"] = sum(d.get("samples", 0) for d in sweeps)
        metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
        return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="smallest size of each workload")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "coverhom" / "__init__.py").is_file():
        print(f"error: no coverhom sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    (HERE / "_work").mkdir(exist_ok=True)
    work = HERE / "_work" / f"run-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(args.workload, args.smoke, args.seed, work)
        values = bench.per_layer() if args.trace else bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bench.failures:
        # a failed command leaves some layers unmeasured; the result still counts it
        values = {m["name"]: values.get(m["name"], 0.0) for m in wanted}
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(set(values) ^ {m['name'] for m in wanted})} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 3
    result = {
        "correct": bench.failures == 0,
        "attempted": bench.runs,
        "failed": bench.failures,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
