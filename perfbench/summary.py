"""Run every workload once and print each metric by name with its unit.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs through ``run.py`` exactly as the benchmark runs it.
After each workload's metrics comes its ``fail_ratio``, the failed runs
over the attempted ones.  Exits 1 when any run was incorrect.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: benchmark exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        for name, m in result["metrics"].items():
            print(f"{workload:14} {name:45} {m['value']:>14.6g} {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:14} {'fail_ratio':45} {ratio:>14.6g} "
              f"({result['failed']}/{result['attempted']} runs)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
