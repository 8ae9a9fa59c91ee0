"""Build a workload's inputs in a fresh process and exit.

    python3 perfbench/setup_inputs.py COVERHOM_ARGS...

The arguments are the workload's coverhom command line; they are parsed
with coverhom's own parser and the inputs are built the way the command
builds them (witness bundles, the CRT lift, the quotient and its cover),
without running any check.  The benchmark times this process from spawn
to exit, so work moved into import or input assembly shows in setup_s.
"""

import json
import sys

from coverhom.cli import build_parser
from coverhom.covers import build_cover, quotient_from_bundle, quotient_from_json
from coverhom.witness import assemble_witness_free, assemble_witness_surface, crt_lift


def build_inputs(args):
    if args.command == "witness-e2e":
        bundle = assemble_witness_free(args.r, args.n, args.k, args.variant)
        return build_cover(quotient_from_bundle(bundle), guard_vertices=args.guard_vertices)
    if args.command == "verify-surface":
        return assemble_witness_surface(args.r, args.genus, args.k)
    if args.command == "crt-lift":
        primes = [int(p) for p in args.primes.split(",")]
        return crt_lift([assemble_witness_free(r, args.n, args.k, args.variant) for r in primes])
    if args.command == "cover-report":
        with open(args.quotient) as fh:
            quotient = quotient_from_json(json.load(fh))
        return build_cover(quotient, guard_vertices=args.guard_vertices)
    raise SystemExit(f"no input builder for {args.command!r}")


if __name__ == "__main__":
    build_inputs(build_parser().parse_args(sys.argv[1:]))
