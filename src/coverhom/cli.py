"""Command-line front end.

Each subcommand validates its configuration, runs the requested checks,
and emits one JSON report (schema 1).  Reports are deterministic for a
fixed configuration and seed, except for the wall-time fields.  When the
output file already exists the report is appended as a new line, so a
report file is a JSON-lines log of runs.

Exit codes: 0 all checks passed, 1 a verified property failed (the record
carries the counterexample), 2 invalid configuration or a size guard.  A
guard or configuration error after a check has started still emits the
report of the checks so far, with the aborted step last (status ``guard``
or ``error``).
"""

import argparse
import contextlib
import json
import os
import random
import sys
import time

from .covers import (
    IsotypicProjector,
    build_cover,
    d_primitive_predicate,
    gaschutz_check,
    isotypic_invariants,
    isotypic_projection_check,
    nonkernel_predicate,
    orbit_span_rank,
    quotient_from_bundle,
    quotient_from_json,
)
from .errors import CoverhomError, InvalidConfig, PropertyViolation, TooLarge
from .nonvanishing import build_nonvanishing, classify, minimal_k, verify_nonvanishing
from .units import verify_power_character
from .witness import (
    assemble_witness_free,
    assemble_witness_surface,
    crt_lift,
    verify_quat_power_identity,
    verify_relator_kill,
    verify_witness,
)

SCHEMA = 1

# The record name of each check function, so that a fail, guard or error
# record carries the name the check has when it passes (the benchmark
# looks pass records up by these names).  Keyed by function name, which
# wrappers keep; a callable value names the record from the first argument.
CHECK_NAMES = {
    "verify_nonvanishing": "nonvanishing",
    "verify_power_character": lambda spec: f"power-character-{spec.kind}",
    "verify_witness": lambda bundle: f"witness-{bundle.domain}",
    "verify_relator_kill": "relator-kill",
    "verify_quat_power_identity": "quat-power-identity",
    "gaschutz_check": "gaschutz",
    "isotypic_invariants": "isotypic-invariants",
    "isotypic_projection_check": "isotypic-projection",
    "orbit_rank": "orbit-span",
}


def _check_name(fn, args):
    name = getattr(fn, "__name__", "check")
    name = CHECK_NAMES.get(name, name)
    return name(args[0]) if callable(name) else name


def _timed(checks, fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        record = fn(*args, **kwargs)
    except PropertyViolation as exc:
        checks.append(
            {
                "name": _check_name(fn, args),
                "status": "fail",
                "details": {
                    "error": str(exc),
                    "counterexample": getattr(exc, "counterexample", None),
                },
                "wall_time_s": round(time.perf_counter() - t0, 6),
            }
        )
        return None
    except (InvalidConfig, TooLarge) as exc:
        checks.append(_aborted(_check_name(fn, args), exc, time.perf_counter() - t0))
        raise
    record["wall_time_s"] = round(time.perf_counter() - t0, 6)
    checks.append(record)
    return record


def _aborted(name, exc, wall):
    """The record of a step stopped by a size guard or a bad configuration."""
    return {
        "name": name,
        "status": "guard" if isinstance(exc, TooLarge) else "error",
        "details": {"error": str(exc)},
        "wall_time_s": round(wall, 6),
    }


@contextlib.contextmanager
def _checks(args, config):
    """The check list of one command.  When a guard or a bad configuration
    stops the command after a check has started, the report of the checks
    so far is still emitted, the aborted step last, and the error goes on
    to exit 2."""
    checks = []
    try:
        yield checks
    except (InvalidConfig, TooLarge) as exc:
        if checks:
            if checks[-1]["status"] not in ("guard", "error"):
                checks.append(_aborted("aborted", exc, 0.0))
            _finish(args, args.command, config, checks)
        raise


def _emit(report, out_path):
    text = json.dumps(report, sort_keys=True)
    if out_path in (None, "-"):
        print(text)
    else:
        mode = "a" if os.path.exists(out_path) else "w"
        with open(out_path, mode) as fh:
            fh.write(text + "\n")


def _finish(args, command, config, checks):
    report = {
        "schema": SCHEMA,
        "command": command,
        "config": config,
        "checks": checks,
    }
    _emit(report, args.out)
    return 1 if any(c["status"] == "fail" for c in checks) else 0


def _load_quotient(path):
    try:
        with open(path) as fh:
            return quotient_from_json(json.load(fh))
    except (ValueError, KeyError, TypeError) as exc:
        # schema errors name their field; anything else names its type
        why = exc if isinstance(exc, InvalidConfig) else f"{type(exc).__name__}: {exc}"
        raise InvalidConfig(f"bad quotient file {path}: {why}") from exc


def orbit_rank(cover, predicate, max_len, seed, guard_dim, vertices=None,
               require_proper=False, **details):
    """The orbit-span check: rank of the elevation classes of the words of
    length <= max_len passing the predicate, based at the given vertices
    (all of them when None).  With require_proper a full rank fails; the
    keyword ``details`` are added to the record's details."""
    dim = cover.dim_h1(seed)
    if dim > guard_dim:
        raise TooLarge(f"dim H1 = {dim} exceeds --guard-dim {guard_dim}")
    rank, _ = orbit_span_rank(cover, predicate, max_len, basepoints=vertices, seed=seed)
    if require_proper and rank >= dim:
        raise PropertyViolation(f"sampled d-primitive span has full rank {rank} = dim H1")
    return {
        "name": "orbit-span",
        "status": "pass",
        "details": {
            "rank": rank,
            "dim_h1": dim,
            "max_word_len": max_len,
            "proper_subspace": rank < dim,
            **details,
        },
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_nvpoly(args):
    k = args.k if args.k is not None else minimal_k(args.r, args.n)
    poly = build_nonvanishing(args.r, args.n, k)
    config = {"r": args.r, "n": args.n, "k": k}
    with _checks(args, config) as checks:
        _timed(checks, verify_nonvanishing, poly, args.guard_points)
    parts = classify(poly)
    checks.append(
        {
            "name": "classification",
            "status": "pass",
            "details": {t.value: sub.render() for t, sub in parts.items() if sub.terms},
            "wall_time_s": 0.0,
        }
    )
    report_extra = {"polynomial": poly.render(), "degree": poly.total_degree()}
    checks.insert(0, {"name": "polynomial", "status": "pass", "details": report_extra, "wall_time_s": 0.0})
    return _finish(args, "nvpoly", config, checks)


def cmd_verify_free(args):
    bundle = assemble_witness_free(args.r, args.n, args.k, args.variant)
    spec = bundle.components[0].factors[0].spec
    poly = bundle.components[0].poly
    config = {
        "r": args.r,
        "n": args.n,
        "k": bundle.components[0].k,
        "variant": args.variant,
        "samples": args.samples,
        "seed": args.seed,
    }
    with _checks(args, config) as checks:
        _timed(checks, verify_nonvanishing, poly)
        _timed(checks, verify_power_character, spec, poly, samples=args.samples,
               seed=args.seed, assert_nonzero=True)
        _timed(checks, verify_witness, bundle, samples=max(args.samples // 10, 10),
               seed=args.seed)
    return _finish(args, "verify-free", config, checks)


def cmd_verify_surface(args):
    bundle = assemble_witness_surface(args.r, args.genus, args.k)
    comp = bundle.components[0]
    config = {
        "r": args.r,
        "genus": args.genus,
        "k": comp.k,
        "classes": args.classes,
        "samples": args.samples,
        "seed": args.seed,
    }
    with _checks(args, config) as checks:
        _timed(checks, verify_nonvanishing, comp.poly)
        _timed(checks, verify_relator_kill, (args.r,), (comp.k,))
        _timed(
            checks,
            verify_quat_power_identity,
            args.r,
            comp.k,
            samples=min(args.samples, 1000),
            seed=args.seed,
        )
        _timed(
            checks,
            verify_witness,
            bundle,
            exhaustive=args.classes == "full",
            samples=args.samples if args.classes != "full" else min(args.samples, 20),
            sample_len=5,
            seed=args.seed,
        )
    return _finish(args, "verify-surface", config, checks)


def cmd_cover_report(args):
    quotient = _load_quotient(args.quotient)
    cover = build_cover(quotient, guard_vertices=args.guard_vertices)
    config = {
        "quotient": args.quotient,
        "orbit": args.orbit,
        "d": args.d,
        "max_word_len": args.max_word_len,
        "seed": args.seed,
    }
    with _checks(args, config) as checks:
        _timed(checks, gaschutz_check, cover, args.seed)
        if args.orbit:
            if args.orbit == "d-primitive":
                predicate = d_primitive_predicate(args.d)
            elif args.orbit == "theta-nonkernel":
                predicate = nonkernel_predicate(_load_quotient(args.theta))
            else:
                predicate = lambda word: True
            _timed(checks, orbit_rank, cover, predicate, args.max_word_len, args.seed,
                   args.guard_dim, orbit=args.orbit)
    return _finish(args, "cover-report", config, checks)


def cmd_witness_e2e(args):
    bundle = assemble_witness_free(args.r, args.n, args.k, args.variant)
    config = {
        "r": args.r,
        "n": args.n,
        "k": args.k,
        "variant": args.variant,
        "d": args.r,
        "max_word_len": args.max_word_len,
        "seed": args.seed,
    }
    with _checks(args, config) as checks:
        _timed(checks, verify_witness, bundle, samples=50, seed=args.seed)
        quotient = quotient_from_bundle(bundle)
        cover = build_cover(quotient, guard_vertices=args.guard_vertices)
        _timed(checks, gaschutz_check, cover, args.seed)
        proj = IsotypicProjector(cover, bundle)
        _timed(checks, isotypic_invariants, proj, samples=3, seed=args.seed)
        record = _timed(checks, isotypic_projection_check, proj,
                        max_word_len=args.max_word_len, seed=args.seed)
        del proj  # free the (|C|, V) permutation array before the dense orbit rank
        if args.orbit_rank:
            rng = random.Random(args.seed)
            basepoints = [0] + [
                rng.randrange(cover.n_vertices) for _ in range(args.orbit_basepoints - 1)
            ]
            _timed(checks, orbit_rank, cover, d_primitive_predicate(args.r),
                   args.orbit_word_len, args.seed, args.guard_dim, vertices=basepoints,
                   require_proper=True, basepoints=len(basepoints))
    if record is not None:
        checks.append(
            {
                "name": "proper-subspace-certificate",
                "status": "pass",
                "details": {
                    "statement": (
                        "the d-primitive classes lie in the kernel of a "
                        "projection that is nonzero on H1"
                    ),
                    "dim_h1": record["details"]["dim_h1"],
                },
                "wall_time_s": 0.0,
            }
        )
    return _finish(args, "witness-e2e", config, checks)


def cmd_crt_lift(args):
    primes = [int(p) for p in args.primes.split(",")]
    bundles = [
        assemble_witness_free(r, args.n, args.k, args.variant) for r in primes
    ]
    lifted = crt_lift(bundles)
    config = {
        "primes": primes,
        "n": args.n,
        "k": args.k,
        "variant": args.variant,
        "samples": args.samples,
        "seed": args.seed,
    }
    with _checks(args, config) as checks:
        checks.append(
            {
                "name": "lift",
                "status": "pass",
                "details": {
                    "modulus": lifted.modulus,
                    "exponent": lifted.exponent,
                    "q": [comp.q for comp in lifted.components],
                },
                "wall_time_s": 0.0,
            }
        )
        _timed(checks, verify_witness, lifted, samples=args.samples, seed=args.seed)
    return _finish(args, "crt-lift", config, checks)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coverhom",
        description="exact witnesses for covers with proper d-primitive homology",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="-", help="report path (default stdout)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("nvpoly", help="build and verify the non-vanishing polynomial")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--guard-points", type=int, default=10 ** 8)
    common(p)
    p.set_defaults(func=cmd_nvpoly)

    p = sub.add_parser("verify-free", help="free-group witness checks")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--variant", choices=("full", "sorted"), default="full")
    p.add_argument("--samples", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_verify_free)

    p = sub.add_parser("verify-surface", help="surface-group witness checks")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--classes", choices=("full", "sampled"), default="full")
    p.add_argument("--samples", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_verify_surface)

    p = sub.add_parser("cover-report", help="dimensions and orbit spans of a cover")
    p.add_argument("--quotient", required=True, help="JSON quotient description")
    p.add_argument("--orbit", choices=("all", "d-primitive", "theta-nonkernel"), default=None)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--theta", help="JSON quotient for the theta-nonkernel orbit")
    p.add_argument("--max-word-len", type=int, default=4)
    p.add_argument("--guard-vertices", type=int, default=10 ** 5)
    p.add_argument("--guard-dim", type=int, default=20000)
    common(p)
    p.set_defaults(func=cmd_cover_report)

    p = sub.add_parser("witness-e2e", help="end-to-end proper-subspace certificate")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--variant", choices=("full", "sorted"), default="sorted")
    p.add_argument("--max-word-len", type=int, default=6)
    p.add_argument("--orbit-rank", action="store_true",
                   help="also compute the rank of a sampled d-primitive span directly")
    p.add_argument("--orbit-word-len", type=int, default=5)
    p.add_argument("--orbit-basepoints", type=int, default=6)
    p.add_argument("--guard-vertices", type=int, default=10 ** 5)
    p.add_argument("--guard-dim", type=int, default=20000)
    common(p)
    p.set_defaults(func=cmd_witness_e2e)

    p = sub.add_parser("crt-lift", help="combine witnesses over distinct primes")
    p.add_argument("--primes", required=True, help="comma-separated, e.g. 3,5")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--variant", choices=("full", "sorted"), default="full")
    p.add_argument("--samples", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_crt_lift)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoverhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
