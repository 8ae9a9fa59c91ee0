"""Command-line front end.

Each subcommand validates its configuration and runs the requested
checks; ``main`` emits the one JSON report (schema 1).  Reports are
deterministic for a fixed configuration and seed, except for the
wall-time fields.  When the output file already exists the report is
appended as a new line, so a report file is a JSON-lines log of runs.

Exit codes: 0 all checks passed, 1 a verified property failed (the record
carries the counterexample), 2 invalid configuration or a size guard.  A
guard or configuration error after a check has started still emits the
report of the checks so far, with the aborted step last (status ``guard``
or ``error``).

Only ``cover-report`` and ``witness-e2e`` build a cover, so only they
import ``covers`` (and with it numpy).  They look its functions up on the
module at call time, so a patch of ``covers.build_cover`` reaches them.
``main`` sets ``OPENBLAS_NUM_THREADS=1`` unless it is set already, so
numpy imports without a BLAS thread pool that ``covers`` would never use.
"""

import argparse
import contextlib
import json
import os
import random
import sys
import time

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


def _record(name, status, details, wall=0.0):
    """One check record: status is pass, fail (a property violated, with
    its counterexample), guard (a size guard tripped) or error (a bad
    configuration)."""
    return {"name": name, "status": status, "details": details, "wall_time_s": round(wall, 6)}


def _timed(checks, name, fn, *args, **kwargs):
    """Run the check fn, which returns its details, and append its record
    under ``name``; returns the details, or None when the check failed.  A
    guard or a bad configuration is recorded, then raised on to ``main``."""
    t0 = time.perf_counter()
    try:
        details = fn(*args, **kwargs)
    except PropertyViolation as exc:
        details = {"error": str(exc), "counterexample": exc.counterexample}
        checks.append(_record(name, "fail", details, time.perf_counter() - t0))
        return None
    except (InvalidConfig, TooLarge) as exc:
        status = "guard" if isinstance(exc, TooLarge) else "error"
        checks.append(_record(name, status, {"error": str(exc)}, time.perf_counter() - t0))
        raise
    checks.append(_record(name, "pass", details, time.perf_counter() - t0))
    return details


def _emit(report, out_path):
    text = json.dumps(report, sort_keys=True)
    if out_path in (None, "-"):
        print(text)
    else:
        with open(out_path, "a") as fh:
            fh.write(text + "\n")


@contextlib.contextmanager
def _quotient_file(path, errors=InvalidConfig):
    """Turn the given errors raised in the block into InvalidConfig naming
    the quotient file at path."""
    try:
        yield
    except errors as exc:
        # schema errors name their field; anything else names its type
        why = exc if isinstance(exc, InvalidConfig) else f"{type(exc).__name__}: {exc}"
        raise InvalidConfig(f"bad quotient file {path}: {why}") from exc


def _load_quotient(path):
    from . import covers

    with _quotient_file(path, (ValueError, KeyError, TypeError)), open(path) as fh:
        return covers.quotient_from_json(json.load(fh))


def orbit_rank(cover, predicate, max_len, seed, guard_dim, vertices=None,
               require_proper=False, **details):
    """The orbit-span check: rank of the elevation classes of the words of
    length <= max_len passing the predicate, based at the given vertices
    (all of them when None).  With require_proper a full rank fails; the
    keyword ``details`` are added to the returned details."""
    from . import covers

    dim = cover.dim_h1(seed)
    if dim > guard_dim:
        raise TooLarge(f"dim H1 = {dim} exceeds --guard-dim {guard_dim}")
    rank, _ = covers.orbit_span_rank(cover, predicate, max_len, basepoints=vertices, seed=seed)
    if require_proper and rank >= dim:
        raise PropertyViolation(f"sampled d-primitive span has full rank {rank} = dim H1")
    return {
        "rank": rank,
        "dim_h1": dim,
        "max_word_len": max_len,
        "proper_subspace": rank < dim,
        **details,
    }


# ---------------------------------------------------------------------------
# subcommands: each fills the config and the checks of the report ``main``
# emits


def cmd_nvpoly(args, report):
    k = args.k if args.k is not None else minimal_k(args.r, args.n)
    poly = build_nonvanishing(args.r, args.n, k)
    report["config"] = {"r": args.r, "n": args.n, "k": k}
    checks = report["checks"]
    _timed(checks, "nonvanishing", verify_nonvanishing, poly, args.guard_points)
    parts = classify(poly)
    details = {t.value: sub.render() for t, sub in parts.items() if sub.terms}
    checks.append(_record("classification", "pass", details))
    details = {"polynomial": poly.render(), "degree": poly.total_degree()}
    checks.insert(0, _record("polynomial", "pass", details))


def cmd_verify_free(args, report):
    bundle = assemble_witness_free(args.r, args.n, args.k, args.variant)
    spec = bundle.components[0].factors[0].spec
    poly = bundle.components[0].poly
    report["config"] = {
        "r": args.r,
        "n": args.n,
        "k": bundle.components[0].k,
        "variant": args.variant,
        "samples": args.samples,
        "seed": args.seed,
    }
    checks = report["checks"]
    _timed(checks, "nonvanishing", verify_nonvanishing, poly)
    _timed(checks, f"power-character-{spec.kind}", verify_power_character, spec, poly,
           samples=args.samples, seed=args.seed, assert_nonzero=True)
    _timed(checks, "witness-free", verify_witness, bundle,
           samples=max(args.samples // 10, 10), seed=args.seed)


def cmd_verify_surface(args, report):
    bundle = assemble_witness_surface(args.r, args.genus, args.k)
    comp = bundle.components[0]
    report["config"] = {
        "r": args.r,
        "genus": args.genus,
        "k": comp.k,
        "classes": args.classes,
        "samples": args.samples,
        "seed": args.seed,
    }
    checks = report["checks"]
    _timed(checks, "nonvanishing", verify_nonvanishing, comp.poly)
    _timed(checks, "relator-kill", verify_relator_kill, (args.r,), (comp.k,))
    _timed(checks, "quat-power-identity", verify_quat_power_identity, args.r, comp.k,
           samples=min(args.samples, 1000), seed=args.seed)
    _timed(
        checks,
        "witness-surface",
        verify_witness,
        bundle,
        exhaustive=args.classes == "full",
        samples=args.samples if args.classes != "full" else min(args.samples, 20),
        sample_len=5,
        seed=args.seed,
    )


def cmd_cover_report(args, report):
    from . import covers

    quotient = _load_quotient(args.quotient)
    if args.orbit == "theta-nonkernel":
        if args.theta is None:
            raise InvalidConfig("--orbit theta-nonkernel needs --theta")
        theta = _load_quotient(args.theta)
        if theta.alphabet != quotient.alphabet:
            raise InvalidConfig(
                f"--theta {args.theta} is a quotient of the {_group(theta.alphabet)}, "
                f"--quotient {args.quotient} of the {_group(quotient.alphabet)}"
            )
        # theta's cover comes first: its refusals stop the run before any check
        with _quotient_file(args.theta):
            predicate = covers.nonkernel_predicate(theta, args.guard_vertices)
    elif args.theta is not None:
        raise InvalidConfig("--theta is read only with --orbit theta-nonkernel")
    elif args.orbit == "d-primitive":
        predicate = covers.d_primitive_predicate(args.d)
    else:
        predicate = lambda word: True
    with _quotient_file(args.quotient):
        cover = covers.build_cover(quotient, guard_vertices=args.guard_vertices)
    report["config"] = {
        "quotient": args.quotient,
        "orbit": args.orbit,
        "d": args.d,
        "max_word_len": args.max_word_len,
        "seed": args.seed,
    }
    checks = report["checks"]
    _timed(checks, "gaschutz", covers.gaschutz_check, cover, args.seed)
    if args.orbit:
        _timed(checks, "orbit-span", orbit_rank, cover, predicate, args.max_word_len,
               args.seed, args.guard_dim, orbit=args.orbit)


def _group(alphabet):
    size = "rank" if alphabet.kind == "free" else "genus"
    return f"{alphabet.kind} group of {size} {alphabet.rank}"


def cmd_witness_e2e(args, report):
    from . import covers

    bundle = assemble_witness_free(args.r, args.n, args.k, args.variant)
    report["config"] = {
        "r": args.r,
        "n": args.n,
        "k": bundle.components[0].k,
        "variant": args.variant,
        "d": args.r,
        "max_word_len": args.max_word_len,
        "seed": args.seed,
    }
    checks = report["checks"]
    _timed(checks, "witness-free", verify_witness, bundle, samples=50, seed=args.seed)
    quotient = covers.quotient_from_bundle(bundle)
    cover = covers.build_cover(quotient, guard_vertices=args.guard_vertices)
    _timed(checks, "gaschutz", covers.gaschutz_check, cover, args.seed)
    # the projector certifies its central slice as it is built; a
    # violation there fails the invariants check, and no certificate
    # follows
    t0 = time.perf_counter()
    try:
        proj = covers.IsotypicProjector(cover, *covers.central_slice(cover, bundle), bundle.modulus)
    except PropertyViolation as exc:
        details = {"error": str(exc), "counterexample": exc.counterexample}
        checks.append(_record("isotypic-invariants", "fail", details, time.perf_counter() - t0))
        projection = None
    else:
        _timed(checks, "isotypic-invariants", covers.isotypic_invariants, proj,
               samples=3, seed=args.seed)
        projection = _timed(checks, "isotypic-projection", covers.isotypic_projection_check,
                            proj, bundle.exponent, max_word_len=args.max_word_len, seed=args.seed)
    if args.orbit_rank:
        if args.orbit_basepoints >= cover.n_vertices:
            # exhaustive: the report's basepoints is then the group order
            basepoints = list(range(cover.n_vertices))
        else:
            # distinct draws in order: a repeated basepoint only repeats rows
            rng = random.Random(args.seed)
            basepoints = list(dict.fromkeys([0] + [
                rng.randrange(cover.n_vertices) for _ in range(args.orbit_basepoints - 1)
            ]))
        _timed(checks, "orbit-span", orbit_rank, cover, covers.d_primitive_predicate(args.r),
               args.orbit_word_len, args.seed, args.guard_dim, vertices=basepoints,
               require_proper=True, basepoints=len(basepoints))
    if projection is not None:
        details = {
            "statement": "the d-primitive classes lie in the kernel of a "
            "projection that is nonzero on H1",
            "dim_h1": projection["dim_h1"],
        }
        checks.append(_record("proper-subspace-certificate", "pass", details))


def cmd_crt_lift(args, report):
    primes = _int_list(args.primes)
    bundles = [
        assemble_witness_free(r, args.n, args.k, args.variant) for r in primes
    ]
    lifted = crt_lift(bundles)
    report["config"] = {
        "primes": primes,
        "n": args.n,
        "k": args.k,
        "variant": args.variant,
        "samples": args.samples,
        "seed": args.seed,
    }
    checks = report["checks"]
    details = {
        "modulus": lifted.modulus,
        "exponent": lifted.exponent,
        "q": [comp.q for comp in lifted.components],
    }
    checks.append(_record("lift", "pass", details))
    _timed(checks, "witness-free", verify_witness, lifted, samples=args.samples, seed=args.seed)


# ---------------------------------------------------------------------------
# argument parsing


def _at_least(low):
    """An argparse type: an integer no smaller than ``low``, so a count
    that would make a check vacuous, or a size guard below 1, is refused
    as bad input."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _int_list(text):
    """The integers of a comma-separated list such as 3,5."""
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


class _Parser(argparse.ArgumentParser):
    """Bad arguments exit 2 with the one-line message alone; ``-h``
    still prints the usage.  Subcommand parsers take this class too."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
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
    p.add_argument("--guard-points", type=_at_least(1), default=10 ** 8)
    common(p)
    p.set_defaults(func=cmd_nvpoly)

    p = sub.add_parser("verify-free", help="free-group witness checks")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--variant", choices=("full", "sorted"), default="full")
    p.add_argument("--samples", type=_at_least(0), default=1000)
    common(p)
    p.set_defaults(func=cmd_verify_free)

    p = sub.add_parser("verify-surface", help="surface-group witness checks")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--classes", choices=("full", "sampled"), default="full")
    p.add_argument("--samples", type=_at_least(0), default=100)
    common(p)
    p.set_defaults(func=cmd_verify_surface)

    p = sub.add_parser("cover-report", help="dimensions and orbit spans of a cover")
    p.add_argument("--quotient", required=True, help="JSON quotient description")
    p.add_argument("--orbit", choices=("all", "d-primitive", "theta-nonkernel"), default=None)
    p.add_argument("--d", type=_at_least(2), default=3)
    p.add_argument("--theta", help="JSON quotient for the theta-nonkernel orbit")
    p.add_argument("--max-word-len", type=_at_least(1), default=4)
    p.add_argument("--guard-vertices", type=_at_least(1), default=10 ** 5)
    p.add_argument("--guard-dim", type=_at_least(1), default=20000)
    common(p)
    p.set_defaults(func=cmd_cover_report)

    p = sub.add_parser("witness-e2e", help="end-to-end proper-subspace certificate")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--variant", choices=("full", "sorted"), default="sorted")
    p.add_argument("--max-word-len", type=_at_least(1), default=6,
                   help="length of the d-primitive words counted in the report; "
                   "the certificate covers every word")
    p.add_argument("--orbit-rank", action="store_true",
                   help="also compute the rank of a sampled d-primitive span directly")
    p.add_argument("--orbit-word-len", type=_at_least(1), default=5)
    p.add_argument("--orbit-basepoints", type=_at_least(1), default=6,
                   help="vertex 0 and random draws; at least the group order "
                   "takes every vertex")
    p.add_argument("--guard-vertices", type=_at_least(1), default=10 ** 5)
    p.add_argument("--guard-dim", type=_at_least(1), default=20000)
    common(p)
    p.set_defaults(func=cmd_witness_e2e)

    p = sub.add_parser("crt-lift", help="combine witnesses over distinct primes")
    # checked here and split again by the command, so that args.primes
    # stays the text perfbench/setup_inputs.py splits itself
    p.add_argument("--primes", required=True, type=lambda text: _int_list(text) and text,
                   help="comma-separated, e.g. 3,5")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--variant", choices=("full", "sorted"), default="full")
    p.add_argument("--samples", type=_at_least(0), default=1000)
    common(p)
    p.set_defaults(func=cmd_crt_lift)

    return parser


def main(argv=None) -> int:
    # numpy's OpenBLAS starts a thread pool on import, and covers never
    # calls BLAS (its one matrix product is int64); a value set by the
    # user is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    report = {"schema": SCHEMA, "command": args.command, "config": {}, "checks": []}
    checks, stop = report["checks"], None
    try:
        try:
            args.func(args, report)
        except (InvalidConfig, TooLarge) as exc:
            # stopped after a check has started: the checks so far are
            # still reported, the aborted step last
            if checks and checks[-1]["status"] not in ("guard", "error"):
                status = "guard" if isinstance(exc, TooLarge) else "error"
                checks.append(_record("aborted", status, {"error": str(exc)}))
            stop = exc
        if checks:
            _emit(report, args.out)
        if stop is not None:
            raise stop
    except (InvalidConfig, TooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoverhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if any(c["status"] == "fail" for c in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
