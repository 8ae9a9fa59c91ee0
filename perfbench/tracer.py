"""In-memory span recorder that wraps coverhom's public functions from
outside the package.

A span is one call of a wrapped function.  Spans are aggregated as they
close: per span name the call count and self time (duration minus the
time covered by child spans), and per (parent, child) name pair the call
count.  Nothing is written until :func:`layer_metrics` is read at the
end of the run.

Functions are replaced at every binding site that imported them by name,
so ``from .units import in_central_subgroup`` inside ``covers`` sees the
wrapper too.  Methods are replaced on their class.
"""

import functools
import time
from collections import Counter, defaultdict

ROOT = "<root>"


class Tracer:
    def __init__(self):
        self.stack = [[ROOT, 0.0]]
        self.stats = defaultdict(lambda: [0, 0.0])  # calls, self_s
        self.edges = Counter()  # (parent span, child span) -> calls
        self.counts = Counter()  # per-layer work counters
        self.words = set()  # distinct words passed to elevation_class

    def wrap(self, name, fn, note=None):
        """Return fn recorded as span ``name``.  ``name`` may be a callable
        of the call arguments returning the span name, or None to call
        through unrecorded.  ``note(args, result)`` updates counters."""
        stack, stats, edges, clock = self.stack, self.stats, self.edges, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            if span is None:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dur
                st = stats[span]
                st[0] += 1
                st[1] += dur - frame[1]
                edges[parent[0], span] += 1
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def patch_function(self, modules, owner, attr, name, note=None):
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, note)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr, name, note=None):
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), note))

    def calls(self, span):
        return self.stats[span][0] if span in self.stats else 0

    def self_s(self, span):
        return self.stats[span][1] if span in self.stats else 0.0

    def child_calls(self, parent, prefix):
        return sum(n for (p, c), n in self.edges.items() if p == parent and c.startswith(prefix))


MUL_KINDS = ("free", "sorted", "m", "quat")


def install(tracer):
    """Wrap the layer boundaries of the imported coverhom package."""
    import coverhom
    from coverhom import algebra, cli, covers, nonvanishing, units, witness

    modules = (coverhom, algebra, units, witness, covers, nonvanishing, cli)
    counts = tracer.counts
    AlgElement = algebra.AlgElement

    def mul_span(args):
        a, b = args
        # scalar multiples are not algebra products
        return f"algebra.mul.{a.spec.kind}" if isinstance(b, AlgElement) else None

    def mul_note(args, out):
        a, b = args
        if isinstance(b, AlgElement):
            counts["algebra.mul.term_pairs"] += len(a.terms) * len(b.terms)
            counts["algebra.mul.out_terms"] += len(out.terms)

    def rank_note(args, out):
        rows = [row for row in args[0] if row]
        ncols = args[1]
        counts["covers.rank_over_rationals.rows"] += len(rows)
        counts["covers.rank_over_rationals.nnz"] += sum(len(row) for row in rows)
        counts["covers.rank_over_rationals.dense_bytes"] += len(rows) * ncols * 8
        counts["covers.rank_over_rationals.cols"] = max(
            counts["covers.rank_over_rationals.cols"], ncols
        )
        if tracer.stack[-1][0] == "covers.orbit_span_rank":
            counts["orbit.last_rank_input_rows"] = len(args[0])

    def elevation_note(args, out):
        word = args[1]
        tracer.words.add(word.letters)
        counts["covers.elevation_class.edges_walked"] += out[0] * len(word.letters)

    def orbit_note(args, out):
        cover = args[0]
        unique = counts.pop("orbit.last_rank_input_rows", 0) - len(cover.boundary_rows())
        counts["orbit.unique_rows"] += unique

    def apply_note(args, out):
        counts["covers.projector.apply.in_nnz"] += len(args[1])
        counts["covers.projector.apply.out_nnz"] += len(out)

    def cover_note(args, out):
        counts["covers.build_cover.vertices"] += out.n_vertices

    patch = functools.partial(tracer.patch_function, modules)
    patch(algebra, "power", "algebra.power")
    patch(units, "in_central_subgroup", "units.in_central_subgroup")
    patch(units, "abelianization", "units.abelianization")
    patch(witness, "check_witness_word", "witness.check_witness_word")
    patch(nonvanishing, "verify_nonvanishing", "nonvanishing.verify_nonvanishing")
    patch(covers, "build_cover", "covers.build_cover", cover_note)
    patch(covers, "rank_over_rationals", "covers.rank_over_rationals", rank_note)
    patch(covers, "elevation_class", "covers.elevation_class", elevation_note)
    patch(covers, "orbit_span_rank", "covers.orbit_span_rank", orbit_note)

    method = tracer.patch_method
    method(AlgElement, "__mul__", mul_span, mul_note)
    method(AlgElement, "inverse_unit", "algebra.inverse_unit")
    method(units.CentralCharacter, "__call__", "units.character")
    method(witness.WitnessBundle, "images", "witness.images")
    method(nonvanishing.Poly, "evaluate", "nonvanishing.evaluate")
    method(covers.IsotypicProjector, "__init__", "covers.projector.init")
    method(covers.IsotypicProjector, "apply_int", "covers.projector.apply", apply_note)
    method(covers.IsotypicProjector, "apply_cyc", "covers.projector.apply", apply_note)
    method(covers.IsotypicProjector, "is_zero_in_h1", "covers.projector.zero_test")
    method(covers.FiniteQuotient, "element_order", "covers.element_order")
    method(covers.CoverComplex, "dim_h1", "covers.dim_h1")
    method(covers.CoverComplex, "deck_perm", "covers.deck_perm")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Flat per-layer metrics, named <module>.<function>.<quantity>."""
    t, counts = tracer, tracer.counts
    out = {}
    for span in (
        "covers.projector.apply",
        "covers.projector.init",
        "covers.projector.zero_test",
        "covers.rank_over_rationals",
        "covers.elevation_class",
        "covers.deck_perm",
        "algebra.power",
        "algebra.inverse_unit",
        "units.in_central_subgroup",
        "units.character",
        "witness.check_witness_word",
    ) + tuple(f"algebra.mul.{kind}" for kind in MUL_KINDS):
        out[f"{span}.calls"] = t.calls(span)
        out[f"{span}.self_s"] = t.self_s(span)
    for span in (
        "covers.build_cover",
        "covers.dim_h1",
        "witness.images",
        "nonvanishing.verify_nonvanishing",
    ):
        out[f"{span}.self_s"] = t.self_s(span)
    for span in ("covers.element_order", "units.abelianization", "nonvanishing.evaluate"):
        out[f"{span}.calls"] = t.calls(span)
    for name in (
        "algebra.mul.term_pairs",
        "algebra.mul.out_terms",
        "covers.projector.apply.in_nnz",
        "covers.projector.apply.out_nnz",
        "covers.rank_over_rationals.rows",
        "covers.rank_over_rationals.cols",
        "covers.rank_over_rationals.nnz",
        "covers.rank_over_rationals.dense_bytes",
        "covers.elevation_class.edges_walked",
        "covers.build_cover.vertices",
    ):
        out[name] = counts[name]
    out["algebra.power.mul_per_call"] = _ratio(
        t.child_calls("algebra.power", "algebra.mul."), t.calls("algebra.power")
    )
    out["covers.element_order.calls_per_word"] = _ratio(
        t.calls("covers.element_order"), len(t.words)
    )
    out["covers.orbit_span_rank.unique_row_ratio"] = _ratio(
        counts["orbit.unique_rows"],
        t.child_calls("covers.orbit_span_rank", "covers.elevation_class"),
    )
    return out
