"""The finite cover where 3-primitive homology is a proper subspace.

Pipeline: take the sorted-algebra witness for F_2 at r = 3, k = 1, build
the cover of the wedge of two circles attached to ker(rho), read off its
central slice C and the character psi as two tables (the central vertex
ids and psi of each, mod 3), and average the deck action of C against
the cyclotomic character:

    S = sum over c in C of omega^(-psi(c)) . deck(c)

The projector and the certificate see only those tables, d and the
exponent e; the algebra is read once, by central_slice.

Every elevation class of a 3-primitive loop is fixed by a deck element
whose cube lands in C outside ker(psi), which forces S to kill it; but S
is nonzero on H_1, which contains the regular representation.  For
contrast, a deck group coprime to the detecting quotient can never work:
there the non-kernel elevations span everything.
"""

import time

from coverhom import (
    Alphabet,
    assemble_witness_free,
    build_cover,
    central_slice,
    elevation_class,
    gaschutz_check,
    generator_word,
    isotypic_projection_check,
    nonkernel_predicate,
    orbit_span_rank,
    quotient_from_bundle,
)
from coverhom.covers import FiniteQuotient, IsotypicProjector, ResidueImage

print("-- the witness cover --")
bundle = assemble_witness_free(3, 2, 1, "sorted")
t0 = time.time()
cover = build_cover(quotient_from_bundle(bundle))
print(f"group discovered by closure: |G| = {cover.n_vertices} "
      f"({time.time() - t0:.1f}s)")
gaschutz_check(cover)  # raises unless dim H1 and chi match the formulas
print("dim H1 =", cover.dim_h1(), "=", f"1 + (2-1)*{cover.n_vertices}")

central, psi = central_slice(cover, bundle)
proj = IsotypicProjector(cover, central, psi, bundle.modulus)
print("central slice |C| =", proj.central_order,
      " psi on its first vertices:", psi[:6], "\n")

word = generator_word(cover.alphabet, 0)
m, vec = elevation_class(cover, word, 0)
print(f"elevation of x1: closes after m = {m} repeats, "
      f"{len(vec)} edges in its cycle")
image = proj.apply_int(vec)
print("projector image of that class:", "zero" if not image else "nonzero")

t0 = time.time()
d = isotypic_projection_check(proj, bundle.exponent, seed=1)
print(f"\nevery 3-primitive word killed, at every basepoint: all "
      f"{d['elements_certified']} elements off ker(alpha) certified; "
      f"projector nonzero on H1 (cycle {d['h1_witness_cycle']}) "
      f"[{time.time() - t0:.1f}s]")
print("=> the 3-primitive classes span a proper subspace of H1\n")

print("-- the coprime contrast --")
alphabet = Alphabet("free", 2)
deck2 = FiniteQuotient(alphabet, (ResidueImage((1,), 2), ResidueImage((1,), 2)))
tiny = build_cover(deck2)
theta3 = FiniteQuotient(alphabet, (ResidueImage((1,), 3), ResidueImage((1,), 3)))
rank, dim = orbit_span_rank(tiny, nonkernel_predicate(theta3), 4)
print(f"deck Z/2 against a Z/3 detector: span rank {rank} of dim {dim}")
print("coprime orders always fill the whole homology, so no certificate there")
