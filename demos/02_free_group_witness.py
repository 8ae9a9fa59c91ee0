"""The free-group witness: units of a truncated algebra detect every
nonzero mod-r homology class through a fixed character of the center.

Generators map to 1 + X_i in F_r<X_1..X_n> truncated at degree D = r^k.
Every D-th power lands in the central slice 1 + (degree D), and its
top-degree coefficients are monomials in the abelianisation: reading them
off with the right weights evaluates the non-vanishing polynomial.
"""

import random

from coverhom import (
    Alphabet,
    abelianization,
    assemble_witness_free,
    build_nonvanishing,
    character_from_poly,
    check_witness_word,
    crt_lift,
    free_spec,
    in_central_subgroup,
    magnus_image,
    power,
    random_word,
    verify_witness,
    word_from_exponents,
)

spec = free_spec(3, 1, 2)
alphabet = Alphabet("free", 2)
print("algebra: free, r = 3, k = 1, two generators; D =", spec.cap, "\n")

w = random_word(alphabet, random.Random(1), 5)
g = magnus_image(w, spec)
print("a random word:   ", w.render())
print("its unit image:  ", g.render())
print("abelianisation:  ", abelianization(g), "= exponent sums mod 3")
cube = power(g, 3)
print("the cube:        ", cube.render())
print("cube is central: ", in_central_subgroup(cube), "\n")

poly = build_nonvanishing(3, 2, 1)
chi = character_from_poly(spec, poly)
print("polynomial       ", poly.render())
print("character targets", chi.render())
print("chi(g^3) =", chi(cube), " P(alpha) =", poly.evaluate(abelianization(g)), "\n")

bundle = assemble_witness_free(3, 2, 1, "full")
details = verify_witness(bundle, exhaustive=True, samples=500, seed=2)
print(f"all {details['classes']} nonzero classes and {details['samples']} random words "
      "verified\n")

print("CRT lift to d = 15 (primes 3 and 5, shared k = 1):")
lifted = crt_lift([assemble_witness_free(3, 2, 1), assemble_witness_free(5, 2, 1)])
print("  exponent e =", lifted.exponent, " weights q =",
      [c.q for c in lifted.components])
word = word_from_exponents(lifted.alphabet, (3, 0))
psi = check_witness_word(lifted, word)
print(f"  {word.render()}: abelianisation (3, 0) vanishes mod 3 only;")
print(f"  psi(rho(w)^930) = {psi}: zero mod 3, nonzero mod 5 - the lift sees it")
