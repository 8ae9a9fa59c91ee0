"""A homogeneous polynomial over F_r with no zero outside the origin.

The construction nests P_1(a, b) = a - a b^(r-1) + b, whose value is b
when b != 0 and a otherwise, and then pads every monomial up to degree
r^k with a power of one of its own variables.  Padding costs nothing
pointwise: a^(r-1) = 1 whenever a != 0.
"""

import itertools

from coverhom import classify, minimal_k, verify_nonvanishing
from coverhom.nonvanishing import _base_chain, homogenize

r, n = 3, 4
k = minimal_k(r, n)
print(f"r = {r}, n = {n}: the smallest usable truncation exponent is k = {k}")
print(f"(need r^k > (n-1)(r-1) = {(n - 1) * (r - 1)}; r^k = {r ** k})\n")

base = _base_chain(r, n, ())
print("nested base polynomial:")
print(" ", base.render())
print("total degree", base.total_degree(), "- not yet homogeneous\n")

poly = homogenize(base, r ** k)
print(f"homogenised to degree {r ** k}:")
print(" ", poly.render(), "\n")

print("values agree at every point of F_3^4:",
      all(base.evaluate(p) == poly.evaluate(p)
          for p in itertools.product(range(r), repeat=n)))

details = verify_nonvanishing(poly)
print(f"brute force over {details['points_checked']} nonzero points: no zero\n")

print("monomial classes (paired variables x1, y1, x2, y2):")
parts = classify(poly, paired=True)
for mtype, sub in parts.items():
    if sub.terms:
        print(f"  type {mtype.value:5s} {sub.render()}")
print()
print("type I powers read off one variable, type II/IIIa monomials embed in")
print("the adjacency-killed algebra, and each type IIIb monomial x_i^u y_i^v")
print("needs its own quaternion factor; see demo 03.")
