"""Random finite quotients for the dimension-formula checks.

The library builds quotients from witness bundles and JSON files; the
tests that check the homology formulas on many small quotients draw them
from here.
"""

from coverhom import Alphabet, FiniteQuotient, PermImage, ResidueImage, TooLarge, build_cover


def random_quotient(alphabet: Alphabet, rng, max_size: int = 200) -> FiniteQuotient:
    """A random finite quotient with |image| <= max_size: permutation
    images for free groups; for surface groups either residue tuples or
    the pair pattern (a, b, b, a, c, c, ...) whose commutators cancel."""
    for _ in range(64):
        if alphabet.kind == "free":
            deg = rng.choice((3, 4, 5))
            images = tuple(
                PermImage(_random_perm(rng, deg)) for _ in range(alphabet.ngens)
            )
        elif rng.randrange(2):
            mod = rng.choice((2, 3, 4, 5, 6, 7))
            images = tuple(
                ResidueImage([rng.randrange(mod)], mod)
                for _ in range(alphabet.ngens)
            )
        else:
            deg = rng.choice((3, 4, 5))
            a, b = _random_perm(rng, deg), _random_perm(rng, deg)
            pairs = [(PermImage(a), PermImage(b)), (PermImage(b), PermImage(a))]
            while len(pairs) < alphabet.rank:
                c = PermImage(_random_perm(rng, deg))
                pairs.append((c, c))
            images = tuple(img for pair in pairs for img in pair)
        quotient = FiniteQuotient(alphabet, images)
        try:
            cover = build_cover(quotient, guard_vertices=max_size + 1)
        except TooLarge:
            continue
        if cover.n_vertices > 1:
            return quotient
    raise TooLarge(f"no random quotient of size <= {max_size} found")


def _random_perm(rng, deg):
    perm = list(range(deg))
    rng.shuffle(perm)
    return tuple(perm)
