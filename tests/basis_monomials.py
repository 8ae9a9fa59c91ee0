"""The basis of a truncated algebra, listed monomial by monomial.

The library only counts its basis (``algebra.count_basis_monomials``);
the tests that sweep a whole small basis list it from here.
"""

from coverhom.algebra import AlgebraSpec


def iter_basis_monomials(spec: AlgebraSpec):
    """Yield every admissible monomial in graded-lex order."""
    if spec.kind == "quat":
        for deg in range(spec.cap + 1):
            for v in (0, 1):
                u = deg - v
                if u < 0:
                    continue
                for unit in range(4):
                    yield (u, v, unit)
        return
    layer = [spec.one_mono]
    yield spec.one_mono
    for _ in range(spec.cap):
        nxt = []
        for mono in layer:
            for g in range(spec.ngens):
                if mono and not spec.adjacent_ok(mono[-1], g):
                    continue
                ext = mono + bytes([g])
                nxt.append(ext)
                yield ext
        layer = nxt
