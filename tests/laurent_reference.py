"""The terms and the product of Laurent polynomials, for tests that look inside.

The package divides Laurent polynomials but never multiplies them or lists
their terms, so the product the division tests check against lives here,
built term by term and normalised by the public constructor.
"""

from siegel_weights.laurent import LaurentPolynomial


def sorted_terms(p: LaurentPolynomial) -> list[tuple[tuple[int, int, int], int]]:
    """The (exponent, coefficient) pairs of p, sorted by exponent."""
    return sorted(p._terms.items())


def times(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """p * q."""
    out = {}
    for (a1, b1, c1), x in sorted_terms(p):
        for (a2, b2, c2), y in sorted_terms(q):
            e = (a1 + a2, b1 + b2, c1 + c2)
            out[e] = out.get(e, 0) + x * y
    return LaurentPolynomial(out)
