"""The product of two Laurent polynomials, for tests that multiply back.

The package divides Laurent polynomials but never multiplies them, so the
product the division tests check against lives here, built term by term and
normalised by the public constructor.
"""

from siegel_weights import LaurentPolynomial


def times(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """p * q."""
    out = {}
    for (a1, b1, c1), x in p.items():
        for (a2, b2, c2), y in q.items():
            e = (a1 + a2, b1 + b2, c1 + c2)
            out[e] = out.get(e, 0) + x * y
    return LaurentPolynomial(out)
