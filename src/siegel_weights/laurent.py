"""Sparse Laurent polynomials on the rank-three exponent lattice.

A polynomial is a finitely supported Z-valued function on Z^3; terms are kept
in a dict keyed by exponent triples, zero coefficients never stored.  The
class holds what the character oracles use: building from a dict, comparing,
reading items and mass, multiplying, and exact division by (1 - x^{-beta}) for
a lattice vector beta, done line by line along the direction beta with suffix
sums; a nonzero remainder raises DivisionFailure.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator, Mapping

from .errors import DivisionFailure
from .root_data import WeightTriple

Exponent = tuple[int, int, int]


def _as_exponent(e) -> Exponent:
    if isinstance(e, WeightTriple):
        return (e.k1, e.k2, e.r)
    return (int(e[0]), int(e[1]), int(e[2]))


class LaurentPolynomial:
    """Immutable-by-convention sparse Laurent polynomial over Z."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, int] | None = None):
        self._terms: dict[Exponent, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self._terms[_as_exponent(e)] = int(c)

    @classmethod
    def _trusted(cls, terms: dict[Exponent, int]) -> "LaurentPolynomial":
        """Take over terms as they are: keys are int triples, values nonzero.

        For the results of __mul__ and divide_one_minus_inverse, which build
        such dicts already; __init__ would only copy and re-check every term.
        """
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    def items(self) -> Iterator[tuple[Exponent, int]]:
        return iter(sorted(self._terms.items()))

    def mass(self) -> int:
        """Sum of all coefficients, i.e. evaluation at x = (1, 1, 1)."""
        return sum(self._terms.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out: dict[Exponent, int] = defaultdict(int)
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                out[(e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])] += c1 * c2
        return LaurentPolynomial._trusted({e: c for e, c in out.items() if c})

    def __repr__(self) -> str:
        if not self._terms:
            return "LaurentPolynomial(0)"
        bits = [f"{c}*x^{e}" for e, c in sorted(self._terms.items())]
        return "LaurentPolynomial(" + " + ".join(bits) + ")"

    def divide_one_minus_inverse(self, beta) -> "LaurentPolynomial":
        """Exact quotient self / (1 - x^{-beta}).

        Terms are grouped into lines {base + t*beta : t in Z}.  Writing the
        line as a one-variable Laurent polynomial sum c_t y^t with y = x^beta,
        the identity Q * (1 - y^{-1}) = C forces q_t = sum_{s >= t} c_s, and
        the quotient is finite iff each line's coefficients sum to zero.  A
        line with nonzero total raises DivisionFailure.
        """
        b = _as_exponent(beta)
        if b == (0, 0, 0):
            raise DivisionFailure("division direction must be nonzero")
        pivot = next(i for i in range(3) if b[i] != 0)
        b0, b1, b2 = b
        step = b[pivot]

        # base = e - t*beta with t = floor(e[pivot] / beta[pivot]) is constant
        # along each line e + Z*beta, so it is a canonical line key.
        lines: dict[Exponent, dict[int, int]] = defaultdict(dict)
        for e, c in self._terms.items():
            t = e[pivot] // step
            lines[(e[0] - t * b0, e[1] - t * b1, e[2] - t * b2)][t] = c

        quotient: dict[Exponent, int] = {}
        for base, coeffs in lines.items():
            total = sum(coeffs.values())
            if total != 0:
                raise DivisionFailure(
                    f"line through {base} along {b} has nonzero sum {total}"
                )
            x, y, z = base
            get = coeffs.get
            running = 0
            for t in range(max(coeffs), min(coeffs) - 1, -1):
                running += get(t, 0)
                if running:
                    quotient[(x + t * b0, y + t * b1, z + t * b2)] = running
        return LaurentPolynomial._trusted(quotient)
