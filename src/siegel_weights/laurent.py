"""Sparse Laurent polynomials on the rank-three exponent lattice.

A polynomial is a finitely supported Z-valued function on Z^3; terms are kept
in a dict keyed by exponent triples, zero coefficients never stored.  The
class holds what the character oracles use: building from a dict of int triples
(a WeightTriple of ints is one) to ints, PreconditionViolation on anything else;
comparing, reading the mass, and exact division by (1 - x^{-beta}).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping

from .errors import DivisionFailure, PreconditionViolation
from .root_data import shown

Exponent = tuple[int, int, int]


def _as_exponent(e) -> Exponent:
    if isinstance(e, tuple) and len(e) == 3 and all(type(v) is int for v in e):
        return tuple(e)
    raise PreconditionViolation(f"exponent must be a tuple of three ints, got {shown(e)}")


class LaurentPolynomial:
    """Immutable-by-convention sparse Laurent polynomial over Z."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, int] | None = None):
        self._terms: dict[Exponent, int] = {}
        for e, c in (terms or {}).items():
            e = _as_exponent(e)
            if type(c) is not int:
                raise PreconditionViolation(f"coefficients must be ints, got {shown(c)}")
            if c:
                self._terms[e] = c

    @classmethod
    def _trusted(cls, terms: dict[Exponent, int]) -> "LaurentPolynomial":
        """Take over terms, int triples to nonzero ints, without __init__'s copy and checks."""
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    def mass(self) -> int:
        """Sum of all coefficients, i.e. evaluation at x = (1, 1, 1)."""
        return sum(self._terms.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._terms == other._terms

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

        # base = e - t*beta with t = floor(e[pivot] / beta[pivot]) is constant
        # along each line e + Z*beta, so it is a canonical line key.
        lines: dict[Exponent, dict[int, int]] = defaultdict(dict)
        for e, c in self._terms.items():
            t = e[pivot] // b[pivot]
            lines[(e[0] - t * b0, e[1] - t * b1, e[2] - t * b2)][t] = c

        quotient: dict[Exponent, int] = {}
        for base, coeffs in lines.items():
            total = sum(coeffs.values())
            if total != 0:
                raise DivisionFailure(
                    f"line through {shown(base)} along {shown(b)} has nonzero sum {shown(total)}"
                )
            x, y, z = base
            running = 0
            for t in range(max(coeffs), min(coeffs) - 1, -1):
                running += coeffs.get(t, 0)
                if running:
                    quotient[(x + t * b0, y + t * b1, z + t * b2)] = running
        return LaurentPolynomial._trusted(quotient)
