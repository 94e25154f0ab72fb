"""Sparse Laurent polynomials on the rank-three exponent lattice.

A polynomial is a finitely supported Z-valued function on Z^3: a dict from
exponent triples (ints) to nonzero ints, with two methods of its own, the mass
and exact division by (1 - x^{-beta}).  Dict equality is polynomial equality.
The character oracles build it from the terms they computed; it checks none.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import DivisionFailure, PreconditionViolation
from .root_data import shown

Exponent = tuple[int, int, int]


class LaurentPolynomial(dict):
    """Sparse Laurent polynomial over Z: exponent triple to nonzero int."""

    __slots__ = ()

    def mass(self) -> int:
        """Sum of all coefficients, i.e. evaluation at x = (1, 1, 1)."""
        return sum(self.values())

    def divide_one_minus_inverse(self, beta: Exponent) -> LaurentPolynomial:
        """Exact quotient self / (1 - x^{-beta}).

        Terms are grouped into lines {base + t*beta : t in Z}.  Writing the
        line as a one-variable Laurent polynomial sum c_t y^t with y = x^beta,
        the identity Q * (1 - y^{-1}) = C forces q_t = sum_{s >= t} c_s, and
        the quotient is finite iff each line's coefficients sum to zero.  A
        line with nonzero total raises DivisionFailure.
        """
        if not (isinstance(beta, tuple) and len(beta) == 3 and all(type(v) is int for v in beta)):
            raise PreconditionViolation(f"division direction must be a tuple of three ints, got {shown(beta)}")
        if not any(beta):
            raise DivisionFailure("division direction must be nonzero")
        b0, b1, b2 = beta
        pivot = next(i for i in range(3) if beta[i] != 0)

        # base = e - t*beta with t = floor(e[pivot] / beta[pivot]) is constant
        # along each line e + Z*beta, so it is a canonical line key.
        lines: dict[Exponent, dict[int, int]] = defaultdict(dict)
        for e, c in self.items():
            t = e[pivot] // beta[pivot]
            lines[(e[0] - t * b0, e[1] - t * b1, e[2] - t * b2)][t] = c

        quotient = LaurentPolynomial()
        for base, coeffs in lines.items():
            total = sum(coeffs.values())
            if total != 0:
                raise DivisionFailure(
                    f"line through {shown(base)} along {shown(beta)} has nonzero sum {shown(total)}"
                )
            x, y, z = base
            running = 0
            for t in range(max(coeffs), min(coeffs) - 1, -1):
                running += coeffs.get(t, 0)
                if running:
                    quotient[(x + t * b0, y + t * b1, z + t * b2)] = running
        return quotient
