"""The Weyl group of type C2 as signed permutations of (k1, k2).

The eight elements act on the (k1, k2) plane and fix the central coordinate
r.  s1 swaps the two coordinates (reflection in the short simple root
(1, -1, 0)); s2 negates k2 (reflection in the long simple root (0, 2, 0)).
Composition is right-to-left: compose(w, u) applies u first.

Length is the number of positive roots sent negative; sign(w) = (-1)^length
equals the determinant of w on the plane.  The dot action

    dot(w, lam) = w(lam + rho) - rho

shifts by rho = (2, 1, 0), so it preserves the character sublattice even
though rho itself is outside it.
"""

from __future__ import annotations

from collections import namedtuple

from . import root_data
from .errors import BadParabolicIndex
from .root_data import SIMPLE_ROOT_LONG, SIMPLE_ROOT_SHORT, WeightTriple


class WeylElement(namedtuple("WeylElement", "source signs")):
    """Signed permutation: w(v)[i] = signs[i] * v[source[i]], source and signs pairs of ints."""

    __slots__ = ()

    def __call__(self, v: WeightTriple) -> WeightTriple:
        (i, j), (a, b) = self
        return tuple.__new__(WeightTriple, (a * v[i], b * v[j], v[2]))  # WeightTriple checks no field

    def word(self) -> str:
        """A reduced word in s1, s2 ('e' for the identity), for display."""
        letters: list[str] = []
        w = self
        for _ in range(length(self)):  # each step drops the length by one
            for name, s, root in (("s1", S1, SIMPLE_ROOT_SHORT), ("s2", S2, SIMPLE_ROOT_LONG)):
                # s is a right descent iff w sends its simple root negative.
                if _is_negative(w(root)):
                    letters.append(name)
                    w = compose(w, s)
                    break
        return "*".join(reversed(letters)) if letters else "e"


IDENTITY = WeylElement((0, 1), (1, 1))
S1 = WeylElement((1, 0), (1, 1))  # swap k1 <-> k2
S2 = WeylElement((0, 1), (1, -1))  # negate k2


def compose(w: WeylElement, u: WeylElement) -> WeylElement:
    """w composed after u: compose(w, u)(v) = w(u(v))."""
    return WeylElement(
        (u.source[w.source[0]], u.source[w.source[1]]),
        (w.signs[0] * u.signs[w.source[0]], w.signs[1] * u.signs[w.source[1]]),
    )


def _is_negative(v: WeightTriple) -> bool:
    return v.k1 < 0 or (v.k1 == 0 and v.k2 < 0)


def length(w: WeylElement) -> int:
    return sum(1 for b in root_data.POSITIVE_ROOTS if _is_negative(w(b)))


def sign(w: WeylElement) -> int:
    return -1 if length(w) % 2 else 1


def dot(w: WeylElement, lam: WeightTriple) -> WeightTriple:
    """Dot action w . lam = w(lam + rho) - rho, on plain ints.

    w fixes the r-coordinate, so that coordinate of the result is lam.r.
    """
    rho = root_data.RHO
    (i, j), (a, b) = w.source, w.signs
    return WeightTriple(a * (lam[i] + rho[i]) - rho.k1, b * (lam[j] + rho[j]) - rho.k2, lam.r)


def all_elements() -> tuple[WeylElement, ...]:
    """All eight elements, sorted by (length, images of the basis e1, e2, lex)."""
    e1, e2 = WeightTriple(1, 0, 0), WeightTriple(0, 1, 0)
    elems = [WeylElement(src, sg) for src in ((0, 1), (1, 0)) for sg in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return tuple(sorted(elems, key=lambda w: (length(w), *w(e1)[:2], *w(e2)[:2])))


def _minimal_representatives(m: int, elements: tuple[WeylElement, ...]) -> tuple[WeylElement, ...]:
    """The minimal-length representatives of the cosets of the Levi Weyl group of a checked m,
    lengths 0..3, among elements, all_elements(): the w with the Levi's positive root in w(Phi+)."""
    gamma = root_data.levi_root(m)
    reps = tuple(w for w in elements if gamma in map(w, root_data.POSITIVE_ROOTS))
    if len(reps) != 4:  # structural guarantee of the C2 parabolics
        raise BadParabolicIndex(f"internal: expected 4 coset representatives, got {len(reps)}")
    return reps
