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

minimal_representatives(m) lists the four minimal-length representatives of
the quotient by the Levi Weyl group of parabolic m, in length order 0, 1, 2,
3.  The criterion is the usual one: w represents its coset minimally iff
w^{-1} keeps the Levi's positive root positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import root_data
from .errors import BadParabolicIndex
from .root_data import WeightTriple, check_parabolic


@dataclass(frozen=True, slots=True)
class WeylElement:
    """Signed permutation: w(v)[i] = signs[i] * v[source[i]]."""

    source: tuple[int, int]
    signs: tuple[int, int]

    def __call__(self, v: WeightTriple) -> WeightTriple:
        coords = (v.k1, v.k2)
        return WeightTriple(
            self.signs[0] * coords[self.source[0]],
            self.signs[1] * coords[self.source[1]],
            v.r,
        )

    def inverse(self) -> "WeylElement":
        src = [0, 0]
        sg = [1, 1]
        for i in (0, 1):
            src[self.source[i]] = i
            sg[self.source[i]] = self.signs[i]
        return WeylElement((src[0], src[1]), (sg[0], sg[1]))

    def word(self) -> str:
        """A reduced word in s1, s2 ('e' for the identity), for display."""
        letters: list[str] = []
        w = self
        while length(w) > 0:
            for name, s in (("s1", S1), ("s2", S2)):
                # s is a right descent iff w sends its simple root negative.
                if _is_negative(w(_simple(name))):
                    letters.append(name)
                    w = compose(w, s)
                    break
        return "*".join(reversed(letters)) if letters else "e"


IDENTITY = WeylElement((0, 1), (1, 1))
S1 = WeylElement((1, 0), (1, 1))  # swap k1 <-> k2
S2 = WeylElement((0, 1), (1, -1))  # negate k2
LONGEST = WeylElement((0, 1), (-1, -1))  # -id


def _simple(name: str) -> WeightTriple:
    return root_data.SIMPLE_ROOT_SHORT if name == "s1" else root_data.SIMPLE_ROOT_LONG


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
    """Dot action w . lam = w(lam + rho) - rho."""
    rho = root_data.RHO
    return w(lam + rho) - rho


@lru_cache(maxsize=1)
def all_elements() -> tuple[WeylElement, ...]:
    """All eight elements, sorted by (length, images of the basis, lex)."""
    elems = [
        WeylElement(src, sg)
        for src in ((0, 1), (1, 0))
        for sg in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    ]

    def key(w: WeylElement) -> tuple:
        e1 = w(WeightTriple(1, 0, 0))
        e2 = w(WeightTriple(0, 1, 0))
        return (length(w), e1.k1, e1.k2, e2.k1, e2.k2)

    return tuple(sorted(elems, key=key))


def minimal_representatives(m: int) -> tuple[WeylElement, ...]:
    """Minimal-length coset representatives for parabolic m, lengths 0..3.

    Raises BadParabolicIndex for m outside {0, 1}.
    """
    check_parabolic(m)
    gamma = root_data.levi_root(m)
    reps = tuple(
        w for w in all_elements() if not _is_negative(w.inverse()(gamma))
    )
    if len(reps) != 4:  # structural guarantee of the C2 parabolics
        raise BadParabolicIndex(f"internal: expected 4 coset representatives, got {len(reps)}")
    return reps
