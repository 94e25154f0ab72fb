"""Root datum of the rank-two symplectic similitude group GSp(4).

Coordinates.  The diagonal torus T = {diag(a, b, a^{-1}q, b^{-1}q)} has its
character lattice parametrized by integer triples (k1, k2, r): the triple acts
by

    diag(a, b, a^{-1}q, b^{-1}q)  |-->  a^{k1} * b^{k2} * q^{-(r+k1+k2)/2},

which is a genuine character exactly when r = k1 + k2 (mod 2).  WeightTriple
models the ambient lattice Z^3 in these coordinates; the index-two character
sublattice is reached through make_weight, which enforces the parity.  The
ambient lattice is needed internally because the half-sum of positive roots,
rho = (2, 1, 0), fails the parity, while every dot-action output w(v + rho) -
rho lands back in the character sublattice.

Every root has r = 0.  The center {diag(x, x, x, x)} acts through a triple
(k1, k2, r) by x^{-r} (set a = b = x, q = x^2 above), and roots kill the
center, so their r-coordinate vanishes.  In the (k1, k2) plane the positive
roots are

    a/b = (1, -1, 0),   b^2/q = (0, 2, 0),   ab/q = (1, 1, 0),
    a^2/q = (2, 0, 0),

the first two being the simple ones.  A weight is dominant when k1 >= k2 >= 0
and regular dominant when k1 > k2 > 0.

Two maximal parabolics matter here, indexed by m: m = 0 stabilizes a
two-dimensional isotropic subspace (Siegel), m = 1 an isotropic line
(Klingen).  levi_root(m) is the positive root of the semisimple part of the
Levi; the other three positive roots are those of the unipotent radical.

The Levi weight maps, restriction to the embedded SL(2) and motivic weight,
have their one home in kostant._modules, which applies them.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    BadParabolicIndex,
    InputBoundExceeded,
    NotDominant,
    ParityViolation,
    PreconditionViolation,
)

COORDINATE_BOUND = 10**6


def shown(v) -> str:
    """repr(v) for error messages, a tuple item by item; an int beyond
    COORDINATE_BOUND, whose repr can exceed Python's int-to-str digit limit,
    is only described, and an int subclass but bool shows its type's name."""
    if isinstance(v, tuple):
        return "(" + ", ".join(map(shown, v)) + ")"
    if isinstance(v, int) and abs(v) > COORDINATE_BOUND:
        return f"<int beyond {COORDINATE_BOUND} in absolute value>"
    if isinstance(v, int) and type(v) not in (int, bool):
        return f"{type(v).__name__}({int.__repr__(v)})"
    return repr(v)


class WeightTriple(namedtuple("WeightTriple", "k1 k2 r")):
    """Point (k1, k2, r), three ints, of the ambient weight lattice Z^3, as a tuple (+ concatenates)."""

    __slots__ = ()


def make_weight(k1: int, k2: int, r: int) -> WeightTriple:
    """Checked constructor for torus characters.

    Raises PreconditionViolation when a coordinate is not an int (bools
    included), ParityViolation when r - k1 - k2 is odd and InputBoundExceeded
    when any coordinate leaves [-10^6, 10^6].  All arithmetic downstream is exact
    arbitrary-precision, so the bound is a documented contract, not a safety
    limit.
    """
    if not type(k1) is type(k2) is type(r) is int:  # the rule of require_dominant
        raise PreconditionViolation(f"coordinates must be integers, got {shown((k1, k2, r))}")
    if max(abs(k1), abs(k2), abs(r)) > COORDINATE_BOUND:
        raise InputBoundExceeded(f"coordinate beyond {COORDINATE_BOUND} in absolute value")
    if (r - k1 - k2) % 2 != 0:
        raise ParityViolation(f"r - k1 - k2 = {r - k1 - k2} is odd for ({k1}, {k2}, {r})")
    return WeightTriple(k1, k2, r)


# Fixed combinatorial data, in the coordinates documented above.
SIMPLE_ROOT_SHORT = WeightTriple(1, -1, 0)  # a/b
SIMPLE_ROOT_LONG = WeightTriple(0, 2, 0)  # b^2/q
POSITIVE_ROOTS: tuple[WeightTriple, ...] = (
    SIMPLE_ROOT_SHORT,
    SIMPLE_ROOT_LONG,
    WeightTriple(1, 1, 0),  # ab/q
    WeightTriple(2, 0, 0),  # a^2/q
)
RHO = WeightTriple(2, 1, 0)  # half-sum of POSITIVE_ROOTS; not a character

SIEGEL = 0
KLINGEN = 1


def check_parabolic(m: int) -> int:
    """Return m if it is the int 0 or 1; bools and other types are refused."""
    if type(m) is not int or m not in (SIEGEL, KLINGEN):
        raise BadParabolicIndex(f"parabolic index must be 0 or 1, got {shown(m)}")
    return m


def levi_root(m: int) -> WeightTriple:
    """Positive root of the semisimple part of the Levi of parabolic m."""
    check_parabolic(m)
    return SIMPLE_ROOT_SHORT if m == SIEGEL else SIMPLE_ROOT_LONG


def is_regular(lam: WeightTriple) -> bool:
    """Strictly dominant: positive pairing with every positive root."""
    return lam.k1 > lam.k2 > 0


def require_dominant(lam: WeightTriple) -> WeightTriple:
    if not isinstance(lam, WeightTriple):
        raise PreconditionViolation(f"weight must be a WeightTriple, got {type(lam).__name__}")
    if not type(lam.k1) is type(lam.k2) is type(lam.r) is int:  # bools and other subclasses too
        raise PreconditionViolation(f"weight coordinates must be ints, got {shown(lam)}")
    if not lam.k1 >= lam.k2 >= 0:
        raise NotDominant(f"weight {shown(lam)} is not dominant")
    return lam


def k_invariant(lam: WeightTriple) -> int:
    """min(k1 - k2, k2) for dominant lam: 0 on the walls, so k >= 1 iff lam is regular."""
    require_dominant(lam)
    return min(lam.k1 - lam.k2, lam.k2)
