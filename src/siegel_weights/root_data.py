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

Weight maps.  For a character n = (n1, n2, r) of the Levi torus:

* motivic_weight(n, m) is the negated exponent of the central cocharacter of
  the Levi's reductive anchor: z |--> z^{-r+n1+n2} for m = 0 and
  z |--> z^{-r+n1} for m = 1, giving r - n1 - n2 resp. r - n1.
* levi_restriction_weight(n, m) is the highest weight of the restriction to
  the embedded SL(2) of the Levi: n1 - n2 for m = 0 and n2 for m = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadParabolicIndex,
    InputBoundExceeded,
    NotDominant,
    ParityViolation,
    PreconditionViolation,
)

COORDINATE_BOUND = 10**6


@dataclass(frozen=True, slots=True)
class WeightTriple:
    """Point (k1, k2, r) of the ambient weight lattice Z^3."""

    k1: int
    k2: int
    r: int

    def __add__(self, other: "WeightTriple") -> "WeightTriple":
        return WeightTriple(self.k1 + other.k1, self.k2 + other.k2, self.r + other.r)

    def __sub__(self, other: "WeightTriple") -> "WeightTriple":
        return WeightTriple(self.k1 - other.k1, self.k2 - other.k2, self.r - other.r)

    def is_character(self) -> bool:
        """True when the triple lies in the character sublattice."""
        return (self.r - self.k1 - self.k2) % 2 == 0


def make_weight(k1: int, k2: int, r: int) -> WeightTriple:
    """Checked constructor for torus characters.

    Raises PreconditionViolation when a coordinate is not an int (bools
    included), ParityViolation when r - k1 - k2 is odd and InputBoundExceeded
    when any coordinate leaves [-10^6, 10^6].  All arithmetic downstream is exact
    arbitrary-precision, so the bound is a documented contract, not a safety
    limit.
    """
    for v in (k1, k2, r):
        if not isinstance(v, int) or isinstance(v, bool):
            raise PreconditionViolation(f"coordinates must be integers, got {v!r}")
        if abs(v) > COORDINATE_BOUND:
            raise InputBoundExceeded(f"|{v}| > {COORDINATE_BOUND}")
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
        raise BadParabolicIndex(f"parabolic index must be 0 or 1, got {m!r}")
    return m


def levi_root(m: int) -> WeightTriple:
    """Positive root of the semisimple part of the Levi of parabolic m."""
    check_parabolic(m)
    return SIMPLE_ROOT_SHORT if m == SIEGEL else SIMPLE_ROOT_LONG


def is_dominant(lam: WeightTriple) -> bool:
    return lam.k1 >= lam.k2 >= 0


def is_regular(lam: WeightTriple) -> bool:
    """Strictly dominant: positive pairing with every positive root."""
    return lam.k1 > lam.k2 > 0


def require_dominant(lam: WeightTriple) -> WeightTriple:
    if not is_dominant(lam):
        raise NotDominant(f"weight ({lam.k1}, {lam.k2}, {lam.r}) is not dominant")
    return lam


def k_invariant(lam: WeightTriple) -> int:
    """min(k1 - k2, k2) for dominant lam; the corank-style avoidance index.

    Vanishes exactly on the walls of the dominant cone, i.e. k >= 1 iff lam is
    regular.
    """
    require_dominant(lam)
    return min(lam.k1 - lam.k2, lam.k2)


def motivic_weight(n: WeightTriple, m: int) -> int:
    """Weight of the central cocharacter of the Levi anchor on character n."""
    check_parabolic(m)
    if m == SIEGEL:
        return n.r - n.k1 - n.k2
    return n.r - n.k1


def levi_restriction_weight(n: WeightTriple, m: int) -> int:
    """Highest weight of n restricted to the SL(2) inside the Levi of m."""
    check_parabolic(m)
    if m == SIEGEL:
        return n.k1 - n.k2
    return n.k2


def pairing(u: WeightTriple, v: WeightTriple) -> int:
    """Euclidean pairing on the (k1, k2) plane.

    The r-coordinate is central and pairs to zero with every root, so it is
    omitted.  Under this form the short roots have squared length 2 and the
    long ones 4, a valid W-invariant normalization for type C2.
    """
    return u.k1 * v.k1 + u.k2 * v.k2
