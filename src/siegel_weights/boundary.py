"""Weight profiles of boundary cohomology along the two cusp types.

A boundary stratum of the minimal compactification of a degree-two Siegel
modular threefold is, up to type, either a point stratum lying under a
modular curve of the toroidal picture (Siegel type, m = 0) or a modular curve
(Klingen type, m = 1).  For an input system attached to the irreducible
module V_lam, the restriction of the direct image to a stratum degenerates as

    H^n  =  (+)_{p+q=n}  H^p(arithmetic group of the stratum,
                              H^q(Lie W_m, V_lam)),

where the inner layer is a Kostant module and the outer layer is group
cohomology of the relevant arithmetic quotient.

* m = 0: the group is a neat arithmetic subgroup of SL(2) acting through the
  Levi; it has cohomological dimension 1.  Summed over n strata whose curves
  have genus g and c cusps (c >= 1, and c >= 3 when g = 0; StratumDatum
  validates this), group_cohomology_dims gives the pair (H^0, H^1) on the
  irreducible module of highest SL(2)-weight u, with E = sum(2g - 2 + c):

      H^0: n if u = 0 else 0        (neatness kills invariants otherwise)
      H^1: (u + 1)E if u >= 1, and E + n if u = 0.

  One stratum is the case n = 1.  Classical degrees run 0..4.

* m = 1: the stratum is itself the arithmetic quotient and carries each
  Kostant module as a local system whose fiber dimension is the Levi
  dimension: the piece (0, q) in degree q, q = 0..3, of rank that dimension.

Each CohomologyEntry records one graded piece: classical degree, Frobenius
weight (the motivic weight of the contributing Kostant module), rank bounds
(equal except for kernel entries made downstream), origin, the one (p, q)
piece it comes from, and a provenance tag: "paper" rows restate the printed
profile of the weight computation this package reproduces, "derived" rows
extend it by the same weight map.  No two pieces share a degree and a weight:
a Klingen degree has one piece, and for dominant lam the Siegel weights w_q
rise strictly in q, by w1 - w0 = 2k2 + 2, w2 - w1 = 2(k1 - k2) + 2 and
w3 - w2 = 2k2 + 2, so the pieces (1, n - 1) and (0, n) of degree n differ.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InputBoundExceeded, InvalidStratum, PreconditionViolation
from .kostant import LeviModule
from .root_data import COORDINATE_BOUND, shown


class StratumDatum(namedtuple("StratumDatum", "g c")):
    """Genus and cusp count of the modular curve attached to a point stratum."""

    __slots__ = ()

    def __new__(cls, g: int, c: int):
        if not type(g) is type(c) is int:  # the rule of require_dominant: bools and other subclasses too
            raise InvalidStratum(f"stratum data must be integers, got (g={shown(g)}, c={shown(c)})")
        if abs(g) > COORDINATE_BOUND or abs(c) > COORDINATE_BOUND:
            raise InputBoundExceeded(f"stratum data beyond {COORDINATE_BOUND} in absolute value")
        if g < 0 or c < 1 or (g == 0 and c < 3):
            raise InvalidStratum(
                f"need g >= 0, c >= 1 and c >= 3 when g = 0, got (g={g}, c={c})"
            )
        return super().__new__(cls, g, c)

    # namedtuple's _make, behind _replace, would skip the checks in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def euler_term(self) -> int:
        """2g - 2 + c, the negated Euler characteristic of the open curve."""
        return 2 * self.g - 2 + self.c


_ENTRY_FIELDS = "m n_classical weight rank_lower rank_upper origin provenance n_perverse"


class CohomologyEntry(namedtuple("CohomologyEntry", _ENTRY_FIELDS)):
    """One graded piece of a boundary cohomology profile; provenance is
    "paper" or "derived", and n_perverse is None in classical profiles."""

    __slots__ = ()

    def __new__(cls, m, n_classical, weight, rank_lower, rank_upper, origin, provenance, n_perverse=None):
        if rank_lower < 0 or rank_lower > rank_upper:
            raise PreconditionViolation(f"bad rank bounds [{shown(rank_lower)}, {shown(rank_upper)}]")
        return tuple.__new__(cls, (m, n_classical, weight, rank_lower, rank_upper, origin, provenance, n_perverse))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def nonzero(self) -> bool | str:
        """True when rank_lower >= 1, False when rank_upper == 0, and "unknown"
        when the bounds straddle zero (only a kernel's lower bound may be 0)."""
        if self.rank_lower >= 1:
            return True
        return False if self.rank_upper == 0 else "unknown"


def group_cohomology_dims(u: int, n: int, euler: int) -> tuple[int, int]:
    """(dim H^0, dim H^1) on the SL(2)-module of highest weight u, an int >= 0,
    summed over n point strata whose values of 2g - 2 + c sum to euler."""
    if type(u) is not int or u < 0:
        raise PreconditionViolation(f"restriction weight must be a nonneg integer, got {shown(u)}")
    if u == 0:
        return n, euler + n
    return 0, (u + 1) * euler


# The (p, q) pieces over a point stratum in degree order, (1, n - 1) before (0, n),
# so (0, q), (1, q) for each q in turn: the first 2 * count have q < count.
SIEGEL_PIECES = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3))
KERNEL_PIECE = SIEGEL_PIECES.index((1, 1))  # the piece whose kernel survives
# Per parabolic m, a row (n, q, origin, provenance) per piece (p, q) of degree n = p + q, in
# _entries' order; a curve stratum carries Kostant module q in degree q.  Entries share these.
_PIECE_ROWS = tuple(tuple((p + q, q, ((p, q),), "paper" if p + q + m <= 2 else "derived") for p, q in pieces)
                    for m, pieces in enumerate((SIEGEL_PIECES, ((0, 0), (0, 1), (0, 2), (0, 3)))))


def _piece_ranks(modules: tuple[LeviModule, ...], n: int, euler: int) -> tuple[int, ...]:
    """The rank table of n strata with sum(2g - 2 + c) = euler: the (H^0, H^1)
    pairs of the given Siegel modules end to end, in SIEGEL_PIECES order."""
    return sum([group_cohomology_dims(mod.restriction_weight, n, euler) for mod in modules], ())


def _entries(m: int, modules: tuple[LeviModule, ...], ranks, r=None) -> tuple[CohomologyEntry, ...]:
    """Entries of parabolic m, one per given rank, for the rows of _PIECE_ROWS[m]
    in order, which is weight order as w_q rises in q; only the ranks are checked.
    Rank-0 pieces are kept (nonzero is False): vanishing is asserted, not
    omitted.  Given r, the perverse normalization on a stratum of dimension m
    raises the degree to n_perverse = n + r + m and the weight by m (BBD 1982)."""
    shift = 0 if r is None else m
    new, entries = tuple.__new__, []
    for (n, q, origin, provenance), rank in zip(_PIECE_ROWS[m], ranks):
        if rank < 0:  # CohomologyEntry's own check, skipped by tuple.__new__
            raise PreconditionViolation(f"bad rank bounds [{shown(rank)}, {shown(rank)}]")
        entries.append(new(CohomologyEntry, (m, n, modules[q].motivic_weight + shift, rank, rank, origin,
                                             provenance, None if r is None else n + r + m)))
    return tuple(entries)
