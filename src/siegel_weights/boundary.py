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
  Levi; it has cohomological dimension 1, and on an irreducible module of
  highest SL(2)-weight u the dimensions are

      H^0: 1 if u = 0 else 0        (neatness kills invariants otherwise)
      H^1: (u+1)(2g-2+c) if u >= 1, and 2g-1+c if u = 0,

  where (g, c) are the genus and cusp count of the associated curve, c >= 1
  and c >= 3 when g = 0 (StratumDatum validates this).  Classical degrees run
  n = 0..4.

* m = 1: the stratum is itself the arithmetic quotient and carries each
  Kostant module as a local system whose fiber dimension is the Levi
  dimension; entry n is the degree-n Kostant module, n = 0..3.

Each CohomologyEntry records one graded piece: classical degree, Frobenius
weight (the motivic weight of the contributing Kostant module), rank bounds
(equal except for kernel entries made downstream), the contributing (p, q)
pairs, and a provenance tag: "paper" rows restate the printed profile of the
weight computation this package reproduces, "derived" rows extend it by the
same weight map.

An entry's nonzero is read off its rank bounds: True when rank_lower >= 1,
False when rank_upper == 0, and "unknown" when the bounds straddle zero
(only a kernel entry can, as its lower bound may be 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeOutOfRange, InvalidStratum, PreconditionViolation
from .kostant import nilpotent_cohomology
from .root_data import KLINGEN, SIEGEL, WeightTriple, require_dominant

ProvenanceTag = str  # "paper" or "derived"


@dataclass(frozen=True, slots=True)
class StratumDatum:
    """Genus and cusp count of the modular curve attached to a point stratum."""

    g: int
    c: int

    def __post_init__(self):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (self.g, self.c)):
            raise InvalidStratum(f"stratum data must be integers, got {self!r}")
        if self.g < 0 or self.c < 1 or (self.g == 0 and self.c < 3):
            raise InvalidStratum(
                f"need g >= 0, c >= 1 and c >= 3 when g = 0, got (g={self.g}, c={self.c})"
            )

    @property
    def euler_term(self) -> int:
        """2g - 2 + c, the negated Euler characteristic of the open curve."""
        return 2 * self.g - 2 + self.c


@dataclass(frozen=True, slots=True)
class CohomologyEntry:
    """One graded piece of a boundary cohomology profile."""

    m: int
    n_classical: int
    weight: int
    rank_lower: int
    rank_upper: int
    origin: tuple[tuple[int, int], ...]
    provenance: ProvenanceTag
    n_perverse: int | None = None

    def __post_init__(self):
        if self.rank_lower < 0 or self.rank_lower > self.rank_upper:
            raise PreconditionViolation(
                f"bad rank bounds [{self.rank_lower}, {self.rank_upper}]"
            )

    @property
    def nonzero(self) -> bool | str:
        """True, False, or "unknown" when the rank bounds straddle zero."""
        if self.rank_lower >= 1:
            return True
        return False if self.rank_upper == 0 else "unknown"


def group_cohomology_dim(u: int, stratum: StratumDatum, p: int) -> int:
    """dim H^p of the stratum's arithmetic group on the SL(2)-module of
    highest weight u >= 0; p must be 0 or 1 (cohomological dimension 1)."""
    if p not in (0, 1):
        raise DegreeOutOfRange(f"degree p = {p!r} outside cohomological dimension 1")
    if not isinstance(u, int) or u < 0:
        raise PreconditionViolation(f"restriction weight must be a nonneg integer, got {u!r}")
    if p == 0:
        return 1 if u == 0 else 0
    if u == 0:
        return 2 * stratum.g - 1 + stratum.c
    return (u + 1) * stratum.euler_term


def siegel_profile(lam: WeightTriple, stratum: StratumDatum) -> tuple[CohomologyEntry, ...]:
    """Classical weight profile over a point stratum, degrees n = 0..4.

    Entries are keyed by (n_classical, weight); distinct Kostant inputs of one
    degree always carry distinct weights here, but the schema allows merging.
    Rank-0 pieces are kept (nonzero is False) so vanishing is an assertion,
    not an omission.
    """
    require_dominant(lam)
    modules = nilpotent_cohomology(lam, SIEGEL)
    pieces: dict[tuple[int, int], list] = {}
    for q, mod in enumerate(modules):
        for p in (0, 1):
            n = p + q
            dim = group_cohomology_dim(mod.restriction_weight, stratum, p)
            key = (n, mod.motivic_weight)
            pieces.setdefault(key, []).append(((p, q), dim))
    entries = []
    for (n, w), contribs in sorted(pieces.items()):
        rank = sum(d for _, d in contribs)
        entries.append(
            CohomologyEntry(
                m=SIEGEL,
                n_classical=n,
                weight=w,
                rank_lower=rank,
                rank_upper=rank,
                origin=tuple(pq for pq, _ in contribs),
                provenance="paper" if n <= 2 else "derived",
            )
        )
    return tuple(entries)


def klingen_profile(lam: WeightTriple) -> tuple[CohomologyEntry, ...]:
    """Classical weight profile over a curve stratum, degrees n = 0..3.

    The fiber of entry n is the degree-n Kostant module itself; its rank is
    the Levi dimension and is never zero.
    """
    require_dominant(lam)
    entries = []
    for q, mod in enumerate(nilpotent_cohomology(lam, KLINGEN)):
        entries.append(
            CohomologyEntry(
                m=KLINGEN,
                n_classical=q,
                weight=mod.motivic_weight,
                rank_lower=mod.levi_dim,
                rank_upper=mod.levi_dim,
                origin=((0, q),),
                provenance="paper" if q <= 1 else "derived",
            )
        )
    return tuple(entries)

