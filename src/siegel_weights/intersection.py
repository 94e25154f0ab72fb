"""Boundary profiles of the intermediate extension and the avoided interval.

The intersection complex of the minimal compactification restricts to a
boundary stratum as a truncation of the full direct image, in the perverse
normalization:

* curve strata (m = 1): sharp truncation in degrees n_perverse <= r + 2; the
  surviving entries are the reindexed Klingen profile rows with
  n_perverse in {r + 1, r + 2}, unchanged.

* point strata (m = 0): degrees n_perverse <= r + 1 survive unchanged, and at
  n_perverse = r + 2 the full degree is replaced by the kernel of a boundary
  map out of the weight-graded piece of weight (r + 2) - (k1 - k2).  Summed
  over the supplied strata the map has source rank (k1+k2+3) * sum(2g-2+c)
  and target rank sum(c); the kernel rank is pinned to the interval
  [max(source - target, 0 or 1), source], with lower bound 1 per stratum once
  k1 >= 1 because then source - target > 0 stratum-wise.

The avoided interval: over all nonzero entries of both intermediate profiles,

    k = min (n_perverse - weight),

and weights in [-k + 1, k] (an interval symmetric about 1/2, empty when
k = 0) avoid the boundary entirely.  For dominant lam this minimum always
equals min(k1 - k2, k2); it is >= 1 exactly when lam is regular.  The weights
-k and k + 1 do occur, the upper one by self-duality of the intersection
complex with twist s = r + 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boundary import CohomologyEntry, StratumDatum, klingen_profile, siegel_profile
from .errors import EmptyStrata, PreconditionViolation
from .kostant import LeviModule, nilpotent_cohomology
from .root_data import (
    KLINGEN,
    SIEGEL,
    WeightTriple,
    check_parabolic,
    is_regular,
    k_invariant,
    require_dominant,
)


@dataclass(frozen=True, slots=True)
class IntermediateProfile:
    """Perverse-normalized boundary profile of the intermediate extension."""

    m: int
    entries: tuple[CohomologyEntry, ...]
    kernel_entry: CohomologyEntry | None

    def all_entries(self) -> tuple[CohomologyEntry, ...]:
        if self.kernel_entry is None:
            return self.entries
        return self.entries + (self.kernel_entry,)


def _require_strata(strata) -> tuple[StratumDatum, ...]:
    strata = tuple(strata)
    if not strata:
        raise EmptyStrata("at least one boundary stratum is required")
    return strata


def rank_inequality_check(lam: WeightTriple, stratum: StratumDatum) -> bool:
    """(k1 + k2 + 3) * (2g - 2 + c) > c, the kernel nonvanishing inequality.

    Requires dominant lam with k1 >= 1 (the chain of estimates behind the
    inequality starts from k1 + k2 + 3 >= 4); k1 = 0 raises
    PreconditionViolation.  True on every valid input.
    """
    require_dominant(lam)
    if lam.k1 < 1:
        raise PreconditionViolation("kernel nonvanishing argument needs k1 >= 1")
    return (lam.k1 + lam.k2 + 3) * stratum.euler_term > stratum.c


def kernel_map_ranks(lam: WeightTriple, strata) -> tuple[int, int]:
    """(source, target) ranks of the boundary map whose kernel survives at
    n_perverse = r + 2 over the point strata: source = (k1+k2+3) * sum of
    (2g-2+c), target = sum of c."""
    require_dominant(lam)
    strata = _require_strata(strata)
    source = sum((lam.k1 + lam.k2 + 3) * s.euler_term for s in strata)
    target = sum(s.c for s in strata)
    return source, target


def _kernel_entry(lam: WeightTriple, strata: tuple[StratumDatum, ...]) -> CohomologyEntry:
    """Weight-(r+2)-(k1-k2) kernel replacing degree r + 2 over point strata."""
    k1, k2, r = lam.k1, lam.k2, lam.r
    source, target = kernel_map_ranks(lam, strata)
    lower = 0
    for s in strata:
        src = (k1 + k2 + 3) * s.euler_term
        if k1 >= 1:
            lower += max(src - s.c, 1)
        else:
            lower += max(src - s.c, 0)
    return CohomologyEntry(
        m=SIEGEL,
        n_classical=2,
        weight=(r + 2) - (k1 - k2),
        rank_lower=lower,
        rank_upper=source,
        origin=((1, 1),),
        provenance="paper",
        n_perverse=r + 2,
    )


def _intermediate(lam: WeightTriple, m: int, profiles, strata) -> IntermediateProfile:
    """Intermediate profile of parabolic m from built classical profiles:
    the Klingen profile alone for m = 1, one Siegel profile per stratum for
    m = 0.

    Both truncations (n_perverse <= r + 2 on curves, <= r + 1 on points)
    keep exactly the classical degrees n <= 1.  Each survivor is built once,
    in the perverse normalization: n_perverse = n + r + dim and weight + dim,
    with dim = 0 on point strata and 1 on curve strata; the weight rises
    because placing a lisse sheaf in degree -1 raises the Frobenius weight of
    its perverse incarnation by one.  Ranks are summed over the strata, which
    form a disjoint union.
    """
    dim = 1 if m == KLINGEN else 0
    head, *rest = [[e for e in profile if e.n_classical <= 1] for profile in profiles]
    shape = [(e.m, e.n_classical, e.weight, e.origin, e.provenance) for e in head]
    lowers = [e.rank_lower for e in head]
    uppers = [e.rank_upper for e in head]
    for profile in rest:
        if [(e.m, e.n_classical, e.weight, e.origin, e.provenance) for e in profile] != shape:
            raise PreconditionViolation("internal: stratum profiles disagree off the rank fields")
        for i, e in enumerate(profile):
            lowers[i] += e.rank_lower
            uppers[i] += e.rank_upper
    entries = tuple(
        CohomologyEntry(
            m=m,
            n_classical=e.n_classical,
            weight=e.weight + dim,
            rank_lower=lo,
            rank_upper=up,
            origin=e.origin,
            provenance=e.provenance,
            n_perverse=e.n_classical + lam.r + dim,
        )
        for e, lo, up in zip(head, lowers, uppers)
    )
    kernel = _kernel_entry(lam, strata) if m == SIEGEL else None
    return IntermediateProfile(m=m, entries=entries, kernel_entry=kernel)


def intermediate_profile(lam: WeightTriple, m: int, strata) -> IntermediateProfile:
    """Boundary profile of the intermediate extension on parabolic-m strata.

    All entries satisfy n_perverse <= r + 2.  For m = 0 the ranks are summed
    over the supplied strata and the kernel entry sits at n_perverse = r + 2;
    for m = 1 the profile does not depend on the strata list (it must still
    be nonempty, for uniformity of the calling contract).
    """
    require_dominant(lam)
    check_parabolic(m)
    strata = _require_strata(strata)
    if m == KLINGEN:
        profiles = (klingen_profile(lam),)
    else:
        profiles = tuple(siegel_profile(lam, s) for s in strata)
    return _intermediate(lam, m, profiles, strata)


def _minimal_gap(profiles) -> tuple[int, tuple[CohomologyEntry, ...]]:
    """k and its witnesses over the nonzero entries of the given profiles."""
    nonzero = [e for profile in profiles for e in profile.all_entries() if e.nonzero is True]
    k = min(e.n_perverse - e.weight for e in nonzero)
    return k, tuple(e for e in nonzero if e.n_perverse - e.weight == k)


def avoided_interval(lam: WeightTriple, strata) -> tuple[int, tuple[CohomologyEntry, ...]]:
    """(k, witnesses): k = min(n_perverse - weight) over nonzero entries
    of both intermediate profiles, witnesses the entries attaining it.

    Computed in one pass over the profiles aggregated over all strata.  This
    is also the minimum of the per-stratum values of k: the strata's profiles
    agree in every field but the ranks, ranks are non-negative and summed,
    and so an aggregated entry is nonzero exactly when the entry of some
    stratum is (for the kernel entry, the summed lower bound is >= 1 exactly
    when some stratum's is).
    """
    require_dominant(lam)
    strata = _require_strata(strata)
    return _minimal_gap(intermediate_profile(lam, m, strata) for m in (SIEGEL, KLINGEN))


@dataclass(frozen=True, slots=True)
class AnalysisReport:
    """Everything the weight analysis of one module produces."""

    lam: WeightTriple
    strata: tuple[StratumDatum, ...]
    k: int
    avoided_interval: tuple[int, int] | None
    occurring_weights: tuple[int, int] | None
    regular: bool
    in_avoidance_category: bool
    duality_twist: int
    kostant: dict[int, tuple[LeviModule, ...]]
    boundary: dict[int, tuple]
    intermediate: dict[int, IntermediateProfile]
    witnesses: tuple[CohomologyEntry, ...]


def analysis_report(lam: WeightTriple, strata) -> AnalysisReport:
    """Full analysis of V_lam over the given point strata (>= 1 required).

    The avoided interval is [-k + 1, k], empty (None) when k = 0; weights -k
    and k + 1 occur, the upper one by duality with twist s = r + 3, so
    occurring_weights = (-k, k + 1) whenever k >= 1.  For k = 0 the boundary
    weight structure is not decided here and occurring_weights is None.

    Each classical profile is built once and serves both the boundary field
    and the intermediate profiles, from which k and the witnesses come.
    """
    require_dominant(lam)
    strata = _require_strata(strata)
    point = tuple(siegel_profile(lam, s) for s in strata)
    curve = klingen_profile(lam)
    intermediate = {
        SIEGEL: _intermediate(lam, SIEGEL, point, strata),
        KLINGEN: _intermediate(lam, KLINGEN, (curve,), strata),
    }
    k, witnesses = _minimal_gap(intermediate.values())
    regular = is_regular(lam)
    if k != k_invariant(lam) or (k >= 1) != regular:
        raise PreconditionViolation(
            f"internal: profile k = {k} disagrees with k_invariant = {k_invariant(lam)}"
            f" or regular = {regular}"
        )
    return AnalysisReport(
        lam=lam,
        strata=strata,
        k=k,
        avoided_interval=(-k + 1, k) if k >= 1 else None,
        occurring_weights=(-k, k + 1) if k >= 1 else None,
        regular=regular,
        in_avoidance_category=k >= 1,
        duality_twist=lam.r + 3,
        kostant={m: nilpotent_cohomology(lam, m) for m in (SIEGEL, KLINGEN)},
        boundary={SIEGEL: tuple(zip(strata, point)), KLINGEN: curve},
        intermediate=intermediate,
        witnesses=witnesses,
    )
