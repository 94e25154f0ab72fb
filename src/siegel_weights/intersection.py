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

Validate once, build only what is kept.  The public functions check lam and
the strata once, then share _intermediate, which builds from the Kostant
modules q <= 1 of each parabolic, shared by every stratum, only what both
truncations keep.
"""

from __future__ import annotations

from typing import NamedTuple

from .boundary import CohomologyEntry, StratumDatum, _klingen_entries, _siegel_entries
from .errors import EmptyStrata, InvalidStratum, PreconditionViolation
from .kostant import LeviModule, _modules
from .root_data import (
    KLINGEN,
    SIEGEL,
    WeightTriple,
    check_parabolic,
    is_regular,
    k_invariant,
    require_dominant,
)


class IntermediateProfile(NamedTuple):
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
    if not all(isinstance(s, StratumDatum) for s in strata):
        raise InvalidStratum("each stratum must be a StratumDatum")
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
    ((source, target),) = _map_ranks(lam, _require_strata((stratum,)))
    return source > target


def _map_ranks(lam: WeightTriple, strata) -> list[tuple[int, int]]:
    """Per stratum, the (source, target) ranks (k1+k2+3) * (2g-2+c) and c of
    the boundary map; nothing is checked."""
    return [((lam.k1 + lam.k2 + 3) * s.euler_term, s.c) for s in strata]


def kernel_map_ranks(lam: WeightTriple, strata) -> tuple[int, int]:
    """(source, target) ranks of the boundary map whose kernel survives at
    n_perverse = r + 2 over the point strata: source = (k1+k2+3) * sum of
    (2g-2+c), target = sum of c."""
    require_dominant(lam)
    ranks = _map_ranks(lam, _require_strata(strata))
    return sum(src for src, _ in ranks), sum(tgt for _, tgt in ranks)


def _kernel_entry(lam: WeightTriple, piece: LeviModule, strata) -> CohomologyEntry:
    """Kernel replacing degree r + 2 over point strata: the kernel of the
    boundary map out of the (1, 1) piece, alone at its weight in degree 2,
    whose weight it takes from piece, the Siegel Kostant module q = 1."""
    ranks = _map_ranks(lam, strata)
    floor = 1 if lam.k1 >= 1 else 0
    lo = sum(max(src - tgt, floor) for src, tgt in ranks)
    hi = sum(src for src, _ in ranks)
    return CohomologyEntry(SIEGEL, 2, piece.motivic_weight, lo, hi, ((1, 1),), "paper", lam.r + 2)


def _intermediate(lam: WeightTriple, m: int, modules, strata) -> IntermediateProfile:
    """Intermediate profile of parabolic m from its Kostant modules, which
    must include q <= 1; nothing is checked.

    Both truncations (n_perverse <= r + 2 on curves, <= r + 1 on points)
    keep exactly the classical degrees n <= 1, ranks summed over the strata,
    which form a disjoint union.  Given r, boundary's builders normalize each
    survivor as they build it: n_perverse = n + r + dim and weight + dim, dim
    the stratum's dimension; placing a lisse sheaf in degree -1 raises the
    Frobenius weight of its perverse incarnation by one.
    """
    if m == KLINGEN:
        return IntermediateProfile(m, _klingen_entries(modules[:2], lam.r), None)
    entries = _siegel_entries(modules[:2], strata, 1, lam.r)
    return IntermediateProfile(m, entries, _kernel_entry(lam, modules[1], strata))


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
    return _intermediate(lam, m, _modules(lam, m, 2), strata)


def _minimal_gap(profiles) -> tuple[int, tuple[CohomologyEntry, ...]]:
    """k and its witnesses over the nonzero entries of the profiles, in one pass."""
    by_gap: dict[int, list[CohomologyEntry]] = {}
    for profile in profiles:
        for e in profile.all_entries():
            if e.rank_lower >= 1:  # e.nonzero is True
                by_gap.setdefault(e.n_perverse - e.weight, []).append(e)
    k = min(by_gap)
    return k, tuple(by_gap[k])


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
    return _minimal_gap(
        _intermediate(lam, m, _modules(lam, m, 2), strata) for m in (SIEGEL, KLINGEN)
    )


class AnalysisReport(NamedTuple):
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

    The four Kostant modules of each parabolic are built once and serve the
    kostant field, the full classical profiles of the boundary field (one
    per point stratum) and the intermediate profiles, from which k and the
    witnesses come.
    """
    require_dominant(lam)
    strata = _require_strata(strata)
    kostant = {m: _modules(lam, m, 4) for m in (SIEGEL, KLINGEN)}
    intermediate = {m: _intermediate(lam, m, kostant[m], strata) for m in (SIEGEL, KLINGEN)}
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
        kostant=kostant,
        boundary={
            SIEGEL: tuple((s, _siegel_entries(kostant[SIEGEL], (s,), 4)) for s in strata),
            KLINGEN: _klingen_entries(kostant[KLINGEN]),
        },
        intermediate=intermediate,
        witnesses=witnesses,
    )
