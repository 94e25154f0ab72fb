"""Boundary profiles of the intermediate extension and the avoided interval.

The intersection complex of the minimal compactification restricts to a
boundary stratum as a truncation of the full direct image, in the perverse
normalization:

* curve strata (m = 1): sharp truncation in degrees n_perverse <= r + 2; the
  survivors are the Klingen rows reindexed to n_perverse in {r + 1, r + 2},
  their weight raised by one as a lisse sheaf's is when put in degree -1.

* point strata (m = 0): degrees n_perverse <= r + 1 survive unchanged, and at
  n_perverse = r + 2 the full degree is replaced by the kernel of a boundary
  map out of the (1, 1) piece, of weight (r + 2) - (k1 - k2).  Summed over
  the supplied strata its source rank is that piece's and its target rank
  sum(c); the kernel rank lies in [source - target, source].  Per stratum,
  source - target = (k1+k2+3)(2g-2+c) - c is at least 8g - 8 + 3c >= 1 once
  k1 >= 1 (the rank inequality) and 6g - 6 + 2c >= 0 at k1 = 0.

The avoided interval: over all nonzero entries of both intermediate profiles,

    k = min (n_perverse - weight),

and weights in [-k + 1, k] (an interval symmetric about 1/2, empty when
k = 0) avoid the boundary entirely.  For dominant lam this minimum always
equals min(k1 - k2, k2); it is >= 1 exactly when lam is regular.  The weights
-k and k + 1 do occur, the upper one by self-duality of the intersection
complex with twist s = r + 3.
"""

from __future__ import annotations

from typing import NamedTuple

from .boundary import (
    KERNEL_PIECE,
    CohomologyEntry,
    StratumDatum,
    _klingen_entries,
    _piece_ranks,
    _siegel_entries,
)
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
    """(k1 + k2 + 3) * (2g - 2 + c) > c, the kernel nonvanishing inequality, as
    printed from g and c: an oracle kept apart from the rank tables and euler_term.

    Requires dominant lam with k1 >= 1 (the chain of estimates behind the
    inequality starts from k1 + k2 + 3 >= 4); k1 = 0 raises
    PreconditionViolation.  True on every valid input.
    """
    require_dominant(lam)
    if lam.k1 < 1:
        raise PreconditionViolation("kernel nonvanishing argument needs k1 >= 1")
    if not isinstance(stratum, StratumDatum):
        raise InvalidStratum("each stratum must be a StratumDatum")
    return (lam.k1 + lam.k2 + 3) * (2 * stratum.g - 2 + stratum.c) > stratum.c


def kernel_map_ranks(lam: WeightTriple, strata) -> tuple[int, int]:
    """(source, target) = (summed rank of the (1, 1) piece, sum of c), the ranks
    of the boundary map whose kernel survives at n_perverse = r + 2."""
    kernel = intermediate_profile(lam, SIEGEL, strata).kernel_entry
    return kernel.rank_upper, kernel.rank_upper - kernel.rank_lower


def _intermediate(lam: WeightTriple, m: int, modules, strata, tables) -> IntermediateProfile:
    """Intermediate profile of parabolic m from its Kostant modules and, for
    m = 0, the strata's rank tables, both covering q <= 1; nothing is checked.
    Both truncations (n_perverse <= r + 2 on curves, <= r + 1 on points)
    keep exactly the classical degrees n <= 1, ranks summed over the strata,
    which form a disjoint union; boundary's builders, given r, normalize each
    survivor as they build it.
    """
    if m == KLINGEN:
        return IntermediateProfile(m, _klingen_entries(modules[:2], lam.r), None)
    ranks = tuple(map(sum, zip(*tables)))
    entries = _siegel_entries(modules, ranks[:KERNEL_PIECE], lam.r)  # first: it checks each rank
    source, target = ranks[KERNEL_PIECE], sum(s.c for s in strata)  # the (1, 1) piece's map
    kernel = CohomologyEntry(SIEGEL, 2, modules[1].motivic_weight, source - target, source,
                             ((1, 1),), "paper", lam.r + 2)
    return IntermediateProfile(m, entries, kernel)


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
    modules = _modules(lam, m, 2)
    tables = [_piece_ranks(modules, s) for s in strata] if m == SIEGEL else ()
    return _intermediate(lam, m, modules, strata, tables)


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
    agree in every field but the ranks, ranks and the kernel's lower bounds
    are non-negative and summed, and so an aggregated entry is nonzero
    exactly when the entry of some stratum is.
    """
    require_dominant(lam)
    strata = _require_strata(strata)
    modules = {m: _modules(lam, m, 2) for m in (SIEGEL, KLINGEN)}
    tables = [_piece_ranks(modules[SIEGEL], s) for s in strata]
    return _minimal_gap(_intermediate(lam, m, modules[m], strata, tables) for m in modules)


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

    The four Kostant modules of each parabolic and each point stratum's rank
    table are built once and serve the kostant field, the full classical
    profiles of the boundary field (one per point stratum) and the
    intermediate profiles, from which k and the witnesses come.
    """
    require_dominant(lam)
    strata = _require_strata(strata)
    kostant = {m: _modules(lam, m, 4) for m in (SIEGEL, KLINGEN)}
    tables = [_piece_ranks(kostant[SIEGEL], s) for s in strata]
    intermediate = {m: _intermediate(lam, m, kostant[m], strata, tables) for m in kostant}
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
            SIEGEL: tuple(zip(strata, (_siegel_entries(kostant[SIEGEL], t) for t in tables))),
            KLINGEN: _klingen_entries(kostant[KLINGEN]),
        },
        intermediate=intermediate,
        witnesses=witnesses,
    )
