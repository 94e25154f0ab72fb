"""Boundary profiles of the intermediate extension and the avoided interval.

The intersection complex of the minimal compactification restricts to a
boundary stratum as a truncation of the full direct image, in the perverse
normalization: on a stratum of dimension m, classical degree n moves to
n_perverse = n + r + m and the weight of a pure lisse piece rises by m.

* curve strata (m = 1): sharp truncation in degrees n_perverse <= r + 2; the
  survivors are the Klingen rows n <= 1, at n_perverse in {r + 1, r + 2}.

* point strata (m = 0): degrees n_perverse <= r + 1 survive, and at
  n_perverse = r + 2 the full degree is replaced by the kernel of a boundary
  map out of the (1, 1) piece, of weight (r + 2) - (k1 - k2).  Over n strata
  with E = sum(2g - 2 + c) and C = sum(c), the map has source rank that
  piece's, (k1 + k2 + 3)E, and target rank C.  The kernel entry is the (1, 1)
  entry of boundary._entries with its lower rank lowered by C, to
  (k1 + k2 + 3)E - C >= n once k1 >= 1 (the rank inequality); at the vertex
  3E - C = sum(6g - 6 + 2c) >= 0 is 0 exactly when every stratum is (0, 3).

The avoided interval: over all nonzero entries of both intermediate profiles,

    k = min (n_perverse - weight),

and weights in [-k + 1, k] (an interval symmetric about 1/2, empty when
k = 0) avoid the boundary entirely.  For dominant lam this minimum always
equals min(k1 - k2, k2); it is >= 1 exactly when lam is regular.  The weights
-k and k + 1 do occur, the upper one by self-duality of the intersection
complex with twist s = r + 3.
"""

from __future__ import annotations

from collections import namedtuple

from .boundary import (
    KERNEL_PIECE,
    CohomologyEntry,
    StratumDatum,
    _entries,
    _piece_ranks,
)
from .errors import EmptyStrata, InvalidStratum, PreconditionViolation
from .kostant import _modules
from .root_data import (
    KLINGEN,
    SIEGEL,
    WeightTriple,
    check_parabolic,
    is_regular,
    k_invariant,
    require_dominant,
)


class IntermediateProfile(namedtuple("IntermediateProfile", "entries kernel_entry")):
    """Perverse-normalized boundary profile on the parabolic its entries' m name: entry tuple, kernel or None."""

    __slots__ = ()

    def all_entries(self) -> tuple[CohomologyEntry, ...]:
        if self.kernel_entry is None:
            return self.entries
        return self.entries + (self.kernel_entry,)


def _require_strata(strata) -> tuple[tuple[StratumDatum, ...], tuple[int, int, int]]:
    strata = tuple(strata)
    if not strata:
        raise EmptyStrata("at least one boundary stratum is required")
    if not all(isinstance(s, StratumDatum) for s in strata):
        raise InvalidStratum("each stratum must be a StratumDatum")
    return strata, (len(strata), sum(s.euler_term for s in strata), sum(s.c for s in strata))


def rank_inequality_check(lam: WeightTriple, stratum: StratumDatum) -> bool:
    """(k1 + k2 + 3) * (2g - 2 + c) > c, the kernel nonvanishing inequality, as printed
    from g and c by _rank_inequality: an oracle kept apart from the rank tables and euler_term.

    Requires dominant lam with k1 >= 1 (the chain of estimates behind the inequality
    starts from k1 + k2 + 3 >= 4); k1 = 0 raises PreconditionViolation.  True on every valid input.
    """
    require_dominant(lam)
    if lam.k1 < 1:
        raise PreconditionViolation("kernel nonvanishing argument needs k1 >= 1")
    _require_strata((stratum,))  # a StratumDatum
    return _rank_inequality(lam, stratum)


def _rank_inequality(lam: WeightTriple, stratum: StratumDatum) -> bool:
    """rank_inequality_check's formula, its one home, from g and c as printed; nothing is checked."""
    return (lam.k1 + lam.k2 + 3) * (2 * stratum.g - 2 + stratum.c) > stratum.c


def _intermediate(lam: WeightTriple, m: int, n, euler, target) -> IntermediateProfile:
    """Intermediate profile of parabolic m from the Kostant modules q <= 1, which it
    builds, and, for m = 0, the strata's sums (n, E, C) as (n, euler, target); nothing
    is checked.  Both truncations keep the classical degrees 0 and 1, ranks summed over
    the strata, each entry built and perverse-normalized by boundary._entries; the
    kernel entry is its (1, 1) entry with the lower rank lowered by C."""
    modules = _modules(lam, m, 2)
    if m == KLINGEN:
        return IntermediateProfile(_entries(m, modules, (modules[0].levi_dim, modules[1].levi_dim), lam.r), None)
    entries = _entries(m, modules, _piece_ranks(modules, n, euler), lam.r)  # checks each rank
    e = entries[KERNEL_PIECE]  # the (1, 1) entry; its kernel keeps every field but rank_lower, e[3]
    return IntermediateProfile(entries[:KERNEL_PIECE], CohomologyEntry(*e[:3], e.rank_upper - target, *e[4:]))


def intermediate_profile(lam: WeightTriple, m: int, strata) -> IntermediateProfile:
    """Boundary profile of the intermediate extension on parabolic-m strata.

    All entries satisfy n_perverse <= r + 2.  For m = 0 the ranks are summed
    over the supplied strata and the kernel entry sits at n_perverse = r + 2;
    for m = 1 the profile does not depend on the strata list (it must still
    be nonempty, for uniformity of the calling contract).
    """
    require_dominant(lam)
    check_parabolic(m)
    _, sums = _require_strata(strata)
    return _intermediate(lam, m, *sums)


def _minimal_gap(profiles) -> tuple[int, tuple[CohomologyEntry, ...]]:
    """k and its witnesses, in profile order, over the nonzero entries of the profiles, in one
    pass with a running minimum; ValueError, as min() gives, when no entry is nonzero."""
    k, witnesses = None, []
    for profile in profiles:
        for e in profile.all_entries():
            if e.rank_lower >= 1:  # e.nonzero is True
                gap = e.n_perverse - e.weight
                if k is None or gap < k:
                    k, witnesses = gap, [e]
                elif gap == k:
                    witnesses.append(e)
    if k is None:
        raise ValueError("min() arg is an empty sequence")
    return k, tuple(witnesses)


def avoided_interval(lam: WeightTriple, strata) -> tuple[int, tuple[CohomologyEntry, ...]]:
    """(k, witnesses): k = min(n_perverse - weight) over nonzero entries
    of both intermediate profiles, witnesses the entries attaining it.

    Computed in one pass over the profiles aggregated over all strata, it is
    also the minimum of the per-stratum values of k: the strata's profiles
    agree in every field but the ranks, ranks and the kernel's lower bounds
    are non-negative and summed, so an aggregated entry is nonzero exactly
    when the entry of some stratum is."""
    return _avoided(require_dominant(lam), *_require_strata(strata)[1])


def _avoided(lam: WeightTriple, n: int, euler: int, target: int) -> tuple[int, tuple[CohomologyEntry, ...]]:
    """avoided_interval of lam over strata of sums (n, E, C) = (n, euler, target); nothing is checked."""
    return _minimal_gap((_intermediate(lam, SIEGEL, n, euler, target), _intermediate(lam, KLINGEN, n, euler, target)))


_REPORT_FIELDS = ("lam strata k avoided_interval occurring_weights regular in_avoidance_category"
                  " duality_twist kostant boundary intermediate witnesses")


class AnalysisReport(namedtuple("AnalysisReport", _REPORT_FIELDS)):
    """Everything the weight analysis of one module produces: lam a WeightTriple, strata and witnesses
    tuples, k and duality_twist ints, the intervals int pairs or None, two bools, three dicts by parabolic."""

    __slots__ = ()


def analysis_report(lam: WeightTriple, strata) -> AnalysisReport:
    """Full analysis of V_lam over the given point strata (>= 1 required).

    For k >= 1 the avoided interval is [-k + 1, k] and occurring_weights
    (-k, k + 1), as the module docstring derives; for k = 0 the boundary
    weight structure is not decided here and both are None.  The four Kostant
    modules of each parabolic serve the kostant and boundary fields;
    _intermediate builds its own two.  A point stratum's classical profile, the rank table of n = 1,
    depends on it only through E = 2g - 2 + c: one entries tuple is built per
    distinct E, and strata with equal E share it."""
    require_dominant(lam)
    strata, sums = _require_strata(strata)
    kostant = {m: _modules(lam, m, 4) for m in (SIEGEL, KLINGEN)}
    points = {e: _entries(SIEGEL, kostant[SIEGEL], _piece_ranks(kostant[SIEGEL], 1, e))
              for e in {s.euler_term for s in strata}}
    intermediate = {m: _intermediate(lam, m, *sums) for m in kostant}
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
            SIEGEL: tuple((s, points[s.euler_term]) for s in strata),
            KLINGEN: _entries(KLINGEN, kostant[KLINGEN], [mod.levi_dim for mod in kostant[KLINGEN]]),
        },
        intermediate=intermediate,
        witnesses=witnesses,
    )
