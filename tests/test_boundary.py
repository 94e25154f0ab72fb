import pytest

from siegel_weights import (
    CohomologyEntry,
    InvalidStratum,
    NotDominant,
    StratumDatum,
    group_cohomology_dim,
    intermediate_profile,
    klingen_profile,
    make_weight,
    siegel_profile,
)
from siegel_weights.errors import DegreeOutOfRange, PreconditionViolation


def dominant_grid(max_k1):
    for k1 in range(max_k1 + 1):
        for k2 in range(k1 + 1):
            yield make_weight(k1, k2, k1 + k2)


REFERENCE = make_weight(3, 1, 4)
P03 = StratumDatum(0, 3)


# --- stratum data -----------------------------------------------------------

def test_stratum_validation():
    assert StratumDatum(0, 3).euler_term == 1
    assert StratumDatum(1, 1).euler_term == 1
    assert StratumDatum(2, 5).euler_term == 7
    for g, c in [(0, 2), (0, 0), (1, 0), (-1, 3), (0, -3)]:
        with pytest.raises(InvalidStratum):
            StratumDatum(g, c)
    for g, c in [(1.0, 3), (True, 3), (1, True)]:
        with pytest.raises(InvalidStratum):
            StratumDatum(g, c)


# --- group cohomology dimensions --------------------------------------------

def test_group_cohomology_dims():
    assert group_cohomology_dim(6, P03, 1) == 7
    assert group_cohomology_dim(0, StratumDatum(1, 1), 1) == 2
    assert group_cohomology_dim(2, P03, 0) == 0
    assert group_cohomology_dim(0, P03, 0) == 1
    assert group_cohomology_dim(0, P03, 1) == 2  # 2g - 1 + c
    assert group_cohomology_dim(1, StratumDatum(2, 5), 1) == 14


def test_group_cohomology_degree_range():
    with pytest.raises(DegreeOutOfRange):
        group_cohomology_dim(2, P03, 2)
    with pytest.raises(DegreeOutOfRange):
        group_cohomology_dim(2, P03, -1)
    with pytest.raises(PreconditionViolation):
        group_cohomology_dim(-1, P03, 1)


# --- classical profiles ------------------------------------------------------

def entry_key(e):
    return (e.n_classical, e.weight, e.rank_lower, e.rank_upper, e.nonzero, e.origin, e.provenance)


def test_siegel_profile_reference_rows():
    rows = [entry_key(e) for e in siegel_profile(REFERENCE, P03)]
    assert rows == [
        (0, 0, 0, 0, False, ((0, 0),), "paper"),
        (1, 0, 3, 3, True, ((1, 0),), "paper"),
        (1, 4, 0, 0, False, ((0, 1),), "paper"),
        (2, 4, 7, 7, True, ((1, 1),), "paper"),
        (2, 10, 0, 0, False, ((0, 2),), "paper"),
        (3, 10, 7, 7, True, ((1, 2),), "derived"),
        (3, 14, 0, 0, False, ((0, 3),), "derived"),
        (4, 14, 3, 3, True, ((1, 3),), "derived"),
    ]


def test_siegel_profile_rank_scales_with_the_stratum():
    big = StratumDatum(2, 5)  # 2g - 2 + c = 7
    ranks = {(e.n_classical, e.weight): e.rank_lower for e in siegel_profile(REFERENCE, big)}
    assert ranks[(1, 0)] == 3 * 7
    assert ranks[(2, 4)] == 7 * 7


def test_siegel_profile_irregular_weight_has_invariants():
    # k1 = k2 puts a rank-one piece in degrees 0 and 3
    rows = {(e.n_classical, e.weight): (e.rank_lower, e.nonzero, e.origin)
            for e in siegel_profile(make_weight(2, 2, 4), P03)}
    assert rows[(0, 0)] == (1, True, ((0, 0),))
    assert rows[(3, 14)] == (1, True, ((0, 3),))
    # two nonzero graded pieces of distinct weights in degree 3
    assert rows[(3, 8)][0] == 7
    # degree 1 falls back to 2g - 1 + c for the invariant-bearing module
    assert rows[(1, 0)] == (2, True, ((1, 0),))


def test_siegel_profile_degree_zero_vanishes_iff_regular_restriction():
    for lam in dominant_grid(5):
        e0 = [e for e in siegel_profile(lam, P03) if e.n_classical == 0]
        assert len(e0) == 1
        assert e0[0].nonzero == (lam.k1 == lam.k2)


def test_klingen_profile_reference_rows():
    rows = [entry_key(e) for e in klingen_profile(REFERENCE)]
    assert rows == [
        (0, 1, 2, 2, True, ((0, 0),), "paper"),
        (1, 4, 5, 5, True, ((0, 1),), "paper"),
        (2, 8, 5, 5, True, ((0, 2),), "derived"),
        (3, 11, 2, 2, True, ((0, 3),), "derived"),
    ]


def test_klingen_profile_trivial_weight():
    rows = klingen_profile(make_weight(0, 0, 0))
    assert rows[0].weight == 0
    assert rows[0].rank_lower == 1
    assert [e.rank_lower for e in rows] == [1, 2, 2, 1]
    assert all(e.nonzero is True for e in rows)


def test_klingen_ranks_are_levi_dimensions():
    for lam in dominant_grid(6):
        k1, k2 = lam.k1, lam.k2
        assert [e.rank_lower for e in klingen_profile(lam)] == [k2 + 1, k1 + 2, k1 + 2, k2 + 1]


def test_profiles_reject_non_dominant_weights():
    from siegel_weights import WeightTriple

    with pytest.raises(NotDominant):
        siegel_profile(WeightTriple(1, 2, 3), P03)
    with pytest.raises(NotDominant):
        klingen_profile(WeightTriple(0, 1, 1))


# --- perverse reindexing -----------------------------------------------------

def test_perverse_reindex_point_strata_shift():
    entries = intermediate_profile(REFERENCE, 0, [P03]).entries
    by_key = {(e.n_classical, e.origin): e for e in entries}
    assert by_key[(1, ((1, 0),))].n_perverse == 5
    assert by_key[(1, ((1, 0),))].weight == 0  # unchanged for point strata
    assert by_key[(0, ((0, 0),))].n_perverse == 4


def test_perverse_reindex_curve_strata_shift_bumps_weight():
    entries = intermediate_profile(REFERENCE, 1, [P03]).entries
    assert [e.n_perverse for e in entries] == [5, 6]
    assert [e.weight for e in entries] == [2, 5]
    lam0 = make_weight(0, 0, 0)
    entries0 = intermediate_profile(lam0, 1, [P03]).entries
    assert entries0[0].n_perverse == 1


def test_perverse_reindex_keeps_everything_else():
    for m, before in ((0, siegel_profile(REFERENCE, P03)), (1, klingen_profile(REFERENCE))):
        after = intermediate_profile(REFERENCE, m, [P03]).entries
        assert len(after) < len(before)
        for b, a in zip(before, after):
            assert (a.m, a.n_classical, a.rank_lower, a.rank_upper, a.nonzero, a.origin) == (
                b.m,
                b.n_classical,
                b.rank_lower,
                b.rank_upper,
                b.nonzero,
                b.origin,
            )


# --- weight bound of the full direct image profile ---------------------------

def test_purity_bound_in_low_perverse_degrees():
    """Below the top degree every nonzero graded piece obeys
    weight <= n_perverse - gap, with gap = k1-k2 (points) or k2 (curves)."""
    strata = [P03, StratumDatum(1, 1), StratumDatum(2, 5)]
    for lam in dominant_grid(6):
        if not (lam.k1 > lam.k2 > 0):
            continue
        r = lam.r
        for s in strata:
            for e in siegel_profile(lam, s):
                n_perverse = e.n_classical + r  # point strata: weight unchanged
                if e.nonzero is True and n_perverse <= r + 2:
                    assert e.weight <= n_perverse - (lam.k1 - lam.k2)
        for e in klingen_profile(lam):
            n_perverse = e.n_classical + r + 1  # curve strata: weight + 1
            if e.nonzero is True and n_perverse <= r + 2:
                assert e.weight + 1 <= n_perverse - lam.k2


def test_entry_rank_bounds_are_validated():
    with pytest.raises(PreconditionViolation):
        CohomologyEntry(
            m=0,
            n_classical=0,
            weight=0,
            rank_lower=2,
            rank_upper=1,
            origin=((0, 0),),
            provenance="paper",
        )
