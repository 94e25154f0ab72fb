from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegel_weights import (
    EmptyStrata,
    NotDominant,
    StratumDatum,
    WeightTriple,
    analysis_report,
    avoided_interval,
    intermediate_profile,
    k_invariant,
    kernel_map_ranks,
    klingen_profile,
    make_weight,
    rank_inequality_check,
    siegel_profile,
)
from siegel_weights.errors import PreconditionViolation

P03 = StratumDatum(0, 3)
REFERENCE = make_weight(3, 1, 4)


def dominant_grid(max_k1):
    for k1 in range(max_k1 + 1):
        for k2 in range(k1 + 1):
            yield make_weight(k1, k2, k1 + k2)


# --- intermediate profiles ---------------------------------------------------

def test_point_stratum_profile_of_the_reference_weight():
    profile = intermediate_profile(REFERENCE, 0, [P03])
    rows = [(e.n_perverse, e.weight, e.rank_lower, e.rank_upper, e.nonzero) for e in profile.entries]
    assert rows == [
        (4, 0, 0, 0, False),
        (5, 0, 3, 3, True),
        (5, 4, 0, 0, False),
    ]
    kernel = profile.kernel_entry
    assert kernel is not None
    assert (kernel.n_perverse, kernel.weight) == (6, 4)
    assert (kernel.rank_lower, kernel.rank_upper) == (4, 7)
    assert kernel.nonzero is True
    assert kernel.origin == ((1, 1),)


def test_curve_stratum_profile_of_the_reference_weight():
    profile = intermediate_profile(REFERENCE, 1, [P03])
    assert profile.kernel_entry is None
    rows = [(e.n_perverse, e.weight, e.rank_lower, e.nonzero) for e in profile.entries]
    assert rows == [(5, 2, 2, True), (6, 5, 5, True)]


def test_truncation_bound_holds_everywhere():
    for lam in dominant_grid(5):
        for m in (0, 1):
            profile = intermediate_profile(lam, m, [P03])
            for e in profile.all_entries():
                assert e.n_perverse is not None
                assert e.n_perverse <= lam.r + 2
            if m == 1:
                assert len(profile.entries) == 2
                assert {e.n_perverse for e in profile.entries} == {lam.r + 1, lam.r + 2}
            else:
                assert profile.kernel_entry.n_perverse == lam.r + 2


def test_profile_ranks_add_over_strata():
    single = intermediate_profile(REFERENCE, 0, [P03])
    double = intermediate_profile(REFERENCE, 0, [P03, P03])
    for a, b in zip(single.entries, double.entries):
        assert (b.rank_lower, b.rank_upper) == (2 * a.rank_lower, 2 * a.rank_upper)
    assert double.kernel_entry.rank_lower == 2 * single.kernel_entry.rank_lower
    assert double.kernel_entry.rank_upper == 2 * single.kernel_entry.rank_upper
    # curve-stratum profiles do not depend on the point strata supplied
    assert intermediate_profile(REFERENCE, 1, [P03]) == intermediate_profile(
        REFERENCE, 1, [P03, StratumDatum(2, 5)]
    )


def test_kernel_map_ranks_reference_instance():
    assert kernel_map_ranks(REFERENCE, [P03]) == (7, 3)
    assert kernel_map_ranks(REFERENCE, [P03, StratumDatum(1, 1)]) == (14, 4)
    assert kernel_map_ranks(make_weight(1, 1, 2), [P03]) == (5, 3)


def test_kernel_entry_for_non_regular_but_positive_k1():
    profile = intermediate_profile(make_weight(2, 2, 4), 0, [P03])
    kernel = profile.kernel_entry
    assert (kernel.n_perverse, kernel.weight) == (6, 6)
    assert kernel.nonzero is True
    assert kernel.rank_lower == 4  # source 7, target 3


def test_kernel_entry_at_k1_zero_is_honest_about_unknowns():
    lam = make_weight(0, 0, 0)
    tight = intermediate_profile(lam, 0, [P03])  # source 3 = target 3
    assert tight.kernel_entry.rank_lower == 0
    assert tight.kernel_entry.nonzero == "unknown"
    slack = intermediate_profile(lam, 0, [StratumDatum(1, 1)])  # source 3 > target 1
    assert slack.kernel_entry.rank_lower == 2
    assert slack.kernel_entry.nonzero is True


def test_empty_strata_rejected():
    with pytest.raises(EmptyStrata):
        intermediate_profile(REFERENCE, 0, [])
    with pytest.raises(EmptyStrata):
        avoided_interval(REFERENCE, [])
    with pytest.raises(EmptyStrata):
        analysis_report(REFERENCE, [])


# --- rank inequality ----------------------------------------------------------

def test_rank_inequality_examples():
    assert rank_inequality_check(make_weight(1, 1, 2), P03)
    assert rank_inequality_check(REFERENCE, StratumDatum(1, 1))


def test_rank_inequality_needs_positive_k1():
    with pytest.raises(PreconditionViolation):
        rank_inequality_check(make_weight(0, 0, 0), P03)
    with pytest.raises(NotDominant):
        rank_inequality_check(WeightTriple(1, 2, 3), P03)


def test_rank_inequality_holds_on_a_neat_grid():
    strata = [
        StratumDatum(g, c)
        for g in range(0, 4)
        for c in range(1, 15)
        if not (g == 0 and c < 3)
    ]
    for lam in dominant_grid(6):
        if lam.k1 < 1:
            continue
        for s in strata:
            assert rank_inequality_check(lam, s)


# --- avoided interval ----------------------------------------------------------

def test_avoided_interval_reference_cases():
    k, witnesses = avoided_interval(REFERENCE, [P03])
    assert k == 1
    assert [(w.m, w.n_perverse) for w in witnesses] == [(1, 6)]

    k, witnesses = avoided_interval(make_weight(5, 2, 7), [P03])
    assert k == 2

    k, witnesses = avoided_interval(make_weight(2, 2, 4), [P03])
    assert k == 0
    assert [(w.m, w.n_perverse) for w in witnesses] == [(0, 6)]  # the kernel entry


def test_avoided_interval_closed_form_and_level_independence():
    strata_a = [P03]
    strata_b = [StratumDatum(1, 1), StratumDatum(2, 5)]
    for lam in dominant_grid(12):
        ka, _ = avoided_interval(lam, strata_a)
        kb, _ = avoided_interval(lam, strata_b)
        assert ka == kb == min(lam.k1 - lam.k2, lam.k2) == k_invariant(lam)


def test_every_nonzero_entry_clears_the_minimum_gap():
    for lam in dominant_grid(8):
        k, _ = avoided_interval(lam, [P03])
        for m in (0, 1):
            profile = intermediate_profile(lam, m, [P03])
            for e in profile.all_entries():
                if e.nonzero is True:
                    assert e.n_perverse - e.weight >= k


def test_witnesses_attain_the_minimum_and_are_nonzero():
    for lam in dominant_grid(8):
        k, witnesses = avoided_interval(lam, [P03])
        assert witnesses
        for e in witnesses:
            assert e.nonzero is True
            assert e.n_perverse - e.weight == k


# --- analysis report -----------------------------------------------------------

def test_report_for_the_reference_weight():
    report = analysis_report(REFERENCE, [P03])
    assert report.k == 1
    assert report.avoided_interval == (0, 1)
    assert report.occurring_weights == (-1, 2)
    assert report.regular is True
    assert report.in_avoidance_category is True
    assert report.duality_twist == 7
    assert report.strata == (P03,)
    assert len(report.kostant[0]) == len(report.kostant[1]) == 4
    assert report.witnesses


def test_report_for_a_wall_weight():
    report = analysis_report(make_weight(2, 2, 4), [P03])
    assert report.k == 0
    assert report.avoided_interval is None
    assert report.occurring_weights is None
    assert report.regular is False
    assert report.in_avoidance_category is False
    assert report.duality_twist == 7


def test_report_small_k_zero_case():
    report = analysis_report(make_weight(1, 1, 2), [P03])
    assert report.k == 0
    assert report.regular is False


def test_avoided_interval_is_symmetric_about_one_half():
    for lam in dominant_grid(9):
        report = analysis_report(lam, [P03])
        if report.avoided_interval is None:
            assert report.k == 0
            continue
        lo, hi = report.avoided_interval
        assert (lo, hi) == (-report.k + 1, report.k)
        assert (1 - hi, 1 - lo) == (lo, hi)  # w -> 1 - w fixes the interval
        assert report.occurring_weights == (lo - 1, hi + 1)


def test_avoidance_category_membership_matches_regularity():
    for lam in dominant_grid(9):
        report = analysis_report(lam, [P03])
        assert report.in_avoidance_category == report.regular == (report.k >= 1)


def test_report_with_multiple_strata():
    strata = [P03, StratumDatum(1, 1)]
    report = analysis_report(REFERENCE, strata)
    assert report.k == 1
    kernel = report.intermediate[0].kernel_entry
    assert kernel.rank_upper == 14
    assert kernel.rank_lower == 4 + 6
    assert len(report.boundary[0]) == 2


# --- one-pass k, property-tested ---------------------------------------------------


@st.composite
def dominant_weights(draw):
    k1 = draw(st.integers(0, 300))
    k2 = draw(st.one_of(st.just(0), st.just(k1), st.integers(0, k1)))  # walls often
    return make_weight(k1, k2, k1 + k2 + 2 * draw(st.integers(-20, 20)))


@st.composite
def strata_data(draw):
    g = draw(st.integers(0, 5))
    return StratumDatum(g, draw(st.integers(3 if g == 0 else 1, 20)))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(lam=dominant_weights(), strata=st.lists(strata_data(), min_size=1, max_size=6))
@example(lam=make_weight(0, 0, 0), strata=[P03, StratumDatum(1, 1)])
def test_one_pass_k_matches_strata_and_closed_form(lam, strata):
    k, witnesses = avoided_interval(lam, strata)
    assert k == min(avoided_interval(lam, (s,))[0] for s in strata)
    assert k == min(lam.k1 - lam.k2, lam.k2)

    summed = intermediate_profile(lam, 0, strata).all_entries()
    singles = [intermediate_profile(lam, 0, (s,)).all_entries() for s in strata]
    assert all(len(single) == len(summed) for single in singles)
    for i, e in enumerate(summed):
        column = [single[i] for single in singles]
        for f in column:
            assert replace(f, rank_lower=e.rank_lower, rank_upper=e.rank_upper) == e
        assert e.rank_lower == sum(f.rank_lower for f in column)
        assert e.rank_upper == sum(f.rank_upper for f in column)

    report = analysis_report(lam, strata)
    assert (report.k, report.witnesses) == (k, witnesses)
    assert report.strata == tuple(strata)
    for m in (0, 1):
        assert report.intermediate[m] == intermediate_profile(lam, m, strata)
    assert report.boundary[0] == tuple((s, siegel_profile(lam, s)) for s in strata)
    assert report.boundary[1] == klingen_profile(lam)
