import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegel_weights import (
    KLINGEN,
    SIEGEL,
    EmptyStrata,
    InvalidStratum,
    NotDominant,
    StratumDatum,
    WeightTriple,
    analysis_report,
    avoided_interval,
    intermediate_profile,
    k_invariant,
    make_weight,
    rank_inequality_check,
)
from siegel_weights import boundary
from siegel_weights.boundary import _piece_ranks
from siegel_weights.checks import dominant_grid
from siegel_weights.errors import PreconditionViolation
from siegel_weights.intersection import IntermediateProfile, _minimal_gap, _require_strata
from siegel_weights.kostant import _modules
from siegel_weights.root_data import COORDINATE_BOUND
from weight_strategies import strata_data, wide_weights

P03 = StratumDatum(0, 3)
REFERENCE = make_weight(3, 1, 4)


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


def kernel_map_ranks(lam, strata):
    """(source, target) = (summed rank of the (1, 1) piece, sum of c), the ranks
    of the boundary map whose kernel survives at n_perverse = r + 2, read off the kernel entry."""
    kernel = intermediate_profile(lam, SIEGEL, strata).kernel_entry
    return kernel.rank_upper, kernel.rank_upper - kernel.rank_lower


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


# --- one home for every rank ---------------------------------------------------

def kernel_piece_rank(lam, stratum):
    """The (1, 1) rank over the one stratum, the kernel map's source rank."""
    return kernel_map_ranks(lam, [stratum])[0]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lam=wide_weights(), strata=st.lists(strata_data(), min_size=1, max_size=6))
@example(lam=make_weight(0, 0, 0), strata=[P03])
@example(lam=make_weight(0, 0, 2), strata=[P03, StratumDatum(1, 1), StratumDatum(2, 5)])
def test_kernel_lower_bound_is_source_minus_target(lam, strata):
    # each stratum's (1, 1) rank is at least its c, and above it once k1 >= 1,
    # so the floored per-stratum bound max(source - c, floor) is source - c
    # term by term, and the oracle's sum is the kernel's source - target
    floor = 1 if lam.k1 >= 1 else 0
    for s in strata:
        assert kernel_piece_rank(lam, s) - s.c >= floor
    kernel = intermediate_profile(lam, SIEGEL, strata).kernel_entry
    source = [(lam.k1 + lam.k2 + 3) * s.euler_term for s in strata]
    assert kernel.rank_lower == sum(max(src - s.c, floor) for src, s in zip(source, strata))
    assert kernel.rank_upper == sum(source)
    assert kernel_map_ranks(lam, strata) == (kernel.rank_upper, sum(s.c for s in strata))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lam=wide_weights(), stratum=strata_data())
@example(lam=make_weight(1, 0, 1), stratum=P03)
def test_rank_inequality_is_the_rank_table_inequality(lam, stratum):
    # the printed closed form and the rank the pipeline reads cannot drift apart
    if lam.k1 < 1:
        with pytest.raises(PreconditionViolation):
            rank_inequality_check(lam, stratum)
    else:
        assert rank_inequality_check(lam, stratum) == (kernel_piece_rank(lam, stratum) > stratum.c)


@pytest.mark.parametrize("lam", [REFERENCE, make_weight(0, 0, 0), make_weight(2, 2, 4)])
def test_each_piece_rank_is_computed_once(lam, monkeypatch):
    # one (H^0, H^1) pair per Siegel Kostant module q <= 1 of the strata's sums,
    # however many strata; analysis_report adds one per module q <= 3 and distinct
    # 2g - 2 + c for the full profiles of its boundary field, which strata with
    # equal 2g - 2 + c share: [P03, (1, 1)] both have it 1, so 4 + 2 calls
    real = boundary.group_cohomology_dims
    calls = []

    def counted(u, n, euler):
        calls.append((u, n, euler))
        return real(u, n, euler)

    monkeypatch.setattr(boundary, "group_cohomology_dims", counted)
    for strata in ([P03], [P03, StratumDatum(1, 1)], [P03, StratumDatum(1, 1), StratumDatum(2, 5)]):
        builds = (
            (analysis_report, 4 * len({s.euler_term for s in strata}) + 2),
            (avoided_interval, 2),
            (lambda lam, strata: intermediate_profile(lam, SIEGEL, strata), 2),
        )
        for build, count in builds:
            calls.clear()
            build(lam, strata)
            assert len(calls) == count
    pairs = analysis_report(lam, [P03, StratumDatum(1, 1)]).boundary[SIEGEL]
    assert pairs[0][1] is pairs[1][1]


@st.composite
def regrouped_strata(draw):
    """Two lists of strata with equal (n, E, C): the second pairs the genera of the
    first, permuted, with cusp counts of the same sum."""
    first = draw(st.lists(strata_data(), min_size=1, max_size=5))
    genera = draw(st.permutations([s.g for s in first]))
    floors = [3 if g == 0 else 1 for g in genera]
    spare = sum(s.c for s in first) - sum(floors)  # >= 0: the floors are first's, permuted
    cuts = sorted(draw(st.lists(st.integers(0, spare), min_size=len(first) - 1,
                                max_size=len(first) - 1)))
    extras = [b - a for a, b in zip([0, *cuts], [*cuts, spare])]
    return first, [StratumDatum(g, f + e) for g, f, e in zip(genera, floors, extras)]


EQUAL_SUMS_PAIR = ([StratumDatum(1, 2), StratumDatum(0, 4)], [StratumDatum(0, 3), StratumDatum(1, 3)])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lam=wide_weights(), pair=regrouped_strata())
@example(lam=make_weight(0, 0, 0), pair=EQUAL_SUMS_PAIR)
@example(lam=make_weight(2, 2, 4), pair=EQUAL_SUMS_PAIR)
@example(lam=REFERENCE, pair=EQUAL_SUMS_PAIR)
def test_strata_enter_only_through_their_sums(lam, pair):
    first, second = pair
    sums = [(len(x), sum(2 * g - 2 + c for g, c in x), sum(c for _, c in x)) for x in pair]
    assert sums[0] == sums[1]
    for m in (SIEGEL, KLINGEN):
        assert intermediate_profile(lam, m, first) == intermediate_profile(lam, m, second)
    assert kernel_map_ranks(lam, first) == kernel_map_ranks(lam, second)
    assert avoided_interval(lam, first) == avoided_interval(lam, second)
    # C alone moves: (g, c) -> (g - 1, c + 2) or (g + 1, c - 2) keeps n and 2g - 2 + c
    g, c = first[0]
    moved = [StratumDatum(g - 1, c + 2) if g else StratumDatum(1, c - 2), *first[1:]]
    kernel = intermediate_profile(lam, SIEGEL, first).kernel_entry
    assert intermediate_profile(lam, SIEGEL, moved).kernel_entry != kernel


def test_empty_strata_rejected():
    with pytest.raises(EmptyStrata):
        intermediate_profile(REFERENCE, 0, [])
    with pytest.raises(EmptyStrata):
        avoided_interval(REFERENCE, [])
    with pytest.raises(EmptyStrata):
        analysis_report(REFERENCE, [])


# a bare tuple for a stratum or a weight is refused with a documented error
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: avoided_interval(REFERENCE, [(0, 3)]), InvalidStratum),
        (lambda: analysis_report(REFERENCE, [(0, 3)]), InvalidStratum),
        (lambda: intermediate_profile(REFERENCE, SIEGEL, [(0, 3)]), InvalidStratum),
        (lambda: intermediate_profile(REFERENCE, 1, [(0, 3)]), InvalidStratum),
        (lambda: intermediate_profile(REFERENCE, 0, [P03, (0, 3)]), InvalidStratum),
        (lambda: rank_inequality_check(REFERENCE, (0, 3)), InvalidStratum),
        (lambda: avoided_interval((3, 1, 4), [P03]), PreconditionViolation),
        (lambda: analysis_report([3, 1, 4], [P03]), PreconditionViolation),
        (lambda: k_invariant((3, 1, 4)), PreconditionViolation),
    ],
    ids=[
        "avoided_interval-stratum", "analysis_report-stratum", "intermediate_profile-siegel-stratum",
        "intermediate_profile-curve-stratum", "intermediate_profile-second-stratum",
        "rank_inequality_check-stratum", "avoided_interval-weight", "analysis_report-list-weight",
        "k_invariant-weight",
    ],
)
def test_wrong_container_types_raise_documented_errors(call, error):
    with pytest.raises(error):
        call()


# --- rank inequality ----------------------------------------------------------

def test_rank_inequality_examples():
    assert rank_inequality_check(make_weight(1, 1, 2), P03)
    assert rank_inequality_check(REFERENCE, StratumDatum(1, 1))


def test_rank_inequality_does_not_read_euler_term(monkeypatch):
    # the oracle computes 2g - 2 + c itself: an euler_term of 0 empties the H^1
    # ranks the profiles read, and leaves every verdict of the oracle (True) as it was
    cases = [(lam, s) for lam in dominant_grid(4) if lam.k1 >= 1
             for s in (P03, StratumDatum(1, 1), StratumDatum(2, 5))]

    def table(lam, s):  # the rank table of the sums the profiles read
        n, euler, _ = _require_strata([s])[1]
        return _piece_ranks(_modules(lam, SIEGEL, 4), n, euler)

    tables = [table(lam, s) for lam, s in cases]
    verdicts = [rank_inequality_check(lam, s) for lam, s in cases]
    monkeypatch.setattr(StratumDatum, "euler_term", property(lambda s: 0))
    assert [table(lam, s) for lam, s in cases] != tables
    assert [rank_inequality_check(lam, s) for lam, s in cases] == verdicts


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
            assert f._replace(rank_lower=e.rank_lower, rank_upper=e.rank_upper) == e
        assert e.rank_lower == sum(f.rank_lower for f in column)
        assert e.rank_upper == sum(f.rank_upper for f in column)

    report = analysis_report(lam, strata)
    assert (report.k, report.witnesses) == (k, witnesses)
    assert report.strata == tuple(strata)
    for m in (0, 1):
        assert report.intermediate[m] == intermediate_profile(lam, m, strata)
    for s, entries in report.boundary[0]:  # a stratum's profile ignores the others
        assert analysis_report(lam, (s,)).boundary[0] == ((s, entries),)
    assert report.boundary[1] == analysis_report(lam, (P03,)).boundary[1]


# --- truncated build against the full profiles ------------------------------------


@settings(derandomize=True, deadline=None, max_examples=100)
@given(lam=wide_weights(), strata=st.lists(strata_data(), min_size=1, max_size=6))
@example(lam=make_weight(0, 0, 0), strata=[P03])
@example(lam=make_weight(2, 2, 4), strata=[P03, StratumDatum(1, 1)])
@example(
    lam=make_weight(COORDINATE_BOUND, COORDINATE_BOUND, -COORDINATE_BOUND),
    strata=[StratumDatum(5, 20)],
)
def test_truncated_profiles_match_the_full_profiles(lam, strata):
    # intermediate_profile builds only the Kostant modules q <= 1 and the
    # classical entries n <= 1, with ranks summed over the strata; the oracle
    # truncates the full per-stratum profiles of analysis_report, sums their
    # ranks here and shifts them to the perverse normalization, and builds the
    # kernel from the per-stratum (1, 1) pieces it replaces
    report = analysis_report(lam, strata)
    per_stratum = {0: [entries for _, entries in report.boundary[0]], 1: [report.boundary[1]]}
    full = {}
    for m, profiles in per_stratum.items():
        dim = m  # points for m = 0, curves for m = 1
        kept = [[e for e in profile if e.n_classical <= 1] for profile in profiles]
        assert len({len(entries) for entries in kept}) == 1
        entries = tuple(
            column[0]._replace(
                weight=column[0].weight + dim,
                rank_lower=sum(e.rank_lower for e in column),
                rank_upper=sum(e.rank_upper for e in column),
                n_perverse=column[0].n_classical + lam.r + dim,
            )
            for column in zip(*kept)
        )
        kernel = None
        if m == 0:  # the kernel of the map from each (1, 1) piece onto c cusps
            pieces = [(s, e) for s, es in report.boundary[0] for e in es if e.origin == ((1, 1),)]
            assert len(pieces) == len(strata)
            floor = 1 if lam.k1 >= 1 else 0
            kernel = pieces[0][1]._replace(
                rank_lower=sum(max(e.rank_lower - s.c, floor) for s, e in pieces),
                rank_upper=sum(e.rank_upper for _, e in pieces),
                n_perverse=lam.r + 2,
            )
        full[m] = IntermediateProfile(entries=entries, kernel_entry=kernel)
    for m, expected in full.items():
        assert intermediate_profile(lam, m, strata) == expected
        assert report.intermediate[m] == expected
    assert avoided_interval(lam, strata) == _minimal_gap(full.values())


# --- the one-pass minimum against a dict of lists ----------------------------

def reference_minimal_gap(profiles):
    """k and its witnesses by grouping every nonzero entry under its gap, then taking the least."""
    by_gap = {}
    for profile in profiles:
        for e in profile.all_entries():
            if e.rank_lower >= 1:
                by_gap.setdefault(e.n_perverse - e.weight, []).append(e)
    k = min(by_gap)  # ValueError when no entry is nonzero
    return k, tuple(by_gap[k])


@st.composite
def small_entries(draw):
    """Entries of few gaps, so that ties and zero ranks are common."""
    lo = draw(st.integers(0, 2))
    return boundary.CohomologyEntry(draw(st.integers(0, 1)), draw(st.integers(0, 4)), draw(st.integers(-3, 3)),
                                    lo, lo + draw(st.integers(0, 1)), ((0, draw(st.integers(0, 3))),), "paper",
                                    draw(st.integers(-3, 3)))


@st.composite
def profile_lists(draw):
    """Lists of profiles: drawn entries, or the two intermediate profiles of a weight and strata."""
    if draw(st.booleans()):
        lam, strata = draw(wide_weights()), draw(st.lists(strata_data(), min_size=1, max_size=4))
        return [intermediate_profile(lam, m, strata) for m in (SIEGEL, KLINGEN)]
    return draw(st.lists(st.builds(IntermediateProfile, st.lists(small_entries(), max_size=5)
                                   .map(tuple), st.none() | small_entries()), max_size=3))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(profiles=profile_lists())
@example(profiles=[])
def test_the_one_pass_minimum_matches_a_dict_of_lists(profiles):
    try:
        expected = reference_minimal_gap(profiles)
    except ValueError:
        with pytest.raises(ValueError):
            _minimal_gap(profiles)
        return
    k, witnesses = _minimal_gap(iter(profiles))  # any iterable of profiles, read once
    assert (k, witnesses) == expected
    assert all(a is b for a, b in zip(witnesses, expected[1]))  # the same entries, in the same order
