import copy
import inspect
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegel_weights import (
    KLINGEN,
    SIEGEL,
    InputBoundExceeded,
    InvalidStratum,
    NotDominant,
    StratumDatum,
    WeightTriple,
    analysis_report,
    avoided_interval,
    intermediate_profile,
    make_weight,
)
from siegel_weights import boundary
from siegel_weights.boundary import (
    SIEGEL_PIECES,
    CohomologyEntry,
    _entries,
    _piece_ranks,
    group_cohomology_dims,
)
from siegel_weights.checks import dominant_grid
from siegel_weights.errors import PreconditionViolation
from siegel_weights.intersection import _require_strata
from siegel_weights.kostant import _modules
from siegel_weights.root_data import COORDINATE_BOUND
from test_root_data import Int
from weight_strategies import strata_data, wide_weights


def siegel_profile(lam, stratum):
    """The full classical profile over one point stratum, as analysis_report shows it."""
    ((_, entries),) = analysis_report(lam, (stratum,)).boundary[SIEGEL]
    return entries


def klingen_profile(lam):
    """The full classical profile over a curve stratum, as analysis_report shows it."""
    return analysis_report(lam, (P03,)).boundary[KLINGEN]


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
    for g, c in [(1.0, 3), (True, 3), (1, True), (Int(1), 3)]:
        with pytest.raises(InvalidStratum) as err:
            StratumDatum(g, c)
    assert str(err.value) == "stratum data must be integers, got (g=Int(1), c=3)"  # the last names its type
    assert StratumDatum(COORDINATE_BOUND, COORDINATE_BOUND).euler_term == 3 * COORDINATE_BOUND - 2
    for g, c in [(COORDINATE_BOUND + 1, 5), (1, COORDINATE_BOUND + 1), (-(10**5000), 5), (1, 10**5000)]:
        with pytest.raises(InputBoundExceeded):
            StratumDatum(g, c)


# --- group cohomology dimensions --------------------------------------------

def test_group_cohomology_dims():
    # (u, n, E): one stratum (0, 3) or (1, 1) has E = 1, (2, 5) has E = 7
    assert group_cohomology_dims(6, 1, 1) == (0, 7)
    assert group_cohomology_dims(2, 1, 1) == (0, 3)
    assert group_cohomology_dims(0, 1, 1) == (1, 2)  # (n, E + n)
    assert group_cohomology_dims(1, 1, 7) == (0, 14)
    # summed over (1, 1) and (2, 5): n = 2, E = 8
    assert group_cohomology_dims(0, 2, 8) == (2, 10)
    assert group_cohomology_dims(1, 2, 8) == (0, 16)


@pytest.mark.parametrize("u", [True, False, 1.0, -1])
def test_group_cohomology_refuses_a_u_that_is_not_a_nonneg_int(u):
    # bools are ints to isinstance, and True would pass as u = 1
    with pytest.raises(PreconditionViolation):
        group_cohomology_dims(u, 1, 1)


# A second oracle, which shares no code with group_cohomology_dims: per stratum of
# genus g with c cusps, H^0 and H^1 of a neat group on the SL(2)-module of weight u.
# At u = 0, H^1 has the rank 2g + c - 1 of pi_1 of the punctured curve, a free group.
# At even u >= 2, H^1 = S_{u+2} + conj(S_{u+2}) + Eisenstein classes, one per cusp
# (Eichler-Shimura; Shimura 1971, Ch. 8), and Riemann-Roch with no elliptic points
# gives dim S_k = (k - 1)(g - 1) + (k/2 - 1)c (ibid., Thm 2.23).  Odd u would need
# the regularity of each cusp, which the package does not model.
ORACLE_STRATA = [(g, c) for g in range(8) for c in range(3 if g == 0 else 1, 12)]
ORACLE_WEIGHTS = [0, *range(2, 29, 2)]


def cusp_form_dim(k, g, c):
    return (k - 1) * (g - 1) + (k // 2 - 1) * c


def eichler_shimura_dims(u, g, c):
    if u == 0:
        return 1, 2 * g + c - 1
    return 0, 2 * cusp_form_dim(u + 2, g, c) + c


def oracle_lists():
    """Each stratum of the oracle's range alone, then seeded lists of 2 to 6 of them."""
    rng = random.Random(8)
    return [[s] for s in ORACLE_STRATA] + [rng.choices(ORACLE_STRATA, k=rng.randint(2, 6)) for _ in range(60)]


def eichler_shimura_mismatches(dims):
    """The (u, strata) at which dims, given the strata's sums (n, E), is not the oracle summed over
    them: the ranks add over strata."""
    bad = []
    for strata in oracle_lists():
        n, euler, _ = _require_strata([StratumDatum(g, c) for g, c in strata])[1]
        for u in ORACLE_WEIGHTS:
            expected = tuple(map(sum, zip(*(eichler_shimura_dims(u, g, c) for g, c in strata))))
            try:
                got = dims(u, n, euler)
            except PreconditionViolation:
                got = "refused"
            if got != expected:
                bad.append((u, strata))
    return bad


def test_group_cohomology_dims_match_eichler_shimura_and_riemann_roch():
    assert eichler_shimura_mismatches(group_cohomology_dims) == []


@pytest.mark.parametrize("old, new", [
    ("u < 0", "u < 1"),  # the refusal: u = 0 is a weight
    ("u == 0", "u == 2"),  # the trivial module is the special case
    ("return n, euler + n", "return 1, euler + n"),  # H^0 at u = 0: one invariant per stratum
    ("euler + n", "euler + 1"),  # H^1 at u = 0: 2g - 2 + c + 1 per stratum
    ("return 0,", "return 1,"),  # H^0 at u >= 1: neatness kills the invariants
    ("(u + 1)", "(u + 2)"),  # H^1 at u >= 1: (u + 1)(2g - 2 + c) per stratum
])
def test_negative_control_eichler_shimura_catches_each_constant(old, new):
    source = inspect.getsource(boundary.group_cohomology_dims)
    assert source.count(old) == 1
    namespace = dict(vars(boundary))
    exec(source.replace(old, new), namespace)
    assert eichler_shimura_mismatches(namespace["group_cohomology_dims"])


def reference_piece_rank(u, stratum, p):
    """dim H^p as the formulas of the boundary module docstring state it."""
    g, c = stratum
    if p == 0:
        return 1 if u == 0 else 0
    return 2 * g - 1 + c if u == 0 else (u + 1) * (2 * g - 2 + c)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lam=wide_weights(), strata=st.lists(strata_data(), min_size=1, max_size=6))
@example(lam=make_weight(0, 0, 0), strata=[P03])
@example(lam=make_weight(2, 2, 4), strata=[P03, StratumDatum(1, 1)])
def test_piece_ranks_follow_the_documented_formulas(lam, strata):
    # the table of the sums is the per-stratum formulas summed piece by piece
    modules = _modules(lam, SIEGEL, 4)
    n, euler = len(strata), sum(2 * g - 2 + c for g, c in strata)
    for count in (2, 4):
        table = _piece_ranks(modules[:count], n, euler)
        assert len(table) == 2 * count
        for (p, q), rank in zip(SIEGEL_PIECES, table):
            u = modules[q].restriction_weight
            assert rank == sum(reference_piece_rank(u, s, p) for s in strata)


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
    with pytest.raises(NotDominant):
        analysis_report(WeightTriple(1, 2, 3), (P03,))
    with pytest.raises(NotDominant):
        analysis_report(WeightTriple(0, 1, 1), (StratumDatum(1, 1),))


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


# --- one entry per (p, q) piece ----------------------------------------------

def summed_table(modules, strata):
    """The rank table of the strata's sums (n, E)."""
    return _piece_ranks(modules, len(strata), sum(s.euler_term for s in strata))


def merging_siegel_entries(modules, strata, top, r=None):
    """The reference builder: pieces grouped by (degree, weight) in a dict,
    the groups sorted and each group's ranks summed into one entry."""
    pieces = {}
    for q, mod in enumerate(modules):
        for p in (0, 1):
            if p + q <= top:
                dim = sum(reference_piece_rank(mod.restriction_weight, s, p) for s in strata)
                pieces.setdefault((p + q, mod.motivic_weight), []).append(((p, q), dim))
    return tuple(
        CohomologyEntry(
            m=SIEGEL,
            n_classical=n,
            weight=w,
            rank_lower=sum(d for _, d in contribs),
            rank_upper=sum(d for _, d in contribs),
            origin=tuple(pq for pq, _ in contribs),
            provenance="paper" if n <= 2 else "derived",
            n_perverse=None if r is None else n + r,
        )
        for (n, w), contribs in sorted(pieces.items())
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lam=wide_weights(), strata=st.lists(strata_data(), min_size=1, max_size=6))
@example(lam=make_weight(0, 0, 0), strata=[P03])
@example(lam=make_weight(2, 2, 4), strata=[P03, StratumDatum(1, 1)])
def test_siegel_entries_match_the_merging_builder(lam, strata):
    # the Siegel weights rise strictly in q, so no two (p, q) pieces share a
    # degree and a weight, and one entry per piece in degree order, (1, n - 1)
    # before (0, n), is what merging and sorting produce
    modules = _modules(lam, SIEGEL, 4)
    weights = [mod.motivic_weight for mod in modules]
    gaps = [b - a for a, b in zip(weights, weights[1:])]
    assert gaps == [2 * lam.k2 + 2, 2 * (lam.k1 - lam.k2) + 2, 2 * lam.k2 + 2]  # all >= 2
    strata = tuple(strata)
    for mods, top, r in ((modules, 4, None), (modules[:2], 1, lam.r)):
        entries = _entries(SIEGEL, mods, summed_table(mods, strata)[: 2 * top + 1], r)
        assert entries == merging_siegel_entries(mods, strata, top, r)
        assert all(len(e.origin) == 1 for e in entries)


def klingen_table(lam):
    """The four Klingen Kostant modules and their Levi dimensions, the ranks of
    a curve stratum's pieces."""
    modules = _modules(lam, KLINGEN, 4)
    return modules, [mod.levi_dim for mod in modules]


def reference_klingen_entries(modules, r=None):
    """The curve-stratum rule as its own builder stated it: entry q is the
    degree-q Kostant module in degree q, of rank its Levi dimension, "paper" for
    q <= 1; given r, n_perverse = q + r + 1 and the weight rises by one."""
    return tuple(
        CohomologyEntry(
            m=KLINGEN,
            n_classical=mod.q,
            weight=mod.motivic_weight if r is None else mod.motivic_weight + 1,
            rank_lower=mod.levi_dim,
            rank_upper=mod.levi_dim,
            origin=((0, mod.q),),
            provenance="paper" if mod.q <= 1 else "derived",
            n_perverse=None if r is None else mod.q + r + 1,
        )
        for mod in modules
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lam=wide_weights())
@example(lam=make_weight(0, 0, 0))
@example(lam=make_weight(3, 1, 4))
def test_klingen_entries_match_the_reference_rule(lam):
    modules, dims = klingen_table(lam)
    for count, r in ((4, None), (2, lam.r)):  # the full profile, and what the truncation keeps
        entries = _entries(KLINGEN, modules, dims[:count], r)
        assert entries == reference_klingen_entries(modules[:count], r)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lam=wide_weights())
@example(lam=make_weight(0, 0, 0))
@example(lam=make_weight(2, 2, 4))
def test_perverse_normalization_shifts_degree_and_weight_by_the_stratum_dimension(lam):
    # on a stratum of dimension m, perverse degree n + r + m and weight + m
    # (Beilinson-Bernstein-Deligne); every other field is the classical one
    siegel = _modules(lam, SIEGEL, 4)
    tables = ((SIEGEL, siegel, summed_table(siegel, (P03,))), (KLINGEN, *klingen_table(lam)))
    for m, modules, ranks in tables:
        classical = _entries(m, modules, ranks)
        perverse = _entries(m, modules, ranks, lam.r)
        assert len(classical) == len(perverse) == len(ranks)
        for c, p in zip(classical, perverse):
            assert c.n_perverse is None
            assert p == c._replace(weight=c.weight + m, n_perverse=c.n_classical + lam.r + m)


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


def refused(build, error):
    try:
        build()
    except error:
        return True
    return False


def test_value_checks_survive_replace_and_copy():
    # namedtuple's _replace builds through _make, which bypasses __new__ and
    # so the checks unless _make is routed through the constructor
    s = StratumDatum(0, 3)
    entry = CohomologyEntry(0, 0, 0, 1, 1, (), "paper")
    results = {
        "replace stratum": refused(lambda: s._replace(c=1), InvalidStratum),
        "replace entry": refused(lambda: entry._replace(rank_lower=-1), PreconditionViolation),
        "pickle stratum": pickle.loads(pickle.dumps(s)) == s,
        "copy stratum": copy.copy(s) == s and type(copy.copy(s)) is StratumDatum,
        "pickle entry": pickle.loads(pickle.dumps(entry)) == entry,
    }
    assert all(results.values()), results


def test_entries_are_built_by_field_name_with_n_perverse_optional():
    fields = dict(m=0, n_classical=1, weight=2, rank_lower=1, rank_upper=3, origin=((1, 0),), provenance="paper")
    classical = CohomologyEntry(**fields)
    assert type(classical) is CohomologyEntry
    assert classical.n_perverse is None and tuple(classical) == (*fields.values(), None)
    perverse = CohomologyEntry(**fields, n_perverse=5)
    assert type(perverse) is CohomologyEntry and perverse == CohomologyEntry(*fields.values(), 5)
    assert type(intermediate_profile(REFERENCE, SIEGEL, [P03]).kernel_entry) is CohomologyEntry
    for missing in fields:
        with pytest.raises(TypeError):
            CohomologyEntry(**{name: v for name, v in fields.items() if name != missing})
    with pytest.raises(TypeError):
        CohomologyEntry(*fields.values(), 5, 6)


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


# --- the builders skip CohomologyEntry's checking constructor ----------------

@settings(derandomize=True, deadline=None, max_examples=100)
@given(lam=wide_weights(), strata=st.lists(strata_data(), min_size=1, max_size=4))
@example(lam=make_weight(0, 0, 0), strata=[P03])
def test_builder_entries_are_what_the_checked_constructor_builds(lam, strata):
    strata = tuple(strata)
    for r in (None, lam.r):
        modules = _modules(lam, SIEGEL, 4)
        entries = _entries(SIEGEL, modules, summed_table(modules, strata), r)
        entries += _entries(KLINGEN, *klingen_table(lam), r)
        for e in entries:
            assert type(e) is CohomologyEntry
            assert e == CohomologyEntry._make(e)


def test_builders_check_each_rank(monkeypatch):
    # the builders make entries with tuple.__new__, so their own rank check is
    # all that stands between a negative rank and the output
    monkeypatch.setattr(boundary, "group_cohomology_dims", lambda u, n, euler: (-1, -1))
    messages = []
    for build in (avoided_interval, analysis_report):
        with pytest.raises(PreconditionViolation) as err:
            build(make_weight(3, 1, 4), (StratumDatum(0, 3),))
        messages.append(str(err.value))
    assert messages == ["bad rank bounds [-1, -1]"] * 2
