"""The verify suites, and the weight grid and Kostant closed forms the tests share.

Each suite_* is a generator called as suite(rng, max_k1), rng a random.Random.
It checks its inputs once, then loops over the unchecked builders, and yields one
item per check: None when the check passes, else a JSON-ready dict naming the
failed check, built only then.  SUITES lists the suites in verify's order; verify
counts each suite's items and stops at the first counterexample.  Weights and
strata go in as they are; a type's field order is its JSON key order.
"""

from __future__ import annotations

from . import weyl
from .boundary import StratumDatum
from .intersection import (_avoided, _intermediate, _rank_inequality, _require_strata, analysis_report,
                           avoided_interval, intermediate_profile, rank_inequality_check)
from .kostant import (
    character,
    euler_check,
    freudenthal_character,
    nilpotent_cohomology,
    weyl_dimension,
)
from .root_data import KLINGEN, SIEGEL, WeightTriple, is_regular, k_invariant, make_weight


def dominant_grid(bound: int) -> list[WeightTriple]:
    """Every dominant pair with k1 <= bound at the parity-valid lift r = k1 + k2; all valid, so unchecked."""
    return [WeightTriple(k1, k2, k1 + k2) for k1 in range(bound + 1) for k2 in range(k1 + 1)]


def sample_dominant(rng, max_k1: int) -> WeightTriple:
    k1 = rng.randint(0, max_k1)
    k2 = rng.randint(0, k1)
    r = k1 + k2 + 2 * rng.randint(-5, 5)
    return make_weight(k1, k2, r)


def suite_dot_action(rng, max_k1: int):
    elems = weyl.all_elements()
    lengths = sorted(weyl.length(w) for w in elems)
    ok = lengths == [0, 1, 1, 2, 2, 3, 3, 4]
    yield None if ok else {"check": "length multiset", "got": lengths}
    sample = [sample_dominant(rng, max_k1 + 5) for _ in range(8)]
    products = [[weyl.compose(w, u) for u in elems] for w in elems]  # the same for every weight
    for lam in sample:
        moved = [weyl.dot(u, lam) for u in elems]  # u . lam, once per u
        for w, row in zip(elems, products):
            for u, u_lam, wu in zip(elems, moved, row):
                yield None if weyl.dot(w, u_lam) == weyl.dot(wu, lam) else {
                    "check": "dot action group law",
                    "lambda": lam,
                    "w": w.word(),
                    "u": u.word(),
                }
        ok = weyl.dot(weyl.IDENTITY, lam) == lam
        yield None if ok else {"check": "dot identity", "lambda": lam}


# Highest weights of the Kostant modules q = 0..3.
SIEGEL_TABLE = (
    lambda k1, k2, r: (k1, k2, r),
    lambda k1, k2, r: (k1, -k2 - 2, r),
    lambda k1, k2, r: (k2 - 1, -k1 - 3, r),
    lambda k1, k2, r: (-k2 - 3, -k1 - 3, r),
)
KLINGEN_TABLE = (
    lambda k1, k2, r: (k1, k2, r),
    lambda k1, k2, r: (k2 - 1, k1 + 1, r),
    lambda k1, k2, r: (-k2 - 3, k1 + 1, r),
    lambda k1, k2, r: (-k1 - 4, k2, r),
)


def suite_kostant_tables(rng, max_k1: int):
    for _ in range(50):
        lam = sample_dominant(rng, max_k1 + 20)
        for m, table in ((SIEGEL, SIEGEL_TABLE), (KLINGEN, KLINGEN_TABLE)):
            mods = nilpotent_cohomology(lam, m)
            for q, mod in enumerate(mods):
                expected = table[q](lam.k1, lam.k2, lam.r)
                yield None if mod.highest_weight == expected else {
                    "check": "kostant closed form",
                    "lambda": lam,
                    "m": m,
                    "q": q,
                    "expected": expected,
                    "actual": mod.highest_weight,
                }


def suite_euler(rng, max_k1: int):
    for lam in dominant_grid(max_k1):
        for m in (SIEGEL, KLINGEN):
            yield None if euler_check(lam, m) else {
                "check": "euler characteristic",
                "lambda": lam,
                "m": m,
            }


def suite_weight_formulas(rng, max_k1: int):
    strata = (StratumDatum(0, 3),)
    for _ in range(25):
        lam = sample_dominant(rng, max_k1 + 10)
        k1, k2, r = lam.k1, lam.k2, lam.r
        sieg = nilpotent_cohomology(lam, SIEGEL)
        klin = nilpotent_cohomology(lam, KLINGEN)
        expected = [
            (sieg[0].motivic_weight, r - k1 - k2),
            (sieg[1].motivic_weight, (r + 2) - (k1 - k2)),
            (klin[0].motivic_weight, r - k1),
            (klin[1].motivic_weight, (r + 1) - k2),
        ]
        profile = intermediate_profile(lam, KLINGEN, strata)
        for e in profile.entries:
            if e.n_perverse == r + 1:
                expected.append((e.weight, (r + 1) - k1))
            if e.n_perverse == r + 2:
                expected.append((e.weight, (r + 2) - k2))
        for got, want in expected:
            yield None if got == want else {
                "check": "weight closed form",
                "lambda": lam,
                "got": got,
                "want": want,
            }


def suite_stratum_profiles(rng, max_k1: int):
    strata = [StratumDatum(0, 3), StratumDatum(1, 1), StratumDatum(2, 5)]
    point_sums = [(s, _require_strata((s,))[1]) for s in strata]  # each stratum checked and summed once
    curve_sums = _require_strata(strata)[1]
    for lam in filter(is_regular, dominant_grid(max_k1)):
        k1, k2, r = lam.k1, lam.k2, lam.r
        curve = _intermediate(lam, KLINGEN, *curve_sums).all_entries()  # the same for every stratum
        for s, sums in point_sums:
            for m, bound_gap in ((SIEGEL, k1 - k2), (KLINGEN, k2)):
                entries = _intermediate(lam, SIEGEL, *sums).all_entries() if m == SIEGEL else curve
                top = [e for e in entries if e.n_perverse == r + 2]
                want_top = (r + 2) - bound_gap
                if not any(e.nonzero is True for e in top):  # one check with the next
                    yield {
                        "check": "top perverse degree nonzero",
                        "lambda": lam,
                        "m": m,
                        "stratum": s._asdict(),
                    }
                else:
                    yield None if {e.weight for e in top} == {want_top} else {
                        "check": "top perverse weight",
                        "lambda": lam,
                        "m": m,
                        "got": sorted(e.weight for e in top),
                        "want": want_top,
                    }
                for e in entries:
                    ok = e.nonzero is not True or e.weight <= e.n_perverse - bound_gap
                    yield None if ok else {
                        "check": "weight bound below top degree",
                        "lambda": lam,
                        "m": m,
                        "entry_degree": e.n_perverse,
                        "weight": e.weight,
                    }


def suite_rank_inequality(rng, max_k1: int):
    strata = [StratumDatum(g, c) for g in range(6) for c in range(1, 21) if not (g == 0 and c < 3)]
    for lam in dominant_grid(max_k1)[1:]:  # k1 >= 1: the grid's one weight of k1 = 0 comes first
        rank_inequality_check(lam, strata[0])  # checks lam, once; the predicate below checks nothing
        for s in strata:
            yield None if _rank_inequality(lam, s) else {
                "check": "rank inequality",
                "lambda": lam,
                "stratum": s._asdict(),
            }


def suite_avoided_interval(rng, max_k1: int):
    sums_a = _require_strata((StratumDatum(0, 3),))[1]  # each strata set checked and summed once
    sums_b = _require_strata((StratumDatum(1, 1), StratumDatum(2, 5)))[1]
    for lam in dominant_grid(max_k1):
        ka, _ = _avoided(lam, *sums_a)
        kb, _ = _avoided(lam, *sums_b)
        closed = k_invariant(lam)
        for k in (ka, kb):  # one check per strata set
            yield None if k == closed else {
                "check": "avoided interval closed form / level independence",
                "lambda": lam,
                "got": [ka, kb],
                "want": closed,
            }


def suite_reference_rows(rng, max_k1: int):
    """Frozen reference profile at lambda = (3, 1, 4) over (g, c) = (0, 3)."""
    lam = make_weight(3, 1, 4)
    s = StratumDatum(0, 3)

    point = intermediate_profile(lam, SIEGEL, (s,))
    got_rows = [
        (e.n_perverse, e.weight, e.rank_lower, e.rank_upper, e.nonzero)
        for e in point.entries
    ]
    want_rows = [(4, 0, 0, 0, False), (5, 0, 3, 3, True), (5, 4, 0, 0, False)]
    report = analysis_report(lam, (s,))
    boundary = report.boundary[SIEGEL][0][1], report.boundary[KLINGEN]
    got_tags = [[e.provenance for e in es] for es in boundary]  # "paper": the printed degrees, n + m <= 2
    want_tags = [["paper"] * 5 + ["derived"] * 3, ["paper"] * 2 + ["derived"] * 2]
    got_bd = [[(e.n_classical, e.weight, e.rank_lower, e.origin) for e in es] for es in boundary]
    want_bd = [[(0, 0, 0, ((0, 0),)), (1, 0, 3, ((1, 0),)), (1, 4, 0, ((0, 1),)), (2, 4, 7, ((1, 1),)),
                (2, 10, 0, ((0, 2),)), (3, 10, 7, ((1, 2),)), (3, 14, 0, ((0, 3),)), (4, 14, 3, ((1, 3),))],
               [(q, w, rank, ((0, q),)) for q, w, rank in ((0, 1, 2), (1, 4, 5), (2, 8, 5), (3, 11, 2))]]
    k = min(lam.k1 - lam.k2, lam.k2)
    got_scalars = [report.k, report.avoided_interval, report.occurring_weights,
                   report.in_avoidance_category, report.duality_twist]
    want_scalars = [k, (1 - k, k), (-k, k + 1), k >= 1, lam.r + 3]
    parts = (("point stratum rows", got_rows, want_rows), ("boundary provenance", got_tags, want_tags),
             ("boundary rows", got_bd, want_bd), ("report scalars", got_scalars, want_scalars),
             ("public avoided_interval", list(avoided_interval(lam, (s,))), [report.k, report.witnesses]))
    yield next(({"check": c, "got": g, "want": w} for c, g, w in parts if g != w), None)  # one item for all
    got, want = list(point.kernel_entry), [0, 2, 4, 4, 7, ((1, 1),), "paper", 6]  # every field, in order
    yield None if got == want else {"check": "kernel entry", "got": got, "want": want}

    curve = intermediate_profile(lam, KLINGEN, (s,))
    got_rows = [(e.n_perverse, e.weight, e.rank_lower, e.provenance) for e in curve.entries]
    ok = got_rows == [(5, 2, 2, "paper"), (6, 5, 5, "paper")]
    yield None if ok else {"check": "curve stratum rows", "got": got_rows}

    strata = (StratumDatum(1, 1), StratumDatum(2, 5))
    wall = intermediate_profile(make_weight(2, 2, 4), SIEGEL, strata)  # q = 0 has u = 0 here
    (h0, h1, _), kernel = [e.rank_lower for e in wall.entries], wall.kernel_entry
    got = [kernel.n_perverse, kernel.weight, kernel.rank_lower, h0, h0 - h1]
    want = [6, 6, 50, len(strata), sum(2 - 2 * g - c for g, c in strata)]  # n, Euler characteristic
    yield None if got == want else {"check": "wall-weight kernel", "got": got, "want": want}


def suite_dimension_oracle(rng, max_k1: int):
    for lam in dominant_grid(min(max_k1, 4)):
        ch = character(lam)
        fr = freudenthal_character(lam)
        ok = ch == fr and ch.mass() == weyl_dimension(lam)
        yield None if ok else {
            "check": "character oracle agreement",
            "lambda": lam,
            "division_mass": ch.mass(),
            "freudenthal_mass": fr.mass(),
            "weyl_dimension": weyl_dimension(lam),
        }


# The verify suites in the order verify runs them; the names are its output.
SUITES = (
    ("dot_action_laws", suite_dot_action),
    ("kostant_tables", suite_kostant_tables),
    ("euler_characteristic", suite_euler),
    ("weight_formulas", suite_weight_formulas),
    ("stratum_profiles", suite_stratum_profiles),
    ("reference_rows", suite_reference_rows),
    ("rank_inequality", suite_rank_inequality),
    ("avoided_interval", suite_avoided_interval),
    ("dimension_oracle", suite_dimension_oracle),
)
