"""Command line interface: analyze, sweep, verify.

All output is deterministic: JSON is emitted with a fixed key order and
2-space indentation, tables are fixed-width.  Exit codes: 0 success, 1 a
verification suite found a counterexample, 2 invalid input (reported as a
one-line JSON object {"error": ..., "message": ...} on stdout).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import weyl
from .boundary import CohomologyEntry, StratumDatum
from .errors import SiegelWeightsError, PreconditionViolation
from .intersection import (
    AnalysisReport,
    analysis_report,
    avoided_interval,
    intermediate_profile,
    rank_inequality_check,
)
from .kostant import (
    LeviModule,
    character,
    euler_check,
    freudenthal_character,
    nilpotent_cohomology,
    weyl_dimension,
)
from .root_data import KLINGEN, SIEGEL, WeightTriple, k_invariant, make_weight

DEFAULT_STRATUM = (0, 3)
MAX_SWEEP_BOUND = 200
MAX_VERIFY_BOUND = 40


def _parse_stratum(text: str) -> StratumDatum:
    parts = text.split(",")
    if len(parts) != 2:
        raise PreconditionViolation(f"stratum must be 'g,c', got {text!r}")
    try:
        g, c = int(parts[0]), int(parts[1])
    except ValueError:
        raise PreconditionViolation(f"stratum must be two integers 'g,c', got {text!r}")
    return StratumDatum(g=g, c=c)


def _strata_from_args(args) -> tuple[StratumDatum, ...]:
    if not args.stratum:
        return (StratumDatum(*DEFAULT_STRATUM),)
    return tuple(_parse_stratum(s) for s in args.stratum)


# ---------------------------------------------------------------------------
# JSON serialization (lists/dicts/ints/bools/strings/None only)

def _weight_json(lam: WeightTriple) -> list[int]:
    return [lam.k1, lam.k2, lam.r]


def _stratum_json(s: StratumDatum) -> dict:
    return {"g": s.g, "c": s.c}


def _module_json(mod: LeviModule) -> dict:
    return {
        "m": mod.m,
        "q": mod.q,
        "highest_weight": _weight_json(mod.highest_weight),
        "levi_dim": mod.levi_dim,
        "restriction_weight": mod.restriction_weight,
        "motivic_weight": mod.motivic_weight,
    }


def _entry_json(e: CohomologyEntry, witnesses=()) -> dict:
    out = {
        "m": e.m,
        "n_classical": e.n_classical,
        "n_perverse": e.n_perverse,
        "weight": e.weight,
        "rank_lower": e.rank_lower,
        "rank_upper": e.rank_upper,
        "nonzero": e.nonzero,
        "origin": [list(pq) for pq in e.origin],
        "provenance": e.provenance,
    }
    if witnesses:
        out["witness"] = e in witnesses
    return out


def report_json(report: AnalysisReport) -> dict:
    """JSON-ready dict with the fixed top-level key order."""
    wit = report.witnesses
    inter = {}
    for name, m in (("siegel", SIEGEL), ("klingen", KLINGEN)):
        profile = report.intermediate[m]
        inter[name] = {
            "entries": [_entry_json(e, wit) for e in profile.entries],
            "kernel": _entry_json(profile.kernel_entry, wit)
            if profile.kernel_entry is not None
            else None,
        }
    return {
        "lambda": _weight_json(report.lam),
        "k": report.k,
        "avoided_interval": list(report.avoided_interval) if report.avoided_interval else [],
        "occurring_weights": list(report.occurring_weights)
        if report.occurring_weights
        else None,
        "regular": report.regular,
        "in_avoidance_category": report.in_avoidance_category,
        "duality_twist": report.duality_twist,
        "kostant": {
            "siegel": [_module_json(mod) for mod in report.kostant[SIEGEL]],
            "klingen": [_module_json(mod) for mod in report.kostant[KLINGEN]],
        },
        "boundary": {
            "siegel": [
                {"stratum": _stratum_json(s), "entries": [_entry_json(e) for e in entries]}
                for s, entries in report.boundary[SIEGEL]
            ],
            "klingen": {"entries": [_entry_json(e) for e in report.boundary[KLINGEN]]},
        },
        "intermediate": inter,
        "strata": [_stratum_json(s) for s in report.strata],
    }


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)


# ---------------------------------------------------------------------------
# analyze

_ENTRY_HEADER = f"{'sec':<9} {'m':>2} {'n':>3} {'npv':>4} {'weight':>7} {'rk_lo':>6} {'rk_hi':>6} {'nonzero':>8} {'origin':<12} {'prov':<8}"


def _entry_row(section: str, e: CohomologyEntry) -> str:
    npv = "-" if e.n_perverse is None else str(e.n_perverse)
    origin = ";".join(f"{p}{q}" for p, q in e.origin)
    return (
        f"{section:<9} {e.m:>2} {e.n_classical:>3} {npv:>4} {e.weight:>7} "
        f"{e.rank_lower:>6} {e.rank_upper:>6} {str(e.nonzero):>8} {origin:<12} {e.provenance:<8}"
    )


def _report_table(report: AnalysisReport) -> str:
    lines = []
    lam = report.lam
    lines.append(f"lambda = ({lam.k1}, {lam.k2}, {lam.r})   k = {report.k}")
    iv = report.avoided_interval
    lines.append(f"avoided_interval = {'[] (empty)' if iv is None else f'[{iv[0]}, {iv[1]}]'}")
    ow = report.occurring_weights
    lines.append(
        "occurring_weights = "
        + ("undetermined" if ow is None else f"{ow[0]} and {ow[1]} (upper by duality)")
    )
    lines.append(
        f"regular = {report.regular}   in_avoidance_category = {report.in_avoidance_category}"
        f"   duality_twist = {report.duality_twist}"
    )
    lines.append(f"strata = {', '.join(f'(g={s.g}, c={s.c})' for s in report.strata)}")
    lines.append("")
    lines.append(f"{'sec':<9} {'m':>2} {'q':>3} {'highest_weight':<16} {'dim':>5} {'restr':>6} {'motw':>6}")
    for name, m in (("siegel", SIEGEL), ("klingen", KLINGEN)):
        for mod in report.kostant[m]:
            hw = mod.highest_weight
            lines.append(
                f"{'kostant':<9} {m:>2} {mod.q:>3} {f'({hw.k1}, {hw.k2}, {hw.r})':<16} "
                f"{mod.levi_dim:>5} {mod.restriction_weight:>6} {mod.motivic_weight:>6}"
            )
    lines.append("")
    lines.append(_ENTRY_HEADER)
    for s, entries in report.boundary[SIEGEL]:
        for e in entries:
            lines.append(_entry_row(f"bd(g{s.g}c{s.c})", e))
    for e in report.boundary[KLINGEN]:
        lines.append(_entry_row("bd", e))
    for m in (SIEGEL, KLINGEN):
        profile = report.intermediate[m]
        for e in profile.all_entries():
            mark = "ic*" if e in report.witnesses else "ic"
            lines.append(_entry_row(mark, e))
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    lam = make_weight(args.k1, args.k2, args.r)
    strata = _strata_from_args(args)
    report = analysis_report(lam, strata)
    if args.format == "json":
        print(_dump(report_json(report)))
    else:
        print(_report_table(report))
    return 0


# ---------------------------------------------------------------------------
# sweep

def _dominant_grid(bound: int) -> list[WeightTriple]:
    """Every dominant pair with k1 <= bound, at the parity-valid lift r = k1 + k2."""
    return [make_weight(k1, k2, k1 + k2) for k1 in range(bound + 1) for k2 in range(k1 + 1)]


def _cmd_sweep(args) -> int:
    bound = args.max_k1
    if bound < 0 or bound > MAX_SWEEP_BOUND:
        raise PreconditionViolation(f"sweep bound must satisfy 0 <= bound <= {MAX_SWEEP_BOUND}")
    strata = _strata_from_args(args)
    rows = [
        (lam.k1, lam.k2, lam.r, avoided_interval(lam, strata)[0], k_invariant(lam))
        for lam in _dominant_grid(bound)
    ]
    if args.format == "json":
        payload = {
            "bound": bound,
            "strata": [_stratum_json(s) for s in strata],
            "rows": [
                {
                    "lambda": [k1, k2, r],
                    "k": k,
                    "closed_form": closed,
                    "agree": k == closed,
                }
                for k1, k2, r, k, closed in rows
            ],
        }
        print(_dump(payload))
    else:
        print(f"{'k1':>4} {'k2':>4} {'r':>6} {'k':>4} {'closed':>7} {'agree':>6}")
        for k1, k2, r, k, closed in rows:
            agree = "yes" if k == closed else "no"
            print(f"{k1:>4} {k2:>4} {r:>6} {k:>4} {closed:>7} {agree:>6}")
    return 0


# ---------------------------------------------------------------------------
# verify

def _sample_dominant(rng: random.Random, max_k1: int) -> WeightTriple:
    k1 = rng.randint(0, max_k1)
    k2 = rng.randint(0, k1)
    r = k1 + k2 + 2 * rng.randint(-5, 5)
    return make_weight(k1, k2, r)


def _suite_dot_action(rng: random.Random, max_k1: int):
    elems = weyl.all_elements()
    lengths = sorted(weyl.length(w) for w in elems)
    if lengths != [0, 1, 1, 2, 2, 3, 3, 4]:
        return 1, {"check": "length multiset", "got": lengths}
    checks = 1
    sample = [_sample_dominant(rng, max_k1 + 5) for _ in range(8)]
    for lam in sample:
        for w in elems:
            for u in elems:
                lhs = weyl.dot(w, weyl.dot(u, lam))
                rhs = weyl.dot(weyl.compose(w, u), lam)
                checks += 1
                if lhs != rhs:
                    return checks, {
                        "check": "dot action group law",
                        "lambda": _weight_json(lam),
                        "w": w.word(),
                        "u": u.word(),
                    }
        if weyl.dot(weyl.IDENTITY, lam) != lam:
            return checks, {"check": "dot identity", "lambda": _weight_json(lam)}
        checks += 1
    return checks, None


_SIEGEL_TABLE = (
    lambda k1, k2, r: (k1, k2, r),
    lambda k1, k2, r: (k1, -k2 - 2, r),
    lambda k1, k2, r: (k2 - 1, -k1 - 3, r),
    lambda k1, k2, r: (-k2 - 3, -k1 - 3, r),
)
_KLINGEN_TABLE = (
    lambda k1, k2, r: (k1, k2, r),
    lambda k1, k2, r: (k2 - 1, k1 + 1, r),
    lambda k1, k2, r: (-k2 - 3, k1 + 1, r),
    lambda k1, k2, r: (-k1 - 4, k2, r),
)


def _suite_kostant_tables(rng: random.Random, max_k1: int):
    checks = 0
    for _ in range(50):
        lam = _sample_dominant(rng, max_k1 + 20)
        for m, table in ((SIEGEL, _SIEGEL_TABLE), (KLINGEN, _KLINGEN_TABLE)):
            mods = nilpotent_cohomology(lam, m)
            for q, mod in enumerate(mods):
                expected = table[q](lam.k1, lam.k2, lam.r)
                hw = mod.highest_weight
                checks += 1
                if (hw.k1, hw.k2, hw.r) != expected:
                    return checks, {
                        "check": "kostant closed form",
                        "lambda": _weight_json(lam),
                        "m": m,
                        "q": q,
                        "expected": list(expected),
                        "actual": _weight_json(hw),
                    }
    return checks, None


def _suite_euler(max_k1: int):
    grid = [(lam, m) for lam in _dominant_grid(max_k1) for m in (SIEGEL, KLINGEN)]
    for lam, m in grid:
        if not euler_check(lam, m):
            return len(grid), {
                "check": "euler characteristic",
                "lambda": _weight_json(lam),
                "m": m,
            }
    return len(grid), None


def _suite_weight_formulas(rng: random.Random, max_k1: int):
    checks = 0
    strata = (StratumDatum(0, 3),)
    for _ in range(25):
        lam = _sample_dominant(rng, max_k1 + 10)
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
            checks += 1
            if got != want:
                return checks, {
                    "check": "weight closed form",
                    "lambda": _weight_json(lam),
                    "got": got,
                    "want": want,
                }
    return checks, None


def _suite_stratum_profiles(max_k1: int):
    strata = [StratumDatum(0, 3), StratumDatum(1, 1), StratumDatum(2, 5)]
    checks = 0
    for lam in _dominant_grid(max_k1):
        if not (lam.k1 > lam.k2 > 0):
            continue
        k1, k2, r = lam.k1, lam.k2, lam.r
        curve = intermediate_profile(lam, KLINGEN, strata)  # the same for every stratum
        for s in strata:
            for m, bound_gap in ((SIEGEL, k1 - k2), (KLINGEN, k2)):
                profile = intermediate_profile(lam, SIEGEL, (s,)) if m == SIEGEL else curve
                top = [e for e in profile.all_entries() if e.n_perverse == r + 2]
                checks += 1
                if not any(e.nonzero is True for e in top):
                    return checks, {
                        "check": "top perverse degree nonzero",
                        "lambda": _weight_json(lam),
                        "m": m,
                        "stratum": _stratum_json(s),
                    }
                want_top = (r + 2) - bound_gap
                if {e.weight for e in top} != {want_top}:
                    return checks, {
                        "check": "top perverse weight",
                        "lambda": _weight_json(lam),
                        "m": m,
                        "got": sorted(e.weight for e in top),
                        "want": want_top,
                    }
                for e in profile.all_entries():
                    checks += 1
                    if e.nonzero is True and e.weight > e.n_perverse - bound_gap:
                        return checks, {
                            "check": "weight bound below top degree",
                            "lambda": _weight_json(lam),
                            "m": m,
                            "entry_degree": e.n_perverse,
                            "weight": e.weight,
                        }
    return checks, None


def _suite_rank_inequality(max_k1: int):
    checks = 0
    strata = [
        StratumDatum(g, c)
        for g in range(0, 6)
        for c in range(1, 21)
        if not (g == 0 and c < 3)
    ]
    for lam in _dominant_grid(max_k1):
        if lam.k1 < 1:
            continue
        for s in strata:
            checks += 1
            if not rank_inequality_check(lam, s):
                return checks, {
                    "check": "rank inequality",
                    "lambda": _weight_json(lam),
                    "stratum": _stratum_json(s),
                }
    return checks, None


def _suite_avoided_interval(max_k1: int):
    strata_a = (StratumDatum(0, 3),)
    strata_b = (StratumDatum(1, 1), StratumDatum(2, 5))
    checks = 0
    for lam in _dominant_grid(max_k1):
        ka, _ = avoided_interval(lam, strata_a)
        kb, _ = avoided_interval(lam, strata_b)
        closed = k_invariant(lam)
        checks += 2
        if ka != closed or kb != closed:
            return checks, {
                "check": "avoided interval closed form / level independence",
                "lambda": _weight_json(lam),
                "got": [ka, kb],
                "want": closed,
            }
    return checks, None


def _suite_reference_rows():
    """Frozen reference profile at lambda = (3, 1, 4) over (g, c) = (0, 3)."""
    lam = make_weight(3, 1, 4)
    s = StratumDatum(0, 3)
    checks = 0

    point = intermediate_profile(lam, SIEGEL, (s,))
    got_rows = [
        (e.n_perverse, e.weight, e.rank_lower, e.rank_upper, e.nonzero)
        for e in point.entries
    ]
    want_rows = [(4, 0, 0, 0, False), (5, 0, 3, 3, True), (5, 4, 0, 0, False)]
    checks += 1
    if got_rows != want_rows:
        return checks, {"check": "point stratum rows", "got": got_rows, "want": want_rows}
    kernel = point.kernel_entry
    checks += 1
    if (kernel.n_perverse, kernel.weight, kernel.rank_lower, kernel.rank_upper) != (6, 4, 4, 7):
        return checks, {
            "check": "kernel entry",
            "got": [kernel.n_perverse, kernel.weight, kernel.rank_lower, kernel.rank_upper],
            "want": [6, 4, 4, 7],
        }

    curve = intermediate_profile(lam, KLINGEN, (s,))
    got_rows = [(e.n_perverse, e.weight, e.rank_lower) for e in curve.entries]
    checks += 1
    if got_rows != [(5, 2, 2), (6, 5, 5)]:
        return checks, {"check": "curve stratum rows", "got": got_rows}

    wall = intermediate_profile(make_weight(2, 2, 4), SIEGEL, (s,)).kernel_entry
    checks += 1
    if (wall.n_perverse, wall.weight, wall.rank_lower) != (6, 6, 4):
        return checks, {
            "check": "wall-weight kernel",
            "got": [wall.n_perverse, wall.weight, wall.rank_lower],
        }
    return checks, None


def _suite_dimension_oracle(max_k1: int):
    checks = 0
    for lam in _dominant_grid(min(max_k1, 4)):
        ch = character(lam)
        fr = freudenthal_character(lam)
        checks += 1
        if ch != fr or ch.mass() != weyl_dimension(lam):
            return checks, {
                "check": "character oracle agreement",
                "lambda": _weight_json(lam),
                "division_mass": ch.mass(),
                "freudenthal_mass": fr.mass(),
                "weyl_dimension": weyl_dimension(lam),
            }
    return checks, None


def _cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    max_k1 = args.max_k1
    if max_k1 < 0 or max_k1 > MAX_VERIFY_BOUND:
        raise PreconditionViolation(f"--max-k1 must satisfy 0 <= bound <= {MAX_VERIFY_BOUND}")
    suites = [
        ("dot_action_laws", lambda: _suite_dot_action(rng, max_k1)),
        ("kostant_tables", lambda: _suite_kostant_tables(rng, max_k1)),
        ("euler_characteristic", lambda: _suite_euler(max_k1)),
        ("weight_formulas", lambda: _suite_weight_formulas(rng, max_k1)),
        ("stratum_profiles", lambda: _suite_stratum_profiles(max_k1)),
        ("reference_rows", _suite_reference_rows),
        ("rank_inequality", lambda: _suite_rank_inequality(max_k1)),
        ("avoided_interval", lambda: _suite_avoided_interval(max_k1)),
        ("dimension_oracle", lambda: _suite_dimension_oracle(max_k1)),
    ]
    failed = False
    for name, run in suites:
        checks, counterexample = run()
        if counterexample is None:
            print(f"ok   {name} ({checks} checks)")
        else:
            failed = True
            print(f"FAIL {name}: {json.dumps(counterexample, sort_keys=False)}")
            break
    return 1 if failed else 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise PreconditionViolation(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="siegel-weights",
        description="Exact boundary weight profiles for degree-two Siegel modular threefolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full weight analysis of one highest weight")
    p_an.add_argument("--k1", type=int, required=True)
    p_an.add_argument("--k2", type=int, required=True)
    p_an.add_argument("--r", type=int, required=True)
    p_an.add_argument("--stratum", action="append", metavar="G,C", help="repeatable; default 0,3")
    p_an.add_argument("--format", choices=("json", "table"), default="json")
    p_an.set_defaults(fn=_cmd_analyze)

    p_sw = sub.add_parser("sweep", help="avoided-interval table over all dominant weights")
    p_sw.add_argument("--max-k1", type=int, required=True, metavar="BOUND")
    p_sw.add_argument("--stratum", action="append", metavar="G,C")
    p_sw.add_argument("--format", choices=("json", "table"), default="table")
    p_sw.set_defaults(fn=_cmd_sweep)

    p_ve = sub.add_parser("verify", help="run the self-verification suites")
    p_ve.add_argument("--max-k1", type=int, default=6)
    p_ve.add_argument("--seed", type=int, default=0)
    p_ve.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except SiegelWeightsError as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
