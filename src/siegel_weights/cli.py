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

from . import checks as verification
from .boundary import CohomologyEntry, StratumDatum
from .checks import dominant_grid, stratum_json, weight_json
from .errors import SiegelWeightsError, PreconditionViolation
from .intersection import AnalysisReport, analysis_report, avoided_interval
from .kostant import LeviModule
from .root_data import KLINGEN, SIEGEL, k_invariant, make_weight

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

def _module_json(mod: LeviModule) -> dict:
    return {
        "m": mod.m,
        "q": mod.q,
        "highest_weight": weight_json(mod.highest_weight),
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
        "lambda": weight_json(report.lam),
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
                {"stratum": stratum_json(s), "entries": [_entry_json(e) for e in entries]}
                for s, entries in report.boundary[SIEGEL]
            ],
            "klingen": {"entries": [_entry_json(e) for e in report.boundary[KLINGEN]]},
        },
        "intermediate": inter,
        "strata": [stratum_json(s) for s in report.strata],
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

def _cmd_sweep(args) -> int:
    bound = args.max_k1
    if bound < 0 or bound > MAX_SWEEP_BOUND:
        raise PreconditionViolation(f"sweep bound must satisfy 0 <= bound <= {MAX_SWEEP_BOUND}")
    strata = _strata_from_args(args)
    rows = [
        (lam.k1, lam.k2, lam.r, avoided_interval(lam, strata)[0], k_invariant(lam))
        for lam in dominant_grid(bound)
    ]
    if args.format == "json":
        payload = {
            "bound": bound,
            "strata": [stratum_json(s) for s in strata],
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

def _cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    max_k1 = args.max_k1
    if max_k1 < 0 or max_k1 > MAX_VERIFY_BOUND:
        raise PreconditionViolation(f"--max-k1 must satisfy 0 <= bound <= {MAX_VERIFY_BOUND}")
    suites = [
        ("dot_action_laws", lambda: verification.suite_dot_action(rng, max_k1)),
        ("kostant_tables", lambda: verification.suite_kostant_tables(rng, max_k1)),
        ("euler_characteristic", lambda: verification.suite_euler(max_k1)),
        ("weight_formulas", lambda: verification.suite_weight_formulas(rng, max_k1)),
        ("stratum_profiles", lambda: verification.suite_stratum_profiles(max_k1)),
        ("reference_rows", verification.suite_reference_rows),
        ("rank_inequality", lambda: verification.suite_rank_inequality(max_k1)),
        ("avoided_interval", lambda: verification.suite_avoided_interval(max_k1)),
        ("dimension_oracle", lambda: verification.suite_dimension_oracle(max_k1)),
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
