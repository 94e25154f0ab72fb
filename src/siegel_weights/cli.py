"""Command line interface: analyze, sweep, verify.

All output is deterministic: JSON is emitted with a fixed key order and
2-space indentation, tables are fixed-width.  Exit codes: 0 success, 1 a
verification suite found a counterexample, 2 invalid input (reported as a
one-line JSON object {"error": ..., "message": ...} on stdout).

Indented JSON comes from `_dump`, byte-identical to `json.dumps(obj, indent=2)`:
with `indent` set, CPython skips its C encoder for much slower Python generators.
Weights and strata go out as they are; a type's field order is its JSON key order.
`_ENTRY_KEYS` alone orders an entry's keys; `main` builds the parser once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import checks as verification
from .boundary import CohomologyEntry, StratumDatum
from .checks import dominant_grid
from .errors import SiegelWeightsError, PreconditionViolation
from .intersection import AnalysisReport, analysis_report, avoided_interval
from .root_data import KLINGEN, SIEGEL, k_invariant, make_weight

DEFAULT_STRATUM = (0, 3)
_PARABOLICS = (("siegel", SIEGEL), ("klingen", KLINGEN))
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
# JSON serialization (dicts/lists/tuples/ints/bools/strings/None only)

class _Witnessed(tuple):
    """(entry, is_witness): an intermediate profile entry, written with a "witness" key."""


def report_json(report: AnalysisReport) -> dict:
    """The report for `_dump` in the fixed key order; `json.dumps` would write entries as arrays."""
    wit = report.witnesses
    return {
        "lambda": report.lam,
        "k": report.k,
        "avoided_interval": report.avoided_interval or (),
        "occurring_weights": report.occurring_weights,
        "regular": report.regular,
        "in_avoidance_category": report.in_avoidance_category,
        "duality_twist": report.duality_twist,
        "kostant": {name: [x._asdict() for x in report.kostant[m]] for name, m in _PARABOLICS},
        "boundary": {
            "siegel": [{"stratum": s._asdict(), "entries": es} for s, es in report.boundary[SIEGEL]],
            "klingen": {"entries": report.boundary[KLINGEN]},
        },
        "intermediate": {
            name: {
                "entries": [_Witnessed((e, e in wit)) for e in profile.entries],
                "kernel": _Witnessed((k, k in wit)) if (k := profile.kernel_entry) else None,
            }
            for name, m in _PARABOLICS
            for profile in [report.intermediate[m]]
        },
        "strata": [s._asdict() for s in report.strata],
    }


_ESCAPE = json.encoder.encode_basestring_ascii
_FLAGS = {True: "true", False: "false", "unknown": '"unknown"'}  # bools, and an entry's nonzero
_SCALARS = {str: _ESCAPE, int: int.__repr__, bool: _FLAGS.get, type(None): lambda _: "null"}


def _dump(obj, nl: str = "\n") -> str:
    """json.dumps(obj, indent=2) of dicts, lists, tuples, str, int, bool, None; nl as in _write."""
    out: list[str] = []
    _write(obj, nl, out)
    return "".join(out)


def _write(v, nl: str, out: list[str]) -> None:
    """Append v to out, its scalar items inline; nl is the newline and indent of v's last line."""
    kind = type(v)
    if kind is CohomologyEntry:
        out.append(_entry_text(nl, v))
    elif kind is _Witnessed:
        out.append(_entry_text(nl, *v))
    elif kind in _SCALARS:
        out.append(_SCALARS[kind](v))
    elif kind is dict:
        inner = nl + "  "
        sep = "{" + inner
        for key, item in v.items():
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            scalar = _SCALARS.get(type(item))
            out.append(sep + _ESCAPE(key) + ": " + (scalar(item) if scalar else ""))
            if scalar is None:
                _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "}" if v else "{}")
    elif kind is list or isinstance(v, tuple):
        inner = nl + "  "
        sep = "[" + inner
        for item in v:
            scalar = _SCALARS.get(type(item))
            out.append(sep + (scalar(item) if scalar else ""))
            if scalar is None:
                _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]" if v else "[]")
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")


_ENTRY_KEYS = ("m", "n_classical", "n_perverse", "weight", "rank_lower", "rank_upper",
               "nonzero", "origin", "provenance", "witness")
_origin_text = functools.cache(_dump)  # keyed by value, and True == 1: give it exact ints only


@functools.cache  # a dict of the first size `_ENTRY_KEYS` as `_write` writes it, values `%s`
def _entry_template(nl: str, size: int) -> str:
    return "{" + ",".join(f'{nl}  "{key}": %s' for key in _ENTRY_KEYS[:size]) + nl + "}"


def _entry_text(nl: str, e: CohomologyEntry, *witness: bool) -> str:
    """`_write` of e as a dict keyed by `_ENTRY_KEYS`, "witness" if given; only ints as numbers."""
    m, n, weight, lo, hi, origin, provenance, npv = e
    npv_type = int if npv is None else type(npv)
    if not int is type(m) is type(n) is type(weight) is type(lo) is type(hi) is npv_type:
        raise TypeError(f"profile entry numbers must be ints, got {e!r}")
    for p, q in origin:
        if not int is type(p) is type(q):
            raise TypeError(f"origin must hold pairs of ints, got {origin!r}")
    values = (m, n, "null" if npv is None else npv, weight, lo, hi, _FLAGS[e.nonzero],
              _origin_text(origin, nl + "  "), _ESCAPE(provenance), *map(_FLAGS.get, witness))
    return _entry_template(nl, len(values)) % values


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
    lam, iv, ow = report.lam, report.avoided_interval, report.occurring_weights
    lines = [
        f"lambda = ({lam.k1}, {lam.k2}, {lam.r})   k = {report.k}",
        f"avoided_interval = {'[] (empty)' if iv is None else f'[{iv[0]}, {iv[1]}]'}",
        "occurring_weights = "
        + ("undetermined" if ow is None else f"{ow[0]} and {ow[1]} (upper by duality)"),
        f"regular = {report.regular}   in_avoidance_category = {report.in_avoidance_category}"
        f"   duality_twist = {report.duality_twist}",
        f"strata = {', '.join(f'(g={s.g}, c={s.c})' for s in report.strata)}",
        "",
        f"{'sec':<9} {'m':>2} {'q':>3} {'highest_weight':<16} {'dim':>5} {'restr':>6} {'motw':>6}",
    ]
    lines += [
        f"{'kostant':<9} {m:>2} {mod.q:>3} {str(tuple(mod.highest_weight)):<16} "
        f"{mod.levi_dim:>5} {mod.restriction_weight:>6} {mod.motivic_weight:>6}"
        for _, m in _PARABOLICS for mod in report.kostant[m]
    ]
    lines += ["", _ENTRY_HEADER]
    lines += [_entry_row(f"bd(g{s.g}c{s.c})", e) for s, es in report.boundary[SIEGEL] for e in es]
    lines += [_entry_row("bd", e) for e in report.boundary[KLINGEN]]
    for _, m in _PARABOLICS:
        for e in report.intermediate[m].all_entries():
            lines.append(_entry_row("ic*" if e in report.witnesses else "ic", e))
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    report = analysis_report(make_weight(args.k1, args.k2, args.r), _strata_from_args(args))
    print(_dump(report_json(report)) if args.format == "json" else _report_table(report))
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
            "strata": [s._asdict() for s in strata],
            "rows": [
                {"lambda": [k1, k2, r], "k": k, "closed_form": closed, "agree": k == closed}
                for k1, k2, r, k, closed in rows
            ],
        }
        print(_dump(payload))
    else:
        print(f"{'k1':>4} {'k2':>4} {'r':>6} {'k':>4} {'closed':>7} {'agree':>6}")
        for k1, k2, r, k, closed in rows:
            print(f"{k1:>4} {k2:>4} {r:>6} {k:>4} {closed:>7} {'yes' if k == closed else 'no':>6}")
    return 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    max_k1 = args.max_k1
    if max_k1 < 0 or max_k1 > MAX_VERIFY_BOUND:
        raise PreconditionViolation(f"--max-k1 must satisfy 0 <= bound <= {MAX_VERIFY_BOUND}")
    for name, suite in verification.SUITES:
        checks = 0
        for checks, counterexample in enumerate(suite(rng, max_k1), 1):
            if counterexample is not None:
                print(f"FAIL {name}: {json.dumps(counterexample, sort_keys=False)}")
                return 1
        print(f"ok   {name} ({checks} checks)")
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise PreconditionViolation(message)


@functools.cache  # reusable: _Parser.error raises, parse_args makes a fresh Namespace
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
        try:
            args = _build_parser().parse_args(argv)
            code = args.fn(args)
        except SiegelWeightsError as err:
            print(json.dumps({"error": type(err).__name__, "message": str(err)}))
            code = 2
        sys.stdout.flush()  # a reader that left shows here, not in the flush at exit
        return code
    except BrokenPipeError:  # the reader closed stdout: exit 128 + SIGPIPE, as `cat` would
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # so the flush at exit cannot fail again
        return 141


if __name__ == "__main__":
    sys.exit(main())
