"""Command line interface: analyze, sweep, verify.

All output is deterministic: JSON is emitted with a fixed key order and
2-space indentation, tables are fixed-width.  Exit codes: 0 success, 1 a
verification suite found a counterexample, 2 invalid input (reported as a
one-line JSON object {"error": ..., "message": ...} on stdout).
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import sys
from operator import iadd, itemgetter
from types import SimpleNamespace

from . import checks as verification
from .boundary import CohomologyEntry, StratumDatum
from .checks import dominant_grid
from .errors import SiegelWeightsError, PreconditionViolation
from .intersection import AnalysisReport, analysis_report, avoided_interval
from .root_data import KLINGEN, SIEGEL, k_invariant, make_weight

_PARABOLICS = (("siegel", SIEGEL), ("klingen", KLINGEN))
MAX_SWEEP_BOUND = 200
MAX_VERIFY_BOUND = 40


def _parse_stratum(text: str) -> StratumDatum:
    try:
        g, c = map(int, text.split(","))
    except ValueError:
        raise PreconditionViolation(f"stratum must be two integers 'g,c', got {text!r}")
    return StratumDatum(g=g, c=c)


def _strata_from_args(args) -> tuple[StratumDatum, ...]:
    return tuple(map(_parse_stratum, args.stratum or ["0,3"]))  # the documented default


# ---------------------------------------------------------------------------
# JSON serialization (dicts/lists/tuples/ints/bools/strings/None only)

class _Text(tuple):
    """(write, *args): `_write` writes write(nl, *args), text laid out at its indent nl."""


def report_json(report: AnalysisReport) -> dict:
    """The report for `_dump` in the fixed key order; `json.dumps` would write entries as arrays."""
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
            "siegel": _Text((_siegel_list, report.boundary[SIEGEL])),
            "klingen": {"entries": report.boundary[KLINGEN]},
        },
        "intermediate": {
            name: {
                "entries": [_Text((_entry_text, e, e in report.witnesses)) for e in profile.entries],
                "kernel": _Text((_entry_text, k, k in report.witnesses)) if (k := profile.kernel_entry) else None,
            }
            for name, m in _PARABOLICS
            for profile in [report.intermediate[m]]
        },
        "strata": _Text((_template_list, _STRATUM, report.strata)),
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
    """Append v to out; nl is the newline and indent of v's last line."""
    kind = type(v)
    if kind is CohomologyEntry:
        out.append(_entry_text(nl, v))
    elif kind is _Text:
        out.append(v[0](nl, *v[1:]))
    elif kind in _SCALARS:
        out.append(_SCALARS[kind](v))
    elif kind is dict:
        inner = nl + "  "
        sep = "{" + inner
        for key, item in v.items():
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(sep + _ESCAPE(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "}" if v else "{}")
    elif kind is list or isinstance(v, tuple):
        inner = nl + "  "
        sep = "[" + inner
        for item in v:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]" if v else "[]")
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")


_ENTRY_KEYS = ("m", "n_classical", "n_perverse", "weight", "rank_lower", "rank_upper",
               "nonzero", "origin", "provenance", "witness")
_FIXED = itemgetter(0, 1, 2, 5, 6, 7)  # the fields of an entry but its ranks
_HOLE = _Text((lambda nl: "%s",))  # a `%s` in a template that `_dump` makes
_STRATUM = dict.fromkeys(StratumDatum._fields, _HOLE)  # {"g": %s, "c": %s}
_SWEEP_ROW = {"lambda": [_HOLE] * 3, "k": _HOLE, "closed_form": _HOLE, "agree": _HOLE}
_origin_text = functools.cache(_dump)  # keyed by value, and True == 1: give it exact ints only


@functools.cache  # a dict of the first size `_ENTRY_KEYS`, values `%s`
def _entry_template(nl: str, size: int) -> str:
    return _dump(dict.fromkeys(_ENTRY_KEYS[:size], _HOLE), nl)


def _entry_shape(nl: str, e: CohomologyEntry, *witness: bool) -> str:
    """`_write` of e as a dict keyed by `_ENTRY_KEYS`, "witness" if given, ranks left to `_fill`."""
    m, n, weight, _, _, origin, provenance, npv = e
    if not int is type(m) is type(n) is type(weight) is (int if npv is None else type(npv)):
        raise TypeError(f"profile entry numbers must be ints, got {e!r}")
    if not all(int is type(p) is type(q) for p, q in origin):
        raise TypeError(f"origin must hold pairs of ints, got {origin!r}")
    values = (m, n, "null" if npv is None else npv, weight, "%s", "%s", "%s",
              _origin_text(origin, nl + "  "), _ESCAPE(provenance).replace("%", "%%"),
              *map(_FLAGS.get, witness))
    return _entry_template(nl, len(values)) % values


def _entry_text(nl: str, e: CohomologyEntry, *witness: bool) -> str:
    return _entry_shape(nl, e, *witness) % _fill(e, _FLAGS.get)


def _siegel_list(nl: str, pairs) -> str:
    """`_write` of boundary.siegel: the entries of each stratum type are written once."""
    body = _dump([_Text((_entry_shape, e)) for e in pairs[0][1]], nl + "    ")
    fills = _per_type(pairs, lambda es: body % sum([_fill(e, _FLAGS.get) for e in es], ()))
    return _template_list(nl, {"stratum": _STRATUM, "entries": _HOLE}, fills)


def _template_list(nl: str, model, fills) -> str:
    """`_write` of a list of `template % fill` (template `_dump(model)`), a fill's last value its own chunk."""
    head, tail = _dump(model, nl + "  ").rsplit("%s", 1)
    chunks = [c for *f, last in fills for c in (",", nl + "  " + head % tuple(f), str(last), tail)]
    return "".join(["[", *chunks[1:], nl, "]"]) if fills else "[]"  # one copy of the chunks


def _fill(e: CohomologyEntry, flag) -> tuple:
    """rank_lower, rank_upper, flag(nonzero): the values e's template leaves out."""
    if not int is type(e[3]) is type(e[4]):
        raise TypeError(f"profile entry ranks must be ints, got {e!r}")
    return e[3], e[4], flag(e.nonzero)


def _per_type(pairs, write) -> list:
    """(g, c, write(es)) per (stratum, es) pair; write runs once per distinct es, by identity as 1 == True."""
    fixed, distinct = list(map(_FIXED, pairs[0][1])), {id(es): es for _, es in pairs}
    if any(list(map(_FIXED, es)) != fixed for es in distinct.values()):
        raise PreconditionViolation("internal: a stratum's entries do not fit the first one's template")
    texts = {key: write(es) for key, es in distinct.items()}
    return [(*s, texts[id(es)]) for s, es in pairs]


# ---------------------------------------------------------------------------
# analyze

_ROW = (("sec", -9), ("m", 2), ("n", 3), ("npv", 4), ("weight", 7), ("rk_lo", 6), ("rk_hi", 6),
        ("nonzero", 8), ("origin", -12), ("prov", -8))  # name and printf width, < 0 to the left


def _row_shape(e: CohomologyEntry) -> str:
    """e's table row after its section cell, `%s` for what `_fill` gives; a `%` escaped."""
    cells = (e.m, e.n_classical, "-" if e.n_perverse is None else e.n_perverse, e.weight,
             None, None, None, ";".join(f"{p}{q}" for p, q in e.origin), e.provenance)
    return " ".join(f"%{w}s" if v is None else ("%*s" % (w, v)).replace("%", "%%")
                    for v, (_, w) in zip(cells, _ROW[1:]))


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
    lines += ["", " ".join("%*s" % (w, name) for name, w in _ROW)]
    pairs = report.boundary[SIEGEL]
    shapes = list(map(_row_shape, pairs[0][1]))
    for g, c, texts in _per_type(pairs, lambda es: [shape % _fill(e, str) for shape, e in zip(shapes, es)]):
        cell = "%-9s " % f"bd(g{g}c{c})"  # each of the stratum's rows starts with its section cell
        lines.append(cell + ("\n" + cell).join(texts))
    rows = [("bd", e) for e in report.boundary[KLINGEN]] + [
        ("ic*" if e in report.witnesses else "ic", e)
        for _, m in _PARABOLICS for e in report.intermediate[m].all_entries()]
    lines += ["%-9s %s" % (section, _row_shape(e) % _fill(e, str)) for section, e in rows]
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
        print(_dump({
            "bound": bound,
            "strata": _Text((_template_list, _STRATUM, strata)),
            "rows": _Text((_template_list, _SWEEP_ROW, [(*row, _FLAGS[row[3] == row[4]]) for row in rows])),
        }))
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
# The one grammar: each command's function, help and flags, each flag with its
# argparse keywords.  `_read_args` reads the canonical lines; argparse the rest.

_FORMATS = ("json", "table")
_COMMANDS = {
    "analyze": (_cmd_analyze, "full weight analysis of one highest weight", {
        "--k1": {"type": int, "required": True},
        "--k2": {"type": int, "required": True},
        "--r": {"type": int, "required": True},
        "--stratum": {"action": "append", "metavar": "G,C", "help": "repeatable; default 0,3"},
        "--format": {"choices": _FORMATS, "default": "json"},
    }),
    "sweep": (_cmd_sweep, "avoided-interval table over all dominant weights", {
        "--max-k1": {"type": int, "required": True, "metavar": "BOUND"},
        "--stratum": {"action": "append", "metavar": "G,C"},
        "--format": {"choices": _FORMATS, "default": "table"},
    }),
    "verify": (_cmd_verify, "run the self-verification suites", {
        "--max-k1": {"type": int, "default": 6},
        "--seed": {"type": int, "default": 0},
    }),
}
_VALUE = re.compile(r"(?!-)|-[0-9]+\Z").match  # argparse reads these as values too, not flags


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """What argparse reads from argv if argv is `command (--flag value)...` with exact flag
    names, each value a `_VALUE` its type and choices take, and every required flag; else None."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    fn, _, flags = _COMMANDS[argv[0]]
    args = {flag: kw.get("default") for flag, kw in flags.items()}
    for flag, value in zip(argv[1::2], argv[2::2]):
        kw = flags.get(flag)
        if kw is None or not _VALUE(value) or value not in kw.get("choices", (value,)):
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        args[flag] = iadd(args[flag] or [], [value]) if kw.get("action") == "append" else value  # in place
    if any(kw.get("required") and args[flag] is None for flag, kw in flags.items()):
        return None
    return SimpleNamespace(command=argv[0], fn=fn,  # argparse's dest of --max-k1 is max_k1
                           **{flag[2:].replace("-", "_"): v for flag, v in args.items()})


@functools.cache  # reusable: error raises, parse_args makes a fresh Namespace
def _build_parser():
    """The argparse parser of `_COMMANDS`: help, error messages and the other spellings."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise PreconditionViolation(message)

    parser = Parser(
        prog="siegel-weights",
        description="Exact boundary weight profiles for degree-two Siegel modular threefolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _read_args(argv) or _build_parser().parse_args(argv)
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
