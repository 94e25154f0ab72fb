"""Command line interface: analyze, sweep, verify.

All output is deterministic: JSON is emitted with a fixed key order and
2-space indentation, tables are fixed-width.  Exit codes: 0 success, 1 a
verification suite found a counterexample, 2 invalid input (reported as a
one-line JSON object {"error": ..., "message": ...} on stdout).
"""

from __future__ import annotations

import functools
import os
import sys
from _json import encode_basestring_ascii as _ESCAPE  # json.dumps's str writer, without importing json
from itertools import chain
from operator import attrgetter, iadd
from types import SimpleNamespace

from . import checks as verification
from .boundary import StratumDatum
from .checks import dominant_grid
from .errors import SiegelWeightsError, PreconditionViolation
from .intersection import AnalysisReport, _avoided, _require_strata, analysis_report
from .kostant import LeviModule
from .root_data import KLINGEN, SIEGEL, k_invariant, make_weight

_PARABOLICS = (("siegel", SIEGEL), ("klingen", KLINGEN))
MAX_SWEEP_BOUND = 200
MAX_VERIFY_BOUND = 40


@functools.cache  # a command's strata repeat; an error is raised, not cached
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

class _Raw(str):
    """Text that `_dump` writes as it is: a template's holes, and lists written ahead."""


_FLAGS = {True: "true", False: "false", "unknown": '"unknown"'}  # bools, and an entry's nonzero
_SCALARS = {str: _ESCAPE, int: int.__repr__, bool: _FLAGS.get, type(None): lambda _: "null", _Raw: lambda v: v}


def _dump(v, nl: str = "\n") -> str:
    """json.dumps(v, indent=2) of dicts, lists, tuples, strs, ints, bools, None; nl: its last line's indent."""
    kind = type(v)
    if kind in _SCALARS:
        return _SCALARS[kind](v)
    inner = nl + "  "
    if kind is dict:  # `_ESCAPE` refuses a key that is not a str
        items, brackets = [_ESCAPE(key) + ": " + _dump(item, inner) for key, item in v.items()], "{}"
    elif kind is list or isinstance(v, tuple):
        items, brackets = [_dump(item, inner) for item in v], "[]"
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1] if items else brackets


_HOLE = _Raw("\0")  # `_template`'s `%s`; `_ESCAPE` writes it in a str as \u0000
_STRATUM = dict.fromkeys(StratumDatum._fields, _HOLE)  # {"g": %s, "c": %s}
_SWEEP_ROW = {"lambda": [_HOLE] * 3, "k": _HOLE, "closed_form": _HOLE, "agree": _HOLE}


def _template(model, nl: str = "\n") -> str:
    """`_dump(model, nl)` as a `%` template, a `%s` per `_HOLE`."""
    return _dump(model, nl).replace("%", "%%").replace(_HOLE, "%s")


def _template_list(nl: str, model, fills) -> str:
    """`_dump` at indent nl of a list of `_template(model) % fill`, by one `%`: a stratum's text is copied once."""
    item = nl + "  " + _template(model, nl + "  ")
    return ("[" + ",".join([item] * len(fills)) + nl + "]") % tuple(chain.from_iterable(fills)) if fills else "[]"


# ---------------------------------------------------------------------------
# analyze: each report is written from the templates of its shape, made on first use

_ENTRY_KEYS = ("m", "n_classical", "n_perverse", "weight", "rank_lower", "rank_upper",
               "nonzero", "origin", "provenance", "witness")
_ROW = (("sec", -9), ("m", 2), ("n", 3), ("npv", 4), ("weight", 7), ("rk_lo", 6), ("rk_hi", 6),
        ("nonzero", 8), ("origin", -12), ("prov", -8))  # name and printf width, < 0 to the left
_KOSTANT = (_ROW[0], ("m", 2), ("q", 3), ("highest_weight", -16), ("dim", 5), ("restr", 6), ("motw", 6))
_SEC = "%%%ds " % _ROW[0][1]  # the section cell a row starts with


def _table(spec, rows: int) -> list[str]:
    """A table's header and `rows` copies of its `%` row template, from its (name, printf width) columns."""
    return [" ".join("%*s" % (w, name) for name, w in spec), *[" ".join("%%%ds" % w for _, w in spec)] * rows]


def _entry_model(key, *witness) -> dict:
    """The dict form of an entry of this key, a `_HOLE` for each of its fills in `_report_parts`."""
    m, n, origin, provenance = key
    return dict(zip(_ENTRY_KEYS, (m, n, _HOLE, _HOLE, _HOLE, _HOLE, _HOLE, origin, provenance, *witness)))


def _row(key) -> str:
    """The table row of an entry of this key but its section cell, with the holes of `_entry_model`."""
    m, n, origin, provenance = key
    if "\n" in provenance:
        raise ValueError(f"a table row is one line, got provenance {provenance!r}")
    cells = (m, n, "%", "%", "%", "%", "%", ";".join(f"{p}{q}" for p, q in origin), provenance)
    return " ".join(f"{v}{w}s" if 2 <= i <= 6 else ("%*s" % (w, v)).replace("%", "%%")
                    for i, (v, (_, w)) in enumerate(zip(cells, _ROW[1:])))


@functools.cache
def _stratum(keys, table: bool) -> str:
    """A stratum type's table rows or JSON entries, a `%s` for each of its fills in `_report_parts`."""
    if table:
        return "\n".join(map(_row, keys))
    return _template([*map(_entry_model, keys)], "\n        ")


def _report_parts(report: AnalysisReport, table: bool) -> tuple:
    """Shape, head and Kostant numbers, Kostant modules, (g, c, text) per point stratum, Klingen and
    intermediate fills of report; each distinct point entries tuple (by identity, as 1 == True) read
    once.  The one type check of every value the templates take comes first."""
    iv, ow = report.avoided_interval or (), report.occurring_weights
    head = (*report.lam, report.k, *iv, *(ow or ()))
    modules = [mod for m in (SIEGEL, KLINGEN) for mod in report.kostant[m]]
    numbers = [*chain.from_iterable(mod[:2] + mod.highest_weight + mod[3:] for mod in modules)]
    bd, profiles = report.boundary[KLINGEN], [report.intermediate[m] for m in (SIEGEL, KLINGEN)]
    distinct = [*{id(es): es for _, es in report.boundary[SIEGEL]}.values()]
    ic = [e for p in profiles for e in p.all_entries()]
    entries = [*chain.from_iterable(distinct), *bd, *ic]
    m, n, weight, lo, hi, origin, provenance, npv = zip(*entries)
    if ({*map(type, chain(head, numbers, (report.duality_twist,), m, n, weight, lo, hi, *chain(*origin),
                          *report.strata, *[s for s, _ in report.boundary[SIEGEL]]))} != {int}
            or {*map(type, provenance)} != {str} or not {*map(type, npv)} <= {int, type(None)}
            or not bool is type(report.regular) is type(report.in_avoidance_category)):
        raise TypeError("report numbers, origin pairs and strata must be ints, provenances strs, flags bools")
    flag, null = (str, "-") if table else (_FLAGS.get, "null")
    keys = tuple(zip(m, n, origin, provenance))
    fills = [*zip(map({None: null}.get, npv, npv), weight, lo, hi, map(flag, map(attrgetter("nonzero"), entries)))]
    texts, j = {}, 0
    for es in distinct:
        i, j = j, j + len(es)
        texts[id(es)] = _stratum(keys[i:j], table) % tuple(chain.from_iterable(fills[i:j]))
    keys, fills = keys[j:], fills[j:]
    shape = (len(report.lam), len(iv), None if ow is None else len(ow),
             tuple(tuple(len(mod.highest_weight) for mod in report.kostant[m]) for m in (SIEGEL, KLINGEN)),
             keys, len(bd), tuple((len(p.entries), p.kernel_entry is not None) for p in profiles))
    witnesses = [e in report.witnesses for e in ic]
    points = [(*s, texts[id(es)]) for s, es in report.boundary[SIEGEL]]
    return shape, head, modules, numbers, points, fills[:len(bd)], [*zip(fills[len(bd):], witnesses)]


@functools.cache
def _json_template(shape) -> str:
    """The analyze JSON of a report of this shape, a `%s` for each value `report_json` fills in."""
    n_lam, n_iv, n_ow, kostant, keys, n_bd, profiles = shape
    intermediate = iter(keys[n_bd:])
    return _template({
        "lambda": [_HOLE] * n_lam,
        "k": _HOLE,
        "avoided_interval": [_HOLE] * n_iv,
        "occurring_weights": None if n_ow is None else [_HOLE] * n_ow,
        "regular": _HOLE,
        "in_avoidance_category": _HOLE,
        "duality_twist": _HOLE,
        "kostant": {name: [dict(zip(LeviModule._fields, [_HOLE, _HOLE, [_HOLE] * n, _HOLE, _HOLE, _HOLE]))
                           for n in lengths] for (name, _), lengths in zip(_PARABOLICS, kostant)},
        "boundary": {"siegel": _HOLE, "klingen": {"entries": [_entry_model(key) for key in keys[:n_bd]]}},
        "intermediate": {name: {"entries": [_entry_model(next(intermediate), _HOLE) for _ in range(n)],
                                "kernel": _entry_model(next(intermediate), _HOLE) if kernel else None}
                         for (name, _), (n, kernel) in zip(_PARABOLICS, profiles)},
        "strata": _HOLE,
    })


def report_json(report: AnalysisReport) -> str:
    """The analyze JSON of report, `json.dumps(indent=2)` of its dict form, from its shape's template."""
    shape, head, _, numbers, siegel, bd, ic = _report_parts(report, False)
    return _json_template(shape) % (
        *head, _FLAGS[report.regular], _FLAGS[report.in_avoidance_category], report.duality_twist, *numbers,
        _template_list("\n    ", {"stratum": _STRATUM, "entries": _HOLE}, siegel), *chain.from_iterable(bd),
        *chain.from_iterable((*fill, _FLAGS[witness]) for fill, witness in ic),
        _template_list("\n  ", _STRATUM, report.strata))


@functools.cache
def _table_template(shape) -> str:
    """The analyze table of a report of this shape, a `%s` for each value `_report_table` fills in."""
    n_lam, n_iv, n_ow, kostant, keys, _, _ = shape
    return "\n".join([
        f"lambda = ({', '.join(['%s'] * n_lam)})   k = %s",
        "avoided_interval = " + (f"[{', '.join(['%s'] * n_iv)}]" if n_iv else "[] (empty)"),
        "occurring_weights = " + (" and ".join(["%s"] * n_ow) + " (upper by duality)" if n_ow else "undetermined"),
        "regular = %s   in_avoidance_category = %s   duality_twist = %s",
        "strata = %s",
        "",
        *_table(_KOSTANT, sum(map(len, kostant))),
        "",
        *_table(_ROW, 0),
        "%s",  # the rows of the point strata
        *(_SEC + _row(key) for key in keys),
    ])


def _report_table(report: AnalysisReport) -> str:
    shape, head, modules, _, siegel, bd, ic = _report_parts(report, True)
    points = [cell + text.replace("\n", "\n" + cell)  # each of a stratum's rows starts with its section cell
              for g, c, text in siegel
              for cell in [_SEC % f"bd(g{g}c{c})"]]
    return _table_template(shape) % (
        *head, report.regular, report.in_avoidance_category, report.duality_twist,
        ", ".join([f"(g={s.g}, c={s.c})" for s in report.strata]),
        *chain.from_iterable(("kostant", *mod[:2], str(tuple(mod.highest_weight)), *mod[3:]) for mod in modules),
        "\n".join(points), *chain.from_iterable(("bd", *fill) for fill in bd),
        *chain.from_iterable(("ic*" if witness else "ic", *fill) for fill, witness in ic))


def _cmd_analyze(args) -> int:
    report = analysis_report(make_weight(args.k1, args.k2, args.r), _strata_from_args(args))
    print(report_json(report) if args.format == "json" else _report_table(report))
    return 0


# ---------------------------------------------------------------------------
# sweep

def _cmd_sweep(args) -> int:
    if not 0 <= args.max_k1 <= MAX_SWEEP_BOUND:
        raise PreconditionViolation(f"sweep bound must satisfy 0 <= bound <= {MAX_SWEEP_BOUND}")
    strata, sums = _require_strata(_strata_from_args(args))  # checked and summed once, not per weight
    rows = [(*lam, _avoided(lam, *sums)[0], k_invariant(lam)) for lam in dominant_grid(args.max_k1)]
    if args.format == "json":
        print(_dump({
            "bound": args.max_k1,
            "strata": _Raw(_template_list("\n  ", _STRATUM, strata)),
            "rows": _Raw(_template_list("\n  ", _SWEEP_ROW, [(*row, _FLAGS[row[3] == row[4]]) for row in rows])),
        }))
    else:
        head, template = _table((("k1", 4), ("k2", 4), ("r", 6), ("k", 4), ("closed", 7), ("agree", 6)), 1)
        print(head, *[template % (*row, "yes" if row[3] == row[4] else "no") for row in rows], sep="\n")
    return 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    if not 0 <= args.max_k1 <= MAX_VERIFY_BOUND:
        raise PreconditionViolation(f"--max-k1 must satisfy 0 <= bound <= {MAX_VERIFY_BOUND}")
    import random
    rng = random.Random(args.seed)
    for name, suite in verification.SUITES:
        checks = 0
        for checks, counterexample in enumerate(suite(rng, args.max_k1), 1):
            if counterexample is not None:
                import json
                print(f"FAIL {name}: {json.dumps(counterexample)}")
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
_VALUE = lambda v: v[:1] != "-" or v[1:].isdigit() and v.isascii()  # argparse reads it as a value, not a flag


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """What argparse reads from argv if argv is `command (--flag value | --flag=value)...` with flag names
    or, as argparse's allow_abbrev reads them, prefixes of one flag and not of --help, values their types
    and choices take (a `_VALUE` unless after `=`), every required flag; else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fn, _, flags = _COMMANDS[argv[0]]
    args = {flag: kw.get("default") for flag, kw in flags.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")  # as argparse, split at the first `=`
        value = value if eq else next(tokens, "--")  # else the next token; a value `--` is declined below
        if flag not in flags:  # "" and "-" prefix every name, and "--" ends the options: all are declined
            names = [name for name in (*flags, "--help") if name.startswith(flag)]
            flag = names[0] if len(names) == 1 else None
        kw = flags.get(flag)
        if kw is None or value == "--" or not (eq or _VALUE(value)) or value not in kw.get("choices", (value,)):
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


def _build_parser():
    """The argparse parser of `_COMMANDS`: help, error messages and the other spellings."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise PreconditionViolation(message)

        def _print_message(self, message, file=None):  # argparse's own drops a write error
            print(message, end="", file=file, flush=True)  # so --help to a full stdout exits 74

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
            args = _read_args(argv)
            if args is None:  # argparse before 3.13 drops an `=` value `--`, later ones keep it: refused first
                if any(t[:2] == "--" and t.find("=") > 2 and t.partition("=")[2] == "--" for t in argv):
                    raise PreconditionViolation("a flag's value after '=' must not be '--'")
                args = _build_parser().parse_args(argv)
            code = args.fn(args)
        except SiegelWeightsError as err:
            print('{"error": %s, "message": %s}' % (_ESCAPE(type(err).__name__), _ESCAPE(str(err))))
            code = 2
        sys.stdout.flush()  # a reader that left shows here, not in the flush at exit
        return code
    except OSError as err:  # a closed reader exits 128 + SIGPIPE, as `cat` would; any other write error EX_IOERR
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # so the flush at exit cannot fail again
        return 141 if isinstance(err, BrokenPipeError) else 74


if __name__ == "__main__":
    sys.exit(main())
