import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegel_weights import boundary, checks, cli, errors, intersection, kostant, root_data, weyl
from siegel_weights.boundary import KERNEL_PIECE, CohomologyEntry, StratumDatum
from siegel_weights.errors import PreconditionViolation
from siegel_weights.root_data import KLINGEN, WeightTriple
from weight_strategies import plus

TOP_LEVEL_KEYS = [
    "lambda",
    "k",
    "avoided_interval",
    "occurring_weights",
    "regular",
    "in_avoidance_category",
    "duality_twist",
    "kostant",
    "boundary",
    "intermediate",
    "strata",
]


ANALYZE_3_1_4 = ["analyze", "--k1", "3", "--k2", "1", "--r", "4"]

VERIFY_8_DIGEST = "bc9c810b8203db385a64c2c91386871a600e2b824037621e07545d72163958c1"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "siegel_weights", *args],
        capture_output=True,
        text=True,
    )


# --- analyze ------------------------------------------------------------------

def test_analyze_json_reference_values():
    proc = run_cli("analyze", "--k1", "3", "--k2", "1", "--r", "4", "--stratum", "0,3")
    assert proc.returncode == 0
    assert proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert list(payload.keys()) == TOP_LEVEL_KEYS
    assert payload["lambda"] == [3, 1, 4]
    assert payload["k"] == 1
    assert payload["avoided_interval"] == [0, 1]
    assert payload["occurring_weights"] == [-1, 2]
    assert payload["regular"] is True
    assert payload["in_avoidance_category"] is True
    assert payload["duality_twist"] == 7
    assert payload["strata"] == [{"g": 0, "c": 3}]
    assert [mod["highest_weight"] for mod in payload["kostant"]["siegel"]] == [
        [3, 1, 4],
        [3, -3, 4],
        [0, -6, 4],
        [-4, -6, 4],
    ]
    kernel = payload["intermediate"]["siegel"]["kernel"]
    assert kernel["n_perverse"] == 6
    assert kernel["weight"] == 4
    assert [kernel["rank_lower"], kernel["rank_upper"]] == [4, 7]
    klingen_entries = payload["intermediate"]["klingen"]["entries"]
    assert [(e["n_perverse"], e["weight"]) for e in klingen_entries] == [(5, 2), (6, 5)]
    assert [e["witness"] for e in klingen_entries] == [False, True]


def test_analyze_json_wall_weight():
    proc = run_cli("analyze", "--k1", "2", "--k2", "2", "--r", "4")
    payload = json.loads(proc.stdout)
    assert payload["k"] == 0
    assert payload["avoided_interval"] == []
    assert payload["occurring_weights"] is None
    assert payload["regular"] is False
    assert payload["intermediate"]["siegel"]["kernel"]["witness"] is True


def test_analyze_default_stratum_is_0_3():
    explicit = run_cli("analyze", "--k1", "3", "--k2", "1", "--r", "4", "--stratum", "0,3")
    default = run_cli("analyze", "--k1", "3", "--k2", "1", "--r", "4")
    assert default.stdout == explicit.stdout


def test_analyze_is_byte_stable():
    a = run_cli("analyze", "--k1", "5", "--k2", "2", "--r", "7")
    b = run_cli("analyze", "--k1", "5", "--k2", "2", "--r", "7")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def readme_keys(after: str) -> list[str]:
    """The keys listed in the README's first code block after the given text, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split(after)[1]
    return [line.split()[0] for line in block.split("```")[1].strip().splitlines()]


def test_readme_lists_the_keys_of_modules_strata_and_entries():
    payload = json.loads(run_cli(*ANALYZE_3_1_4).stdout)
    entry_keys = readme_keys("A profile entry, in the")
    assert list(payload["kostant"]["klingen"][0]) == readme_keys("A Kostant module, in")
    assert list(payload["strata"][0]) == ["g", "c"]
    assert list(payload["boundary"]["siegel"][0]["stratum"]) == ["g", "c"]
    assert list(payload["boundary"]["klingen"]["entries"][0]) == entry_keys[:-1]  # no witness
    assert list(payload["intermediate"]["siegel"]["kernel"]) == entry_keys
    assert list(payload["intermediate"]["klingen"]["entries"][0]) == entry_keys


def test_analyze_json_round_trips_identically():
    # seeded weights in the interior, on both walls and at the origin
    assert readme_keys("JSON output has exactly these top-level keys, in order:") == TOP_LEVEL_KEYS
    rng = random.Random(2017)
    cases = [(4, 2), (0, 0)]
    for _ in range(4):
        k1 = rng.randint(2, 1000)
        cases += [(k1, rng.randint(1, k1 - 1)), (k1, 0), (k1, k1)]  # interior, walls
    for k1, k2 in cases:
        argv = ["analyze", "--k1", str(k1), "--k2", str(k2)]
        argv += ["--r", str(k1 + k2 + 2 * rng.randint(-50, 50))]
        for _ in range(rng.randint(1, 3)):
            g = rng.randint(0, 4)
            argv += ["--stratum", f"{g},{rng.randint(3 if g == 0 else 1, 12)}"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        payload = json.loads(out.getvalue())
        assert list(payload) == TOP_LEVEL_KEYS
        assert json.dumps(payload, indent=2) + "\n" == out.getvalue()


def wall_strata_40():
    argv = []
    for i in range(40):
        g = i % 6
        argv += ["--stratum", f"{g},{(3 if g == 0 else 1) + 7 * i % 18}"]
    return argv


STRATA_3 = ["--stratum", "0,3", "--stratum", "1,1", "--stratum", "2,5"]
# 40 strata whose last two labels, bd(g10c100) and bd(g0c1000), are wider than the
# 9-character section column of the table
WIDE_STRATA_40 = [*wall_strata_40()[:-4], "--stratum", "10,100", "--stratum", "0,1000"]


def test_analyze_json_round_trips_with_40_strata_on_a_wall():
    # the largest analyze shape: a wall weight (k2 = 0) with 40 strata
    argv = ["analyze", "--k1", "283", "--k2", "0", "--r", "187", *wall_strata_40()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    payload = json.loads(out.getvalue())
    assert len(payload["strata"]) == len(payload["boundary"]["siegel"]) == 40
    assert payload["k"] == 0
    assert json.dumps(payload, indent=2) + "\n" == out.getvalue()


# sha256 of stdout: any change to the output bytes fails here; update a digest
# only together with an intended change of the output
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["analyze", "--k1", "3", "--k2", "1", "--r", "4", *STRATA_3],
            "8229ddcb47f8aff97d700c4e50bf5c6cfb3b3ee41cca42ef8d84124ecf3776fa",
        ),
        (
            ["analyze", "--k1", "3", "--k2", "1", "--r", "4", *STRATA_3, "--format", "table"],
            "be70291977362ae62d35a88cb2399dd7156dc23354b91a550c49e4f1cb61d8b5",
        ),
        (
            ["analyze", "--k1", "0", "--k2", "0", "--r", "0", *STRATA_3[:4]],
            "f737d39d55546f81c549f675e2e00f73ce7126516d5cbd48329a97115d5b0c7c",
        ),
        (
            ["analyze", "--k1", "283", "--k2", "0", "--r", "187", *wall_strata_40()],
            "0d022b8c0ad77547e89b58ed3abc062de672b279feeb753f03df64b0fddfe222",
        ),
        (
            ["sweep", "--max-k1", "30", "--format", "json", *STRATA_3[2:]],
            "284b6ced3affea8bb2ec370a5853e36f84142be620099d0741ce5e460215e9c5",
        ),
        (["verify", "--max-k1", "8", "--seed", "0"], VERIFY_8_DIGEST),
        (  # the north-star grid, every suite at its largest
            ["verify", "--max-k1", "40", "--seed", "0"],
            "c9b1786bddf757c74d8441a941943932a32fad221d5657f96a630964b45284af",
        ),
        (  # a second seed for the sampled suites
            ["verify", "--max-k1", "20", "--seed", "7"],
            "fd3fe5e4253b868b8b1a829af5b6271b623ef28089f4cb9fd0f54e8415403c6c",
        ),
        (
            ["sweep", "--max-k1", "20"],
            "21eb829baacfbfb3cb75a03a1e8394640b77e134065b2daf47e28fa8380c4b1e",
        ),
        (  # the default stratum (0, 3): the kernel's lower bound is 0, so nonzero is "unknown"
            ["analyze", "--k1", "0", "--k2", "0", "--r", "0"],
            "7b3dbf31d8691f049fd8e03dc5ffb53187db51bde9983fa3ee2bd5b1e7322ea1",
        ),
        (
            ["analyze", "--k1", "0", "--k2", "0", "--r", "0", "--format", "table"],
            "d0111163a59f27b9e3419f0f381cc2a81e4846fa9046207693594cd1a7956d54",
        ),
        (  # the largest sweep: every Kostant module up to k1 = 200
            ["sweep", "--max-k1", "200", "--format", "json"],
            "ad240770c05227c902f73d58225ab87b6cb9f5659613bf9e2699014a04c79712",
        ),
        (  # a tight stratum (source rank = target rank) beside two with slack, at k1 = 0
            ["analyze", "--k1", "0", "--k2", "0", "--r", "0",
             "--stratum", "0,3", "--stratum", "1,1", "--stratum", "2,5"],
            "c6045925379d1901384d6e4df0f2f3febc6e0238c646858a2891b485dc630621",
        ),
        (
            ["analyze", "--k1", "12", "--k2", "5", "--r", "-3", *WIDE_STRATA_40, "--format", "table"],
            "5b7f6fd486dcf3ad3fa26a118f9ffe70ef103dc78cd1da6e11034d0524add39f",
        ),
        (
            ["analyze", "--k1", "12", "--k2", "5", "--r", "-3", *WIDE_STRATA_40],
            "4ec4fc4cfb625ff03e1d8450e4eacea68b8b3a2edfdbd65f5fcf238327f34a18",
        ),
        (  # the tight stratum twice among two with slack, as a table
            ["analyze", "--k1", "0", "--k2", "0", "--r", "0", "--stratum", "0,3",
             "--stratum", "1,1", "--stratum", "0,3", "--stratum", "2,5", "--format", "table"],
            "aafa4120ac62b1c8de62c4f37a8735bd0feeadf9df5c0a5322ff4433dc2c97a9",
        ),
        (  # three tight strata: the summed kernel's lower bound is 0, nonzero "unknown"
            ["analyze", "--k1", "0", "--k2", "0", "--r", "0", *["--stratum", "0,3"] * 3],
            "8a9c9b2b1d663ca3f800bf35c9e34ec24b64f74fd746684810bebf841e95ba8f",
        ),
        (
            ["analyze", "--k1", "0", "--k2", "0", "--r", "0", *["--stratum", "0,3"] * 3,
             "--format", "table"],
            "d514414834e77c8947fe3002f404e1520545e684b0a89d7dcf8ccc1567e68ea9",
        ),
    ],
    ids=[
        "analyze-3-strata", "analyze-3-strata-table", "analyze-trivial", "analyze-40-wall",
        "sweep-30", "verify-8", "verify-40", "verify-20-seed-7", "sweep-20-table",
        "analyze-unknown-kernel", "analyze-unknown-kernel-table", "sweep-200", "analyze-mixed-strata-k1-0",
        "analyze-40-wide-labels-table", "analyze-40-wide-labels",
        "analyze-mixed-strata-k1-0-table", "analyze-unknown-kernel-3-strata",
        "analyze-unknown-kernel-3-strata-table",
    ],
)
def test_output_bytes_are_pinned(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_verify_bytes_are_pinned_under_python_O():
    # no oracle leans on assert: with assertions stripped, verify prints the same bytes
    code = (
        "import sys\n"
        "if __debug__: sys.exit(3)\n"
        "from siegel_weights import cli\n"
        "sys.exit(cli.main(['verify', '--max-k1', '8', '--seed', '0']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_8_DIGEST


@pytest.mark.parametrize(
    "argv, canonical",
    [
        ([*ANALYZE_3_1_4, "--stratum", "1_0,3"], [*ANALYZE_3_1_4, "--stratum", "10,3"]),
        ([*ANALYZE_3_1_4, "--stratum", " 1 , 3"], [*ANALYZE_3_1_4, "--stratum", "1,3"]),
        (["analyze", "--k1", "\u0663", "--k2", "1", "--r", "4"], ANALYZE_3_1_4),
        (["analyze", "--k1=3", "--k2", "1", "--r", "4"], ANALYZE_3_1_4),
        ([*ANALYZE_3_1_4, "--str", "0,3"], [*ANALYZE_3_1_4, "--stratum", "0,3"]),
        (["analyze", "--r", "4", "--stratum", "1,1", "--k2", "1", "--k1", "3"],
         [*ANALYZE_3_1_4, "--stratum", "1,1"]),
        (["analyze", "--k1", "3", "--k2", "1", "--r=-4"], ["analyze", "--k1", "3", "--k2", "1", "--r", "-4"]),
    ],
    ids=["underscore-in-g", "spaces-around-g-and-c", "arabic-indic-digit-k1", "equals-sign",
         "abbreviated-flag", "flags-in-another-order", "equals-sign-negative-r"],
)
def test_numbers_are_read_with_python_int(argv, canonical):
    # the documented integer grammar: int() accepts digit separators, surrounding
    # whitespace and any Unicode decimal digit; refusing them would change the CLI.
    # The other spellings argparse takes (`=`, abbreviations, any flag order) print
    # what the canonical line prints, whichever of the reader and argparse reads them
    got = _main_in_process(argv)
    assert got == _main_in_process(canonical)
    assert got[0] == 0


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_a_line_only_argparse_reads_prints_its_canonical_twins_bytes(fmt):
    # '-0 ' is a value to argparse, not to the reader: argparse's own append reads both strata
    argv = ["analyze", "--k1", "-0 ", "--k2", "0", "--r", "0", "--stratum", "0,3", "--stratum=1,1", "--format", fmt]
    canonical = ["analyze", "--k1", "0", "--k2", "0", "--r", "0", "--stratum", "0,3", "--stratum", "1,1",
                 "--format", fmt]
    assert cli._read_args(argv) is None and cli._read_args(canonical) is not None
    fallback, twin = run_cli(*argv), run_cli(*canonical)
    assert (fallback.returncode, fallback.stdout) == (twin.returncode, twin.stdout)
    assert twin.returncode == 0
    both = ("strata = (g=0, c=3), (g=1, c=1)\n" in twin.stdout if fmt == "table"
            else json.loads(twin.stdout)["strata"] == [{"g": 0, "c": 3}, {"g": 1, "c": 1}])
    assert both  # both strata, in order


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_analyze_rejects_stratum_data_beyond_the_bound(fmt):
    # 4299 digits still parse as an int, but the ranks built from them pass the
    # interpreter's 4300-digit limit on printing an int
    nines = "9" * 4299
    argv = ["analyze", "--k1", "1000000", "--k2", "0", "--r", "1000000", "--format", fmt]
    for stratum in (f"{nines},5", f"1,{nines}", "1000001,5"):
        proc = run_cli(*argv, "--stratum", stratum)
        assert proc.returncode == 2
        assert proc.stderr == ""
        (line,) = proc.stdout.splitlines()
        assert json.loads(line)["error"] == "InputBoundExceeded"
    proc = run_cli(*argv, "--stratum", "1000000,1000000")
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_analyze_parity_error_is_machine_readable_exit_2():
    proc = run_cli("analyze", "--k1", "2", "--k2", "1", "--r", "4")
    assert proc.returncode == 2
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ParityViolation"
    assert "message" in err


def test_analyze_rejects_non_dominant_and_bad_strata():
    proc = run_cli("analyze", "--k1", "1", "--k2", "3", "--r", "4")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "NotDominant"

    proc = run_cli("analyze", "--k1", "3", "--k2", "1", "--r", "4", "--stratum", "0,2")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "InvalidStratum"

    for text in ("nope", "1,2,3", "1,"):  # not two integers
        proc = run_cli("analyze", "--k1", "3", "--k2", "1", "--r", "4", "--stratum", text)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == "PreconditionViolation"

    # argparse reads "-1,3" after a space as an option, so the value is missing;
    # with "=" it reaches the stratum check
    proc = run_cli(*ANALYZE_3_1_4, "--stratum", "-1,3")
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "error": "PreconditionViolation", "message": "argument --stratum: expected one argument"
    }
    proc = run_cli(*ANALYZE_3_1_4, "--stratum=-1,3")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "InvalidStratum"


def test_analyze_table_format():
    proc = run_cli("analyze", "--k1", "3", "--k2", "1", "--r", "4", "--format", "table")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "lambda = (3, 1, 4)   k = 1"
    assert any(line.startswith("kostant") for line in lines)
    assert any(line.startswith("ic*") for line in lines)


def test_multiple_strata_accepted():
    proc = run_cli(
        "analyze", "--k1", "3", "--k2", "1", "--r", "4",
        "--stratum", "0,3", "--stratum", "1,1",
    )
    payload = json.loads(proc.stdout)
    assert payload["strata"] == [{"g": 0, "c": 3}, {"g": 1, "c": 1}]
    assert len(payload["boundary"]["siegel"]) == 2
    assert payload["k"] == 1


def test_each_stratum_text_is_parsed_once_and_a_refused_one_each_time(capsys):
    first, again, other = map(cli._parse_stratum, ["1,1", "1,1", "1, 1"])
    assert first is again and other == first and other is not first
    for _ in range(2):  # an error is raised, not cached
        assert cli.main(["analyze", "--k1", "3", "--k2", "1", "--r", "4", "--stratum", "0,1"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "InvalidStratum"


# --- sweep ----------------------------------------------------------------------

def test_sweep_table_shape_and_agreement():
    proc = run_cli("sweep", "--max-k1", "3")
    assert proc.returncode == 0
    lines = proc.stdout.rstrip("\n").splitlines()
    assert len(lines) == 1 + 10  # header + one row per dominant pair
    header = lines[0].split()
    assert header == ["k1", "k2", "r", "k", "closed", "agree"]
    for line in lines[1:]:
        assert line.split()[-1] == "yes"
    widths = {len(line) for line in lines}
    assert len(widths) == 1  # fixed-width rows


def test_sweep_trivial_bound():
    proc = run_cli("sweep", "--max-k1", "0")
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["0", "0", "0", "0", "0", "yes"]


def test_sweep_rejects_out_of_range_bounds():
    cases = [("sweep", b) for b in ("-1", "201", "1000")] + [("verify", b) for b in ("-1", "41")]
    for command, bound in cases:
        proc = run_cli(command, "--max-k1", bound)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == "PreconditionViolation"


def test_sweep_k_column_does_not_depend_on_strata():
    a = run_cli("sweep", "--max-k1", "5")
    b = run_cli("sweep", "--max-k1", "5", "--stratum", "1,1", "--stratum", "2,5")
    assert a.stdout == b.stdout


def test_sweep_json_format():
    proc = run_cli("sweep", "--max-k1", "2", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["bound"] == 2
    assert payload["strata"] == [{"g": 0, "c": 3}]
    assert len(payload["rows"]) == 6
    assert all(row["agree"] is True for row in payload["rows"])
    assert payload["rows"][-1] == {
        "lambda": [2, 2, 4],
        "k": 0,
        "closed_form": 0,
        "agree": True,
    }
    wide = run_cli(
        "sweep", "--max-k1", "30", "--format", "json", "--stratum", "1,1", "--stratum", "2,5"
    )
    assert wide.returncode == 0
    assert json.dumps(json.loads(wide.stdout), indent=2) + "\n" == wide.stdout


# --- JSON writer ----------------------------------------------------------------

# quotes, backslashes, control characters and non-ASCII (BMP and astral)
JSON_CHARS = st.sampled_from('"\\/\x00\x08\n\t\x1f\x7f aZé€\u2028\U0001F600') | st.characters()
JSON_TEXT = st.text(JSON_CHARS, max_size=8)
JSON_INTS = st.integers() | st.sampled_from([0, -1, 2**64, 2**64 + 1, -(2**64) - 1, 10**30])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_INTS | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=5),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None)
@given(value=JSON_VALUES)
@example(value={"a": [[], {}, [{"b": [None, True, False, 0, -(2**70), 'q"\\\x01é\U0001F600']}]]})
@example(value=[[[[[[]]]]], {"x": {"y": {"z": {}}}, "": {}}])
@example(value={"w": ((WeightTriple(3, -1, 4),), (), [WeightTriple(0, 0, 0)])})
@example(value="")
@example(value=-5)
def test_dump_matches_json_dumps_indent_2(value):
    assert cli._dump(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "a"}, [{"k": [0.0]}], {"k": {None: 1}}])
def test_dump_rejects_unsupported_types(value):
    with pytest.raises(TypeError):
        cli._dump(value)


def entry_dict(e, *witness):
    """A profile entry as the dict that `json.dumps` is the oracle for."""
    out = {
        "m": e.m, "n_classical": e.n_classical, "n_perverse": e.n_perverse, "weight": e.weight,
        "rank_lower": e.rank_lower, "rank_upper": e.rank_upper, "nonzero": e.nonzero,
        "origin": e.origin, "provenance": e.provenance,
    }
    if witness:
        out["witness"] = witness[0]
    return out


@st.composite
def profile_entries(draw):
    """Entries with huge and negative ints and every value of nonzero, and a witness
    flag that is absent (an empty tuple), true or false."""
    nonzero = draw(st.sampled_from([True, False, "unknown"]))
    lo = draw(st.integers(min_value=1) | st.just(2**64 + 1)) if nonzero is True else 0
    extra = draw(st.integers(min_value=1 if lo == 0 else 0) | st.just(2**65))
    hi = 0 if nonzero is False else lo + extra
    origin = draw(st.lists(st.tuples(JSON_INTS, JSON_INTS), max_size=3).map(tuple))
    npv = draw(st.none() | JSON_INTS)
    e = CohomologyEntry(draw(JSON_INTS), draw(JSON_INTS), draw(JSON_INTS), lo, hi, origin,
                        draw(JSON_TEXT), npv)
    assert e.nonzero == nonzero
    return e, draw(st.sampled_from([(), (True,), (False,)]))


def report_dict(report):
    """An analyze report as the dict that `json.dumps` is the oracle for, built field by field."""
    def profile(p):
        kernel = p.kernel_entry
        return {"entries": [entry_dict(e, e in report.witnesses) for e in p.entries],
                "kernel": None if kernel is None else entry_dict(kernel, kernel in report.witnesses)}
    return {
        "lambda": report.lam,
        "k": report.k,
        "avoided_interval": report.avoided_interval or [],
        "occurring_weights": report.occurring_weights,
        "regular": report.regular,
        "in_avoidance_category": report.in_avoidance_category,
        "duality_twist": report.duality_twist,
        "kostant": {name: [mod._asdict() for mod in report.kostant[m]] for name, m in PARABOLICS},
        "boundary": {
            "siegel": [{"stratum": s._asdict(), "entries": [entry_dict(e) for e in es]}
                       for s, es in report.boundary[0]],
            "klingen": {"entries": [entry_dict(e) for e in report.boundary[1]]},
        },
        "intermediate": {name: profile(report.intermediate[m]) for name, m in PARABOLICS},
        "strata": [s._asdict() for s in report.strata],
    }


PARABOLICS = (("siegel", 0), ("klingen", 1))
REPORT = intersection.analysis_report(root_data.make_weight(5, 2, 7), [StratumDatum(0, 3), StratumDatum(1, 2)])
ENTRY_SITES = ("klingen", "intermediate", "kernel")


def replaced_at(report, site, change):
    """report with change applied to one entry: its first Klingen boundary entry ("klingen"),
    its first Siegel intermediate entry ("intermediate") or its Siegel kernel entry ("kernel")."""
    if site == "klingen":
        first, *rest = report.boundary[1]
        return report._replace(boundary={**report.boundary, 1: (change(first), *rest)})
    p = report.intermediate[0]
    if site == "kernel":
        p = p._replace(kernel_entry=change(p.kernel_entry))
    else:
        p = p._replace(entries=(change(p.entries[0]), *p.entries[1:]))
    return report._replace(intermediate={**report.intermediate, 0: p})


def write_both(report):
    """The analyze JSON and table of report."""
    return cli.report_json(report), cli._report_table(report)


def test_written_reports_match_the_dict_form_and_the_table_rows():
    assert cli.report_json(REPORT) == json.dumps(report_dict(REPORT), indent=2)
    assert cli._report_table(REPORT) == table_text(REPORT)


@settings(derandomize=True, deadline=None)
@given(drawn=profile_entries(), site=st.sampled_from(ENTRY_SITES))
def test_entry_writer_matches_the_dict_form(drawn, site):
    # any entry, written at any of the fixed places of a report: the entry's fields make up
    # part of the shape that keys the report's templates
    e, witness = drawn
    report = replaced_at(REPORT, site, lambda _: e)
    report = report._replace(witnesses=(e,) if witness == (True,) else ())
    assert cli.report_json(report) == json.dumps(report_dict(report), indent=2)
    if "\n" in e.provenance:  # a table row is one line
        with pytest.raises(ValueError):
            cli._report_table(report)
    else:
        assert cli._report_table(report) == table_text(report)


# Changes of one entry of a report, each run at every ENTRY_SITES site of a report whose
# templates are cached and at every SHIFT_SETUPS point stratum.  As 0 == False and
# 1 == 1.0 == True, the EQUAL ones leave the entry equal to the one they change: only a
# field's type differs.  Both writers must refuse every REFUSED change; the others change
# the shape, or only a value, and the output must follow them.
ENTRY_MUTANTS = {
    "bool-m": lambda e: e._replace(m=bool(e.m)),
    "bool-origin": lambda e: e._replace(origin=tuple((bool(p), q) for p, q in e.origin)),
    "float-origin": lambda e: e._replace(origin=tuple((p, float(q)) for p, q in e.origin)),
    "float-weight": lambda e: e._replace(weight=float(e.weight)),
    "float-rank": lambda e: e._replace(rank_lower=1.0, rank_upper=1.0),
    "bool-rank": lambda e: e._replace(rank_lower=True, rank_upper=True),
    "bool-n-perverse": lambda e: e._replace(n_perverse=False),
    "none-provenance": lambda e: e._replace(provenance=None),
    "bytes-provenance": lambda e: e._replace(provenance=e.provenance.encode()),
    "weight-shifted": lambda e: e._replace(weight=e.weight + 1),
    "provenance-shifted": lambda e: e._replace(provenance="derived" if e.provenance == "paper" else "paper"),
    "percent-provenance": lambda e: e._replace(provenance="%s %d%%"),
}
EQUAL = ("bool-m", "bool-origin", "float-origin", "float-weight")
REFUSED = (*EQUAL, "float-rank", "bool-rank", "bool-n-perverse", "none-provenance", "bytes-provenance")


def writes_as_its_mutant_says(name, report):
    """Both writers refuse report, changed by ENTRY_MUTANTS[name], if name is REFUSED, and
    otherwise write what the dict form and the table rows say."""
    if name in REFUSED:
        for write in (cli.report_json, cli._report_table):
            with pytest.raises(TypeError):
                write(report)
    else:
        assert write_both(report) == (json.dumps(report_dict(report), indent=2), table_text(report))


def test_the_refused_entry_mutants_equal_the_entries_they_change():
    for site in ENTRY_SITES:
        for name in EQUAL:
            changed = replaced_at(REPORT, site, ENTRY_MUTANTS[name])
            assert changed == REPORT and changed is not REPORT


@pytest.mark.parametrize("site", ENTRY_SITES)
@pytest.mark.parametrize("name", list(ENTRY_MUTANTS))
def test_warm_templates_refuse_an_entry_that_does_not_fit(name, site):
    write_both(REPORT)  # the templates of REPORT's shape are now cached
    writes_as_its_mutant_says(name, replaced_at(REPORT, site, ENTRY_MUTANTS[name]))


REPORT_MUTANTS = {  # fields of a report whose type a template must not take for another's
    "int-regular": {"regular": int(REPORT.regular)},
    "float-k": {"k": float(REPORT.k)},
    "bool-lambda": {"lam": (REPORT.lam[0], True, *REPORT.lam[2:])},
    "float-twist": {"duality_twist": float(REPORT.duality_twist)},
    "float-kostant": {"kostant": {**REPORT.kostant, 0: (REPORT.kostant[0][0]._replace(
        levi_dim=float(REPORT.kostant[0][0].levi_dim)), *REPORT.kostant[0][1:])}},
    # tuple.__new__ skips StratumDatum's own check, which refuses a bool
    "bool-stratum": {"strata": (REPORT.strata[0], tuple.__new__(StratumDatum, (True, 2)))},
    "bool-point-stratum": {"boundary": {**REPORT.boundary, 0: (REPORT.boundary[0][0], (
        tuple.__new__(StratumDatum, (True, 2)), REPORT.boundary[0][1][1]))}},
}


@pytest.mark.parametrize("name", list(REPORT_MUTANTS))
def test_warm_templates_refuse_report_fields_of_another_type(name):
    write_both(REPORT)
    report = REPORT._replace(**REPORT_MUTANTS[name])
    assert name == "bool-lambda" or report == REPORT
    for write in (cli.report_json, cli._report_table):
        with pytest.raises(TypeError):
            write(report)


# --- per-report templates ----------------------------------------------------------

def entry_row(section, e):
    """A table row written field by field, the layout the templates must reproduce."""
    npv = "-" if e.n_perverse is None else str(e.n_perverse)
    origin = ";".join(f"{p}{q}" for p, q in e.origin)
    return (
        f"{section:<9} {e.m:>2} {e.n_classical:>3} {npv:>4} {e.weight:>7} "
        f"{e.rank_lower:>6} {e.rank_upper:>6} {str(e.nonzero):>8} {origin:<12} {e.provenance:<8}"
    )


def entry_rows(report):
    """The entry part of the analyze table, one entry_row per entry."""
    rows = [entry_row(f"bd(g{s.g}c{s.c})", e) for s, es in report.boundary[0] for e in es]
    rows += [entry_row("bd", e) for e in report.boundary[1]]
    return rows + [
        entry_row("ic*" if e in report.witnesses else "ic", e)
        for m in (0, 1) for e in report.intermediate[m].all_entries()
    ]


def table_text(report):
    """The analyze table written line by line, the layout its template must reproduce."""
    lam, iv, ow = report.lam, report.avoided_interval, report.occurring_weights
    return "\n".join([
        f"lambda = ({lam.k1}, {lam.k2}, {lam.r})   k = {report.k}",
        f"avoided_interval = {'[] (empty)' if iv is None else f'[{iv[0]}, {iv[1]}]'}",
        "occurring_weights = " + ("undetermined" if ow is None else f"{ow[0]} and {ow[1]} (upper by duality)"),
        f"regular = {report.regular}   in_avoidance_category = {report.in_avoidance_category}"
        f"   duality_twist = {report.duality_twist}",
        f"strata = {', '.join(f'(g={s.g}, c={s.c})' for s in report.strata)}",
        "",
        f"{'sec':<9} {'m':>2} {'q':>3} {'highest_weight':<16} {'dim':>5} {'restr':>6} {'motw':>6}",
        *(f"{'kostant':<9} {mod.m:>2} {mod.q:>3} {str(tuple(mod.highest_weight)):<16} "
          f"{mod.levi_dim:>5} {mod.restriction_weight:>6} {mod.motivic_weight:>6}"
          for m in (0, 1) for mod in report.kostant[m]),
        "",
        f"{'sec':<9} {'m':>2} {'n':>3} {'npv':>4} {'weight':>7} {'rk_lo':>6} {'rk_hi':>6} {'nonzero':>8} "
        f"{'origin':<12} {'prov':<8}",
        *entry_rows(report),
    ])


@st.composite
def report_inputs(draw):
    """A weight inside the cone, on a wall or at the origin, and 1-40 strata with
    labels up to bd(g12c1000)."""
    k1 = draw(st.integers(0, 1000))
    k2 = draw(st.sampled_from([0, k1, k1 // 2]))
    r = k1 + k2 + 2 * draw(st.integers(-500, 500))
    g = st.integers(0, 12)
    strata = st.lists(g.flatmap(lambda g: st.tuples(st.just(g), st.integers(3 if g == 0 else 1, 1000))),
                      min_size=1, max_size=40)
    return root_data.make_weight(k1, k2, r), [StratumDatum(g, c) for g, c in draw(strata)]


@settings(derandomize=True, deadline=None)
@given(drawn=report_inputs())
@example(drawn=(root_data.make_weight(0, 0, 0), [StratumDatum(0, 3)] * 40))
def test_templates_match_the_per_entry_writers(drawn):
    lam, strata = drawn
    argv = ["analyze", "--k1", str(lam.k1), "--k2", str(lam.k2), "--r", str(lam.r)]
    argv += [f"--stratum={s.g},{s.c}" for s in strata]
    outs = []
    for fmt in ("json", "table"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([*argv, "--format", fmt]) == 0
        outs.append(out.getvalue())
    payload = json.loads(outs[0])
    assert json.dumps(payload, indent=2) + "\n" == outs[0]
    report = intersection.analysis_report(lam, strata)
    expected = [{"stratum": s._asdict(), "entries": [entry_dict(e) for e in es]}
                for s, es in report.boundary[0]]
    assert payload["boundary"]["siegel"] == json.loads(json.dumps(expected))
    assert payload["strata"] == [s._asdict() for s in strata]
    rows = entry_rows(report)
    assert outs[1].splitlines()[-len(rows):] == rows


def clear_templates():
    for cache in (cli._json_template, cli._table_template, cli._stratum):
        cache.cache_clear()


@settings(derandomize=True, deadline=None, max_examples=25)
@given(drawn=st.lists(report_inputs(), min_size=2, max_size=5))
@example(drawn=[(root_data.make_weight(*lam), [StratumDatum(*s) for s in strata]) for lam, strata in [
    ((0, 0, 0), [(0, 3)]), ((9, 4, 13), [(1, 1)] * 40), ((6, 6, 12), [(2, 1), (0, 5)]), ((6, 0, 8), [(3, 7)])]])
def test_warm_templates_write_what_the_dict_form_says(drawn):
    # reports in the drawn order, inside the cone, on both walls and at the origin: each
    # written after the others, its shape's templates cached or not, and then cold
    reports = [intersection.analysis_report(lam, strata) for lam, strata in drawn]
    warm = [write_both(report) for report in reports]
    for report, written in zip(reports, warm):
        assert written == (json.dumps(report_dict(report), indent=2), table_text(report))
        clear_templates()
        assert write_both(report) == written


def test_template_caches_hold_one_entry_per_shape():
    # a seeded stream like the analyze benchmark's, 1-40 strata per command; the reports
    # have two shapes, k >= 1 or not, and all point strata one stratum type template
    clear_templates()
    rng = random.Random(26)
    for i in range(40):
        k1 = rng.randint(2, 300)
        k2 = rng.choice((0, k1)) if i % 4 == 0 else rng.randint(1, k1 - 1)
        strata = [(g, rng.randint(3 if g == 0 else 1, 20)) for g in (rng.randint(0, 5) for _ in range(i + 1))]
        fmt = "table" if i % 8 in (0, 3) else "json"
        analyze_output(root_data.make_weight(k1, k2, k1 + k2), [StratumDatum(*s) for s in strata], fmt)
    for cache, size in ((cli._json_template, 2), (cli._table_template, 2), (cli._stratum, 2)):
        assert cache.cache_info().currsize == size and cache.cache_info().hits > 0, cache


def reshaped_report(change, setup):
    """The report of a SHIFT_SETUPS entry whose last stratum's entries are change(entries)."""
    lam, strata = SHIFT_SETUPS[setup]
    report = intersection.analysis_report(root_data.make_weight(*lam), [StratumDatum(*s) for s in strata])
    *pairs, (s, es) = report.boundary[0]
    return report._replace(boundary={0: (*pairs, (s, change(es))), 1: report.boundary[1]})


def shifted_report(change, setup="distinct-E"):
    """The report of a SHIFT_SETUPS entry whose last stratum's first entry is change(entry)."""
    return reshaped_report(lambda es: (change(es[0]), *es[1:]), setup)


# A writer writes each entries tuple once, however many strata share it.  The changed
# stratum is the only one of its 2g - 2 + c, or shares it with an earlier stratum, or
# shares (g, c), or, at a wall weight whose first entry has rank 1, shares the value
# of its entries too (True == 1.0 == 1): only reuse keyed by the tuple's identity
# writes, and so checks, the changed tuple in every case.
SHIFT_SETUPS = {  # name: ((k1, k2, r), strata)
    "distinct-E": ((5, 2, 7), [(0, 3), (1, 2), (2, 1)]),
    "equal-E": ((5, 2, 7), [(0, 3), (1, 1)]),
    "equal-g-c": ((5, 2, 7), [(0, 3), (0, 3)]),
    "equal-value": ((2, 2, 4), [(0, 3), (1, 1)]),
}


def test_the_equal_value_setup_changes_only_the_identity_of_the_entries():
    for name in ("float-rank", "bool-rank"):
        first, last = shifted_report(ENTRY_MUTANTS[name], "equal-value").boundary[0]
        assert last[1] == first[1] and last[1] is not first[1]


@pytest.mark.parametrize("name", list(ENTRY_MUTANTS))
def test_templates_refuse_a_stratum_that_does_not_fit(name):
    # a well-typed change no longer fits the first stratum's template: it is written
    # from a stratum type template of its own
    for setup in SHIFT_SETUPS:
        writes_as_its_mutant_says(name, shifted_report(ENTRY_MUTANTS[name], setup))


@pytest.mark.parametrize("setup", list(SHIFT_SETUPS))
def test_a_stratum_of_another_type_is_written_as_it_is(setup):
    report = reshaped_report(lambda es: es[:-1], setup)  # the last stratum loses an entry
    assert write_both(report) == (json.dumps(report_dict(report), indent=2), table_text(report))


def test_templates_escape_a_percent_in_fixed_text():
    # every entry of every stratum gets the same provenance, so the template fits
    report = intersection.analysis_report(root_data.make_weight(5, 2, 7), [StratumDatum(0, 3)] * 2)
    marked = {0: tuple((s, tuple(e._replace(provenance="%s %d%%") for e in es))
                       for s, es in report.boundary[0]), 1: report.boundary[1]}
    report = report._replace(boundary=marked)
    payload = json.loads(cli.report_json(report))
    assert {e["provenance"] for b in payload["boundary"]["siegel"] for e in b["entries"]} == {"%s %d%%"}
    rows = entry_rows(report)
    assert cli._report_table(report).splitlines()[-len(rows):] == rows


@st.composite
def strata_with_repeats(draw):
    """A weight, and 2-12 strata from a pool of at most four on at most two values of
    2g - 2 + c, so that Euler terms and (g, c) repeat."""
    k1 = draw(st.integers(0, 300))
    k2 = draw(st.sampled_from([0, k1, k1 // 2]))
    lam = root_data.make_weight(k1, k2, k1 + k2 + 2 * draw(st.integers(-50, 50)))
    euler = st.sampled_from(draw(st.lists(st.integers(1, 30), min_size=1, max_size=2)))
    of_euler = euler.flatmap(lambda e: st.sampled_from(
        [StratumDatum(g, e + 2 - 2 * g) for g in range(e // 2 + 2) if e + 2 - 2 * g >= (3 if g == 0 else 1)]))
    pool = draw(st.lists(of_euler, min_size=1, max_size=4))
    return lam, draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))


def analyze_output(lam, strata, fmt):
    argv = ["analyze", "--k1", str(lam.k1), "--k2", str(lam.k2), "--r", str(lam.r), "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, *(f"--stratum={s.g},{s.c}" for s in strata)]) == 0
    return out.getvalue()


def siegel_items(out):
    """The texts of the items of boundary.siegel in an analyze JSON output."""
    siegel = out.split('\n  "boundary": {\n    "siegel": [\n      ', 1)[1].split('\n    ],\n    "klingen"', 1)[0]
    return siegel.split(",\n      {")


@settings(derandomize=True, deadline=None, max_examples=40)
@given(drawn=strata_with_repeats())
@example(drawn=(root_data.make_weight(2, 2, 4), [StratumDatum(0, 3), StratumDatum(1, 1), StratumDatum(0, 3)]))
def test_shared_entries_write_each_stratum_as_its_own_report_does(drawn):
    # strata that share an entries tuple are written from one text: each stratum's
    # boundary.siegel item and bd(...) rows must still be those of its one-stratum report
    lam, strata = drawn
    items = siegel_items(analyze_output(lam, strata, "json"))
    rows = [line for line in analyze_output(lam, strata, "table").splitlines() if line.startswith("bd(g")]
    assert len(items) == len(strata) and len(rows) == 8 * len(strata)
    for i, s in enumerate(strata):
        alone = siegel_items(analyze_output(lam, [s], "json"))
        assert [("{" if i else "") + items[i]] == alone
        alone_rows = [line for line in analyze_output(lam, [s], "table").splitlines() if line.startswith("bd(g")]
        assert rows[8 * i:8 * i + 8] == alone_rows


# --- verify ---------------------------------------------------------------------

def test_verify_passes_with_the_documented_seed():
    proc = run_cli("verify", "--seed", "7", "--max-k1", "4")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("ok   ") for line in lines)


def test_verify_trivial_bound_passes():
    proc = run_cli("verify", "--max-k1", "0")
    assert proc.returncode == 0


def test_verify_counts_each_suite_and_stops_at_the_first_counterexample(monkeypatch, capsys):
    ran = []

    def failing(rng, max_k1):
        yield None
        yield {"check": "drawn", "lambda": WeightTriple(1, 0, 1)}
        ran.append("failing resumed")

    def later(rng, max_k1):
        ran.append("later started")
        yield None

    table = (
        ("empty", lambda rng, max_k1: iter(())),
        ("passing", lambda rng, max_k1: iter([None, None])),
        ("failing", failing),
        ("later", later),
    )
    monkeypatch.setattr(checks, "SUITES", table)
    assert cli.main(["verify", "--max-k1", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ok   empty (0 checks)",
        "ok   passing (2 checks)",
        'FAIL failing: {"check": "drawn", "lambda": [1, 0, 1]}',
    ]
    assert ran == []


def test_stratum_profiles_has_no_check_below_the_first_regular_weight(capsys):
    assert cli.main(["verify", "--max-k1", "1"]) == 0
    assert "ok   stratum_profiles (0 checks)" in capsys.readouterr().out.splitlines()


def readme_suite_names():
    """The suite names listed in the README's verify section, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("The suites run in this order")[1]
    return [line.split()[0] for line in block.split("```")[1].strip().splitlines()]


def test_readme_lists_the_verify_suites_in_order():
    assert readme_suite_names() == [name for name, _ in checks.SUITES]


def test_verify_negative_control_catches_corrupted_root_data(monkeypatch, capsys):
    # corrupting rho must break the closed-form tables and fail verification
    monkeypatch.setattr(root_data, "RHO", WeightTriple(2, 2, 0))
    code = cli.main(["verify", "--max-k1", "2", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    failing = captured.out.splitlines()[-1]
    payload = json.loads(failing.split(":", 1)[1])
    assert "lambda" in payload or "check" in payload


def test_verify_negative_control_catches_corrupted_cohomology(monkeypatch, capsys):
    real = boundary.group_cohomology_dims

    def corrupted(u, n, euler):  # one H^1 too many per stratum when u >= 1
        h0, h1 = real(u, n, euler)
        return (h0, h1 + n) if u >= 1 else (h0, h1)

    monkeypatch.setattr(boundary, "group_cohomology_dims", corrupted)
    code = cli.main(["verify", "--max-k1", "3", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out


# Faults in the u = 0 branch of group_cohomology_dims, which only wall weights
# reach: H^0 not summed over the strata, and H^1 one too large.
WALL_MUTANTS = {
    "h0_not_summed": lambda real: lambda u, n, euler: (1, euler + 1) if u == 0 else real(u, n, euler),
    "h1_one_high": lambda real: lambda u, n, euler: (n, euler + n + 1) if u == 0 else real(u, n, euler),
}


@pytest.mark.parametrize("mutant", list(WALL_MUTANTS))
def test_verify_negative_control_catches_wrong_wall_cohomology(mutant, monkeypatch, capsys):
    monkeypatch.setattr(boundary, "group_cohomology_dims",
                        WALL_MUTANTS[mutant](boundary.group_cohomology_dims))
    code = cli.main(["verify", "--max-k1", "3", "--seed", "7"])
    *passed, last = capsys.readouterr().out.splitlines()
    assert code == 1
    assert all(line.startswith("ok   ") for line in passed)
    assert last.startswith("FAIL reference_rows: ")
    assert json.loads(last.split(": ", 1)[1])["check"] == "wall-weight kernel"


def _relabelled(real, wrong, tag):
    """The entry builder, with the provenance of each entry that wrong picks set to tag."""
    def entries(m, modules, ranks, r=None):
        return tuple(e._replace(provenance=tag) if wrong(e, r) else e for e in real(m, modules, ranks, r))

    return entries


# Faults in the provenance cut-off n + m <= 2: the degree-2 pieces of either
# parabolic marked "derived", and the classical Klingen q = 2 piece marked "paper".
PROVENANCE_MUTANTS = {
    "printed_top_derived": lambda real: _relabelled(
        real, lambda e, r: e.n_classical + e.m == 2, "derived"),
    "klingen_q2_paper": lambda real: _relabelled(
        real, lambda e, r: e.m == KLINGEN and r is None and e.n_classical == 2, "paper"),
}


@pytest.mark.parametrize("mutant", list(PROVENANCE_MUTANTS))
def test_verify_negative_control_catches_wrong_provenance(mutant, monkeypatch, capsys):
    monkeypatch.setattr(intersection, "_entries", PROVENANCE_MUTANTS[mutant](intersection._entries))
    code = cli.main(["verify", "--max-k1", "3", "--seed", "7"])
    *passed, last = capsys.readouterr().out.splitlines()
    assert code == 1
    assert all(line.startswith("ok   ") for line in passed)
    assert last.startswith("FAIL reference_rows: ")
    assert json.loads(last.split(": ", 1)[1])["check"] == "boundary provenance"


def _first_point_entry_reweighted(real):
    """intermediate_profile as seen by the suites, the weight of each Siegel profile's
    first entry raised by one: a rank-0 entry off the walls, which no earlier suite checks."""
    def reweighted(lam, m, strata):
        profile = real(lam, m, strata)
        if m != root_data.SIEGEL:
            return profile
        first, *rest = profile.entries
        return profile._replace(entries=(first._replace(weight=first.weight + 1), *rest))

    return reweighted


def test_verify_names_the_point_rows_when_they_differ(monkeypatch, capsys):
    # the first reference_rows item covers the point rows, the boundary provenance and rows,
    # and the report scalars, and names the part that differs
    monkeypatch.setattr(checks, "intermediate_profile", _first_point_entry_reweighted(checks.intermediate_profile))
    code = cli.main(["verify", "--max-k1", "3", "--seed", "7"])
    *passed, last = capsys.readouterr().out.splitlines()
    assert code == 1
    assert all(line.startswith("ok   ") for line in passed)
    assert last.startswith("FAIL reference_rows: ")
    counterexample = json.loads(last.split(": ", 1)[1])
    assert counterexample["check"] == "point stratum rows"
    assert counterexample["got"][0] == [4, 1, 0, 0, False]
    assert counterexample["want"][0] == [4, 0, 0, 0, False]


def _classical_weights_shifted(real):
    """The entry builder, each classical entry's weight one too high: a wrong weight shift."""
    def entries(m, modules, ranks, r=None):
        return tuple(e._replace(weight=e.weight + 1) if r is None else e for e in real(m, modules, ranks, r))

    return entries


def _twist_lowered(real):
    """analysis_report as seen by the suites, its duality twist r + 2 instead of r + 3."""
    def lowered(lam, strata):
        report = real(lam, strata)
        return report._replace(duality_twist=report.duality_twist - 1)

    return lowered


def _siegel_kernel_replaced(change):
    """A mutant of intermediate_profile as seen by the suites: each Siegel kernel entry e made change(e)."""
    def mutant(real):
        def replaced(lam, m, strata):
            profile = real(lam, m, strata)
            if m != root_data.SIEGEL or profile.kernel_entry is None:
                return profile
            return profile._replace(kernel_entry=change(profile.kernel_entry))

        return replaced

    return mutant


# Faults that only one reference_rows check shows: the analysis_report parts of its
# first item, and its kernel entry (the reference_rows mutant of SUITE_MUTANTS fails
# the boundary rows first, as the kernel's source rank is a boundary row's rank too).
# Each entry: (check named, module, attribute, function of the real attribute -> mutant).
REFERENCE_MUTANTS = {
    "boundary rows": ("boundary rows", intersection, "_entries", _classical_weights_shifted),
    "report scalars": ("report scalars", checks, "analysis_report", _twist_lowered),
    "kernel entry": ("kernel entry", checks, "intermediate_profile",  # the upper rank one too high
                     _siegel_kernel_replaced(lambda e: e._replace(rank_upper=e.rank_upper + 1))),
    "kernel origin": ("kernel entry", checks, "intermediate_profile",  # the other piece of degree 2
                      _siegel_kernel_replaced(lambda e: e._replace(origin=((0, 2),)))),
    "public avoided_interval": ("public avoided_interval", checks, "avoided_interval",  # k one too high
                                lambda real: lambda lam, strata: (real(lam, strata)[0] + 1, real(lam, strata)[1])),
}


@pytest.mark.parametrize("control", list(REFERENCE_MUTANTS))
def test_verify_names_the_reference_check_that_differs(control, monkeypatch, capsys):
    part, module, name, mutant = REFERENCE_MUTANTS[control]
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    code = cli.main(["verify", "--max-k1", "3", "--seed", "7"])
    *passed, last = capsys.readouterr().out.splitlines()
    assert code == 1
    assert all(line.startswith("ok   ") for line in passed)
    assert last.startswith("FAIL reference_rows: ")
    assert json.loads(last.split(": ", 1)[1])["check"] == part


# One mutant per verify suite, each wrong only in what its own suite checks, so
# that every earlier suite still passes.  A patch at the checks import site
# reaches the suites alone; a patch in a layer module reaches its callers too.
# Each entry: (module, attribute, function of the real attribute -> mutant).

def _third_module_shifted(real):
    def shifted(lam, m):
        mods = list(real(lam, m))
        mods[2] = mods[2]._replace(highest_weight=plus(mods[2].highest_weight, (0, 0, 2)))
        return tuple(mods)

    return shifted


def _siegel_kernel_weight_bumped(real):
    def bumped(lam, m, *strata):  # the strata, or their sums (n, E, C) for _intermediate
        profile = real(lam, m, *strata)
        kernel = profile.kernel_entry
        if kernel is None:
            return profile
        return profile._replace(kernel_entry=kernel._replace(weight=kernel.weight + 1))

    return bumped


def _gap_without_kernel_entries(real):
    def gap(profiles):
        nonzero = [e for profile in profiles for e in profile.entries if e.nonzero is True]
        k = min(e.n_perverse - e.weight for e in nonzero)
        return k, tuple(e for e in nonzero if e.n_perverse - e.weight == k)

    return gap


def _s1_dot_shifted(real):
    # s1 . (s1 . lam) is then lam + (2, 2, 0)
    def dot(w, lam):
        return plus(real(w, lam), (2, 0, 0)) if w == weyl.S1 else real(w, lam)

    return dot


SUITE_MUTANTS = {
    "dot_action_laws": (weyl, "dot", _s1_dot_shifted),
    "kostant_tables": (checks, "nilpotent_cohomology", _third_module_shifted),
    "euler_characteristic": (  # every SL(2) string one weight short
        kostant,
        "nilpotent_cohomology",
        lambda real: lambda lam, m: tuple(
            mod._replace(restriction_weight=mod.restriction_weight - 1) for mod in real(lam, m)
        ),
    ),
    "weight_formulas": (kostant, "_motivic_weight", lambda real: lambda n, m: real(n, m) + 1),
    "stratum_profiles": (checks, "_intermediate", _siegel_kernel_weight_bumped),
    "reference_rows": (  # k1 + k2 + 2 for k1 + k2 + 3 in the kernel's source rank
        intersection,
        "_piece_ranks",
        lambda real: lambda modules, n, euler: tuple(
            rank - euler if i == KERNEL_PIECE else rank
            for i, rank in enumerate(real(modules, n, euler))
        ),
    ),
    "rank_inequality": (  # 2g - 2 for 2g - 2 + c
        checks,
        "_rank_inequality",
        lambda real: lambda lam, s: (lam.k1 + lam.k2 + 3) * (2 * s.g - 2) > s.c,
    ),
    "avoided_interval": (intersection, "_minimal_gap", _gap_without_kernel_entries),
    "dimension_oracle": (  # the highest weight counted twice
        kostant,
        "freudenthal_multiplicities",
        lambda real: lambda lam: {**real(lam), (lam.k1, lam.k2): 2},
    ),
}


# The FAIL line each mutant gives under `verify --max-k1 3 --seed 7`; the
# counterexample payloads are the suites' own JSON output.
MUTANT_FAIL_PAYLOADS = {
    "dot_action_laws": '{"check": "dot action group law", "lambda": [5, 1, 8], "w": "s1", "u": "s1"}',
    "kostant_tables": '{"check": "kostant closed form", "lambda": [20, 18, 28], "m": 0, "q": 2, "expected": [17, -23, 28], "actual": [17, -23, 30]}',
    "euler_characteristic": '{"check": "euler characteristic", "lambda": [0, 0, 0], "m": 0}',
    "weight_formulas": '{"check": "weight closed form", "lambda": [13, 12, 35], "got": 11, "want": 10}',
    "stratum_profiles": '{"check": "top perverse weight", "lambda": [2, 1, 3], "m": 0, "got": [5], "want": 4}',
    "reference_rows": (  # the kernel's source rank is also the classical Siegel (1, 1) row's rank
        '{"check": "boundary rows", "got": [[[0, 0, 0, [[0, 0]]], [1, 0, 3, [[1, 0]]], [1, 4, 0, [[0, 1]]], '
        '[2, 4, 6, [[1, 1]]], [2, 10, 0, [[0, 2]]], [3, 10, 7, [[1, 2]]], [3, 14, 0, [[0, 3]]], [4, 14, 3, [[1, 3]]]], '
        '[[0, 1, 2, [[0, 0]]], [1, 4, 5, [[0, 1]]], [2, 8, 5, [[0, 2]]], [3, 11, 2, [[0, 3]]]]], '
        '"want": [[[0, 0, 0, [[0, 0]]], [1, 0, 3, [[1, 0]]], [1, 4, 0, [[0, 1]]], [2, 4, 7, [[1, 1]]], '
        '[2, 10, 0, [[0, 2]]], [3, 10, 7, [[1, 2]]], [3, 14, 0, [[0, 3]]], [4, 14, 3, [[1, 3]]]], '
        '[[0, 1, 2, [[0, 0]]], [1, 4, 5, [[0, 1]]], [2, 8, 5, [[0, 2]]], [3, 11, 2, [[0, 3]]]]]}'),
    "rank_inequality": '{"check": "rank inequality", "lambda": [1, 0, 1], "stratum": {"g": 0, "c": 3}}',
    "avoided_interval": '{"check": "avoided interval closed form / level independence", "lambda": [1, 1, 2], "got": [1, 1], "want": 0}',
    "dimension_oracle": '{"check": "character oracle agreement", "lambda": [0, 0, 0], "division_mass": 1, "freudenthal_mass": 2, "weyl_dimension": 1}',
}


def test_every_verify_suite_has_a_mutant(capsys):
    assert cli.main(["verify", "--max-k1", "0"]) == 0
    assert [line.split()[1] for line in capsys.readouterr().out.splitlines()] == list(SUITE_MUTANTS)


@pytest.mark.parametrize("suite", list(SUITE_MUTANTS))
def test_verify_suite_fails_on_its_own_mutant(suite, monkeypatch, capsys):
    module, name, mutant = SUITE_MUTANTS[suite]
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    code = cli.main(["verify", "--max-k1", "3", "--seed", "7"])
    *passed, last = capsys.readouterr().out.splitlines()
    assert code == 1
    assert all(line.startswith("ok   ") for line in passed)
    assert last == f"FAIL {suite}: {MUTANT_FAIL_PAYLOADS[suite]}"


def test_negative_control_k_mismatch_fails(monkeypatch, capsys):
    # the report's consistency check is an explicit raise, so it survives `python -O`
    monkeypatch.setattr(intersection, "k_invariant", lambda lam: -1)
    assert cli.main(["analyze", "--k1", "3", "--k2", "1", "--r", "4"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "PreconditionViolation"
    assert payload["message"].startswith("internal:")


# --- entry point ------------------------------------------------------------------

def test_in_process_entry_point_matches_subprocess():
    code = cli.main(["analyze", "--k1", "1", "--k2", "3", "--r", "4"])
    assert code == 2


def test_argparse_errors_are_one_json_line_exit_2():
    for args in (("analyze", "--k1", "x", "--k2", "1", "--r", "4"), (), ("verify", "--bogus")):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "PreconditionViolation"


def _main_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # --help
            code = stop.code
    return code, out.getvalue()


# Command lines near every documented bound: each flag's value is drawn from
# valid values or from values at and beyond the bounds.  The valid sweep and
# verify bounds stay at 3 or below, so each drawn command runs fast; verify
# always gets a --max-k1, and a flag given twice keeps its last value.
def _values(valid, edge):
    return st.sampled_from(valid) | st.sampled_from(edge)


COORDINATES = _values(
    ["0", "1", "2", "3", "4"],
    ["-1000001", "-1000000", "-1", "40", "41", "200", "201", "1000000", "1000001", "x", ""],
)
STRATA = _values(
    ["0,3", "1,1", "2,5", "1000000,1"], ["", "1", "1,2,3", "a,b", "0,2", "-1,3", "0,1000001"]
)
FORMATS = st.sampled_from(["json", "table", "xml"])
FLAGS = {
    "analyze": {"--k1": COORDINATES, "--k2": COORDINATES, "--r": COORDINATES,
                "--stratum": STRATA, "--format": FORMATS},
    "sweep": {"--max-k1": _values(["0", "1", "2", "3"], ["-1", "201", "1000001", "x"]),
              "--stratum": STRATA, "--format": FORMATS},
    "verify": {"--max-k1": _values(["0", "1", "2", "3"], ["-1", "41", "200", "1000000", "x"]),
               "--seed": COORDINATES},
}
UNKNOWN = st.sampled_from([["--bogus"], ["--k3", "1"], ["-x"], ["--format=yaml"], ["--str=--"], ["extra"]])


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["analyze", "sweep", "verify"]))
    flags = FLAGS[command]
    argv = [command]
    for flag, values in flags.items():
        if (flag == "--max-k1" and command == "verify") or draw(st.integers(0, 7)):
            argv += [flag, draw(values)]
    repeated = st.sampled_from(sorted(flags)).flatmap(
        lambda flag: flags[flag].map(lambda value: [flag, value])
    )
    missing = st.sampled_from(sorted(flags)).map(lambda flag: [flag])  # no value follows
    dashed = st.sampled_from(sorted(flags)).map(lambda flag: [flag + "=--"])  # argparse drops the value
    if draw(st.integers(0, 2)) == 0:
        for extra in draw(st.lists(repeated | missing | dashed | UNKNOWN, min_size=1, max_size=3)):
            argv += extra
    return argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=command_lines())
@example(argv=["analyze", "--k1", "1000000", "--k2", "0", "--r", "1000000", "--stratum", "1000000,1"])
@example(argv=["analyze", "--k1", "1000000", "--k2", "1000000", "--r", "2000000"])
@example(argv=["sweep", "--max-k1", "3", "--max-k1", "201"])
@example(argv=["verify", "--max-k1", "3", "--seed", "-1000001", "--bogus"])
@example(argv=["analyse"])
def test_every_command_line_exits_0_or_one_json_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2)
    assert err.getvalue() == ""
    if code == 2:
        assert out.getvalue().count("\n") == 1
        assert list(json.loads(out.getvalue())) == ["error", "message"]


@pytest.mark.parametrize(
    "first, then",
    [
        ([*ANALYZE_3_1_4, "--stratum", "1,1", "--stratum", "2,5"], ANALYZE_3_1_4),
        (["sweep", "--max-k1", "x"], ["sweep", "--max-k1", "3"]),
        (["--help"], ["verify", "--max-k1", "2"]),
    ],
    ids=["strata-then-default", "error-then-sweep", "help-then-verify"],
)
def test_a_command_after_another_in_process_prints_what_a_fresh_interpreter_prints(first, then, monkeypatch):
    # no state is kept between calls of main: each command, run after another in
    # this process, must print what it prints in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    for argv in (first, then):
        proc = run_cli(*argv)
        assert _main_in_process(argv) == (proc.returncode, proc.stdout)


def test_cli_module_runs_as_a_script():
    # `python -m siegel_weights.cli` runs the command, exit code included
    for args in (ANALYZE_3_1_4, ["sweep", "--max-k1", "x"]):
        script = subprocess.run(
            [sys.executable, "-m", "siegel_weights.cli", *args], capture_output=True, text=True
        )
        package = run_cli(*args)
        assert (script.returncode, script.stdout) == (package.returncode, package.stdout)
        assert script.stdout


NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")


@pytest.mark.parametrize(
    "args, lines",
    [
        (["sweep", "--max-k1", "200"], 1),
        (["verify", "--max-k1", "2"], 0),
        (["sweep", "--max-k1", "x"], 0),
        pytest.param(["verify", "--max-k1", "2"], None, marks=NO_DEV_FULL),
        pytest.param(ANALYZE_3_1_4, None, marks=NO_DEV_FULL),
        pytest.param(["sweep", "--max-k1", "x"], None, marks=NO_DEV_FULL),
    ],
    ids=["sweep-after-one-line", "verify-before-any", "error-line-before-any",
         "verify-to-a-full-device", "analyze-to-a-full-device", "error-line-to-a-full-device"],
)
def test_closed_stdout_exits_141_without_a_traceback(args, lines):
    # sweep's table is far larger than a pipe buffer, so a print meets the closed
    # pipe; verify's lines and the one-line JSON error of an invalid input fit in
    # stdout's block buffer, so only a flush meets it.  With lines None, stdout is
    # /dev/full, where every write fails with ENOSPC: the exit is 74 (EX_IOERR)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    full = lines is None
    with open("/dev/full", "w") if full else contextlib.nullcontext(subprocess.PIPE) as stdout:
        proc = subprocess.Popen(
            [sys.executable, "-m", "siegel_weights", *args],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    for _ in range(lines or 0):
        assert proc.stdout.readline().split() == ["k1", "k2", "r", "k", "closed", "agree"]
    if not full:
        proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    # 128 + SIGPIPE for a closed pipe; 1 would claim a failed verify suite
    assert proc.wait() == (74 if full else 141)
    assert "Traceback" not in stderr and "Error" not in stderr


@NO_DEV_FULL
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["--help"], ["analyze", "--help"]], ids=["help", "analyze-help"])
def test_help_to_a_full_device_exits_74_without_a_word_on_stderr(args, unbuffered):
    # argparse writes the help itself and drops a write error; buffered, the text
    # waits for the flush at exit, unbuffered, the write fails inside argparse
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as stdout:
        proc = subprocess.run([sys.executable, "-m", "siegel_weights", *args],
                              stdout=stdout, stderr=subprocess.PIPE, env=env)
    assert (proc.returncode, proc.stderr) == (74, b"")


# sha256 of the help text at COLUMNS=80 (it wraps at the terminal width); argparse
# builds it from the command table, so a change to a flag, metavar or help string shows here
HELP_DIGESTS = {
    (): "db45a2973ce2044b0c2c838ed9857a2bc3c053c997162cee74628d4c3a905de3",
    ("analyze",): "69007c4cd7f82b820c18db212fb71f6348e44657c30f11b474a3c7b6192432bc",
    ("sweep",): "8ff08188376b05551bc599c054490c4fed080b3de687f56682515ed71569c5b3",
    ("verify",): "cac4ede8917a3dd99ef73a01670d39cebe46cba3d2d4e85b60983e7a2cc36f0f",
}


def test_help_still_exits_0(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_DIGESTS.items():
        proc = run_cli(*command, "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: siegel-weights")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, command


# --- the command reader against argparse -------------------------------------------

# Tokens that argparse reads in ways a value check can get wrong: negative numbers
# in ASCII and other decimal digits, a dash and a digit that is not a decimal one,
# a lone dash, the end of options, a number with a newline after it, `=` spellings,
# help and abbreviations.
ODD_TOKENS = ["-4", "-0", "-\u0663", "-\u00b2", "-1,3", "-", "--", "-4\n", "--k1=3", "-h", "--st", "--max", ""]


@st.composite
def spliced_command_lines(draw):
    argv = draw(command_lines())
    for token in draw(st.lists(st.sampled_from(ODD_TOKENS), max_size=3)):
        if len(argv) > 2 and draw(st.booleans()):
            argv[draw(st.sampled_from(range(2, len(argv), 2)))] = token  # a flag's value
        else:
            i = draw(st.integers(1, len(argv)))
            argv[i:i + draw(st.integers(0, 1))] = [token]  # insert, or replace argv[i]
    return argv


def argparse_reads(argv):
    try:
        return vars(cli._build_parser().parse_args(argv))
    except (PreconditionViolation, SystemExit) as err:
        return f"refused: {err!r}"


@settings(derandomize=True, deadline=None, max_examples=400)
@given(argv=spliced_command_lines())
@example(argv=[*ANALYZE_3_1_4, "--stratum", "-1,3"])
@example(argv=["analyze", "--k1", "3", "--k2", "1", "--r", "-\u0663"])
@example(argv=[*ANALYZE_3_1_4, "--stratum", "-\u00b2"])  # a digit, but not an ASCII one
@example(argv=["verify", "--seed", "-4\n"])
@example(argv=["sweep", "--max-k1", "2", "--format", "--"])
@example(argv=[*ANALYZE_3_1_4, "--stratum=-1,3"])
@example(argv=[*ANALYZE_3_1_4, "--format=table"])
@example(argv=[*ANALYZE_3_1_4, "--stratum=--"])  # argparse drops an `=` value of `--`
def test_reader_reads_what_argparse_reads(argv):
    # the reader may decline any line; a line it reads, argparse reads the same way
    read = cli._read_args(argv)
    if read is not None:
        assert vars(read) == argparse_reads(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [*ANALYZE_3_1_4, *wall_strata_40()],
        ["analyze", "--k1", "3", "--k2", "1", "--r", "-4", "--format", "table"],
        ["sweep", "--max-k1", "20", "--format", "json", "--stratum", "0,3"],
        ["verify", "--max-k1", "8", "--seed", "-1"],
        ["verify"],
        ["analyze", "--k1=3", "--k2", "1", "--r=-4", "--stratum=-1,3", "--format=table"],
        ["sweep", "--max-k1=20", "--format=json", "--stratum=", "--stratum=0,3=4"],
        ["verify", "--seed=-1"],
    ],
    ids=["analyze-40-strata", "negative-r-table", "sweep", "verify", "verify-defaults",
         "equals-signs-analyze", "equals-signs-sweep", "equals-sign-verify"],
)
def test_reader_reads_the_canonical_lines(argv):
    read = cli._read_args(argv)
    assert read is not None
    assert vars(read) == argparse_reads(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [*ANALYZE_3_1_4, "--stratum=--"],
        [*ANALYZE_3_1_4, "--str=--"],
        [*ANALYZE_3_1_4, "--format=--"],
        ["sweep", "--max-k1=--"],
        ["sweep", "--max-k1", "1", "--format=--"],
        ["sweep", "--max-k1", "1", "--stratum=0,3", "--stratum=--"],
        ["verify", "--seed=--"],
    ],
    ids=["analyze-stratum", "analyze-abbreviated", "analyze-format", "sweep-bound", "sweep-format",
         "sweep-second-stratum", "verify-seed"],
)
def test_an_equals_value_of_two_dashes_is_refused(argv, capsys):
    # the reader declines these lines, and the fallback refuses them before argparse,
    # which drops the value `--` before 3.13 and keeps it after: for every flag and command
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"error": "PreconditionViolation",
                               "message": "a flag's value after '=' must not be '--'"}
    assert out.count("\n") == 1


def test_the_fallback_refuses_any_named_flag_with_an_equals_value_of_two_dashes(capsys):
    # an unknown flag, and a flag after the end of the options, get the same message on
    # every Python; `--=--` names no flag, and argparse refuses it as an ambiguous option
    for argv, message in ((["verify", "--bogus=--"], "a flag's value after '=' must not be '--'"),
                          (["verify", "--", "--seed=--"], "a flag's value after '=' must not be '--'"),
                          (["verify", "--=--"], "ambiguous option: --=-- could match --help, --max-k1, --seed")):
        assert cli.main(argv) == 2
        assert json.loads(capsys.readouterr().out) == {"error": "PreconditionViolation", "message": message}


def test_reading_many_strata_flags_takes_linear_time():
    # a fresh list per --stratum flag made reading quadratic: about 4 s for these
    # 50 000 flags, against some 0.05 s when each value is appended in place; and the
    # `=` spelling must not reach argparse, whose option loop is quadratic in them on Python 3.11
    for flags in (["--stratum", "0,3"] * 50_000, ["--stratum=0,3"] * 50_000):
        start = time.perf_counter()
        read = cli._read_args([*ANALYZE_3_1_4, *flags])
        assert time.perf_counter() - start < 1.0
        assert read.stratum == ["0,3"] * 50_000


def test_abbreviated_flags_take_linear_time(capsys):
    # an abbreviation such as --str went to argparse, whose option loop is quadratic in
    # the flags on Python 3.11: about 1.6 s for these 8000, against some 0.05 s read here
    start = time.perf_counter()
    assert cli.main([*ANALYZE_3_1_4, *["--str", "0,3"] * 8000]) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out.count('"stratum": {') == 8000


def test_the_reader_reads_a_prefix_of_one_flag_only():
    assert vars(cli._read_args(["sweep", "--m=3", "--s", "1,1", "--f", "json"])) == argparse_reads(
        ["sweep", "--max-k1=3", "--stratum", "1,1", "--format", "json"])
    assert cli._read_args(["verify", "--s", "3"]).seed == 3  # --seed, in verify
    # ambiguous, a prefix of --help too, the end of the options, and no flag at all
    for argv in (["analyze", "--k", "3"], ["verify", "--m", "3", "--h", "1"], ["verify", "--he", "1"],
                 ["verify", "--", "3"], ["verify", "--=3"], ["verify", "-", "3"], ["verify", "--x", "3"]):
        assert cli._read_args(argv) is None


def test_sweep_reads_its_strata_once_not_once_per_weight(capsys):
    # the strata are checked and summed once: per weight they cost a scan of all
    # 10 000 flags, about 2.7 s for the 861 weights of this sweep
    start = time.perf_counter()
    assert cli.main(["sweep", "--max-k1", "40", *["--stratum=1,1"] * 10_000]) == 0
    assert time.perf_counter() - start < 1.0
    many = capsys.readouterr().out
    assert cli.main(["sweep", "--max-k1", "40", "--stratum=1,1"]) == 0
    assert many == capsys.readouterr().out  # k comes from the profiles, the same over any strata


def test_argparse_reads_equals_strata_in_order():
    parser = cli._build_parser()
    assert vars(parser.parse_args([*ANALYZE_3_1_4, "--stratum=0,3", "--stratum=2,5"]))["stratum"] == ["0,3", "2,5"]


def test_negative_control_a_reader_that_takes_any_dash_value_fails(monkeypatch):
    monkeypatch.setattr(cli, "_VALUE", lambda text: True)
    with pytest.raises(AssertionError):
        test_reader_reads_what_argparse_reads()


@pytest.mark.parametrize(
    "fallback",
    [["--help"], ["verify", "--bogus"], [*ANALYZE_3_1_4, "--k", "0"]],
    ids=["help", "bad-flag", "ambiguous-prefix"],
)
def test_argparse_is_imported_only_for_the_fallback(fallback):
    # a canonical line never loads argparse (nor the gettext and locale it imports)
    code = (
        "import contextlib, io, sys\n"
        "from siegel_weights import cli\n"
        "seen = ['argparse' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        f"    cli.main({[*ANALYZE_3_1_4, '--stratum', '1,1']!r})\n"
        "    seen.append('argparse' in sys.modules)\n"
        f"    cli.main({fallback!r})\n"
        "print(seen + ['argparse' in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, True]\n"


# The standard modules that a command line loads only when it needs them.  Under
# `python -S` no `site` preloads any of them, so the check sees the package's own imports.
LAZY_MODULES = ("argparse", "enum", "json", "random", "re", "typing")
# Canonical lines, and canonical lines that fail validation, none of which needs any of them.
CANONICAL = [
    [*ANALYZE_3_1_4, "--stratum", "1,1"],
    [*ANALYZE_3_1_4, "--format", "table"],
    ["sweep", "--max-k1", "3"],
    ["sweep", "--max-k1", "3", "--format", "json"],
    ["analyze", "--k1=3", "--k2", "1", "--r=-4", "--stratum=1,1", "--format=table"],
    ["analyze", "--k1", "3", "--k2", "1", "--r", "5"],
    ["sweep", "--max-k1", "201"],
    ["verify", "--max-k1", "41"],
]


def modules_left_loaded(package_root, argvs):
    """The exit codes of argvs, run by cli.main in one `python -S` process that imports
    siegel_weights from package_root, and the LAZY_MODULES loaded after them."""
    code = (
        "import io, sys\n"
        "from siegel_weights import cli\n"
        "sys.stdout = io.StringIO()\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "sys.stdout = sys.__stdout__\n"
        f"print(codes, sorted(set({LAZY_MODULES!r}) & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "argvs, loaded",
    [
        (CANONICAL, "[0, 0, 0, 0, 0, 2, 2, 2] []"),
        ([["verify", "--max-k1", "0"]], "[0] ['random']"),  # json only writes a counterexample
        ([["verify", "--bogus"]], "[2] ['argparse', 'enum', 're']"),
    ],
    ids=["canonical", "verify", "fallback"],
)
def test_a_command_line_imports_only_what_it_runs_under_python_S(argvs, loaded):
    assert modules_left_loaded(Path(cli.__file__).parents[1], argvs) == loaded + "\n"


def test_negative_control_a_cli_that_imports_re_fails(tmp_path):
    package = tmp_path / "siegel_weights"
    shutil.copytree(Path(cli.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    source = (package / "cli.py").read_text()
    (package / "cli.py").write_text(source.replace("import functools\n", "import functools\nimport re\n", 1))
    assert modules_left_loaded(tmp_path, CANONICAL) == "[0, 0, 0, 0, 0, 2, 2, 2] ['enum', 're']\n"


ERROR_TYPES = [errors.SiegelWeightsError, *errors.SiegelWeightsError.__subclasses__()]
# Characters that JSON escapes or writes in \u form, a `%`, and any code point at all
MESSAGES = st.text(st.sampled_from('"\\%/\b\f\n\r\t\x00\x1f\x7f\x80\u00e9\u2028\u20ac\U0001f600\ud800\udfff')
                   | st.characters(exclude_categories=()))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(kind=st.sampled_from(ERROR_TYPES), text=MESSAGES)
@example(kind=errors.PreconditionViolation, text='say "%s" \\ %% \ud800\x00\u00e9')
def test_the_error_line_is_json_dumps_of_the_error(kind, text):
    def fail(*args):
        raise kind(text)

    with mock.patch.object(cli, "analysis_report", fail):
        code, out = _main_in_process(ANALYZE_3_1_4)
    assert code == 2
    assert out == json.dumps({"error": kind.__name__, "message": text}) + "\n"
