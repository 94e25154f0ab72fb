import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from siegel_weights import checks, cli, intersection, kostant, root_data, weyl
from siegel_weights.root_data import WeightTriple

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


def readme_json_keys():
    """The top-level keys listed in the README's analyze section, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("JSON output has exactly these top-level keys, in order:")[1]
    return [line.split()[0] for line in block.split("```")[1].strip().splitlines()]


def test_analyze_json_round_trips_identically():
    # seeded weights in the interior, on both walls and at the origin
    assert readme_json_keys() == TOP_LEVEL_KEYS
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

    proc = run_cli("analyze", "--k1", "3", "--k2", "1", "--r", "4", "--stratum", "nope")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "PreconditionViolation"


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
    import siegel_weights.boundary as boundary_mod

    real = boundary_mod.group_cohomology_dim

    def corrupted(u, stratum, p):
        val = real(u, stratum, p)
        return val + 1 if (p == 1 and u >= 1) else val

    monkeypatch.setattr(boundary_mod, "group_cohomology_dim", corrupted)
    code = cli.main(["verify", "--max-k1", "3", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out


# One mutant per verify suite, each wrong only in what its own suite checks, so
# that every earlier suite still passes.  A patch at the checks import site
# reaches the suites alone; a patch in a layer module reaches its callers too.
# Each entry: (module, attribute, function of the real attribute -> mutant).

def _third_module_shifted(real):
    def shifted(lam, m):
        mods = list(real(lam, m))
        mods[2] = replace(mods[2], highest_weight=mods[2].highest_weight + WeightTriple(0, 0, 2))
        return tuple(mods)

    return shifted


def _siegel_kernel_weight_bumped(real):
    def bumped(lam, m, strata):
        profile = real(lam, m, strata)
        kernel = profile.kernel_entry
        if kernel is None:
            return profile
        return replace(profile, kernel_entry=replace(kernel, weight=kernel.weight + 1))

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
        return real(w, lam) + WeightTriple(2, 0, 0) if w == weyl.S1 else real(w, lam)

    return dot


SUITE_MUTANTS = {
    "dot_action_laws": (weyl, "dot", _s1_dot_shifted),
    "kostant_tables": (checks, "nilpotent_cohomology", _third_module_shifted),
    "euler_characteristic": (  # every SL(2) string one weight short
        kostant,
        "nilpotent_cohomology",
        lambda real: lambda lam, m: tuple(
            replace(mod, restriction_weight=mod.restriction_weight - 1) for mod in real(lam, m)
        ),
    ),
    "weight_formulas": (kostant, "motivic_weight", lambda real: lambda n, m: real(n, m) + 1),
    "stratum_profiles": (checks, "intermediate_profile", _siegel_kernel_weight_bumped),
    "reference_rows": (  # k1 + k2 + 2 for k1 + k2 + 3 in the kernel's source rank
        intersection,
        "_map_ranks",
        lambda real: lambda lam, strata: [
            ((lam.k1 + lam.k2 + 2) * s.euler_term, s.c) for s in strata
        ],
    ),
    "rank_inequality": (  # 2g - 2 for 2g - 2 + c
        checks,
        "rank_inequality_check",
        lambda real: lambda lam, s: (lam.k1 + lam.k2 + 3) * (2 * s.g - 2) > s.c,
    ),
    "avoided_interval": (intersection, "_minimal_gap", _gap_without_kernel_entries),
    "dimension_oracle": (  # the highest weight counted twice
        kostant,
        "freudenthal_multiplicities",
        lambda real: lambda lam: {**real(lam), (lam.k1, lam.k2): 2},
    ),
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
    assert last.startswith(f"FAIL {suite}: ")
    assert "check" in json.loads(last.split(": ", 1)[1])


def test_negative_control_k_mismatch_fails_under_python_O():
    # the report's consistency checks must survive assertion stripping
    code = (
        "import sys\n"
        "if __debug__: sys.exit(3)\n"
        "import siegel_weights.intersection as intersection\n"
        "intersection.k_invariant = lambda lam: -1\n"
        "from siegel_weights import cli\n"
        "sys.exit(cli.main(['analyze', '--k1', '3', '--k2', '1', '--r', '4']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["error"] == "PreconditionViolation"
    assert payload["message"].startswith("internal:")


def test_negative_control_stratum_profiles_disagree_fails_under_python_O():
    # summing ranks over strata needs their profiles to agree off the ranks
    code = (
        "import dataclasses, sys\n"
        "if __debug__: sys.exit(3)\n"
        "import siegel_weights.intersection as intersection\n"
        "original = intersection._siegel_entries\n"
        "def bumped(modules, s, top):\n"
        "    entries = original(modules, s, top)\n"
        "    if s.g != 1:\n"
        "        return entries\n"
        "    return (dataclasses.replace(entries[0], weight=entries[0].weight + 1),) + entries[1:]\n"
        "intersection._siegel_entries = bumped\n"
        "from siegel_weights import cli\n"
        "sys.exit(cli.main(['analyze', '--k1', '3', '--k2', '1', '--r', '4',"
        " '--stratum', '0,3', '--stratum', '1,1']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["error"] == "PreconditionViolation"
    assert payload["message"] == "internal: stratum profiles disagree off the rank fields"


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


def test_help_still_exits_0():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: siegel-weights")
