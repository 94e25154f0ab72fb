import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from siegel_weights import cli, root_data
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
