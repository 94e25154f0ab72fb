"""Smoke test and negative controls for the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

The smoke tests run each workload at a tiny size and check that every metric
BENCHMARK.json names is printed with its unit.  The negative controls show
that a corrupted stdout, a digest mismatch and a nonzero exit each count as
failed commands, in the spirit of the CLI's own verify negative controls.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sweep_grid": run.sweep_commands(0, max_k1=4),
    "verify_oracles": run.verify_commands(3, max_k1=1),
    "analyze_strata": run.analyze_commands(5, count=12, max_k1=20, max_strata=3),
}


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result = run.measure(workload, 0, 0, False, commands=TINY[workload])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == len(TINY[workload])
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    result = run.measure(workload, 0, 0, True, commands=TINY[workload])
    assert result["correct"]
    metrics = result["metrics"]
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    laurent_calls = metrics["laurent.calls"]["value"]
    assert (laurent_calls > 0) == (workload == "verify_oracles")
    assert metrics["cli.calls"]["value"] >= len(TINY[workload])


def test_tracer_reaches_functions_imported_by_name():
    # cli imports avoided_interval by name; a wrapper on intersection alone
    # would see no calls from the sweep
    child = run.run_child(TINY["sweep_grid"], traced=True)
    functions = child.trace["functions"]
    pairs = 15  # dominant pairs with k1 <= 4
    assert functions["intersection.avoided_interval"]["calls"] == pairs
    assert functions["cli.main"]["calls"] == 1
    assert child.trace["patched_sites"] > len(functions)


def test_workload_inputs_depend_only_on_the_seed():
    for make in (run.sweep_commands, run.verify_commands, run.analyze_commands):
        assert make(11) == make(11)
    assert run.analyze_commands(11) != run.analyze_commands(12)


def _tiny_results(workload):
    return run.run_child(TINY[workload], traced=False).results


def test_negative_control_corrupted_sweep_row_is_a_failure():
    commands = TINY["sweep_grid"]
    (rc, ns, out), = _tiny_results("sweep_grid")
    assert run.score("sweep_grid", commands, [(rc, ns, out)], None)[0] == 0
    corrupted = out.replace("   yes", "    no", 1)
    assert corrupted != out
    assert run.score("sweep_grid", commands, [(rc, ns, corrupted)], None)[0] == 1


def test_negative_control_corrupted_analyze_json_is_a_failure():
    commands = TINY["analyze_strata"]
    results = _tiny_results("analyze_strata")
    assert run.score("analyze_strata", commands, results, None)[0] == 0
    i = next(i for i, argv in enumerate(commands) if "table" not in argv)
    rc, ns, out = results[i]
    report = json.loads(out)
    report["k"] += 1
    bad = list(results)
    bad[i] = (rc, ns, json.dumps(report, indent=2))
    assert run.score("analyze_strata", commands, bad, None)[0] == 1


def test_negative_control_digest_mismatch_fails_every_command():
    commands = TINY["analyze_strata"]
    results = _tiny_results("analyze_strata")
    digest = hashlib.sha256("".join(out for _, _, out in results).encode()).hexdigest()
    assert run.score("analyze_strata", commands, results, digest)[0] == 0
    # one trailing space: every parsed check still passes, the digest does not
    rc, ns, out = results[-1]
    bad = results[:-1] + [(rc, ns, out + " ")]
    assert run.score("analyze_strata", commands, bad, None)[0] == 0
    assert run.score("analyze_strata", commands, bad, digest)[0] == len(commands)


def test_negative_control_nonzero_exit_is_a_failure():
    good = TINY["analyze_strata"][:2]
    odd_parity = ["analyze", "--k1", "3", "--k2", "1", "--r", "5"]
    result = run.measure("analyze_strata", 0, 0, False, commands=good + [odd_parity])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(2 / 3)

    verify_fail = [(1, 1, "ok   dot_action_laws (521 checks)\n")]
    assert run.score("verify_oracles", TINY["verify_oracles"], verify_fail, None)[0] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep_grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".bench_out").exists()
