"""Benchmark of the siegel-weights CLI: three workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_grid --seed 0 --seconds 35 --trace 0

Each timed run starts a fresh interpreter (bench/child.py), which imports
``siegel_weights.cli`` from ``src/`` and feeds the workload's argv lists to
``cli.main`` back to back, one caller in a closed loop, with
SIEGEL_WEIGHTS_THREADS unset.  Fresh interpreters are started one after the
other until ``--seconds`` is used up; each command's time is its best over
them (see the metrics section below).
Every command's stdout is checked here, in the parent, after its child ends.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
CHILD_TIMEOUT_S = 120
TRACE_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 0

# Workload sizes.  Each child is kept short (0.1 s of sweep, 0.15 s of
# verify, 0.6 s of analyze on the 2-vCPU VM of baseline.json) so that a run
# holds 25 to 150 repetitions: the best of many repetitions is what stays
# steady when the host's load drifts.
SWEEP_MAX_K1 = 20
VERIFY_MAX_K1 = 8
ANALYZE_COMMANDS = 40
ANALYZE_MAX_K1 = 300
ANALYZE_MAX_STRATA = 40

# sha256 of the whole stdout of each workload's command list at the default
# seed and size, recorded from the unoptimised code the benchmark was written
# against.  Any byte of output that changes is caught.
SEED_DIGESTS = {
    "sweep_grid": "21eb829baacfbfb3cb75a03a1e8394640b77e134065b2daf47e28fa8380c4b1e",
    "verify_oracles": "bc9c810b8203db385a64c2c91386871a600e2b824037621e07545d72163958c1",
    "analyze_strata": "a5bfa9409ee786df862ca3a2ca778ede347c579b1ed4b105ca15b7c4a1a86e57",
}

ANALYZE_KEYS = [
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


# ---------------------------------------------------------------------------
# workloads: argv lists from the seed


def sweep_commands(seed: int, max_k1: int = SWEEP_MAX_K1) -> list[list[str]]:
    """One table sweep over every dominant pair; the seed does not enter."""
    return [["sweep", "--max-k1", str(max_k1)]]


def verify_commands(seed: int, max_k1: int = VERIFY_MAX_K1) -> list[list[str]]:
    return [["verify", "--max-k1", str(max_k1), "--seed", str(seed)]]


def analyze_commands(
    seed: int,
    count: int = ANALYZE_COMMANDS,
    max_k1: int = ANALYZE_MAX_K1,
    max_strata: int = ANALYZE_MAX_STRATA,
) -> list[list[str]]:
    """A seeded stream of analyze commands with a fixed mix.

    The seed picks the weights, strata and order; the mix is the same for
    every seed, so seeds change values but not the amount of work: stratum
    counts cycle through 1..max_strata, one command in four lies on a wall
    (k2 = 0 or k1 = k2) and one in four asks for the table format.
    """
    rng = random.Random(seed)
    counts = [1 + i % max_strata for i in range(count)]
    walls = [i % 4 == 0 for i in range(count)]
    tables = [i % 4 == 0 for i in range(count)]
    for column in (counts, walls, tables):
        rng.shuffle(column)
    commands = []
    for n_strata, wall, table in zip(counts, walls, tables):
        k1 = rng.randint(2, max_k1)
        k2 = rng.choice((0, k1)) if wall else rng.randint(1, k1 - 1)
        r = k1 + k2 + 2 * rng.randint(-50, 50)
        argv = ["analyze", "--k1", str(k1), "--k2", str(k2), "--r", str(r)]
        for _ in range(n_strata):
            g = rng.randint(0, 5)
            c = rng.randint(3 if g == 0 else 1, 20)
            argv += ["--stratum", f"{g},{c}"]
        if table:
            argv += ["--format", "table"]
        commands.append(argv)
    return commands


# ---------------------------------------------------------------------------
# output checks: each returns the number of items the command produced, or
# raises BadOutput


class BadOutput(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise BadOutput(what)


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_sweep(argv: list[str], out: str) -> int:
    """One row per dominant pair, in order, and every row agrees."""
    bound = int(_option(argv, "--max-k1"))
    lines = out.splitlines()
    _expect(lines[:1] == [f"{'k1':>4} {'k2':>4} {'r':>6} {'k':>4} {'closed':>7} {'agree':>6}"], "header")
    pairs = [(k1, k2) for k1 in range(bound + 1) for k2 in range(k1 + 1)]
    _expect(len(lines) == 1 + len(pairs), f"{len(lines) - 1} rows for {len(pairs)} pairs")
    for line, (k1, k2) in zip(lines[1:], pairs):
        closed = min(k1 - k2, k2)
        want = f"{k1:>4} {k2:>4} {k1 + k2:>6} {closed:>4} {closed:>7} {'yes':>6}"
        _expect(line == want, f"row {line!r}")
    return len(pairs)


_VERIFY_LINE = re.compile(r"ok   [a-z_]+ \((\d+) checks\)")


def check_verify(argv: list[str], out: str) -> int:
    """Every suite line is ok; the items are the checks summed over suites."""
    lines = out.splitlines()
    _expect(bool(lines), "no suites ran")
    checks = 0
    for line in lines:
        match = _VERIFY_LINE.fullmatch(line)
        _expect(match is not None, f"line {line!r}")
        checks += int(match.group(1))
    return checks


def _closed_form(argv: list[str]) -> tuple[list[int], int]:
    lam = [int(_option(argv, flag)) for flag in ("--k1", "--k2", "--r")]
    return lam, min(lam[0] - lam[1], lam[1])


def _strata(argv: list[str]) -> list[list[int]]:
    return [
        [int(x) for x in argv[i + 1].split(",")]
        for i, a in enumerate(argv)
        if a == "--stratum"
    ] or [[0, 3]]


def check_analyze(argv: list[str], out: str) -> int:
    """k is the closed form and the interval fields agree with it."""
    lam, k = _closed_form(argv)
    strata = _strata(argv)
    if "table" in argv:
        lines = out.splitlines()
        interval = f"[{-k + 1}, {k}]" if k else "[] (empty)"
        occurring = f"{-k} and {k + 1} (upper by duality)" if k else "undetermined"
        _expect(lines[0] == f"lambda = ({lam[0]}, {lam[1]}, {lam[2]})   k = {k}", "lambda/k line")
        _expect(lines[1] == f"avoided_interval = {interval}", "avoided_interval line")
        _expect(lines[2] == f"occurring_weights = {occurring}", "occurring_weights line")
        _expect(lines[4] == "strata = " + ", ".join(f"(g={g}, c={c})" for g, c in strata), "strata line")
        return 1
    report = json.loads(out)
    _expect(list(report) == ANALYZE_KEYS, "key order")
    _expect(report["lambda"] == lam, "lambda")
    _expect(report["k"] == k, f"k = {report['k']}, closed form {k}")
    _expect(report["avoided_interval"] == ([-k + 1, k] if k else []), "avoided_interval")
    _expect(report["occurring_weights"] == ([-k, k + 1] if k else None), "occurring_weights")
    _expect(report["strata"] == [{"g": g, "c": c} for g, c in strata], "strata")
    return 1


@dataclass(frozen=True)
class Workload:
    commands: object  # seed -> list of argv lists
    check: object  # (argv, stdout) -> items produced, or raises BadOutput


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sweep_grid": Workload(sweep_commands, check_sweep),
    "verify_oracles": Workload(verify_commands, check_verify),
    "analyze_strata": Workload(analyze_commands, check_analyze),
}


def score(workload: str, commands, results, digest: str | None) -> tuple[int, int, list[str]]:
    """(failed commands, items produced, reasons) for one child's results.

    A command fails on a nonzero exit or output its check rejects.  When a
    digest is given and the concatenated stdout does not match it, every
    command of the child counts as failed.
    """
    check = WORKLOADS[workload].check
    failed, items, reasons = 0, 0, []
    for argv, (rc, _, out) in zip(commands, results):
        try:
            _expect(rc == 0, f"exit code {rc}")
            items += check(argv, out)
        except (BadOutput, ValueError, IndexError, KeyError, TypeError) as err:
            failed += 1
            reasons.append(f"{' '.join(argv[:3])}: {err}")
    if len(results) != len(commands):
        failed += len(commands) - len(results)
        reasons.append(f"{len(results)} results for {len(commands)} commands")
    if digest is not None:
        got = hashlib.sha256("".join(out for _, _, out in results).encode()).hexdigest()
        if got != digest:
            failed = len(commands)
            reasons.append(f"stdout sha256 {got} differs from the recorded {digest}")
    return failed, items, reasons


# ---------------------------------------------------------------------------
# children


@dataclass
class Child:
    traced: bool
    setup_s: float
    results: list  # (rc, ns, stdout) per command
    peak_rss_kb: int
    trace: dict | None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SIEGEL_WEIGHTS_"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(commands, traced: bool) -> Child:
    """Start one interpreter, run the command list, wait for it to end."""
    started = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(SRC), "1" if traced else "0"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(commands), timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited with {proc.returncode}: {stderr.strip()[-2000:]}")
    summary = json.loads(lines[-1])
    if Path(summary["module"]).resolve() != (SRC / "siegel_weights" / "cli.py").resolve():
        raise RuntimeError(f"child imported {summary['module']}, not the checkout's src/")
    results = [(r["rc"], r["ns"], r["out"]) for r in map(json.loads, lines[:-1])]
    return Child(
        traced=traced,
        setup_s=(summary["imported_ns"] - started) / 1e9,
        results=results,
        peak_rss_kb=summary["peak_rss_kb"],
        trace=summary["trace"],
    )


# ---------------------------------------------------------------------------
# metrics
#
# On a shared host the speed of a small VM drifts by up to 2x over seconds to
# minutes, so a median over repetitions moves with the host's load.  Every
# child runs the same command list, so each command's time is taken as its
# best over the run's children: that estimates the uncontended cost, which
# is what a code change moves.  Set-up time is the median over the children.


def best_ns(children: list[Child]) -> list[int]:
    """Each command's fastest time over the children."""
    return [min(times) for times in zip(*([ns for _, ns, _ in c.results] for c in children))]


def _percentile(values: list[float], p: int) -> float:
    """Linear-interpolated p-th percentile (the 'inclusive' method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(children: list[Child], items: int, failed: int, attempted: int) -> dict:
    best = best_ns(children)
    wall_s = sum(best) / 1e9
    latencies_ms = [ns / 1e6 for ns in best]
    values = {
        "setup_s": (statistics.median(c.setup_s for c in children), "s"),
        "wall_s": (wall_s, "s"),
        "cmd_p50_ms": (statistics.median(latencies_ms), "ms"),
        "cmd_p95_ms": (_percentile(latencies_ms, 95), "ms"),
        "items_per_s": (items / wall_s, "1/s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_kb for c in children) / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 1.0


def per_layer(traced: list[Child], untraced: list[Child], output_bytes: int) -> dict:
    """Per-layer figures: self times are the best over the traced children,
    counts come from the first one (they are the same in every child)."""
    first = traced[0].trace
    fn = first["functions"]

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def best_s(get):
        return min(get(c.trace) for c in traced) / 1e9

    values = {}
    for layer in first["layers"]:
        values[f"{layer}.self_s"] = (best_s(lambda t: t["layers"][layer]["self_ns"]), "s")
        values[f"{layer}.calls"] = (first["layers"][layer]["calls"], "count")
    mins = calls("weyl.minimal_representatives")
    tables = calls("kostant.nilpotent_cohomology")
    profiles = calls("intersection.intermediate_profile")
    distinct = first["distinct"]
    values.update(
        {
            "weyl.minimal_representatives.calls": (mins, "count"),
            "kostant.nilpotent_cohomology.calls": (tables, "count"),
            "kostant.oracle_self_s": (best_s(lambda t: t["oracle_self_ns"]), "s"),
            "laurent.divide.calls": (calls("laurent.LaurentPolynomial.divide_one_minus_inverse"), "count"),
            "laurent.mul.calls": (calls("laurent.LaurentPolynomial.__mul__"), "count"),
            "laurent.terms_in": (first["counts"]["laurent.terms_in"], "count"),
            "boundary.profiles": (calls("boundary.siegel_profile") + calls("boundary.klingen_profile"), "count"),
            "boundary.entries": (first["counts"]["boundary.entries"], "count"),
            "intersection.intermediate_profile.calls": (profiles, "count"),
            "cli.output_bytes": (output_bytes, "bytes"),
            "weyl.coset_reuse": (_ratio(distinct["weyl.minimal_representatives"], mins), "ratio"),
            "kostant.table_reuse": (_ratio(distinct["kostant.nilpotent_cohomology"], tables), "ratio"),
            "intersection.profile_reuse": (
                _ratio(distinct["intersection.intermediate_profile"], profiles),
                "ratio",
            ),
            "trace.overhead": (sum(best_ns(traced)) / sum(best_ns(untraced)), "ratio"),
        }
    )
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def write_trace_dump(workload: str, seed: int, traced: list[Child]) -> Path:
    """Per-function calls and self time of the first traced child, for reading."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace_{workload}_{seed}.json"
    path.write_text(json.dumps(traced[0].trace, indent=1, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, commands=None) -> dict:
    """Run children for about ``seconds`` and return the result object.

    ``commands`` overrides the workload's own argv lists (the self-test runs
    tiny sizes this way); the recorded digest only applies without it.
    """
    if commands is None:
        commands = WORKLOADS[workload].commands(seed)
        digest = SEED_DIGESTS[workload] if seed == DEFAULT_SEED else None
    else:
        digest = None
    run_child([], traced=False)  # warm-up: byte-compile and page in the package
    children: list[Child] = []
    items = failed = attempted = 0
    start = time.monotonic()
    while True:
        child = run_child(commands, traced=trace and len(children) % 2 == 1)
        bad, n, reasons = score(workload, commands, child.results, digest)
        for reason in reasons[:5]:
            print(f"FAILED {workload}: {reason}", file=sys.stderr)
        if not children:
            items = n  # the same in every child whose output checks out
            output_bytes = sum(len(out.encode()) for _, _, out in child.results)
        children.append(child)
        failed += bad
        attempted += len(commands)
        elapsed = time.monotonic() - start
        per_child = elapsed / len(children)
        enough = len(children) >= (2 if trace else 1)
        if enough and elapsed + per_child > seconds:
            break
    if trace:
        traced = [c for c in children if c.traced]
        untraced = [c for c in children if not c.traced]
        print(f"trace dump: {write_trace_dump(workload, seed, traced)}", file=sys.stderr)
        metrics = per_layer(traced, untraced, output_bytes)
    else:
        metrics = end_to_end(children, items, failed, attempted)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "siegel_weights" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'siegel_weights' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
