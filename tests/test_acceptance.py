"""Acceptance gate: one test per shipped criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
on success).  Every assertion is exact; the timed criteria use generous wall
clock budgets that hold on any reasonable machine.
"""

import json
import random
import subprocess
import sys
import time

from siegel_weights import (
    StratumDatum,
    avoided_interval,
    character,
    freudenthal_character,
    intermediate_profile,
    make_weight,
    nilpotent_cohomology,
    euler_check,
    rank_inequality_check,
    weyl_dimension,
)

P03 = StratumDatum(0, 3)
THEOREM_STRATA = (P03, StratumDatum(1, 1), StratumDatum(2, 5))


def dominant_grid(max_k1):
    return [
        make_weight(k1, k2, k1 + k2)
        for k1 in range(max_k1 + 1)
        for k2 in range(k1 + 1)
    ]


def test_criterion_1_kostant_tables_match_closed_forms_fast():
    rng = random.Random(20240819)
    start = time.perf_counter()
    for _ in range(50):
        k1 = rng.randint(0, 40)
        k2 = rng.randint(0, k1)
        r = k1 + k2 + 2 * rng.randint(-8, 8)
        lam = make_weight(k1, k2, r)
        sieg = [(m.highest_weight.k1, m.highest_weight.k2, m.highest_weight.r)
                for m in nilpotent_cohomology(lam, 0)]
        assert sieg == [
            (k1, k2, r),
            (k1, -k2 - 2, r),
            (k2 - 1, -k1 - 3, r),
            (-k2 - 3, -k1 - 3, r),
        ], lam
        klin = [(m.highest_weight.k1, m.highest_weight.k2, m.highest_weight.r)
                for m in nilpotent_cohomology(lam, 1)]
        assert klin == [
            (k1, k2, r),
            (k2 - 1, k1 + 1, r),
            (-k2 - 3, k1 + 1, r),
            (-k1 - 4, k2, r),
        ], lam
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"\nPASS criterion 1: 50 random Kostant tables match closed forms ({elapsed:.3f}s)")


def test_criterion_2_euler_identity_exact_on_the_k1_le_6_grid():
    grid = dominant_grid(6)
    assert len(grid) == 28
    start = time.perf_counter()
    for lam in grid:
        for m in (0, 1):
            assert euler_check(lam, m), (lam, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    print(f"\nPASS criterion 2: Euler identity exact for 28 weights x 2 parabolics ({elapsed:.3f}s)")


def test_criterion_3_low_degree_weight_formulas():
    rng = random.Random(3)
    weights = dominant_grid(8) + [
        make_weight(k1, k2, k1 + k2 + 2 * rng.randint(-6, 6))
        for k1, k2 in [(rng.randint(0, 30), 0) for _ in range(10)]
    ]
    weights += [make_weight(12, 7, 25), make_weight(9, 9, 18)]
    for lam in weights:
        k1, k2, r = lam.k1, lam.k2, lam.r
        sieg = nilpotent_cohomology(lam, 0)
        klin = nilpotent_cohomology(lam, 1)
        # point strata: classical weight = perverse weight
        assert sieg[0].motivic_weight == r - k1 - k2
        assert sieg[1].motivic_weight == (r + 2) - (k1 - k2)
        # curve strata: classical sheaf weight, then the perverse +1 bump
        assert klin[0].motivic_weight == (r + 1) - k1 - 1
        assert klin[1].motivic_weight == (r + 2) - k2 - 1
        curve = intermediate_profile(lam, 1, [P03]).entries
        assert [e.weight for e in curve] == [(r + 1) - k1 - 1 + 1, (r + 2) - k2 - 1 + 1]
        assert [e.n_perverse for e in curve] == [r + 1, r + 2]
    print(f"\nPASS criterion 3: low-degree weight formulas hold on {len(weights)} weights")


def test_criterion_4_theorem_reproduction_for_regular_weights():
    count = 0
    for k1 in range(0, 11):
        for k2 in range(1, k1):
            lam = make_weight(k1, k2, k1 + k2)
            r = lam.r
            gap = {0: k1 - k2, 1: k2}
            for s in THEOREM_STRATA:
                for m in (0, 1):
                    profile = intermediate_profile(lam, m, (s,))
                    entries = profile.all_entries()
                    top = [e for e in entries if e.n_perverse == r + 2]
                    assert top and all(e.nonzero is True for e in top), (lam, m, s)
                    assert {e.weight for e in top} == {(r + 2) - gap[m]}, (lam, m, s)
                    for e in entries:
                        assert e.n_perverse <= r + 2
                        if e.nonzero is True:
                            assert e.weight <= e.n_perverse - gap[m], (lam, m, s, e)
                    count += 1
    assert count == 45 * 3 * 2
    print(f"\nPASS criterion 4: purity pattern reproduced for 45 regular weights x 3 strata")


def test_criterion_5_avoided_interval_closed_form_all_231_pairs():
    grid = dominant_grid(20)
    assert len(grid) == 231
    strata_sets = ([P03], [StratumDatum(1, 1), StratumDatum(2, 5)])
    start = time.perf_counter()
    for lam in grid:
        closed = min(lam.k1 - lam.k2, lam.k2)
        for strata in strata_sets:
            k, witnesses = avoided_interval(lam, strata)
            assert k == closed, lam
            assert witnesses
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    print(f"\nPASS criterion 5: k = min(k1-k2, k2) on all 231 pairs, strata-invariant ({elapsed:.3f}s)")


def test_criterion_6_rank_inequality_on_the_neat_grid():
    strata = [
        StratumDatum(g, c)
        for g in range(0, 6)
        for c in range(1, 21)
        if not (g == 0 and c < 3)
    ]
    checked = 0
    for k1 in range(1, 11):
        for k2 in range(0, k1 + 1):
            lam = make_weight(k1, k2, k1 + k2)
            for s in strata:
                assert rank_inequality_check(lam, s), (lam, s)
                checked += 1
    kernel = intermediate_profile(make_weight(3, 1, 4), 0, [P03]).kernel_entry
    assert (kernel.rank_upper, kernel.rank_upper - kernel.rank_lower) == (7, 3)
    print(f"\nPASS criterion 6: rank inequality on {checked} (weight, stratum) pairs; reference ranks (7, 3)")


def test_criterion_7_character_masses_against_the_recursion_oracle():
    lam = make_weight(3, 1, 4)
    ch = character(lam)
    assert ch.mass() == freudenthal_character(lam).mass() == weyl_dimension(lam) == 35
    assert ch == freudenthal_character(lam)
    for r in (1, 5):
        std = character(make_weight(1, 0, r))
        assert std.mass() == 4
        assert std == freudenthal_character(make_weight(1, 0, r))
    print("\nPASS criterion 7: character masses 35 and 4 agree across both oracles")


def test_criterion_8_deterministic_outputs_and_seeded_verification():
    args = [sys.executable, "-m", "siegel_weights", "analyze",
            "--k1", "5", "--k2", "2", "--r", "9", "--stratum", "0,3", "--stratum", "2,5"]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["k"] == 2

    verify = subprocess.run(
        [sys.executable, "-m", "siegel_weights", "verify", "--seed", "7"],
        capture_output=True,
        text=True,
    )
    assert verify.returncode == 0, verify.stdout
    print("\nPASS criterion 8: byte-identical analyze output; verify --seed 7 exits 0")
