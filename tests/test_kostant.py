import dataclasses
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegel_weights import (
    DivisionFailure,
    InputBoundExceeded,
    LaurentPolynomial,
    NotDominant,
    WeightTriple,
    character,
    euler_check,
    freudenthal_character,
    make_weight,
    nilpotent_cohomology,
    weyl_dimension,
)
from siegel_weights import kostant, root_data
from siegel_weights.checks import KLINGEN_TABLE, SIEGEL_TABLE, dominant_grid
from siegel_weights.errors import BadParabolicIndex
from siegel_weights.kostant import freudenthal_multiplicities
from siegel_weights.root_data import COORDINATE_BOUND, POSITIVE_ROOTS, levi_root
from siegel_weights.weyl import all_elements


def random_dominant(rng, max_k1=25):
    k1 = rng.randint(0, max_k1)
    k2 = rng.randint(0, k1)
    return make_weight(k1, k2, k1 + k2 + 2 * rng.randint(-6, 6))


# --- Kostant tables ---------------------------------------------------------

def test_siegel_table_for_the_reference_weight():
    mods = nilpotent_cohomology(make_weight(3, 1, 4), 0)
    assert [(m.highest_weight.k1, m.highest_weight.k2, m.highest_weight.r) for m in mods] == [
        (3, 1, 4),
        (3, -3, 4),
        (0, -6, 4),
        (-4, -6, 4),
    ]
    assert [m.levi_dim for m in mods] == [3, 7, 7, 3]
    assert [m.restriction_weight for m in mods] == [2, 6, 6, 2]
    assert [m.motivic_weight for m in mods] == [0, 4, 10, 14]
    assert [m.q for m in mods] == [0, 1, 2, 3]


def test_klingen_table_for_the_reference_weight():
    mods = nilpotent_cohomology(make_weight(3, 1, 4), 1)
    assert [(m.highest_weight.k1, m.highest_weight.k2, m.highest_weight.r) for m in mods] == [
        (3, 1, 4),
        (0, 4, 4),
        (-4, 4, 4),
        (-7, 1, 4),
    ]
    assert [m.levi_dim for m in mods] == [2, 5, 5, 2]
    assert [m.motivic_weight for m in mods] == [1, 4, 8, 11]


def test_trivial_weight_table():
    mods = nilpotent_cohomology(make_weight(0, 0, 0), 0)
    assert mods[0].highest_weight == WeightTriple(0, 0, 0)
    assert mods[0].levi_dim == 1
    assert [m.motivic_weight for m in mods] == [0, 2, 4, 6]


def test_closed_forms_on_random_dominant_weights():
    rng = random.Random(2024)
    for _ in range(50):
        lam = random_dominant(rng)
        for m, table in ((0, SIEGEL_TABLE), (1, KLINGEN_TABLE)):
            got = [dataclasses.astuple(mod.highest_weight) for mod in nilpotent_cohomology(lam, m)]
            assert got == [closed_form(lam.k1, lam.k2, lam.r) for closed_form in table]


def test_motivic_weight_closed_forms_and_symmetry():
    rng = random.Random(77)
    for _ in range(100):
        lam = random_dominant(rng)
        k1, k2, r = lam.k1, lam.k2, lam.r
        ws = [m.motivic_weight for m in nilpotent_cohomology(lam, 0)]
        assert ws == [r - k1 - k2, (r + 2) - (k1 - k2), (r + 4) + (k1 - k2), (r + 6) + k1 + k2]
        assert ws[0] + ws[3] == ws[1] + ws[2] == 2 * r + 6
        wk = [m.motivic_weight for m in nilpotent_cohomology(lam, 1)]
        assert wk == [r - k1, (r + 1) - k2, (r + 3) + k2, (r + 4) + k1]
        assert wk[0] + wk[3] == wk[1] + wk[2] == 2 * r + 4


def test_restriction_weights_come_in_mirror_pairs():
    rng = random.Random(31)
    for _ in range(40):
        lam = random_dominant(rng)
        k1, k2 = lam.k1, lam.k2
        sieg = [m.restriction_weight for m in nilpotent_cohomology(lam, 0)]
        assert sieg == [k1 - k2, k1 + k2 + 2, k1 + k2 + 2, k1 - k2]
        klin = [m.restriction_weight for m in nilpotent_cohomology(lam, 1)]
        assert klin == [k2, k1 + 1, k1 + 1, k2]
        assert all(m.levi_dim == m.restriction_weight + 1 for m in nilpotent_cohomology(lam, 0))


def test_table_input_validation():
    with pytest.raises(NotDominant):
        nilpotent_cohomology(WeightTriple(1, 2, 3), 0)
    with pytest.raises(BadParabolicIndex):
        nilpotent_cohomology(make_weight(1, 1, 2), 7)


# --- character oracles ------------------------------------------------------

def test_character_of_the_trivial_module_is_one():
    assert character(make_weight(0, 0, 0)) == LaurentPolynomial({(0, 0, 0): 1})


def test_character_of_the_standard_module():
    for r in (1, 3, -5):
        ch = character(make_weight(1, 0, r))
        assert ch.mass() == 4
        weights = [(-1, 0, r), (0, -1, r), (0, 1, r), (1, 0, r)]
        assert list(ch.items()) == [(e, 1) for e in weights]


def test_character_mass_of_the_reference_weight():
    lam = make_weight(3, 1, 4)
    assert character(lam).mass() == 35
    assert weyl_dimension(lam) == 35
    assert freudenthal_character(lam).mass() == 35


def test_weyl_dimension_small_values():
    assert weyl_dimension(make_weight(0, 0, 0)) == 1
    assert weyl_dimension(make_weight(1, 0, 1)) == 4
    assert weyl_dimension(make_weight(1, 1, 2)) == 5
    assert weyl_dimension(make_weight(2, 0, 2)) == 10
    assert weyl_dimension(make_weight(2, 2, 0)) == 14


def test_character_agrees_with_freudenthal_everywhere_small():
    for lam in dominant_grid(4):
        ch = character(lam)
        assert ch == freudenthal_character(lam)
        assert ch.mass() == weyl_dimension(lam)


def test_character_is_weyl_invariant_with_fixed_r():
    lam = make_weight(4, 2, 6)
    ch = character(lam)
    terms = dict(ch.items())
    assert all(e[2] == 6 for e in terms)
    for w in all_elements():
        moved = {}
        for (a, b, r), c in terms.items():
            img = w(WeightTriple(a, b, r))
            moved[(img.k1, img.k2, img.r)] = c
        assert moved == terms


def test_character_support_stays_in_the_character_lattice():
    lam = make_weight(3, 3, 8)
    for (a, b, r), _ in character(lam).items():
        assert WeightTriple(a, b, r).is_character()


def test_freudenthal_multiplicity_table_of_the_reference_weight():
    mult = freudenthal_multiplicities(make_weight(3, 1, 4))
    # dominant weights of V_(3,1): mass check against orbit sizes
    assert mult[(3, 1)] == 1
    assert mult[(1, 1)] == 3  # computed once by the recursion, frozen here
    assert mult[(2, 0)] == 2
    orbit_size = {(3, 1): 8, (2, 2): 4, (2, 0): 4, (1, 1): 4, (0, 0): 1}
    assert sum(orbit_size[w] * m for w, m in mult.items()) == 35


def test_corrupted_root_data_makes_the_character_division_fail(monkeypatch):
    # the route from wrong root data to DivisionFailure that verify's
    # dimension_oracle suite keeps
    monkeypatch.setattr(root_data, "RHO", WeightTriple(2, 2, 0))
    with pytest.raises(DivisionFailure):
        character(make_weight(0, 0, 0))


def test_character_rejects_non_dominant_input():
    with pytest.raises(NotDominant):
        character(WeightTriple(0, 1, 1))
    with pytest.raises(NotDominant):
        freudenthal_multiplicities(WeightTriple(-1, -1, 0))


# --- Euler characteristic guard ---------------------------------------------

def test_euler_identity_reference_cases():
    assert euler_check(make_weight(0, 0, 0), 0)
    assert euler_check(make_weight(0, 0, 0), 1)
    assert euler_check(make_weight(1, 1, 2), 1)
    assert euler_check(make_weight(3, 1, 4), 0)
    assert euler_check(make_weight(3, 1, 4), 1)


def test_euler_identity_on_a_grid():
    for lam in dominant_grid(4):
        assert euler_check(lam, 0)
        assert euler_check(lam, 1)


def test_euler_identity_sees_r_shifts():
    for t in (-4, 0, 2, 10):
        lam = make_weight(2, 1, 3 + 2 * t)
        assert euler_check(lam, 0)
        assert euler_check(lam, 1)


@st.composite
def dominant_weights(draw, max_k1):
    k1 = draw(st.integers(0, max_k1))
    k2 = draw(st.one_of(st.just(0), st.just(k1), st.integers(0, k1)))  # walls often
    return make_weight(k1, k2, k1 + k2 + 2 * draw(st.integers(-20, 20)))


@st.composite
def bounded_dominant_triples(draw):
    """Dominant triples with every coordinate in [-COORDINATE_BOUND, COORDINATE_BOUND]."""
    k1 = draw(st.integers(0, COORDINATE_BOUND))
    k2 = draw(st.one_of(st.just(0), st.just(k1), st.integers(0, k1)))  # walls often
    return WeightTriple(k1, k2, draw(st.integers(-COORDINATE_BOUND, COORDINATE_BOUND)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lam=bounded_dominant_triples())
@example(lam=WeightTriple(0, 0, 0))
@example(lam=WeightTriple(COORDINATE_BOUND, 0, -COORDINATE_BOUND))
@example(lam=WeightTriple(COORDINATE_BOUND, COORDINATE_BOUND, COORDINATE_BOUND))
def test_kostant_tables_match_the_closed_forms_over_the_whole_range(lam):
    for m, table in ((0, SIEGEL_TABLE), (1, KLINGEN_TABLE)):
        got = [dataclasses.astuple(mod.highest_weight) for mod in nilpotent_cohomology(lam, m)]
        assert got == [closed_form(lam.k1, lam.k2, lam.r) for closed_form in table]


@settings(derandomize=True, deadline=None)
@given(lam=dominant_weights(16))
@example(lam=make_weight(0, 0, 0))
@example(lam=make_weight(16, 0, -24))
@example(lam=make_weight(16, 16, 72))
def test_weyl_and_freudenthal_characters_agree(lam):
    ch = character(lam)
    assert ch == freudenthal_character(lam)
    assert ch.mass() == weyl_dimension(lam)


@settings(derandomize=True, deadline=None)
@given(lam=dominant_weights(24))
@example(lam=make_weight(0, 0, 0))
@example(lam=make_weight(24, 0, 24))
@example(lam=make_weight(24, 24, 8))
def test_euler_identity_on_wide_weights(lam):
    assert euler_check(lam, 0)
    assert euler_check(lam, 1)


@settings(derandomize=True, deadline=None)
@given(lam=dominant_weights(24))
@example(lam=make_weight(0, 0, 0))
@example(lam=make_weight(24, 0, 24))
@example(lam=make_weight(24, 24, 8))
def test_euler_right_sides_agree_with_the_product_form(lam):
    # the product form ch V * prod_{beta in W_m} (1 - x^{-beta}) of the Euler
    # identity's right side equals N(lam) / (1 - x^{-gamma_m}), the form
    # euler_check compares against
    numerator = kostant._weyl_numerator(lam)
    for m in (0, 1):
        product = character(lam)
        for beta in [b for b in POSITIVE_ROOTS if b != levi_root(m)]:
            product = product * one_minus_inverse(beta)
        assert product == numerator.divide_one_minus_inverse(levi_root(m))


def one_minus_inverse(beta):
    return LaurentPolynomial({(0, 0, 0): 1, (-beta.k1, -beta.k2, 0): -1})


def sl2_string(mod):
    """Torus character of a Kostant module as the SL(2) string
    x^{nu} + x^{nu - gamma} + ... + x^{nu - u*gamma}, as a dict."""
    gamma, nu = levi_root(mod.m), mod.highest_weight
    return {
        (nu.k1 - i * gamma.k1, nu.k2 - i * gamma.k2, nu.r): 1
        for i in range(mod.restriction_weight + 1)
    }


def string_form_holds(lam, m, mods):
    """sum_q (-1)^q string_q * (1 - x^{-gamma_m}) == N(lam), by multiplication."""
    lhs = {}
    for mod in mods:
        for e, c in sl2_string(mod).items():
            lhs[e] = lhs.get(e, 0) + (-c if mod.q % 2 else c)
    product = LaurentPolynomial(lhs) * one_minus_inverse(levi_root(m))
    return product == kostant._weyl_numerator(lam)


def _first_string_lengthened(real):
    def lengthened(lam, m):
        first, *rest = real(lam, m)
        return (dataclasses.replace(first, restriction_weight=first.restriction_weight + 1), *rest)

    return lengthened


@settings(derandomize=True, deadline=None)
@given(lam=dominant_weights(24))
@example(lam=make_weight(0, 0, 0))
@example(lam=make_weight(24, 0, 24))
@example(lam=make_weight(24, 24, 8))
def test_string_form_of_the_euler_identity_agrees_with_euler_check(lam):
    # the SL(2) strings times 1 - x^{-gamma_m}, multiplied out, against the
    # telescoped rank-one form that euler_check compares
    for m in (0, 1):
        mods = nilpotent_cohomology(lam, m)
        assert all(LaurentPolynomial(sl2_string(mod)).mass() == mod.levi_dim for mod in mods)
        assert string_form_holds(lam, m, mods)
        assert euler_check(lam, m)
        mutant = _first_string_lengthened(kostant.nilpotent_cohomology)
        assert not string_form_holds(lam, m, mutant(lam, m))
        with mock.patch.object(kostant, "nilpotent_cohomology", mutant):
            assert not euler_check(lam, m)


def test_negative_control_shortened_string_fails_the_euler_identity(monkeypatch):
    original = kostant.nilpotent_cohomology

    def shortened(lam, m):
        mods = list(original(lam, m))
        mods[0] = dataclasses.replace(mods[0], restriction_weight=mods[0].restriction_weight - 1)
        return tuple(mods)

    monkeypatch.setattr(kostant, "nilpotent_cohomology", shortened)
    for lam in (make_weight(3, 1, 4), make_weight(5, 2, 7)):
        assert not euler_check(lam, 0)
        assert not euler_check(lam, 1)


def test_oracles_refuse_k1_above_the_bound():
    assert kostant.ORACLE_MAX_K1 == 100
    big = make_weight(101, 0, 101)
    for oracle in (character, freudenthal_multiplicities, freudenthal_character):
        with pytest.raises(InputBoundExceeded):
            oracle(big)
    for m in (0, 1):
        with pytest.raises(InputBoundExceeded):
            euler_check(big, m)


def test_character_accepts_k1_at_the_bound():
    assert character(make_weight(100, 0, 100)).mass() == weyl_dimension(make_weight(100, 0, 100))


def test_negative_control_shifted_module_fails_the_euler_identity(monkeypatch):
    original = kostant.nilpotent_cohomology

    def shifted(lam, m):
        mods = list(original(lam, m))
        mods[2] = dataclasses.replace(
            mods[2], highest_weight=mods[2].highest_weight + WeightTriple(0, 0, 2)
        )
        return tuple(mods)

    monkeypatch.setattr(kostant, "nilpotent_cohomology", shifted)
    for lam in (make_weight(3, 1, 4), make_weight(0, 0, 0), make_weight(5, 5, 10)):
        assert not euler_check(lam, 0)
        assert not euler_check(lam, 1)


def test_negative_control_corrupted_rho_fails_freudenthal_under_python_O():
    # a wrong rho leaves a Freudenthal step inexact; that must raise even with
    # assertions stripped, instead of returning wrong multiplicities
    code = (
        "import sys\n"
        "if __debug__: sys.exit(3)\n"
        "from siegel_weights import root_data\n"
        "from siegel_weights.errors import PreconditionViolation\n"
        "from siegel_weights.kostant import freudenthal_multiplicities\n"
        "root_data.RHO = root_data.WeightTriple(2, 2, 0)\n"
        "try:\n"
        "    freudenthal_multiplicities(root_data.make_weight(3, 1, 4))\n"
        "except PreconditionViolation as err:\n"
        "    print(err)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("internal:")
