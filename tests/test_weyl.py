import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegel_weights import WeightTriple, make_weight, nilpotent_cohomology
from siegel_weights import root_data
from siegel_weights.errors import BadParabolicIndex
from siegel_weights.root_data import COORDINATE_BOUND, POSITIVE_ROOTS, levi_root
from siegel_weights.weyl import (
    IDENTITY,
    S1,
    S2,
    WeylElement,
    _is_negative,
    _minimal_representatives,
    all_elements,
    compose,
    dot,
    length,
    sign,
)
from weight_strategies import minus, plus

LONGEST = WeylElement((0, 1), (-1, -1))  # -id


def is_character(v):
    """v lies in the character sublattice: r - k1 - k2 is even."""
    return (v.r - v.k1 - v.k2) % 2 == 0


def random_character(rng):
    k1 = rng.randint(-15, 15)
    k2 = rng.randint(-15, 15)
    r = k1 + k2 + 2 * rng.randint(-6, 6)
    return WeightTriple(k1, k2, r)


def test_there_are_eight_distinct_elements_in_length_order():
    elems = all_elements()
    assert len(elems) == len(set(elems)) == 8
    assert Counter(length(w) for w in elems) == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}
    assert [length(w) for w in elems] == sorted(length(w) for w in elems)
    assert elems[0] == IDENTITY
    assert elems[-1] == LONGEST
    # the whole order: verify reports the first failing pair in it (MUTANT_FAIL_PAYLOADS needs s1 before s2)
    assert [w.word() for w in elems] == [
        "e", "s1", "s2", "s2*s1", "s1*s2", "s1*s2*s1", "s2*s1*s2", "s2*s1*s2*s1"
    ]


def test_generators_act_as_swap_and_sign_flip():
    v = WeightTriple(3, 1, 4)
    assert S1(v) == WeightTriple(1, 3, 4)
    assert S2(v) == WeightTriple(3, -1, 4)
    assert LONGEST(v) == WeightTriple(-3, -1, 4)
    assert IDENTITY(v) == v


def test_r_coordinate_is_always_fixed():
    rng = random.Random(3)
    for _ in range(20):
        v = random_character(rng)
        for w in all_elements():
            assert w(v).r == v.r


def test_composition_is_function_composition():
    rng = random.Random(5)
    vs = [random_character(rng) for _ in range(5)]
    for w in all_elements():
        for u in all_elements():
            wu = compose(w, u)
            for v in vs:
                assert wu(v) == w(u(v))


def test_inverses():
    # each element has exactly one two-sided inverse in the group, and the coset filter's
    # "Levi root in w(Phi+)" is the classical "w^-1 keeps the Levi root positive"
    elems = all_elements()
    for w in elems:
        (inv,) = [u for u in elems if compose(w, u) == IDENTITY]
        assert compose(inv, w) == IDENTITY
        for m in (0, 1):
            kept = not _is_negative(inv(levi_root(m)))
            assert kept == (w in _minimal_representatives(m, elems))


def test_sign_is_determinant_and_length_parity():
    for w in all_elements():
        det = (
            w.signs[0] * w.signs[1] * (-1 if w.source == (1, 0) else 1)
        )
        assert sign(w) == det == (-1) ** length(w)


def test_length_via_inversions_matches_word_length():
    for w in all_elements():
        word = w.word()
        letters = 0 if word == "e" else len(word.split("*"))
        assert letters == length(w)


def test_dot_action_examples():
    lam = make_weight(3, 1, 4)
    assert dot(IDENTITY, lam) == lam
    assert dot(S1, lam) == WeightTriple(0, 4, 4)
    assert dot(S2, lam) == WeightTriple(3, -3, 4)


def test_dot_action_is_a_group_action():
    rng = random.Random(7)
    vs = [random_character(rng) for _ in range(4)]
    for w in all_elements():
        for u in all_elements():
            wu = compose(w, u)
            for v in vs:
                assert dot(w, dot(u, v)) == dot(wu, v)
    for v in vs:
        assert dot(IDENTITY, v) == v


coordinate = st.integers(-COORDINATE_BOUND, COORDINATE_BOUND)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(v=st.builds(WeightTriple, coordinate, coordinate, coordinate))
@example(v=WeightTriple(0, 0, 0))
@example(v=WeightTriple(-COORDINATE_BOUND, COORDINATE_BOUND, -COORDINATE_BOUND))
def test_dot_is_the_shifted_action_over_the_whole_range(v):
    rho = root_data.RHO
    for w in all_elements():
        assert dot(w, v) == minus(w(plus(v, rho)), rho)


def test_dot_action_preserves_the_character_lattice():
    rng = random.Random(9)
    for _ in range(30):
        lam = random_character(rng)
        for w in all_elements():
            assert is_character(dot(w, lam))


def test_minimal_representatives_lengths_and_criterion():
    # independent oracle: w is the shortest of its coset W_L w exactly when the Levi's
    # simple reflection s, on the left, makes it longer (s1 for m = 0, s2 for m = 1)
    for m, s in ((0, S1), (1, S2)):
        reps = _minimal_representatives(m, all_elements())
        assert [length(w) for w in reps] == [0, 1, 2, 3]
        assert reps[0] == IDENTITY
        assert list(reps) == [w for w in all_elements() if length(compose(s, w)) > length(w)]
    assert _minimal_representatives(0, all_elements())[1] == S2
    assert _minimal_representatives(1, all_elements())[1] == S1
    with pytest.raises(BadParabolicIndex):
        _minimal_representatives(3, all_elements())


def test_minimal_representatives_refuse_corrupted_root_data(monkeypatch):
    # a root gamma pairs w with s_gamma w, so exactly four elements keep it in w(Phi+);
    # (1, 0, 0) is no root, and no element keeps it there
    monkeypatch.setattr(root_data, "levi_root", lambda m: WeightTriple(1, 0, 0))
    with pytest.raises(BadParabolicIndex) as err:
        _minimal_representatives(0, all_elements())
    assert str(err.value) == "internal: expected 4 coset representatives, got 0"


@pytest.mark.parametrize("m", [True, False, 1.0, "0", [0], None])
def test_minimal_representatives_rejects_non_int_indices(m):
    # the representatives are reached through nilpotent_cohomology, which
    # checks m before the cache is read: 1.0 is no cache hit for 1, and an
    # unhashable index is no TypeError
    with pytest.raises(BadParabolicIndex):
        nilpotent_cohomology(make_weight(0, 0, 0), m)


def test_representatives_send_dominant_weights_to_levi_dominant_ones():
    # dot outputs must be dominant for the Levi: nonnegative on its root
    rng = random.Random(13)
    for _ in range(40):
        k1 = rng.randint(0, 20)
        k2 = rng.randint(0, k1)
        lam = make_weight(k1, k2, k1 + k2)
        for m in (0, 1):
            for w in _minimal_representatives(m, all_elements()):
                hw = dot(w, lam)
                if m == 0:
                    assert hw.k1 - hw.k2 >= 0
                else:
                    assert hw.k2 >= 0


def test_longest_element_is_minus_identity_and_central():
    for w in all_elements():
        assert compose(w, LONGEST) == compose(LONGEST, w)
    v = WeightTriple(2, -5, 1)
    assert LONGEST(v) == WeightTriple(-2, 5, 1)


def test_orbit_of_positive_roots_is_the_root_system():
    roots = set(POSITIVE_ROOTS) | {WeightTriple(-b.k1, -b.k2, -b.r) for b in POSITIVE_ROOTS}
    for w in all_elements():
        assert {w(b) for b in roots} == roots
