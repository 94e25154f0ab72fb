import random
from collections import Counter

import pytest

from siegel_weights import (
    IDENTITY,
    LONGEST,
    S1,
    S2,
    WeightTriple,
    all_elements,
    compose,
    dot,
    length,
    levi_root,
    make_weight,
    minimal_representatives,
    sign,
)
from siegel_weights.errors import BadParabolicIndex
from siegel_weights.root_data import POSITIVE_ROOTS
from siegel_weights.weyl import _is_negative


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
    for w in all_elements():
        assert compose(w, w.inverse()) == IDENTITY
        assert compose(w.inverse(), w) == IDENTITY


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


def test_dot_action_preserves_the_character_lattice():
    rng = random.Random(9)
    for _ in range(30):
        lam = random_character(rng)
        for w in all_elements():
            assert dot(w, lam).is_character()


def test_minimal_representatives_lengths_and_criterion():
    for m in (0, 1):
        reps = minimal_representatives(m)
        assert [length(w) for w in reps] == [0, 1, 2, 3]
        assert reps[0] == IDENTITY
        gamma = levi_root(m)
        for w in reps:
            assert not _is_negative(w.inverse()(gamma))
        # and any element outside the set fails the criterion
        rest = [w for w in all_elements() if w not in reps]
        for w in rest:
            assert _is_negative(w.inverse()(gamma))
    assert minimal_representatives(0)[1] == S2
    assert minimal_representatives(1)[1] == S1
    with pytest.raises(BadParabolicIndex):
        minimal_representatives(3)


def test_representatives_send_dominant_weights_to_levi_dominant_ones():
    # dot outputs must be dominant for the Levi: nonnegative on its root
    rng = random.Random(13)
    for _ in range(40):
        k1 = rng.randint(0, 20)
        k2 = rng.randint(0, k1)
        lam = make_weight(k1, k2, k1 + k2)
        for m in (0, 1):
            for w in minimal_representatives(m):
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
    roots = set(POSITIVE_ROOTS) | {-b for b in POSITIVE_ROOTS}
    for w in all_elements():
        assert {w(b) for b in roots} == roots
