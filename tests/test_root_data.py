import random

import pytest

from siegel_weights import (
    InputBoundExceeded,
    NotDominant,
    ParityViolation,
    PreconditionViolation,
    WeightTriple,
    k_invariant,
    make_weight,
)
from siegel_weights.checks import dominant_grid
from siegel_weights.errors import BadParabolicIndex
from siegel_weights.root_data import (
    COORDINATE_BOUND,
    POSITIVE_ROOTS,
    RHO,
    check_parabolic,
    is_dominant,
    is_regular,
    levi_restriction_weight,
    levi_root,
    motivic_weight,
    pairing,
)


def test_make_weight_accepts_even_parity():
    lam = make_weight(3, 1, 4)
    assert (lam.k1, lam.k2, lam.r) == (3, 1, 4)
    assert make_weight(0, 0, 0) == WeightTriple(0, 0, 0)
    assert make_weight(2, 1, -3).is_character()


def test_make_weight_rejects_odd_parity():
    with pytest.raises(ParityViolation):
        make_weight(1, 0, 0)
    with pytest.raises(ParityViolation):
        make_weight(2, 1, 4)
    with pytest.raises(ParityViolation):
        make_weight(0, 0, 1)


def test_make_weight_rejects_non_integers():
    for bad in (1.0, True, "1", None):
        with pytest.raises(PreconditionViolation, match="coordinates must be integers"):
            make_weight(bad, 0, 1)


def test_make_weight_enforces_coordinate_bound():
    make_weight(COORDINATE_BOUND, 0, COORDINATE_BOUND)
    with pytest.raises(InputBoundExceeded):
        make_weight(COORDINATE_BOUND + 1, 0, 1)
    with pytest.raises(InputBoundExceeded):
        make_weight(0, 0, -COORDINATE_BOUND - 2)


def test_lattice_arithmetic_is_componentwise():
    a = WeightTriple(3, 1, 4)
    b = WeightTriple(1, -1, 0)
    assert a + b == WeightTriple(4, 0, 4)
    assert a - b == WeightTriple(2, 2, 4)


def test_positive_roots_are_the_expected_four():
    assert POSITIVE_ROOTS == (
        WeightTriple(1, -1, 0),
        WeightTriple(0, 2, 0),
        WeightTriple(1, 1, 0),
        WeightTriple(2, 0, 0),
    )


def test_roots_kill_the_center_and_lie_in_the_character_lattice():
    for beta in POSITIVE_ROOTS:
        assert beta.r == 0
        assert beta.is_character()


def test_rho_is_the_half_sum_and_is_not_a_character():
    total = WeightTriple(0, 0, 0)
    for beta in POSITIVE_ROOTS:
        total = total + beta
    assert total == WeightTriple(4, 2, 0)
    assert RHO + RHO == total
    assert not RHO.is_character()


def test_parabolic_root_partition():
    for m in (0, 1):
        gamma = levi_root(m)
        assert gamma in POSITIVE_ROOTS
        assert len([beta for beta in POSITIVE_ROOTS if beta != gamma]) == 3
    assert levi_root(0) == WeightTriple(1, -1, 0)
    assert levi_root(1) == WeightTriple(0, 2, 0)
    with pytest.raises(BadParabolicIndex):
        levi_root(2)
    with pytest.raises(BadParabolicIndex):
        levi_root(-1)


@pytest.mark.parametrize("m", [True, False, 1.0, 0.0, "0", [0], None, 2, -1])
def test_check_parabolic_rejects_everything_but_int_0_and_1(m):
    with pytest.raises(BadParabolicIndex):
        check_parabolic(m)


def test_check_parabolic_accepts_0_and_1():
    assert check_parabolic(0) == 0
    assert check_parabolic(1) == 1


def test_dominance_and_regularity():
    assert is_dominant(make_weight(3, 1, 4))
    assert is_dominant(make_weight(0, 0, 0))
    assert is_dominant(make_weight(2, 2, 4))
    assert not is_dominant(make_weight(1, 2, 3))
    assert not is_dominant(make_weight(1, -1, 0))
    assert is_regular(make_weight(3, 1, 4))
    assert not is_regular(make_weight(2, 2, 4))
    assert not is_regular(make_weight(3, 0, 3))
    assert not is_regular(make_weight(0, 0, 0))


def test_k_invariant_examples():
    assert k_invariant(make_weight(3, 1, 4)) == 1
    assert k_invariant(make_weight(5, 2, 7)) == 2
    assert k_invariant(make_weight(2, 2, 4)) == 0
    assert k_invariant(make_weight(4, 0, 4)) == 0
    with pytest.raises(NotDominant):
        k_invariant(make_weight(1, 2, 3))


def test_k_invariant_positive_iff_regular():
    for lam in dominant_grid(8):
        assert (k_invariant(lam) >= 1) == is_regular(lam)


def test_motivic_weight_examples():
    assert motivic_weight(WeightTriple(3, -3, 4), 0) == 4
    assert motivic_weight(WeightTriple(0, 4, 4), 1) == 4
    assert motivic_weight(WeightTriple(3, 1, 4), 0) == 0
    assert motivic_weight(WeightTriple(3, 1, 4), 1) == 1
    with pytest.raises(BadParabolicIndex):
        motivic_weight(WeightTriple(3, 1, 4), 2)


def test_levi_restriction_weight_examples():
    assert levi_restriction_weight(WeightTriple(3, -3, 4), 0) == 6
    assert levi_restriction_weight(WeightTriple(3, 1, 4), 0) == 2
    assert levi_restriction_weight(WeightTriple(0, 4, 4), 1) == 4
    assert levi_restriction_weight(WeightTriple(3, 1, 4), 1) == 1
    with pytest.raises(BadParabolicIndex):
        levi_restriction_weight(WeightTriple(3, 1, 4), 5)


def test_pairing_norms():
    # type C2: short roots have squared length 2, long roots 4
    short = {WeightTriple(1, -1, 0), WeightTriple(1, 1, 0)}
    for beta in POSITIVE_ROOTS:
        assert pairing(beta, beta) == (2 if beta in short else 4)


def test_similitude_weight_parity_and_randomized_lattice_closure():
    rng = random.Random(11)
    for _ in range(100):
        k1 = rng.randint(0, 40)
        k2 = rng.randint(0, k1)
        r = k1 + k2 + 2 * rng.randint(-10, 10)
        lam = make_weight(k1, k2, r)
        for beta in POSITIVE_ROOTS:
            assert (lam + beta).is_character()
            assert (lam - beta).is_character()
