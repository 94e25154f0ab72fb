import random

import pytest

import siegel_weights
from siegel_weights import (
    DivisionFailure,
    InputBoundExceeded,
    NotDominant,
    ParityViolation,
    PreconditionViolation,
    WeightTriple,
    k_invariant,
    make_weight,
)
from siegel_weights.checks import dominant_grid
from siegel_weights.boundary import CohomologyEntry, StratumDatum, group_cohomology_dims
from siegel_weights.errors import BadParabolicIndex
from siegel_weights.kostant import nilpotent_cohomology
from siegel_weights.laurent import LaurentPolynomial
from siegel_weights.root_data import (
    COORDINATE_BOUND,
    POSITIVE_ROOTS,
    RHO,
    _motivic_weight,
    _restriction_weight,
    check_parabolic,
    is_regular,
    levi_root,
    require_dominant,
)
from weight_strategies import minus, plus


def is_character(v):
    """v lies in the character sublattice: r - k1 - k2 is even."""
    return (v.r - v.k1 - v.k2) % 2 == 0


def test_make_weight_accepts_even_parity():
    lam = make_weight(3, 1, 4)
    assert (lam.k1, lam.k2, lam.r) == (3, 1, 4)
    assert make_weight(0, 0, 0) == WeightTriple(0, 0, 0)
    assert is_character(make_weight(2, 1, -3))


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


class Int(int):
    """An int subclass: equal to its int, but not an int coordinate."""


# Every public function that takes a weight, called on lam with valid other arguments.
WEIGHT_ENTRY_POINTS = {
    "k_invariant": siegel_weights.k_invariant,
    "analysis_report": lambda lam: siegel_weights.analysis_report(lam, [StratumDatum(0, 3)]),
    "avoided_interval": lambda lam: siegel_weights.avoided_interval(lam, [StratumDatum(0, 3)]),
    "intermediate_profile_0": lambda lam: siegel_weights.intermediate_profile(lam, 0, [StratumDatum(0, 3)]),
    "intermediate_profile_1": lambda lam: siegel_weights.intermediate_profile(lam, 1, [StratumDatum(0, 3)]),
    "rank_inequality_check": lambda lam: siegel_weights.rank_inequality_check(lam, StratumDatum(0, 3)),
    "nilpotent_cohomology_0": lambda lam: siegel_weights.nilpotent_cohomology(lam, 0),
    "nilpotent_cohomology_1": lambda lam: siegel_weights.nilpotent_cohomology(lam, 1),
    "character": siegel_weights.character,
    "freudenthal_character": siegel_weights.freudenthal_character,
    "weyl_dimension": siegel_weights.weyl_dimension,
    "euler_check_0": lambda lam: siegel_weights.euler_check(lam, 0),
    "euler_check_1": lambda lam: siegel_weights.euler_check(lam, 1),
}


@pytest.mark.parametrize("lam", [WeightTriple(3, 1, 4.5), WeightTriple(3.0, 1, 4), WeightTriple(True, False, 1),
                                 WeightTriple(Int(3), 1, 4)], ids=["float-r", "float-k1", "bools", "int-subclass"])
@pytest.mark.parametrize("entry_point", list(WEIGHT_ENTRY_POINTS))
def test_every_entry_point_refuses_coordinates_that_are_not_ints(entry_point, lam):
    # each of these weights is dominant: without the check a float reached
    # weyl_dimension's internal divisibility check, and a report came back
    with pytest.raises(PreconditionViolation, match="^weight coordinates must be ints, got ") as err:
        WEIGHT_ENTRY_POINTS[entry_point](lam)
    if type(lam.k1) is Int:  # the message names the type it refuses, not only the value
        assert str(err.value) == "weight coordinates must be ints, got (Int(3), 1, 4)"
    assert WEIGHT_ENTRY_POINTS[entry_point](WeightTriple(3, 1, 4)) is not None


def test_make_weight_refuses_what_the_entry_points_refuse():
    # so every weight it returns passes every entry point
    for coordinates, got in [((Int(3), 1, 4), "(Int(3), 1, 4)"), ((3, 1, Int(4)), "(3, 1, Int(4))"),
                             ((True, False, 1), "(True, False, 1)"), ((3.0, 1, 4), "(3.0, 1, 4)")]:
        with pytest.raises(PreconditionViolation) as err:
            make_weight(*coordinates)
        assert str(err.value) == f"coordinates must be integers, got {got}"  # the refused type shows
    assert all(type(v) is int for v in make_weight(3, 1, 4))


def test_make_weight_enforces_coordinate_bound():
    make_weight(COORDINATE_BOUND, 0, COORDINATE_BOUND)
    with pytest.raises(InputBoundExceeded):
        make_weight(COORDINATE_BOUND + 1, 0, 1)
    with pytest.raises(InputBoundExceeded):
        make_weight(0, 0, -COORDINATE_BOUND - 2)


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
        assert is_character(beta)


def test_rho_is_the_half_sum_and_is_not_a_character():
    total = WeightTriple(0, 0, 0)
    for beta in POSITIVE_ROOTS:
        total = plus(total, beta)
    assert total == WeightTriple(4, 2, 0)
    assert plus(RHO, RHO) == total
    assert not is_character(RHO)


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
    for lam in (make_weight(3, 1, 4), make_weight(0, 0, 0), make_weight(2, 2, 4)):
        assert require_dominant(lam) is lam
    for lam in (make_weight(1, 2, 3), make_weight(1, -1, 0)):
        with pytest.raises(NotDominant):
            require_dominant(lam)
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
    assert _motivic_weight(WeightTriple(3, -3, 4), 0) == 4
    assert _motivic_weight(WeightTriple(0, 4, 4), 1) == 4
    assert _motivic_weight(WeightTriple(3, 1, 4), 0) == 0
    assert _motivic_weight(WeightTriple(3, 1, 4), 1) == 1


def test_levi_restriction_weight_examples():
    assert _restriction_weight(WeightTriple(3, -3, 4), 0) == 6
    assert _restriction_weight(WeightTriple(3, 1, 4), 0) == 2
    assert _restriction_weight(WeightTriple(0, 4, 4), 1) == 4
    assert _restriction_weight(WeightTriple(3, 1, 4), 1) == 1


def pairing(u, v):
    """The W-invariant form on the (k1, k2) plane that the Freudenthal oracle uses."""
    return u.k1 * v.k1 + u.k2 * v.k2


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
            assert is_character(plus(lam, beta))
            assert is_character(minus(lam, beta))


HUGE = 10**5000  # past Python's 4300-digit limit for int-to-str conversion


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: make_weight(HUGE, 0, 0), InputBoundExceeded),
        (lambda: check_parabolic(HUGE), BadParabolicIndex),
        (lambda: nilpotent_cohomology(make_weight(1, 1, 0), HUGE), BadParabolicIndex),
        (lambda: group_cohomology_dims(-HUGE, 1, 1), PreconditionViolation),
        (lambda: k_invariant(WeightTriple(-HUGE, 0, 0)), NotDominant),
        (lambda: LaurentPolynomial({(HUGE, 0.5, 0): 1}), PreconditionViolation),
        (
            lambda: LaurentPolynomial({(HUGE, 0, 0): 1}).divide_one_minus_inverse((0, 1, 0)),
            DivisionFailure,
        ),
        (lambda: CohomologyEntry(0, 0, 0, -HUGE, 1, (), "paper"), PreconditionViolation),
    ],
    ids=[
        "make_weight", "check_parabolic", "nilpotent_cohomology", "weight", "k",
        "exponent", "division", "rank_bounds",
    ],
)
def test_huge_ints_raise_the_documented_error(call, error):
    # each message used to format the int, a ValueError before the raise
    with pytest.raises(error, match="beyond 1000000 in absolute value"):
        call()
