"""Hypothesis strategies for weights and strata that several test modules draw
from, and the lattice sum and difference of weights, which the package never needs."""

from hypothesis import strategies as st

from siegel_weights import StratumDatum, make_weight
from siegel_weights.root_data import COORDINATE_BOUND, WeightTriple


def plus(a, b) -> WeightTriple:
    """a + b in Z^3, coordinate by coordinate (a tuple's + would concatenate)."""
    return WeightTriple(a[0] + b[0], a[1] + b[1], a[2] + b[2])


def minus(a, b) -> WeightTriple:
    """a - b in Z^3, coordinate by coordinate."""
    return WeightTriple(a[0] - b[0], a[1] - b[1], a[2] - b[2])


@st.composite
def wide_weights(draw):
    """Characters with every coordinate in [-COORDINATE_BOUND, COORDINATE_BOUND]."""
    bound = COORDINATE_BOUND
    k1 = draw(st.integers(0, bound))
    k2 = draw(st.one_of(st.just(0), st.just(k1), st.integers(0, k1)))  # walls often
    j = draw(st.integers(-((bound + k1 + k2) // 2), (bound - k1 - k2) // 2))
    return make_weight(k1, k2, k1 + k2 + 2 * j)


@st.composite
def strata_data(draw):
    g = draw(st.integers(0, 5))
    return StratumDatum(g, draw(st.integers(3 if g == 0 else 1, 20)))
