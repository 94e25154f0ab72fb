"""Exact weight profiles of boundary cohomology for Siegel modular threefolds.

Given a dominant highest weight (k1, k2, r) of the rank-two symplectic
similitude group, this package computes, in exact integer arithmetic: the
Kostant decomposition of nilpotent cohomology along both maximal parabolics,
the classical and perverse weight profiles of the boundary restrictions of
the direct image and of the intermediate extension, and the avoided weight
interval [-k + 1, k] with k = min(k1 - k2, k2).
"""

from .boundary import StratumDatum
from .errors import (
    BadParabolicIndex,
    DivisionFailure,
    EmptyStrata,
    InputBoundExceeded,
    InvalidStratum,
    NotDominant,
    ParityViolation,
    PreconditionViolation,
    SiegelWeightsError,
)
from .intersection import (
    analysis_report,
    avoided_interval,
    intermediate_profile,
    rank_inequality_check,
)
from .kostant import (
    character,
    euler_check,
    freudenthal_character,
    nilpotent_cohomology,
    weyl_dimension,
)
from .root_data import KLINGEN, SIEGEL, WeightTriple, k_invariant, make_weight

__all__ = [
    "BadParabolicIndex",
    "DivisionFailure",
    "EmptyStrata",
    "InputBoundExceeded",
    "InvalidStratum",
    "KLINGEN",
    "NotDominant",
    "ParityViolation",
    "PreconditionViolation",
    "SIEGEL",
    "SiegelWeightsError",
    "StratumDatum",
    "WeightTriple",
    "analysis_report",
    "avoided_interval",
    "character",
    "euler_check",
    "freudenthal_character",
    "intermediate_profile",
    "k_invariant",
    "make_weight",
    "nilpotent_cohomology",
    "rank_inequality_check",
    "weyl_dimension",
]
