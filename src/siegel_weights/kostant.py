"""Kostant decomposition of nilpotent Lie algebra cohomology, with oracles.

For an irreducible module V of dominant highest weight lam and a maximal
parabolic P_m with unipotent radical W_m, Kostant's theorem gives

    H^q(Lie W_m, V) = irreducible Levi module of highest weight w_q . lam,

where w_q runs over the four minimal coset representatives (length q = 0..3)
and . is the dot action.  nilpotent_cohomology tabulates the four modules
with their Levi dimension, SL(2)-restriction weight and motivic weight.  It
validates lam and m once and hands them to the private builder _modules,
which checks nothing and builds only the modules q < count.  The profile
pipeline calls _modules on inputs it has already checked: the boundary
truncations need only q <= 1, the full report all four.  The dot action is
affine in lam: w . lam = (a lam[i] + c1, b lam[j] + c2, r) for w(v) =
(a v[i], b v[j], v.r), with (c1, c2) = w . 0 from weyl.dot, the one home of
the rho shift.  _modules reads these numbers from _dot_table(m, rho), built
once per parabolic and per value of root_data.RHO, which keys it.

Two independent character oracles guard the tables:

* character(lam) computes ch V by the Weyl character formula, dividing the
  Weyl numerator N(lam) = sum_w sign(w) x^{w . lam} exactly by
  prod (1 - x^{-beta}) over the positive roots;
* freudenthal_multiplicities(lam) runs Freudenthal's recursion on dominant
  weights and expands Weyl orbits.

euler_check(lam, m) verifies the Euler characteristic identity

    sum_q (-1)^q ch H^q(Lie W_m, V) = ch V * prod_{beta in W_m} (1 - x^{-beta})

times 1 - x^{-gamma_m}, gamma_m = levi_root(m), which is injective on Laurent
polynomials.  The right side becomes N(lam) by Weyl's formula, as the positive
roots are W_m and gamma_m.  On the left the product telescopes: ch H^q is the
SL(2) string x^{nu} + x^{nu - gamma} + ... + x^{nu - u gamma} through
nu = w_q . lam, u its restriction weight, and

    string(nu, u) * (1 - x^{-gamma}) = x^{nu} - x^{nu - (u+1) gamma}

is the rank-one Weyl character formula of the Levi: nu - (u+1) gamma is the
dot image s_gamma . nu.  So euler_check compares two 8-term sums,

    sum_q (-1)^q (x^{nu_q} - x^{nu_q - (u_q+1) gamma}) == N(lam),

with no Laurent arithmetic.  Telescoping needs u_q >= -1; on dominant weights
u_q is k1 - k2, k1 + k2 + 2, k2 or k1 + 1, never negative.  The identity fails
loudly on any wrong table entry, wrong dimension or wrong sign convention.

The character oracles cost O(k1^2) terms (character) and O(k1^3) recursion
steps (Freudenthal), so they refuse weights with k1 > ORACLE_MAX_K1 with
InputBoundExceeded.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import count
from typing import NamedTuple

from . import root_data, weyl
from .errors import InputBoundExceeded, PreconditionViolation
from .laurent import LaurentPolynomial
from .root_data import (
    WeightTriple,
    _motivic_weight,
    _restriction_weight,
    check_parabolic,
    pairing,
    require_dominant,
)

ORACLE_MAX_K1 = 100


class LeviModule(NamedTuple):
    """One cohomology degree of H^*(Lie W_m, V_lam) as a Levi module."""

    m: int
    q: int
    highest_weight: WeightTriple
    levi_dim: int
    restriction_weight: int
    motivic_weight: int


def nilpotent_cohomology(lam: WeightTriple, m: int) -> tuple[LeviModule, ...]:
    """The four Kostant modules of parabolic m, in degree order q = 0..3."""
    require_dominant(lam)
    check_parabolic(m)
    return _modules(lam, m, 4)


@cache
def _dot_table(m: int, rho: WeightTriple) -> tuple[tuple[int, ...], ...]:
    """(i, j, a, b, c1, c2) per minimal representative of parabolic m, in length
    order; rho is only the cache key, as weyl.dot reads root_data.RHO itself."""
    reps = weyl._minimal_representatives(m)
    return tuple((*w.source, *w.signs, *weyl.dot(w, WeightTriple(0, 0, 0))[:2]) for w in reps)


def _modules(lam: WeightTriple, m: int, count: int) -> tuple[LeviModule, ...]:
    """The Kostant modules q < count of parabolic m; lam and m are not checked."""
    modules = []
    for q, (i, j, a, b, c1, c2) in enumerate(_dot_table(m, root_data.RHO)[:count]):
        hw = WeightTriple(a * lam[i] + c1, b * lam[j] + c2, lam.r)
        u = _restriction_weight(hw, m)
        modules.append(LeviModule(m, q, hw, u + 1, u, _motivic_weight(hw, m)))
    return tuple(modules)


def _require_oracle_size(lam: WeightTriple) -> None:
    if lam.k1 > ORACLE_MAX_K1:
        raise InputBoundExceeded(
            f"character oracles need k1 <= {ORACLE_MAX_K1}, got k1 = {lam.k1}"
        )


@lru_cache(maxsize=1)
def _signed_elements() -> tuple[tuple[weyl.WeylElement, int], ...]:
    # signs come from the positive roots; rho is read by weyl.dot per call
    return tuple((w, weyl.sign(w)) for w in weyl.all_elements())


def _weyl_numerator(lam: WeightTriple) -> LaurentPolynomial:
    """N(lam) = sum_w sign(w) x^{w . lam}, the numerator of Weyl's formula."""
    return LaurentPolynomial({weyl.dot(w, lam): sign for w, sign in _signed_elements()})


def character(lam: WeightTriple) -> LaurentPolynomial:
    """ch V_lam by the Weyl character formula, as an exact Laurent polynomial.

    The numerator N(lam) is divided by (1 - x^{-beta}) for each positive root
    beta in turn; Weyl's theorem promises exactness, so a DivisionFailure
    here means corrupted root data, not bad input.  Raises InputBoundExceeded
    for k1 > ORACLE_MAX_K1.
    """
    require_dominant(lam)
    _require_oracle_size(lam)
    poly = _weyl_numerator(lam)
    for beta in root_data.POSITIVE_ROOTS:
        poly = poly.divide_one_minus_inverse(beta)
    return poly


def weyl_dimension(lam: WeightTriple) -> int:
    """dim V_lam = (k1-k2+1)(k2+1)(k1+2)(k1+k2+3)/6 by the Weyl product."""
    require_dominant(lam)
    k1, k2 = lam.k1, lam.k2
    num = (k1 - k2 + 1) * (k2 + 1) * (k1 + 2) * (k1 + k2 + 3)
    if num % 6:
        raise PreconditionViolation(f"internal: Weyl product {num} is not divisible by 6")
    return num // 6


def freudenthal_multiplicities(lam: WeightTriple) -> dict[tuple[int, int], int]:
    """Weight multiplicities of V_lam on dominant weights, by Freudenthal.

    Returns {(n1, n2): multiplicity} over dominant (n1, n2); the full weight
    system is the union of the Weyl orbits of these.  The recursion

        (|lam+rho|^2 - |mu+rho|^2) m_mu
            = 2 sum_{beta > 0} sum_{j >= 1} m_{mu + j beta} <mu + j beta, beta>

    runs downward in j-height from lam; every division is exact in Z.
    Raises InputBoundExceeded for k1 > ORACLE_MAX_K1.
    """
    require_dominant(lam)
    _require_oracle_size(lam)
    rho = root_data.RHO
    k1, k2 = lam.k1, lam.k2

    # Dominant weights mu <= lam: lam - mu = m1*(1,-1) + m2*(0,2), m1, m2 >= 0.
    candidates = []
    for a in range(k1, -1, -1):
        for b in range(min(a, k1 + k2 - a), -1, -1):
            if (k1 + k2 - a - b) % 2 == 0:
                m1 = k1 - a
                m2 = (k1 + k2 - a - b) // 2
                candidates.append((m1 + m2, WeightTriple(a, b, lam.r)))
    candidates.sort(key=lambda t: (t[0], -t[1].k1, -t[1].k2))

    lam_norm = pairing(lam + rho, lam + rho)
    mult: dict[tuple[int, int], int] = {}

    def lookup(v: WeightTriple) -> int:
        a, b = abs(v.k1), abs(v.k2)  # the dominant conjugate of v
        return mult.get((max(a, b), min(a, b)), 0)

    for height, mu in candidates:
        if height == 0:
            mult[(mu.k1, mu.k2)] = 1
            continue
        numer = 0
        for beta in root_data.POSITIVE_ROOTS:
            for j in count(1):
                nu = mu + WeightTriple(j * beta.k1, j * beta.k2, 0)
                m_nu = lookup(nu)
                if m_nu:
                    numer += 2 * m_nu * pairing(nu, beta)
                else:
                    # stop once on the growing branch of |mu + j beta|^2 and
                    # already past the weight-norm bound |lam|^2
                    f = pairing(nu, nu)
                    if f > pairing(lam, lam) and pairing(nu, beta) > 0:
                        break
                    if j > 2 * (k1 + k2 + 4):
                        break
        denom = lam_norm - pairing(mu + rho, mu + rho)
        if denom <= 0 or numer % denom:
            raise PreconditionViolation(
                f"internal: Freudenthal step at mu = ({mu.k1}, {mu.k2}) divides"
                f" {numer} by {denom}"
            )
        m_mu = numer // denom
        if m_mu:
            mult[(mu.k1, mu.k2)] = m_mu
    return mult


def freudenthal_character(lam: WeightTriple) -> LaurentPolynomial:
    """Full character from the dominant-multiplicity table by orbit expansion."""
    terms: dict[tuple[int, int, int], int] = {}
    for (n1, n2), m in freudenthal_multiplicities(lam).items():
        for x, y in {w(WeightTriple(n1, n2, lam.r))[:2] for w in weyl.all_elements()}:
            terms[(x, y, lam.r)] = terms.get((x, y, lam.r), 0) + m
    return LaurentPolynomial(terms)


def euler_check(lam: WeightTriple, m: int) -> bool:
    """Exact Euler characteristic identity for the Kostant tables of (lam, m).

    Tests sum_q (-1)^q (x^{nu_q} - x^{nu_q - (u_q+1) gamma_m}) == N(lam), the
    identity sum_q (-1)^q ch H^q == ch V * prod_{beta in W_m} (1 - x^{-beta})
    times 1 - x^{-gamma_m}; see the module docstring.  Raises
    InputBoundExceeded for k1 > ORACLE_MAX_K1.
    """
    require_dominant(lam)
    check_parabolic(m)
    _require_oracle_size(lam)
    gamma = root_data.levi_root(m)
    terms: dict[WeightTriple, int] = {}
    for mod in nilpotent_cohomology(lam, m):
        sign = -1 if mod.q % 2 else 1
        nu, s = mod.highest_weight, mod.restriction_weight + 1
        bottom = nu - WeightTriple(s * gamma.k1, s * gamma.k2, 0)
        terms[nu] = terms.get(nu, 0) + sign
        terms[bottom] = terms.get(bottom, 0) - sign
    return LaurentPolynomial(terms) == _weyl_numerator(lam)
