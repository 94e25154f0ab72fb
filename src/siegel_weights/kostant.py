"""Kostant decomposition of nilpotent Lie algebra cohomology, with oracles.

For an irreducible module V of dominant highest weight lam and a maximal
parabolic P_m with unipotent radical W_m, Kostant's theorem gives

    H^q(Lie W_m, V) = irreducible Levi module of highest weight w_q . lam,

where w_q runs over the four minimal coset representatives (length q = 0..3)
and . is the dot action.  nilpotent_cohomology tabulates the four modules
with their Levi dimension, SL(2)-restriction weight and motivic weight.

Two independent character oracles guard the tables:

* character(lam) computes ch V by the Weyl character formula, dividing the
  alternating rho-shifted orbit sum exactly by prod (1 - x^{-beta}) over the
  positive roots;
* freudenthal_multiplicities(lam) runs Freudenthal's recursion on dominant
  weights and expands Weyl orbits.

euler_check(lam, m) verifies the Euler characteristic identity

    sum_q (-1)^q ch H^q(Lie W_m, V) = ch V * prod_{beta in W_m} (1 - x^{-beta}),

with each Levi character written as the finite SL(2) string through its
highest weight.  The identity fails loudly on any wrong table entry, wrong
dimension or wrong sign convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from . import root_data, weyl
from .errors import PreconditionViolation
from .laurent import LaurentPolynomial
from .root_data import (
    WeightTriple,
    check_parabolic,
    levi_restriction_weight,
    motivic_weight,
    pairing,
    require_dominant,
)


@dataclass(frozen=True, slots=True)
class LeviModule:
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
    modules = []
    for q, w in enumerate(weyl.minimal_representatives(m)):
        hw = weyl.dot(w, lam)
        u = levi_restriction_weight(hw, m)
        modules.append(
            LeviModule(
                m=m,
                q=q,
                highest_weight=hw,
                levi_dim=u + 1,
                restriction_weight=u,
                motivic_weight=motivic_weight(hw, m),
            )
        )
    return tuple(modules)


def character(lam: WeightTriple) -> LaurentPolynomial:
    """ch V_lam by the Weyl character formula, as an exact Laurent polynomial.

    The numerator sum_w sign(w) x^{w . lam} is divided by (1 - x^{-beta}) for
    each positive root beta in turn; Weyl's theorem promises exactness, so a
    DivisionFailure here means corrupted root data, not bad input.
    """
    require_dominant(lam)
    numerator: dict[tuple[int, int, int], int] = {}
    for w in weyl.all_elements():
        mu = weyl.dot(w, lam)
        numerator[(mu.k1, mu.k2, mu.r)] = weyl.sign(w)
    poly = LaurentPolynomial(numerator)
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


def _dominant_conjugate(v: WeightTriple) -> WeightTriple:
    a, b = abs(v.k1), abs(v.k2)
    return WeightTriple(max(a, b), min(a, b), v.r)


def _orbit(v: WeightTriple) -> set[tuple[int, int]]:
    return {
        ((w(v)).k1, (w(v)).k2)
        for w in weyl.all_elements()
    }


def freudenthal_multiplicities(lam: WeightTriple) -> dict[tuple[int, int], int]:
    """Weight multiplicities of V_lam on dominant weights, by Freudenthal.

    Returns {(n1, n2): multiplicity} over dominant (n1, n2); the full weight
    system is the union of the Weyl orbits of these.  The recursion

        (|lam+rho|^2 - |mu+rho|^2) m_mu
            = 2 sum_{beta > 0} sum_{j >= 1} m_{mu + j beta} <mu + j beta, beta>

    runs downward in j-height from lam; every division is exact in Z.
    """
    require_dominant(lam)
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
        d = _dominant_conjugate(v)
        return mult.get((d.k1, d.k2), 0)

    for height, mu in candidates:
        if height == 0:
            mult[(mu.k1, mu.k2)] = 1
            continue
        numer = 0
        for beta in root_data.POSITIVE_ROOTS:
            bb = pairing(beta, beta)
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
        for x, y in _orbit(WeightTriple(n1, n2, lam.r)):
            terms[(x, y, lam.r)] = terms.get((x, y, lam.r), 0) + m
    return LaurentPolynomial(terms)


def levi_character(module: LeviModule) -> LaurentPolynomial:
    """Torus character of a Kostant module, as the SL(2) string

        x^{nu} + x^{nu - gamma} + ... + x^{nu - u*gamma},

    where nu is the highest weight, gamma = levi_root(m) and u the
    restriction weight."""
    gamma = root_data.levi_root(module.m)
    terms: dict[tuple[int, int, int], int] = {}
    nu = module.highest_weight
    for i in range(module.restriction_weight + 1):
        v = nu - WeightTriple(i * gamma.k1, i * gamma.k2, 0)
        terms[(v.k1, v.k2, v.r)] = terms.get((v.k1, v.k2, v.r), 0) + 1
    return LaurentPolynomial(terms)


def euler_check(lam: WeightTriple, m: int) -> bool:
    """Exact Euler characteristic identity for the Kostant tables of (lam, m)."""
    require_dominant(lam)
    check_parabolic(m)
    lhs = sum(
        (
            levi_character(mod).scale(-1 if mod.q % 2 else 1)
            for mod in nilpotent_cohomology(lam, m)
        ),
        LaurentPolynomial.zero(),
    )
    rhs = character(lam)
    one = LaurentPolynomial.one()
    for beta in root_data.nilradical_roots(m):
        rhs = rhs * (one - LaurentPolynomial.monomial((-beta.k1, -beta.k2, 0)))
    return lhs == rhs
