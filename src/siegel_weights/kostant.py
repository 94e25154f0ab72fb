"""Kostant decomposition of nilpotent Lie algebra cohomology, with oracles.

For an irreducible module V of dominant highest weight lam and a maximal
parabolic P_m with unipotent radical W_m, Kostant's theorem gives

    H^q(Lie W_m, V) = irreducible Levi module of highest weight w_q . lam,

where w_q runs over the four minimal coset representatives (length q = 0..3)
and . is the dot action.  nilpotent_cohomology tabulates the four modules
with their Levi dimension, SL(2)-restriction weight and motivic weight; the
dot action is affine in lam, so _affine_maps(rho), one table per rho, holds its
maps for each parabolic's representatives (key m) and all eight elements.

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

from collections import namedtuple
from functools import cache

from . import root_data, weyl
from .errors import InputBoundExceeded, PreconditionViolation
from .laurent import LaurentPolynomial
from .root_data import (
    KLINGEN,
    SIEGEL,
    WeightTriple,
    check_parabolic,
    require_dominant,
)

ORACLE_MAX_K1 = 100


class LeviModule(namedtuple("LeviModule", "m q highest_weight levi_dim restriction_weight motivic_weight")):
    """One cohomology degree of H^*(Lie W_m, V_lam) as a Levi module; ints but the highest weight."""

    __slots__ = ()


def nilpotent_cohomology(lam: WeightTriple, m: int) -> tuple[LeviModule, ...]:
    """The four Kostant modules of parabolic m, in degree order q = 0..3."""
    require_dominant(lam)
    check_parabolic(m)
    return _modules(lam, m, 4)


@cache
def _affine_maps(rho: WeightTriple) -> dict:
    """(i, j, a, b, c1, c2, sign(w)) per w, so that w . lam = (a lam[i] + c1, b lam[j] + c2, lam.r):
    of parabolic m's four minimal representatives under key m, of all eight elements under "all".
    rho is only the cache key, as weyl.dot reads root_data.RHO itself."""
    zero, elements = WeightTriple(0, 0, 0), weyl.all_elements()
    groups = {m: weyl._minimal_representatives(m, elements) for m in (SIEGEL, KLINGEN)} | {"all": elements}
    return {key: tuple((*w.source, *w.signs, *weyl.dot(w, zero)[:2], weyl.sign(w)) for w in group)
            for key, group in groups.items()}


def _modules(lam: WeightTriple, m: int, count: int) -> tuple[LeviModule, ...]:
    """The Kostant modules q < count of parabolic m; lam and m are not checked.
    Neither namedtuple checks its fields, so tuple.__new__ builds both and skips no check.

    Weight maps, applied here alone.  For a highest weight n = (n1, n2, r) of the Levi:

    * the restriction weight u is the highest weight of the restriction to the
      embedded SL(2) of the Levi: n1 - n2 for m = 0 and n2 for m = 1;
    * the motivic weight is the negated exponent of the central cocharacter of
      the Levi's reductive anchor: z |--> z^{-r+n1+n2} for m = 0 and
      z |--> z^{-r+n1} for m = 1, giving r - n1 - n2 resp. r - n1.
    """
    r, new, modules = lam.r, tuple.__new__, []
    for q, (i, j, a, b, c1, c2, _) in enumerate(_affine_maps(root_data.RHO)[m][:count]):
        n1, n2 = a * lam[i] + c1, b * lam[j] + c2
        u, w = (n1 - n2, r - n1 - n2) if m == SIEGEL else (n2, r - n1)
        modules.append(new(LeviModule, (m, q, new(WeightTriple, (n1, n2, r)), u + 1, u, w)))
    return tuple(modules)


def _require_oracle_weight(lam: WeightTriple) -> None:
    require_dominant(lam)
    if lam.k1 > ORACLE_MAX_K1:
        raise InputBoundExceeded(f"character oracles need k1 <= {ORACLE_MAX_K1}, got k1 = {lam.k1}")


def _weyl_numerator(lam: WeightTriple) -> LaurentPolynomial:
    """N(lam) = sum_w sign(w) x^{w . lam}, Weyl's numerator; of equal images the last wins."""
    r = lam.r
    maps = _affine_maps(root_data.RHO)["all"]
    return LaurentPolynomial(
        {(a * lam[i] + c1, b * lam[j] + c2, r): sign for i, j, a, b, c1, c2, sign in maps}
    )


def character(lam: WeightTriple) -> LaurentPolynomial:
    """ch V_lam by the Weyl character formula, as an exact Laurent polynomial.

    The numerator N(lam) is divided by (1 - x^{-beta}) for each positive root
    beta in turn; Weyl's theorem promises exactness, so a DivisionFailure
    here means corrupted root data, not bad input.  Raises InputBoundExceeded
    for k1 > ORACLE_MAX_K1.
    """
    _require_oracle_weight(lam)
    poly = _weyl_numerator(lam)
    for beta in root_data.POSITIVE_ROOTS:
        poly = poly.divide_one_minus_inverse(beta)
    return poly


def weyl_dimension(lam: WeightTriple) -> int:
    """dim V_lam = (k1-k2+1)(k2+1)(k1+2)(k1+k2+3)/6 by the Weyl product.

    With a = k1 - k2 + 1 and b = k2 + 1 the product is a b (a + b)(a + 2b), which 6 divides
    for all integers: 2 divides a, b or a + b, and 3 divides a, b, a + b or a + 2b."""
    require_dominant(lam)
    k1, k2 = lam.k1, lam.k2
    return (k1 - k2 + 1) * (k2 + 1) * (k1 + 2) * (k1 + k2 + 3) // 6


def freudenthal_multiplicities(lam: WeightTriple) -> dict[tuple[int, int], int]:
    """Weight multiplicities of V_lam on dominant weights, by Freudenthal.

    Returns {(n1, n2): multiplicity} over dominant (n1, n2); the full weight
    system is the union of the Weyl orbits of these.  The recursion

        (|lam+rho|^2 - |mu+rho|^2) m_mu
            = 2 sum_{beta > 0} sum_{j >= 1} m_{mu + j beta} <mu + j beta, beta>

    runs downward in j-height from lam; every division is exact in Z.  Here
    <u, v> = u.k1 v.k1 + u.k2 v.k2 (r pairs to zero with the roots) is W-invariant,
    short roots of squared length 2, long ones 4.  Raises InputBoundExceeded
    for k1 > ORACLE_MAX_K1.
    """
    _require_oracle_weight(lam)
    rho1, rho2, _ = root_data.RHO
    roots = [beta[:2] for beta in root_data.POSITIVE_ROOTS]
    k1, k2 = lam.k1, lam.k2

    # Dominant weights mu <= lam: lam - mu = m1*(1,-1) + m2*(0,2), m1, m2 >= 0.
    # Listed by k1 then k2 descending; the stable sort keeps that order per height.
    candidates = []
    for a in range(k1, -1, -1):
        for b in range(min(a, k1 + k2 - a), -1, -1):
            if (k1 + k2 - a - b) % 2 == 0:
                candidates.append(((k1 - a) + (k1 + k2 - a - b) // 2, a, b))
    candidates.sort(key=lambda t: t[0])

    lam_norm = (k1 + rho1) ** 2 + (k2 + rho2) ** 2
    mult: dict[tuple[int, int], int] = {}

    for height, a, b in candidates:
        if height == 0:
            mult[(a, b)] = 1
            continue
        numer = 0
        for b1, b2 in roots:
            for j in range(1, 2 * k1 + 2):  # every weight of V_lam lies in [-k1, k1]^2
                n1, n2 = a + j * b1, b + j * b2
                x, y = abs(n1), abs(n2)  # the dominant conjugate of (n1, n2)
                m_nu = mult.get((x, y) if x >= y else (y, x), 0)
                if not m_nu:  # root strings are unbroken (Humphreys, GTM 9, 21.3): the rest is 0
                    break
                numer += 2 * m_nu * (n1 * b1 + n2 * b2)
        denom = lam_norm - (a + rho1) ** 2 - (b + rho2) ** 2
        if denom <= 0 or numer % denom:
            raise PreconditionViolation(
                f"internal: Freudenthal step at mu = ({a}, {b}) divides {numer} by {denom}"
            )
        m_mu = numer // denom
        if m_mu:
            mult[(a, b)] = m_mu
    return mult


def freudenthal_character(lam: WeightTriple) -> LaurentPolynomial:
    """Full character from the dominant-multiplicity table by orbit expansion."""
    terms = LaurentPolynomial()
    for n, m in freudenthal_multiplicities(lam).items():
        for x, y in {(a * n[i], b * n[j]) for i, j, a, b, *_ in _affine_maps(root_data.RHO)["all"]}:
            terms[(x, y, lam.r)] = terms.get((x, y, lam.r), 0) + m
    return terms


def euler_check(lam: WeightTriple, m: int) -> bool:
    """Exact Euler characteristic identity for the Kostant tables of (lam, m).

    Tests the telescoped 8-term form derived in the module docstring.  Raises
    InputBoundExceeded for k1 > ORACLE_MAX_K1.
    """
    _require_oracle_weight(lam)
    g1, g2, _ = root_data.levi_root(m)  # it checks m
    terms: dict[tuple[int, int, int], int] = {}
    for mod in nilpotent_cohomology(lam, m):
        sign = -1 if mod.q % 2 else 1
        (n1, n2, r), s = mod.highest_weight, mod.restriction_weight + 1
        top, bottom = (n1, n2, r), (n1 - s * g1, n2 - s * g2, r)
        terms[top] = terms.get(top, 0) + sign
        terms[bottom] = terms.get(bottom, 0) - sign
    return {e: c for e, c in terms.items() if c} == _weyl_numerator(lam)
