"""The worked lattice families and their closed-form volume fixtures.

Builders return the lattices

    II(m)   = 2U + m E8(-1)                  signature (2, 8m+2), unimodular
    T(m)    = U + U(2) + m E8(-1)            signature (2, 8m+2), |det| 4
    L(m,d)  = 2U + m E8(-1) + <-2d>          signature (2, 8m+3)
    K(m,d)  = U + m E8(-1) + <2> + <-2d>     signature (2, 8m+2), det 4d
    N(m,d)  = U + m E8(-1) + [2,1;1,(1-d)/2] signature (2, 8m+2), d = 1 mod 4

The volume fixtures, which `hmvol catalog` prints next to the engine's
values, code the final closed forms (Bernoulli products and case constants)
directly; they share the Bernoulli (tangent-number) and generalized-Bernoulli
helpers with the engine but none of the Jordan, density or Euler-product
code, so engine == fixture is a genuine two-route check.  The K-family
volume constant is pinned by tests rather than by pattern extrapolation: it
is tied to the growth constant through the exact relation
growth leading term = (2/(8m+2)!) * volume, and cross-checked against the
engine's unreduced chain.  The alpha_p tables and the cusp-term fixtures,
which only the tests read, are in `tests/family_fixtures.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import factorize, kronecker
from .errors import PreconditionError
from .lattices import Lattice, direct_sum_of_copies, e8, from_gram, hyperbolic_plane, rank_one
from .special_values import (
    _even_bernoulli,
    _tangent_numbers,
    fundamental_discriminant,
    generalized_bernoulli,
)


# ---------------------------------------------------------------- builders

def unimodular_ii(m: int) -> Lattice:
    if m < 0:
        raise PreconditionError("m must be >= 0")
    return direct_sum_of_copies((hyperbolic_plane(), 2), (e8(-1), m))


def t_lattice(m: int) -> Lattice:
    if m < 0:
        raise PreconditionError("m must be >= 0")
    return direct_sum_of_copies((hyperbolic_plane(), 1), (hyperbolic_plane(2), 1), (e8(-1), m))


def l_lattice(m: int, d: int) -> Lattice:
    if m < 0 or d < 1:
        raise PreconditionError("need m >= 0 and d >= 1")
    return direct_sum_of_copies((hyperbolic_plane(), 2), (e8(-1), m), (rank_one(-2 * d), 1))


def k_lattice(m: int, d: int) -> Lattice:
    if m < 0 or d < 1:
        raise PreconditionError("need m >= 0 and d >= 1")
    return direct_sum_of_copies(
        (hyperbolic_plane(), 1), (e8(-1), m), (rank_one(2), 1), (rank_one(-2 * d), 1))


def n_lattice(m: int, d: int) -> Lattice:
    if m < 0 or d < 1 or d % 4 != 1:
        raise PreconditionError("need m >= 0 and d = 1 mod 4")
    binary = from_gram([[2, 1], [1, (1 - d) // 2]])
    return direct_sum_of_copies((hyperbolic_plane(), 1), (e8(-1), m), (binary, 1))


# ------------------------------------------------------------ small helpers

def _even_bernoullis(top: int) -> list[Fraction]:
    """[B_2, B_4, ..., B_top] (top even), read off one tangent-number triangle."""
    tangents = _tangent_numbers(top // 2)
    return [_even_bernoulli(k, tangents[k]) for k in range(1, top // 2 + 1)]


def _bernoulli_product(top: int) -> Fraction:
    """B_2 B_4 ... B_top (top even); positive throughout the ranges used."""
    return math.prod(_even_bernoullis(top))


def _double_factorial_even(top: int) -> int:
    """(top)!! = 2 * 4 * ... * top for even top."""
    return math.prod(range(2, top + 1, 2))


def _prime_divisor_product(d: int, exponent: int) -> Fraction:
    out = Fraction(1)
    for p in factorize(d):
        out *= 1 + Fraction(1, p**exponent)
    return out


# ------------------------------------------------------- volume fixtures

def fixture_vol_ii_oplus(m: int) -> Fraction:
    """vol_HM(O+(II(m))) = 2^-(4m+1) (B_2...B_{8m+2}/(8m+2)!!) B_{4m+2}/(4m+2)."""
    bern = _even_bernoullis(8 * m + 2)
    return (
        Fraction(1, 2 ** (4 * m + 1))
        * math.prod(bern)
        / _double_factorial_even(8 * m + 2)
        * bern[2 * m]  # B_{4m+2}
        / (4 * m + 2)
    )


def fixture_ratio_t_over_ii(m: int) -> int:
    """vol(stable-plus T)/vol(stable-plus II) = (2^(4m+1)+1)(2^(4m+2)-1)."""
    return (2 ** (4 * m + 1) + 1) * (2 ** (4 * m + 2) - 1)


def fixture_vol_l_tilde(m: int, d: int) -> Fraction:
    """vol_HM of the stable-plus group of L(m,d):
    (d/2)^((n+1)/2) prod_{p|d}(1+p^-(n+1)/2) |B_2...B_{n+1}|/(n+1)!!,
    n = 8m+3, doubled when d = 1."""
    n = 8 * m + 3
    half = (n + 1) // 2
    val = (
        Fraction(d, 2) ** half
        * _prime_divisor_product(d, half)
        * abs(_bernoulli_product(n + 1))
        / _double_factorial_even(n + 1)
    )
    return 2 * val if d == 1 else val


def _k_constant(m: int, d: int, disc: int) -> Fraction:
    # Volume constant for the K family: half the growth constant, as the
    # relation growth = (2/n!) * volume demands; cross-checked against the
    # engine's unreduced chain in the two-route tests.  The cases are odd and
    # even discriminant D of Q(sqrt d); d = 0 mod 4 can give an odd D (d = 4,
    # 16, 20, 36).
    if disc % 4 == 1:
        return Fraction(2 ** (4 * m + 1)) * (2 if d == 1 else 1)
    return Fraction(1, 2 ** (4 * m + 2))


def fixture_vol_k_tilde(m: int, d: int) -> Fraction:
    """vol_HM of the stable-plus group of K(m,d) via generalized Bernoulli
    numbers: const * t^(8m+3) * (B_2...B_{8m+2}/(8m+2)!!) * B_{4m+2,chi_D}/(4m+2)
    * prod_{p|2t}(1 - chi_D(p) p^-(4m+2)), where d = d0 t^2 and D = disc Q(sqrt d)."""
    disc, t = fundamental_discriminant(d)
    s = 4 * m + 2
    euler = Fraction(1)
    for p in factorize(2 * t):
        euler *= 1 - Fraction(kronecker(disc, p), p**s)
    return (
        _k_constant(m, d, disc)
        * Fraction(t) ** (8 * m + 3)
        * _bernoulli_product(8 * m + 2)
        / _double_factorial_even(8 * m + 2)
        * generalized_bernoulli(s, disc)
        / s
        * euler
    )


def fixture_vol_n_tilde(m: int, d: int) -> Fraction:
    """vol_HM of the stable-plus group of N(m,d), d = 1 mod 4:
    2^(delta_{1,d} - 4m - 2) * (B_2...B_{8m+2}/(8m+2)!!) * t^(8m+3)
    * B_{4m+2,chi_D}/(4m+2) * prod_{p|t}(1 - chi_D(p) p^-(4m+2))."""
    if d % 4 != 1:
        raise PreconditionError("the N family requires d = 1 mod 4")
    disc, t = fundamental_discriminant(d)
    s = 4 * m + 2
    euler = Fraction(1)
    for p in factorize(t):
        euler *= 1 - Fraction(kronecker(disc, p), p**s)
    delta = 1 if d == 1 else 0
    return (
        Fraction(2) ** (delta - 4 * m - 2)
        * _bernoulli_product(8 * m + 2)
        / _double_factorial_even(8 * m + 2)
        * Fraction(t) ** (8 * m + 3)
        * generalized_bernoulli(s, disc)
        / s
        * euler
    )
