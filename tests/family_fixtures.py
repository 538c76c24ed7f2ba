"""The closed forms of the worked families that only the tests read: the
alpha_p case tables and the leading terms of the cusp-form dimension growth.

The volume fixtures that `hmvol catalog` prints stay in `hmvol.families`;
these share its Bernoulli-product helpers and none of the Jordan, density or
Euler-product code, so engine == fixture is a genuine two-route check.

The two-adic exponent of the K family at d = 4 mod 8 is 9 (mod the 8m
shift), not the 8+s of the neighbouring cases; the rank-2 counting oracle on
<2> + <-8> decides this.  `p_series` is the Fraction-product reference for
the integer numerator `density._p_series_num`.
"""

import math
from fractions import Fraction

from hmvol.arith import factorize, kronecker, valuation
from hmvol.errors import PreconditionError
from hmvol.families import _bernoulli_product, _double_factorial_even, _prime_divisor_product
from hmvol.special_values import even_bernoullis, fundamental_discriminant, generalized_bernoulli


def p_series(p: int, n: int) -> Fraction:
    """P_p(n) = prod_{i=1}^{n} (1 - p^(-2i)) as n Fraction factors; the
    empty product is 1."""
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= 1 - Fraction(1, p ** (2 * i))
    return out


# ------------------------------------------------------- cusp fixtures

def fixture_dim_ii_leading(m: int) -> Fraction:
    """Leading k^(8m+2) coefficient for the stable group of II(m)."""
    bern = even_bernoullis(8 * m + 2)
    return (
        Fraction(1, 2 ** (4 * m))
        * math.prod(bern)
        / _double_factorial_even(8 * m + 2)
        * bern[2 * m]  # B_{4m+2}
        / (4 * m + 2)
        / math.factorial(8 * m + 2)
    )


def fixture_cusp_k3(d: int) -> Fraction:
    """K3 case (m = 2): leading coefficient
    (2^-9/19!) d^10 prod_{p|d}(1+p^-10) |B_2...B_20|/20!! for d > 1."""
    if d < 2:
        raise PreconditionError("the K3 closed form assumes d > 1")
    return (
        Fraction(1, 2**9 * math.factorial(19))
        * Fraction(d) ** 10
        * _prime_divisor_product(d, 10)
        * abs(_bernoulli_product(20))
        / _double_factorial_even(20)
    )


def fixture_cusp_paramodular(d: int) -> Fraction:
    """Paramodular leading coefficient (d^2/(3*2^4)) prod_{p|d}(1+p^-2) |B_2 B_4|."""
    return Fraction(d * d, 3 * 2**4) * _prime_divisor_product(d, 2) * abs(_bernoulli_product(4))


def fixture_cusp_k_tilde(m: int, d: int) -> Fraction:
    """Leading coefficient for the stable-plus group of K(m,d), via its own
    growth-constant case table (independent of the volume fixture), split on
    the parity of D."""
    disc, t = fundamental_discriminant(d)
    if disc % 4 == 1:
        growth_const = Fraction(2 ** (4 * m + 2)) * (2 if d == 1 else 1)
    else:
        growth_const = Fraction(1, 2 ** (4 * m + 1))
    s = 4 * m + 2
    euler = Fraction(1)
    for p in factorize(2 * t):
        euler *= 1 - Fraction(kronecker(disc, p), p**s)
    return (
        growth_const
        / math.factorial(8 * m + 2)
        * _bernoulli_product(8 * m + 2)
        / _double_factorial_even(8 * m + 2)
        * generalized_bernoulli(s, disc)
        / s
        * Fraction(t) ** (8 * m + 3)
        * euler
    )


# ------------------------------------------------------ density fixtures

def fixture_alpha_ii(m: int, p: int) -> Fraction:
    """alpha_p(II(m)) = 2^(delta_{2,p}(8m+4)) P_p(4m+2) (1+p^-(4m+2))^-1."""
    lead = Fraction(2) ** ((8 * m + 4) if p == 2 else 0)
    return lead * p_series(p, 4 * m + 2) / (1 + Fraction(1, p ** (4 * m + 2)))


def fixture_alpha_l(m: int, d: int, p: int) -> Fraction:
    """The four-case alpha table for L(m,d)."""
    s = valuation(d, p) if d % p == 0 else 0
    sigma = 4 * m + 2
    if p == 2:
        if d % 2:
            return Fraction(2) ** (8 * m + 6) * p_series(2, sigma)
        return Fraction(2) ** (8 * m + 7 + s) * p_series(2, sigma) / (1 + Fraction(1, 2**sigma))
    if s == 0:
        return p_series(p, sigma)
    return 2 * Fraction(p) ** s * p_series(p, sigma) / (1 + Fraction(1, p**sigma))


def k_two_adic_exponent(d: int) -> int:
    """v(d) with alpha_2(K(m,d)) = 2^(8m+v(d)) P_2(4m+1).

    6/7/8 for d = 1/3/2 mod 4; for 2^s || d with s >= 2 the exponent is 8+s
    except at s = 2 (d = 4 mod 8) where it is 9: the two odd Jordan pieces
    sit at levels 1 and 3 and share the intervening trivial level, which
    removes one halving factor.  Pinned by the counting oracle on <2> + <-8>.
    """
    if d % 4:
        return {1: 6, 2: 8, 3: 7}[d % 4]
    s = valuation(d, 2)
    return 9 if s == 2 else 8 + s


def fixture_alpha_k(m: int, d: int, p: int) -> Fraction:
    """The alpha table for K(m,d)."""
    if p == 2:
        return Fraction(2) ** (8 * m + k_two_adic_exponent(d)) * p_series(2, 4 * m + 1)
    if d % p == 0:
        return 2 * Fraction(p) ** valuation(d, p) * p_series(p, 4 * m + 1)
    return p_series(p, 4 * m + 1) * (1 - Fraction(kronecker(4 * d, p), p ** (4 * m + 2)))


def fixture_alpha_n(m: int, d: int, p: int) -> Fraction:
    """The alpha table for N(m,d), d = 1 mod 4."""
    if p == 2:
        return (
            Fraction(2) ** (8 * m + 4)
            * p_series(2, 4 * m + 1)
            * (1 - Fraction(kronecker(d, 2), 2 ** (4 * m + 2)))
        )
    if d % p == 0:
        return 2 * Fraction(p) ** valuation(d, p) * p_series(p, 4 * m + 1)
    return p_series(p, 4 * m + 1) * (1 - Fraction(kronecker(d, p), p ** (4 * m + 2)))


def fixture_alpha_t2(m: int) -> Fraction:
    """alpha_2(T(m)) = 2^(8m+7) (1-2^-2)...(1-2^-8m) (1-2^-(4m+1))."""
    return Fraction(2) ** (8 * m + 7) * p_series(2, 4 * m) * (1 - Fraction(1, 2 ** (4 * m + 1)))
