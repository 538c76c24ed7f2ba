import functools
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmvol
from hmvol.errors import FeasibilityError, PreconditionError
from hmvol import special_values
from hmvol.arith import kronecker, squarefree_decompose
from fraction_routes import bernoulli, euler_factor, gamma_half, zeta_closed
from fraction_routes import gamma_factor as fraction_gamma_factor
from fraction_routes import l_closed as fraction_l_closed
from hmvol.special_values import (
    SymbolicReal,
    even_bernoullis,
    fundamental_discriminant,
    gamma_factor,
    generalized_bernoulli,
    l_closed,
    zeta_product,
)


def gamma_record(rank: int) -> SymbolicReal:
    """gamma_factor(rank) with the pi power its docstring names."""
    return SymbolicReal(gamma_factor(rank), (rank + 1) // 2 - rank * (rank + 1) // 2)


def l_record(t: int, disc: int) -> SymbolicReal:
    """l_closed(t, disc) with the pi power and surd its docstring names."""
    return SymbolicReal(l_closed(t, disc), 2 * t, abs(disc) // (1 if disc % 2 else 4))


def bernoulli_polynomial(k: int, x: Fraction) -> Fraction:
    """B_k(x) = sum_i C(k,i) B_i x^(k-i), exact (the finite-sum oracle for
    generalized Bernoulli numbers)."""
    x = Fraction(x)
    return sum((math.comb(k, i) * bernoulli(i) * x ** (k - i) for i in range(k + 1)), Fraction(0))


def zeta_negative(n: int) -> Fraction:
    """zeta(n) for n = 1 - 2k < 0 odd: equals -B_{2k}/(2k)."""
    if n >= 0 or n % 2 == 0:
        raise PreconditionError("expects a negative odd integer")
    k2 = 1 - n
    return -bernoulli(k2) / k2


@functools.cache
def recurrence_bernoulli(n: int) -> Fraction:
    """B_n from the defining recurrence sum_{k=0}^{n} C(n+1,k) B_k = 0 in
    Fractions, each value cached: the route B_n took before the tangent
    numbers, kept as the oracle of `even_bernoullis`."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    acc = 1 - Fraction(n + 1, 2)  # the k = 0 and k = 1 terms
    for k in range(2, n, 2):
        acc += math.comb(n + 1, k) * recurrence_bernoulli(k)
    return -acc / (n + 1)


# ------------------------------------------------------------- Bernoulli

def test_bernoulli_matches_recurrence_oracle():
    for n in range(130):
        assert bernoulli(n) == recurrence_bernoulli(n), n


def test_tangent_numbers():
    # OEIS A000182
    assert special_values._tangent_numbers(7) == [0, 1, 2, 16, 272, 7936, 353792, 22368256]


def test_bernoulli_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(3) == 0
    # B_2..B_2j with 2j <= top, from one triangle
    assert even_bernoullis(13) == [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                                   Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730)]
    assert even_bernoullis(1) == []


def test_bernoulli_defining_identity():
    # sum_{k=0}^{n} C(n+1,k) B_k = 0 for n >= 1
    for n in range(1, 201):
        total = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert total == 0


def _is_prime(n):
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def test_bernoulli_von_staudt_clausen_denominators():
    # the denominator of B_2n is the product of the primes p with (p - 1) | 2n
    for n2 in range(2, 201, 2):
        expected = math.prod(p for p in range(2, n2 + 2) if n2 % (p - 1) == 0 and _is_prime(p))
        assert bernoulli(n2).denominator == expected


def test_bernoulli_matches_mpmath_to_50_digits():
    with mpmath.workdps(60):
        for n in range(201):
            ref = mpmath.bernoulli(n)
            b = bernoulli(n)
            if ref == 0:
                assert b == 0
                continue
            ours = mpmath.mpf(b.numerator) / b.denominator
            assert abs(ours - ref) <= abs(ref) * mpmath.mpf(10) ** -50


def test_bernoulli_120_returns_in_a_fresh_process():
    # cold B_n past the old 72-entry cache went exponential: B_120 never returned
    src = Path(hmvol.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("from hmvol.special_values import generalized_bernoulli; "
            "print(generalized_bernoulli(120, 1))")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert Fraction(out.stdout.strip()) == recurrence_bernoulli(120)


# ------------------------------------------------------------- Kronecker

def test_kronecker_examples():
    for disc in (-8, -3, 1, 5, 12, 77):
        assert kronecker(disc, 1) == 1
    assert kronecker(5, 3) == -1
    # square factor drops out: (4d|p) = (d|p) for odd p not dividing d
    for d in (3, 5, 7, 11):
        for p in (3, 5, 7, 11, 13):
            if d % p:
                assert kronecker(4 * d, p) == kronecker(d, p)


def test_kronecker_agrees_with_legendre():
    # Euler's criterion: (a|p) = a^((p-1)/2) mod p for an odd prime p
    for p in (3, 5, 7, 11, 13):
        for a in range(-20, 21):
            r = pow(a % p, (p - 1) // 2, p)
            assert kronecker(a, p) == (0 if r == 0 else 1 if r == 1 else -1)


@given(st.integers(-60, 60), st.integers(-40, 40), st.integers(-40, 40))
@settings(max_examples=80, deadline=None)
def test_kronecker_multiplicative_in_bottom(a, m, n):
    if m == 0 or n == 0:
        return
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_periodicity_fundamental():
    # chi_D has period |D| for a fundamental discriminant
    for disc in (5, 8, 12, -3, -4, -8, 13):
        f = abs(disc)
        for n in range(1, 3 * f):
            assert kronecker(disc, n) == kronecker(disc, n + f)


# ---------------------------------------------- fundamental discriminants

def test_fundamental_discriminant_cases():
    assert fundamental_discriminant(5) == (5, 1)
    assert fundamental_discriminant(12) == (12, 2)
    assert fundamental_discriminant(1) == (1, 1)
    assert fundamental_discriminant(8) == (8, 2)
    assert fundamental_discriminant(-3) == (-3, 1)
    assert fundamental_discriminant(-4) == (-4, 2)
    assert fundamental_discriminant(-7) == (-7, 1)
    assert fundamental_discriminant(18) == (8, 3)


def test_fundamental_discriminant_consistency():
    for m in list(range(1, 50)) + [-m for m in range(1, 50)]:
        disc, t = fundamental_discriminant(m)
        d0 = disc if disc % 4 == 1 else disc // 4
        assert m == d0 * t * t
        assert disc % 4 in (0, 1)


# ------------------------------------------------- generalized Bernoulli

def test_generalized_bernoulli_chi5():
    assert generalized_bernoulli(2, 5) == Fraction(4, 5)


def test_generalized_bernoulli_parity_vanishing():
    # chi_D(-1) != (-1)^k forces B_{k,chi} = 0
    assert generalized_bernoulli(3, 5) == 0
    assert generalized_bernoulli(2, -4) == 0
    assert generalized_bernoulli(4, -3) == 0


def _finite_sum_generalized_bernoulli(k, disc):
    # the definition B_{k,chi} = f^(k-1) sum_{a=1}^{f} chi(a) B_k(a/f), f = |disc|
    f = abs(disc)
    total = Fraction(0)
    for a in range(1, f + 1):
        chi = kronecker(disc, a)
        if chi:
            total += chi * bernoulli_polynomial(k, Fraction(a, f))
    return Fraction(f) ** (k - 1) * total


def _is_fundamental_discriminant(d):
    def squarefree(m):
        return all(m % (q * q) for q in range(2, math.isqrt(abs(m)) + 1))

    if d == 1:
        return False
    if d % 4 == 1:
        return squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4)


def test_generalized_bernoulli_matches_finite_sum_definition():
    # both parities of k, so the parity zeros chi(-1) != (-1)^k are included
    discs = [d for d in range(-100, 101) if _is_fundamental_discriminant(d)]
    assert len(discs) == 61 and {-84, -4, -3, 5, 8, 12} <= set(discs)
    for disc in discs:
        for k in range(1, 13):
            assert generalized_bernoulli(k, disc) == _finite_sum_generalized_bernoulli(k, disc), (k, disc)
    # conductors spanning several blocks of residues, ending inside a block
    for disc in (-259, 521, -1028):
        assert _is_fundamental_discriminant(disc)
        for k in (2, 3):
            assert generalized_bernoulli(k, disc) == _finite_sum_generalized_bernoulli(k, disc), (k, disc)


def kronecker_generalized_bernoulli(k: int, disc: int) -> Fraction:
    """B_{k,chi} by the earlier route: one kronecker call per residue, power
    sums in blocks of residues, and k+1 Fraction products (the reference for
    the character-table route)."""
    if disc == 1:
        return bernoulli(k)
    f = abs(disc)
    block_size = special_values._POWER_SUM_BLOCK
    sums = [0] * (k + 1)
    for start in range(1, f + 1, block_size):
        residues, terms = [], []
        for a in range(start, min(start + block_size, f + 1)):
            chi = kronecker(disc, a)
            if chi:
                residues.append(a)
                terms.append(chi)
        sums[0] += sum(terms)
        for j in range(1, k + 1):
            terms = list(map(operator.mul, terms, residues))
            sums[j] += sum(terms)
    return sum(math.comb(k, i) * bernoulli(i) * f**i * sums[k - i] for i in range(k + 1)) / f


def test_character_table_matches_kronecker():
    discs = [d for d in range(-2000, 2001) if _is_fundamental_discriminant(d)]
    assert len(discs) == 1218
    for disc in discs:
        table = special_values._character_table(disc, special_values._fundamental_primes(disc))
        assert table == [kronecker(disc, a) for a in range(abs(disc))], disc


def test_character_table_rejects_non_fundamental():
    for disc in (-1, 3, 4, 9, 16, 20, -12, 45, -32):
        with pytest.raises(PreconditionError, match="fundamental"):
            special_values._fundamental_primes(disc)
        for k in (2, 3):  # the parity zero is no way around the check
            with pytest.raises(PreconditionError, match="fundamental"):
                generalized_bernoulli(k, disc)


def full_range_generalized_bernoulli(k_max: int, disc: int) -> list[Fraction]:
    """[B_{k,chi} for k = 1..k_max] by the route taken before the half-range
    power sums: the binomial expansion over every residue 0 < a < f, every
    power sum S_0..S_k, and B_0..B_k from `bernoulli` one by one (the
    reference for the parity zero, the fold onto a < f/2 and the tangent
    triangle).  The S_j do not depend on k, so they are formed once."""
    f = abs(disc)
    chi = special_values._character_table(disc, special_values._fundamental_primes(disc))
    block_size = special_values._POWER_SUM_BLOCK
    sums = [0] * (k_max + 1)
    for start in range(1, f, block_size):
        block = chi[start:start + block_size]
        residues = [a for a, c in zip(range(start, start + len(block)), block) if c]
        terms = list(filter(None, block))
        sums[0] += sum(terms)
        for j in range(1, k_max + 1):
            terms = list(map(operator.mul, terms, residues))
            sums[j] += sum(terms)
    values = []
    for k in range(1, k_max + 1):
        bern = [bernoulli(i) for i in range(k + 1)]
        den = math.lcm(*(b.denominator for b in bern))
        num = sum(
            math.comb(k, i) * b.numerator * (den // b.denominator) * f**i * sums[k - i]
            for i, b in enumerate(bern)
        )
        values.append(Fraction(num, den * f))
    return values


@pytest.mark.parametrize("lo", range(-2000, 2001, 500))
def test_generalized_bernoulli_matches_full_range_route(lo):
    # every fundamental discriminant with |D| <= 2000 and 1 <= k <= 16, both
    # parities of k; a chunk of discriminants per case keeps each under 3 s
    discs = [d for d in range(lo, min(lo + 500, 2001)) if _is_fundamental_discriminant(d)]
    for disc in discs:
        expected = full_range_generalized_bernoulli(16, disc)
        assert [generalized_bernoulli(k, disc) for k in range(1, 17)] == expected, disc


def test_generalized_bernoulli_conductor_guard():
    # priced at f + (f/2)(k/2 + 1) products, checked before the chi table
    f = 2000000000001  # squarefree, = 1 mod 4: a fundamental discriminant
    with pytest.raises(FeasibilityError, match="conductor 2000000000001"):
        generalized_bernoulli(2, f)
    assert generalized_bernoulli(3, 100000001) == 0  # the parity zero is free
    with pytest.raises(FeasibilityError):
        generalized_bernoulli(2, 100000001)
    # the price is checked before |disc| is factored, so a non-fundamental
    # disc over the cap is refused by the guard; at the parity zero it is not
    with pytest.raises(FeasibilityError, match="conductor 400000000"):
        generalized_bernoulli(2, 4 * 10**8)
    with pytest.raises(PreconditionError, match="fundamental"):
        generalized_bernoulli(3, 4 * 10**8)


def test_generalized_bernoulli_matches_kronecker_route():
    block = special_values._POWER_SUM_BLOCK
    small = [d for d in range(-60, 61) if _is_fundamental_discriminant(d)]
    # conductors spanning several blocks, with 2-parts 1, -4, 8 and -8
    large = [-259, 521, -1028, 1048, -1016]
    assert all(_is_fundamental_discriminant(d) for d in large)
    assert {abs(d) // block for d in large} >= {1, 2, 4}
    for disc in small + large:
        for k in range(1, 15):
            assert generalized_bernoulli(k, disc) == kronecker_generalized_bernoulli(k, disc), (k, disc)


def test_generalized_bernoulli_trivial_character():
    assert generalized_bernoulli(4, 1) == recurrence_bernoulli(4) == Fraction(-1, 30)


def test_generalized_bernoulli_numeric_l_value():
    # L(-1, chi_5) = -B_{2,chi_5}/2, with L(-1,.) evaluated independently via
    # Hurwitz zeta: L(s,chi) = f^-s sum_a chi(a) zeta(s, a/f)
    with mpmath.workdps(40):
        f = 5
        l_val = mpmath.mpf(0)
        for a in range(1, f + 1):
            chi = kronecker(5, a)
            if chi:
                l_val += chi * mpmath.zeta(-1, mpmath.mpf(a) / f)
        l_val *= mpmath.mpf(f) ** 1
        expected = -generalized_bernoulli(2, 5) / 2
        assert abs(l_val - mpmath.mpf(expected.numerator) / expected.denominator) < mpmath.mpf(10) ** -30


def test_l_at_negative_integers_matches_bernoulli():
    # L(1-k, chi_D) = -B_{k,chi_D}/k for matching parity, via Hurwitz zeta
    with mpmath.workdps(50):
        # every fundamental discriminant with |D| <= 20
        for disc in (5, 8, 12, 13, 17, -3, -4, -7, -8, -11, -15, -19, -20):
            for k in range(1, 9):
                if (disc > 0) != (k % 2 == 0):
                    continue
                f = abs(disc)
                s = 1 - k
                l_val = mpmath.mpf(0)
                for a in range(1, f + 1):
                    chi = kronecker(disc, a)
                    if chi:
                        l_val += chi * mpmath.zeta(s, mpmath.mpf(a) / f)
                l_val *= mpmath.mpf(f) ** (-s)
                expected = -generalized_bernoulli(k, disc) / k
                got = mpmath.mpf(expected.numerator) / expected.denominator
                assert abs(l_val - got) < mpmath.mpf(10) ** -35


# ----------------------------------------------------------- SymbolicReal

def squarefree_radicands(hi: int):
    """Squarefree radicands, the squarefree parts of 1..hi (the record's
    contract: callers pass squarefree radicands)."""
    return st.integers(1, hi).map(lambda r: squarefree_decompose(r)[0])


def test_symbolic_real_surd_arithmetic_exhaustive():
    # sqrt(a) * sqrt(b) extracts the common square exactly, squarefree a,b <= 100
    radicands = [r for r in range(1, 101) if squarefree_decompose(r)[1] == 1]
    for a in radicands:
        for b in radicands:
            prod = SymbolicReal(Fraction(1), 0, a) * SymbolicReal(Fraction(1), 0, b)
            s, t = squarefree_decompose(a * b)
            assert prod.radicand == s
            assert prod.coefficient == t


@given(
    st.fractions(min_value=-9, max_value=9).filter(lambda f: f != 0),
    st.integers(-6, 6),
    squarefree_radicands(30),
    st.fractions(min_value=-9, max_value=9).filter(lambda f: f != 0),
    st.integers(-6, 6),
    squarefree_radicands(30),
)
@settings(max_examples=100, deadline=None)
def test_symbolic_real_mul_commutes_and_associates(c1, e1, r1, c2, e2, r2):
    x = SymbolicReal(c1, e1, r1)
    y = SymbolicReal(c2, e2, r2)
    assert x * y == y * x
    z = SymbolicReal(Fraction(2, 7), -1, 6)
    assert (x * y) * z == x * (y * z)


@given(
    st.fractions(min_value=-50, max_value=50),
    st.integers(-12, 12),
    squarefree_radicands(10**6),
    st.fractions(min_value=-50, max_value=50),
    st.integers(-12, 12),
    squarefree_radicands(10**6),
)
@settings(max_examples=200, deadline=None)
def test_symbolic_real_gcd_product_matches_factored_product(c1, e1, r1, c2, e2, r2):
    # the product multiplies squarefree radicands through their gcd; the
    # reference factors the raw product of the radicands given
    x = SymbolicReal(c1, e1, r1)
    y = SymbolicReal(c2, e2, r2)
    core, root = squarefree_decompose(r1 * r2)
    assert x * y == SymbolicReal(c1 * c2 * root, e1 + e2, core)
    assert x * Fraction(3, 2) == SymbolicReal(c1 * Fraction(3, 2), e1, r1)


def test_symbolic_real_stores_its_parts_as_given():
    # the record factors nothing: a squarefree radicand is the caller's contract
    c = Fraction(3, 4)
    assert SymbolicReal(c, 1).coefficient is c
    x = SymbolicReal(Fraction(5), 2, 12)
    assert (x.coefficient, x.pi_half_exponent, x.radicand) == (5, 2, 12)


def test_l_closed_radicand_is_squarefree():
    # the record route of L(t, chi_D) carries the squarefree part of |D|, the
    # surd that l_closed's docstring names and the Euler product record takes,
    # at both parities
    checked = 0
    for disc in range(-2000, 2001):
        if not _is_fundamental_discriminant(disc):
            continue
        value = fraction_l_closed(2 if disc > 0 else 1, disc)
        assert squarefree_decompose(value.radicand) == (value.radicand, 1), disc
        assert value.radicand == squarefree_decompose(abs(disc))[0], disc
        checked += 1
    assert checked > 1000


# ----------------------------------------------------------- zeta values

def test_zeta_closed_values():
    assert zeta_closed(2) == SymbolicReal(Fraction(1, 6), 4)
    assert zeta_closed(4) == SymbolicReal(Fraction(1, 90), 8)
    assert zeta_closed(6) == SymbolicReal(Fraction(1, 945), 12)


def test_zeta_negative():
    assert zeta_negative(-5) == Fraction(-1, 252)
    assert zeta_negative(-1) == Fraction(-1, 12)


def test_zeta_product_matches_product_of_zeta_closed():
    # t <= 32 covers rank 64; zeta_product is the rational of pi^(t(t+1))
    expected = SymbolicReal(Fraction(1))
    assert zeta_product(0) == 1
    for t in range(1, 33):
        expected = expected * zeta_closed(2 * t)
        assert SymbolicReal(zeta_product(t), 2 * t * (t + 1)) == expected, t


def test_zeta_closed_rejects_odd():
    with pytest.raises(PreconditionError):
        zeta_closed(3)


# ---------------------------------------------------------- gamma factor

def test_gamma_half_values():
    assert gamma_half(1) == SymbolicReal(Fraction(1), 1)  # Gamma(1/2) = sqrt(pi)
    assert gamma_half(2) == SymbolicReal(Fraction(1))
    assert gamma_half(3) == SymbolicReal(Fraction(1, 2), 1)
    assert gamma_half(-1) == SymbolicReal(Fraction(-2), 1)  # Gamma(-1/2) = -2 sqrt(pi)
    assert gamma_half(8) == SymbolicReal(Fraction(6))


def test_gamma_factor_small_ranks():
    assert gamma_record(1) == SymbolicReal(Fraction(1))
    assert gamma_record(2) == SymbolicReal(Fraction(1), -2)
    # the product at rank 4 is 1/(2 pi^4)
    assert gamma_record(4) == SymbolicReal(Fraction(1, 2), -8)


def gamma_factor_product(rank: int) -> SymbolicReal:
    """prod_{k=1}^{rank} pi^(-k/2) Gamma(k/2) as a product of 2*rank
    SymbolicReal factors: the oracle for the closed form."""
    out = SymbolicReal(Fraction(1))
    for k in range(1, rank + 1):
        out = out * gamma_half(k) * SymbolicReal(Fraction(1), -k)
    return out


def test_gamma_factor_matches_product():
    # the closed form, with the pi power of its docstring, and its record route
    for rank in range(1, 65):
        assert gamma_record(rank) == fraction_gamma_factor(rank) == gamma_factor_product(rank)


def test_gamma_factor_numeric():
    with mpmath.workdps(40):
        for rank in (1, 2, 3, 4, 7, 10):
            direct = mpmath.mpf(1)
            for k in range(1, rank + 1):
                direct *= mpmath.pi ** (-mpmath.mpf(k) / 2) * mpmath.gamma(mpmath.mpf(k) / 2)
            ours = gamma_record(rank).evalf(40)
            assert abs(ours - direct) / abs(direct) < mpmath.mpf(10) ** -30


# -------------------------------------------------------------- L values

def test_l_closed_at_trivial_character_is_zeta():
    # D = 1 takes the general functional-equation route: L(2m, chi_1) = zeta(2m)
    for m in range(1, 33):
        assert l_record(2 * m, 1) == zeta_closed(2 * m), m


def test_l_closed_chi5():
    # L(2, chi_5) = 4 pi^2 / (25 sqrt 5) = (4/125) pi^2 sqrt 5
    assert l_closed(2, 5) == Fraction(4, 125)


def test_l_closed_odd_character():
    # L(1, chi_-4) = pi/4
    assert l_record(1, -4) == SymbolicReal(Fraction(1, 4), 2)


def test_l_closed_parity_rejection():
    with pytest.raises(PreconditionError, match="parity"):
        l_closed(3, 5)
    with pytest.raises(PreconditionError, match="parity"):
        l_closed(2, -3)


def test_l_closed_gamma_transform_identity():
    # pi^-(4m+2) Gamma(4m+2) D^((8m+3)/2) L(4m+2, chi_D) = 2^(4m+1) B/(4m+2)
    # checked symbolically for m = 0, D = 5
    lhs = (
        SymbolicReal(Fraction(1), -4)  # pi^-2
        * SymbolicReal(Fraction(math.factorial(1)))
        * SymbolicReal(Fraction(5), 0, 5)  # 5^(3/2)
        * l_record(2, 5)
    )
    rhs = SymbolicReal(Fraction(2) * generalized_bernoulli(2, 5) / 2)
    assert lhs == rhs


def test_l_closed_numeric_consistency():
    # closed form vs direct Hurwitz-zeta evaluation at 50 digits
    with mpmath.workdps(60):
        for disc in (5, 8, 12, 13, 17, -3, -4, -7, -8, -11, -20):
            for t in range(1, 7):
                if (disc > 0) != (t % 2 == 0):
                    continue
                f = abs(disc)
                direct = mpmath.mpf(0)
                for a in range(1, f + 1):
                    chi = kronecker(disc, a)
                    if not chi:
                        continue
                    if t == 1:
                        # Hurwitz zeta has a pole at 1; use the digamma form
                        direct -= chi * mpmath.digamma(mpmath.mpf(a) / f) / f
                    else:
                        direct += chi * mpmath.zeta(t, mpmath.mpf(a) / f) / mpmath.mpf(f) ** t
                ours = l_record(t, disc).evalf(55)
                assert abs(ours - direct) / abs(direct) < mpmath.mpf(10) ** -40


def test_l_closed_matches_fraction_route():
    # the Gamma ratio and the powers of |disc| as integers give the parts of
    # the SymbolicReal product, with the pi power and surd of l_closed's
    # docstring, on every fundamental discriminant |D| <= 300 and D = 1
    compared = 0
    for disc in range(-300, 301):
        if disc != 1 and not _is_fundamental_discriminant(disc):
            continue
        for t in range(1, 13):
            if (disc > 0) != (t % 2 == 0):  # chi(-1) = (-1)^t; zeta at even t
                continue
            new, old = l_record(t, disc), fraction_l_closed(t, disc)
            assert (new.coefficient, new.pi_half_exponent, new.radicand) == (
                old.coefficient, old.pi_half_exponent, old.radicand), (t, disc)
            compared += 1
    assert compared > 500


def test_imprimitive_euler_factor_stripping():
    # L(s, (4d|.)) = L(s, chi_D) prod_{p | 2t} (1 - chi_D(p) p^-s), d = 12, s = 2
    d, s = 12, 2
    disc, t = fundamental_discriminant(d)
    assert (disc, t) == (12, 2)
    strip = Fraction(1)
    for p in {2} | {q for q in (2, 3, 5) if t % q == 0}:
        strip *= euler_factor(disc, p, s)
    closed = l_record(s, disc) * strip
    with mpmath.workdps(40):
        modulus = 4 * d
        direct = mpmath.mpf(0)
        for a in range(1, modulus + 1):
            chi = kronecker(4 * d, a)
            if chi:
                direct += chi * mpmath.zeta(s, mpmath.mpf(a) / modulus)
        direct *= mpmath.mpf(modulus) ** (-s)
        assert abs(closed.evalf(35) - direct) < mpmath.mpf(10) ** -25


def test_zeta_numeric_consistency():
    # l_closed at D = 1, and its oracle zeta_closed
    with mpmath.workdps(60):
        for k2 in range(2, 17, 2):
            direct = mpmath.zeta(k2)
            for ours in (l_record(k2, 1).evalf(55), zeta_closed(k2).evalf(55)):
                assert abs(ours - direct) / direct < mpmath.mpf(10) ** -40


def test_bernoulli_polynomial_values():
    assert bernoulli_polynomial(2, Fraction(1, 5)) == Fraction(1, 150)
    assert bernoulli_polynomial(2, Fraction(0)) == Fraction(1, 6)
    # B_k(1) - B_k(0) = 0 for k >= 2
    for k in range(2, 8):
        assert bernoulli_polynomial(k, Fraction(1)) == bernoulli_polynomial(k, Fraction(0))
