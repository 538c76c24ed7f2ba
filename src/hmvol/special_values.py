"""Exact special values: Bernoulli numbers, quadratic characters, zeta and
Dirichlet L values at integers, and the record type of the Euler product.

A `SymbolicReal` is the record (coefficient, pi_half_exponent, radicand) of

    coefficient * pi**(pi_half_exponent/2) * sqrt(radicand)

with an exact rational coefficient and a squarefree radicand >= 1, which the
caller passes (the constructor factors nothing).  The volume pipeline builds
one, the Euler product; `gamma_factor`, `zeta_product` and `l_closed` return
only the rational coefficient of their value, and each docstring names the
pi power or surd that it stands for, so `build_report` multiplies rationals.

Bernoulli numbers are read off the integer tangent numbers, and the
generalized Bernoulli number B_{k,chi} of a character of conductor f comes
from the integer power sums S_j = sum_{0<a<f/2} chi(a) a^j over half the
residues (binomial expansion of B_k(a/f), folded by chi(f-a) B_k(1-a/f) =
chi(a) B_k(a/f)), combined over one common denominator.  B_{k,chi} is 0
when chi(-1) != (-1)^k, with no power sum formed.  The values chi_D(a),
a < f, are one table built from the prime discriminants of D: squares mod p
for each odd p | D, and a table mod 4 or 8 for the 2-part.  That table and
the power sums are linear in f, so a call priced over _GENBERN_WORK_CAP
products raises FeasibilityError before the table is built.  The product
zeta(2)...zeta(2t) is one fraction from one tangent-number triangle.

L-values at positive integers are obtained from generalized Bernoulli numbers
through the completed functional equation, zeta(t) as the trivial character
D = 1; the even-character case follows the classical display, the
odd-character case uses the standard completed-L normalization with the
gamma shift s -> (s+1)/2 and is pinned by the numeric consistency tests
rather than trusted.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache
from itertools import compress

from .arith import factorize, squarefree_decompose
from .errors import FeasibilityError, PreconditionError

__all__ = ["SymbolicReal"]

_POWER_SUM_BLOCK = 256
# products priced for the power sums of one B_{k,chi} (the chi table, f,
# plus (f/2)(k/2 + 1)); the largest admitted call takes a few seconds
_GENBERN_WORK_CAP = 2 * 10**7


class SymbolicReal:
    """Exact value coefficient * pi^(pi_half_exponent/2) * sqrt(radicand);
    the caller passes a squarefree radicand >= 1.  Not a tuple, so that
    2 * x and x + y raise TypeError instead of repeating or joining, and x
    equals only a SymbolicReal; like a NamedTuple, it is immutable."""

    __slots__ = ("coefficient", "pi_half_exponent", "radicand")

    def __init__(self, coefficient: Fraction, pi_half_exponent: int = 0, radicand: int = 1):
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "pi_half_exponent", pi_half_exponent)
        object.__setattr__(self, "radicand", radicand)

    def _values(self) -> tuple:
        return self.coefficient, self.pi_half_exponent, self.radicand

    def __eq__(self, other):
        if type(other) is not SymbolicReal:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __mul__(self, other) -> "SymbolicReal":
        """Product with another SymbolicReal or with a rational."""
        if isinstance(other, SymbolicReal):
            # r1 r2 = (r1/g)(r2/g) g^2, and (r1/g)(r2/g) is squarefree
            g = math.gcd(self.radicand, other.radicand)
            return SymbolicReal(
                self.coefficient * other.coefficient * g,
                self.pi_half_exponent + other.pi_half_exponent,
                (self.radicand // g) * (other.radicand // g),
            )
        return SymbolicReal(self.coefficient * other, self.pi_half_exponent, self.radicand)

    def evalf(self, dps: int = 50):
        """Numeric value as an mpmath mpf at the given working precision."""
        import mpmath

        with mpmath.workdps(dps + 10):
            val = mpmath.mpf(self.coefficient.numerator) / self.coefficient.denominator
            val *= mpmath.pi ** (mpmath.mpf(self.pi_half_exponent) / 2)
            val *= mpmath.sqrt(self.radicand)
            return +val

    def __repr__(self) -> str:
        parts = [str(self.coefficient)]
        if self.pi_half_exponent:
            parts.append(f"pi^({self.pi_half_exponent}/2)")
        if self.radicand != 1:
            parts.append(f"sqrt({self.radicand})")
        return " * ".join(parts)


def _tangent_numbers(count: int) -> list[int]:
    """[0, T_1, ..., T_count]: the tangent numbers, tan x = sum T_k
    x^(2k-1) / (2k-1)!, from the Knuth-Buckholtz integer triangle
    (Brent-Harvey 2011, Algorithm TangentNumbers), O(count^2) integer
    operations."""
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _even_bernoulli(k: int, t_k: int) -> Fraction:
    """B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent number T_k."""
    four_k = 4**k
    return Fraction((-1) ** (k - 1) * 2 * k * t_k, four_k * (four_k - 1))


@cache
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2).

    Even n = 2k >= 2 reads B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) off
    the integer tangent number T_k, so a cold B_n costs O(n^2) integer
    operations and one reduction of the fraction, and no call depends on
    another.  Odd n >= 3 gives 0; callers in the volume pipeline only use
    even n.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    return _even_bernoulli(n // 2, _tangent_numbers(n // 2)[n // 2])


def fundamental_discriminant(m: int) -> tuple[int, int]:
    """Discriminant D of Q(sqrt(m)) and the t with m = d0 * t**2, d0 squarefree
    (D from d0 by `field_discriminant`); works for negative m as well.
    m = 1 gives (1, 1), the trivial character.
    """
    if m == 0:
        raise PreconditionError("fundamental discriminant of 0 is undefined")
    d0, t = squarefree_decompose(m)
    return field_discriminant(d0), t


def field_discriminant(d0: int) -> int:
    """Discriminant of Q(sqrt(d0)), d0 squarefree: d0 if d0 = 1 mod 4, else 4*d0."""
    return d0 if d0 % 4 == 1 else 4 * d0


# chi_{d2} on residues mod |d2| for the 2-part d2 of a fundamental
# discriminant; 1 stands for an odd discriminant
_TWO_PART_CHARACTERS = {
    1: (1,),
    -4: (0, 1, 0, -1),
    8: (0, 1, 0, -1, 0, -1, 0, 1),
    -8: (0, 1, 0, 1, 0, -1, 0, -1),
}


def _fundamental_primes(disc: int) -> dict[int, int]:
    """factorize(|disc|), once disc is checked to be a fundamental
    discriminant: squarefree odd part, 2-part in {1, -4, 8, -8}."""
    primes = factorize(abs(disc))
    odd = math.prod(p if p % 4 == 1 else -p for p in primes if p != 2)
    if disc // odd not in _TWO_PART_CHARACTERS or any(e > 1 for p, e in primes.items() if p != 2):
        raise PreconditionError(f"{disc} is not a fundamental discriminant")
    return primes


def _character_table(disc: int, primes: dict[int, int]) -> list[int]:
    """[kronecker(disc, a) for a in range(|disc|)] for a fundamental
    discriminant with factorization `primes` (`_fundamental_primes`).

    chi_disc is the product of the characters of the prime discriminants of
    disc: p* = (-1)^((p-1)/2) p for each odd p | disc, whose value at a > 0
    is the Legendre symbol (a/p), read off the squares mod p, and the 2-part
    d2 = disc / prod p* in {1, -4, 8, -8}.  Tables T and t of coprime periods
    M and m combine into the table of period M m as T[a mod M] * t[a mod m].
    """
    odd = math.prod(p if p % 4 == 1 else -p for p in primes if p != 2)
    table = list(_TWO_PART_CHARACTERS[disc // odd])
    for p in primes:
        if p == 2:
            continue
        legendre = [-1] * p
        legendre[0] = 0
        for x in range(1, p // 2 + 1):
            legendre[x * x % p] = 1
        table = list(map(operator.mul, table * p, legendre * len(table)))
    return table


def generalized_bernoulli(k: int, disc: int) -> Fraction:
    """Generalized Bernoulli number B_{k,chi} for the Kronecker character of
    the fundamental discriminant `disc`.

    Defined by the finite sum B_{k,chi} = f^(k-1) sum_{a=1}^{f} chi(a) B_k(a/f)
    with f = |disc|.  It is 0 unless chi(-1) = sign(disc) equals (-1)^k;
    then chi(f-a) B_k(1-a/f) = chi(a) B_k(a/f) folds the sum onto a < f/2,
    and expanding B_k(a/f) binomially gives

        B_{k,chi} = 2 sum_{i=0}^{k} C(k,i) B_i f^(i-1) S_{k-i},
        S_j = sum_{0<a<f/2} chi(a) a^j.

    B_i = 0 at odd i >= 3, so only S_{k-1} and the S_j with j = k mod 2 are
    formed, the latter by stepping the terms by a^2; B_0..B_k come from one
    tangent-number triangle, and the sum is one integer over their common
    denominator, times f.  For disc = 1 this returns the ordinary B_k; any
    other disc that is not a fundamental discriminant raises
    PreconditionError, and one whose power sums would take more than
    _GENBERN_WORK_CAP products raises FeasibilityError.
    """
    if k < 1:
        raise ValueError("index must be >= 1")
    if disc == 1:
        return bernoulli(k)
    primes = _fundamental_primes(disc)
    if (disc < 0) == (k % 2 == 0):
        return Fraction(0)
    f = abs(disc)
    work = f + (f // 2) * (k // 2 + 1)
    if work > _GENBERN_WORK_CAP:
        raise FeasibilityError(
            f"B_{{{k},chi}} of conductor {f} would take ~{work} products, "
            f"over the cap {_GENBERN_WORK_CAP}"
        )
    chi = _character_table(disc, primes)
    half = (f + 1) // 2  # a < f/2; chi(f/2) = 0 for even f
    sums = [0] * (k + 1)
    # a block of residues at a time, so the lists of powers stay short
    for start in range(1, half, _POWER_SUM_BLOCK):
        block = chi[start:min(start + _POWER_SUM_BLOCK, half)]
        residues = list(compress(range(start, start + len(block)), block))
        squares = [a * a for a in residues]
        terms = list(filter(None, block))  # chi(a) * a^j over the residues, j = 0
        if k == 1:
            sums[0] += sum(terms)
        if k % 2:
            terms = list(map(operator.mul, terms, residues))
        sums[k % 2] += sum(terms)
        for j in range(k % 2 + 2, k + 1, 2):
            if j == k:  # S_{k-1} from the terms of a^(k-2)
                sums[k - 1] += sum(map(operator.mul, terms, residues))
            terms = list(map(operator.mul, terms, squares))
            sums[j] += sum(terms)
    tangents = _tangent_numbers(k // 2)
    bern = {0: Fraction(1), 1: Fraction(-1, 2)}
    bern.update((2 * m, _even_bernoulli(m, tangents[m])) for m in range(1, k // 2 + 1))
    den = math.lcm(*(b.denominator for b in bern.values()))
    num = sum(
        math.comb(k, i) * b.numerator * (den // b.denominator) * f**i * sums[k - i]
        for i, b in bern.items()
    )
    return Fraction(2 * num, den * f)


def zeta_product(t: int) -> Fraction:
    """zeta(2) zeta(4) ... zeta(2t) is this rational times pi^(t(t+1)).

    zeta(2i) = T_i pi^(2i) / (2 (4^i - 1) (2i-1)!) with the tangent number
    T_i, all T_i from one triangle, so the product is one fraction reduced
    once.
    """
    tangents = _tangent_numbers(t)
    num = den = odd_factorial = 1  # (2i-1)!
    for i in range(1, t + 1):
        if i > 1:
            odd_factorial *= (2 * i - 2) * (2 * i - 1)
        num *= tangents[i]
        den *= 2 * (4**i - 1) * odd_factorial
    return Fraction(num, den)


def gamma_factor(rank: int) -> Fraction:
    """prod_{k=1}^{rank} pi^(-k/2) Gamma(k/2) is this rational times
    pi^((#odd k - rank(rank+1)/2)/2), in closed form.

    Gamma(j) = (j-1)! for k = 2j and Gamma(j+1/2) = (2j)!/(4^j j!) sqrt(pi)
    for k = 2j+1.
    """
    if rank < 1:
        raise PreconditionError("rank must be >= 1")
    num = den = 1
    for k in range(1, rank + 1):
        j = k // 2
        if k % 2:
            num *= math.factorial(2 * j)
            den *= 4**j * math.factorial(j)
        else:
            num *= math.factorial(j - 1)
    return Fraction(num, den)


def l_closed(t_arg: int, disc: int) -> Fraction:
    """L(t_arg, chi_disc) for a fundamental discriminant (disc = 1: zeta) is
    this rational times pi^t_arg sqrt(c), c the squarefree part of |disc|.

    Requires the parity match chi_disc(-1) = (-1)^t_arg, i.e. disc > 0 for
    even t_arg and disc < 0 for odd t_arg; the value comes from
    B_{t_arg, chi} via the functional equation.
    """
    if t_arg < 1:
        raise PreconditionError("argument must be a positive integer")
    if (disc > 0) != (t_arg % 2 == 0):
        raise PreconditionError(
            f"parity mismatch: chi_{disc}(-1) != (-1)^{t_arg}, no closed form here"
        )
    t = t_arg
    b = generalized_bernoulli(t, disc)
    f = abs(disc)
    # sqrt(f) = root sqrt(c): f = c when odd, else f = 4c
    root = 1 if f % 2 else 2
    # L(t) = pi^(t - 1/2) G f^(1/2 - t) L(1-t), L(1-t) = -B_{t,chi}/t, where G
    # is the Gamma ratio of the functional equation: for disc > 0
    #   pi^{-s/2} Gamma(s/2) D^s L(s) = pi^{-(1-s)/2} Gamma((1-s)/2) D^{1/2} L(1-s)
    # gives G = Gamma(1/2 - m)/Gamma(m), t = 2m; for disc < 0 the completed form
    # (|D|/pi)^{(s+1)/2} Gamma((s+1)/2) L(s), invariant under s -> 1-s, gives
    # G = Gamma(1/2 - m)/Gamma(m+1), t = 2m+1.  With Gamma(1/2 - m) =
    # (-4)^m m! sqrt(pi) / (2m)!, G = (-4)^m c sqrt(pi) / (2m)!, c = m or 1.
    m = t // 2
    num = -((-4) ** m) * (m if disc > 0 else 1) * root * b.numerator
    den = math.factorial(2 * m) * f**t * t * b.denominator
    return Fraction(num, den)
