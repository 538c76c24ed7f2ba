"""The Fraction-product and `SymbolicReal` routes that the integer assembly
replaced, kept as test oracles: alpha_p at odd p and at p = 2 from reduced
`Fraction` products (`density_odd`, `density_two`), the Euler product with
the bad-prime corrections as `Fraction` factors (`euler_product`), L(t, chi_D)
through `SymbolicReal` products of Gamma(j/2) values (`l_closed`), the
records of zeta(2m) (`zeta_closed`), of the gamma factor (`gamma_factor`) and
of |det L|^((rho+1)/2) (`det_power`), which the volume was once the product
of, and the helpers only these routes use (`gamma_half`, `euler_factor`,
and `bernoulli`, which reads B_n through the engine).  The bodies are
unchanged apart from the names, in `l_closed` the division by a Gamma
value, which is a product with its inverse, and `zeta_product`, which
`euler_product` now takes as the product of `zeta_closed` records."""

import functools
import math
from fractions import Fraction

from hmvol.arith import kronecker, squarefree_split
from family_fixtures import p_series
from hmvol.density import _EMPTY_BLOCK, LocalDensity, cross_rank_weight
from hmvol.errors import PreconditionError
from hmvol.jordan import JordanDecomposition
from hmvol.lattices import Lattice
from hmvol.special_values import SymbolicReal, generalized_bernoulli
from hmvol.volumes import genus_discriminant


@functools.cache
def bernoulli(n: int) -> Fraction:
    """B_n (B_1 = -1/2) as the engine builds it, generalized_bernoulli(n, 1)
    of the trivial character, and B_0 = 1; cached, since the finite-sum
    oracles ask for each B_n many times."""
    return Fraction(1) if n == 0 else generalized_bernoulli(n, 1)


def gamma_half(j: int) -> SymbolicReal:
    """Gamma(j/2) as a SymbolicReal, for any j with j/2 not a nonpositive integer.

    Expands through Gamma(x+1) = x Gamma(x) down to Gamma(1) = 1 or
    Gamma(1/2) = sqrt(pi); half-integer arguments below 1/2 are reached by the
    reflection-free downward recursion Gamma(x) = Gamma(x+1)/x.
    """
    if j % 2 == 0:
        m = j // 2
        if m <= 0:
            raise PreconditionError(f"Gamma has a pole at {m}")
        return SymbolicReal(Fraction(math.factorial(m - 1)))
    coeff = Fraction(1)
    x = Fraction(j, 2)
    while x > Fraction(1, 2):
        x -= 1
        coeff *= x
    while x < Fraction(1, 2):
        coeff /= x
        x += 1
    return SymbolicReal(coeff, 1)


def zeta_closed(k2: int) -> SymbolicReal:
    """zeta(k2) for even k2 >= 2 as an exact multiple of pi^k2."""
    if k2 < 2 or k2 % 2:
        raise PreconditionError("closed zeta values exist at positive even integers only")
    k = k2 // 2
    coeff = Fraction((-1) ** (k + 1)) * bernoulli(k2) * 2 ** (k2 - 1) / math.factorial(k2)
    return SymbolicReal(coeff, 2 * k2)


def zeta_product(t: int) -> SymbolicReal:
    """zeta(2) zeta(4) ... zeta(2t), a product of `zeta_closed` records."""
    out = SymbolicReal(Fraction(1))
    for i in range(1, t + 1):
        out = out * zeta_closed(2 * i)
    return out


def gamma_factor(rank: int) -> SymbolicReal:
    """prod_{k=1}^{rank} pi^(-k/2) Gamma(k/2), exact, in closed form.

    Gamma(j) = (j-1)! for k = 2j and Gamma(j+1/2) = (2j)!/(4^j j!) sqrt(pi)
    for k = 2j+1, so the value is one rational times pi to the half
    exponent #odd k - rank(rank+1)/2.
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
    return SymbolicReal(Fraction(num, den), (rank + 1) // 2 - rank * (rank + 1) // 2)


def det_power(lattice: Lattice) -> SymbolicReal:
    """|det L|^((rho+1)/2); for even rank the square root of |det| = c t^2
    is t sqrt(c), with c squarefree."""
    rho = lattice.rank
    adet = abs(lattice.det)
    if rho % 2:
        return SymbolicReal(Fraction(adet) ** ((rho + 1) // 2))
    c, t = squarefree_split(lattice.det_factors)
    return SymbolicReal(Fraction(adet ** (rho // 2) * t), 0, c)


def euler_factor(disc: int, p: int, s: int) -> Fraction:
    """1 - chi_disc(p) p^(-s), the local Euler factor of chi_disc at p."""
    return 1 - Fraction(kronecker(disc, p), p**s)


def density_odd(decomp: JordanDecomposition) -> LocalDensity:
    p = decomp.p
    s = len(decomp.blocks)
    w = cross_rank_weight(decomp)
    p_factor = Fraction(1)
    e_factors: dict[int, Fraction] = {}
    for b in decomp.blocks:
        p_factor *= p_series(p, b.rank // 2)
        if b.rank % 2 == 0:
            e_factors[b.level] = 1 + Fraction(b.chi, p ** (b.rank // 2))
    lead = Fraction(2) ** (s - 1) * Fraction(p) ** w
    value = lead * p_factor
    for e in e_factors.values():
        value /= e
    breakdown = {"s": s, "w": w, "q": 0, "lead": lead, "P": p_factor, "E": e_factors}
    return LocalDensity(p, value, breakdown)


def density_two(decomp: JordanDecomposition) -> LocalDensity:
    by_level = {b.level: b for b in decomp.blocks}

    def is_even_at(j: int) -> bool:
        return not by_level.get(j, _EMPTY_BLOCK).odd_units

    n = decomp.total_rank
    w = cross_rank_weight(decomp)
    q = 0
    for b in decomp.blocks:
        if b.odd_units:
            q += b.rank + (0 if is_even_at(b.level + 1) else 1)
    p_factor = Fraction(1)
    for b in decomp.blocks:
        p_factor *= p_series(2, (b.rank - len(b.odd_units)) // 2)

    lo = min(by_level) - 1
    hi = max(by_level) + 1
    e_factors: dict[int, Fraction] = {}
    for j in range(lo, hi + 1):
        if not (is_even_at(j - 1) and is_even_at(j + 1)):
            e_factors[j] = Fraction(1, 2)
            continue
        b = by_level.get(j, _EMPTY_BLOCK)
        units = b.odd_units
        if len(units) == 2 and (units[0] - units[1]) % 4 == 0:
            e_factors[j] = Fraction(1, 2)
            continue
        even_rank = b.rank - len(units)
        e_factors[j] = Fraction(1, 2) * (1 + Fraction(b.chi, 2 ** (even_rank // 2)))

    lead = Fraction(2) ** (n - 1 + w - q)
    value = lead * p_factor
    for e in e_factors.values():
        value /= e
    breakdown = {"s": len(decomp.blocks), "w": w, "q": q, "lead": lead, "P": p_factor, "E": e_factors}
    return LocalDensity(2, value, breakdown)


def euler_product(lattice: Lattice, densities: list[LocalDensity]) -> SymbolicReal:
    """euler_alpha_product from the densities at the bad primes: the
    alpha_p^(-1) and the bad-prime corrections make one rational, which
    multiplies the zeta (and L) values."""
    bad = [d.p for d in densities]
    rational = Fraction(1)
    for d in densities:
        rational /= d.value
    rho = lattice.rank
    if rho % 2:
        t = (rho - 1) // 2
        for p in bad:
            rational *= p_series(p, t)
        return zeta_product(t) * rational
    t = rho // 2
    if lattice.det < 0:
        # chi_D(-1) != (-1)^t here; L(t, chi_D) has no elementary closed form
        raise PreconditionError(
            "even-rank lattices with negative determinant fall outside the exact "
            "closed-form Euler product (odd-parity L-value)"
        )
    # at p not dividing 2 det the one unimodular Jordan block has
    # chi = kronecker(disc, p), so the good primes give L(t, chi_disc)
    disc = genus_discriminant(lattice)
    for p in bad:
        rational *= p_series(p, t - 1) * euler_factor(disc, p, t)
    return zeta_product(t - 1) * l_closed(t, disc) * rational


def l_closed(t_arg: int, disc: int) -> SymbolicReal:
    """L(t_arg, chi_disc) for a fundamental discriminant, in closed form.

    Requires the parity match chi_disc(-1) = (-1)^t_arg, i.e. disc > 0 for
    even t_arg and disc < 0 for odd t_arg; the value is then

        rational * pi^t_arg / sqrt(|disc|)

    obtained from B_{t_arg, chi} via the functional equation.  disc = 1
    delegates to the zeta closed form.
    """
    if t_arg < 1:
        raise PreconditionError("argument must be a positive integer")
    if disc == 1:
        return zeta_closed(t_arg)
    if (disc > 0) != (t_arg % 2 == 0):
        raise PreconditionError(
            f"parity mismatch: chi_{disc}(-1) != (-1)^{t_arg}, no closed form here"
        )
    t = t_arg
    b = generalized_bernoulli(t, disc)
    l_neg = SymbolicReal(Fraction(-b, t))  # L(1-t, chi)
    f = abs(disc)
    # sqrt(f) = 2 sqrt(f/4) when 4 | f; f/4 and an odd f are squarefree
    root, core = (1, f) if f % 2 else (2, f // 4)
    dpow = SymbolicReal(Fraction(root, f**t), 0, core)  # |disc|^(1/2 - t)
    # Gamma(t/2) at even t and Gamma((t+1)/2) at odd t are integers
    if disc > 0:
        # pi^{-s/2} Gamma(s/2) D^s L(s) = pi^{-(1-s)/2} Gamma((1-s)/2) D^{1/2} L(1-s)
        gammas = gamma_half(1 - t) * (1 / gamma_half(t).coefficient)
    else:
        # completed form (|D|/pi)^{(s+1)/2} Gamma((s+1)/2) L(s) invariant under s -> 1-s
        gammas = gamma_half(2 - t) * (1 / gamma_half(t + 1).coefficient)
    return SymbolicReal(Fraction(1), 2 * t - 1) * gammas * dpow * l_neg
