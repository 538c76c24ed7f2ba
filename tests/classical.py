"""Classical covolumes, exact oracles for the volume pipeline that share no
code with the engine: no Bernoulli number, character, Jordan block or
density.

Hilbert modular surfaces.  Let K be the real quadratic field of fundamental
discriminant D > 1, O_K its ring of integers with the norm form lambda
lambda', and L_D = U + O_K(-1): the matrices X = [[a, lambda], [lambda', b]],
a, b in Z and lambda in O_K, under the form det X = ab - lambda lambda'
(van der Geer, *Hilbert Modular Surfaces*, 1988, ch. V).  Its Gram
literals, with O_K = Z[(1 + sqrt D)/2] or Z[sqrt(D/4)], are

    D = 1 mod 4:  U + gram[-2,-1;-1,(D-1)/2]
    D = 0 mod 4:  U + <-2> + <D/2>

and U + O_K, spelt `U + gram[2,1;1,(1-D)/2]` (N(0, D)) and `U + <2> + <-D/2>`
(K(0, D/4)), is L_D(-1) since U(-1) = U: the same group of matrices on the
same discriminant group with q negated.  Both spellings are checked.

vol(SO~+(L_D)) = zeta_K(-1)/2.  SL_2(O_K) acts on L_D by X -> g X g'^t
(g' the Galois conjugate), preserving det X, with kernel +-1; its image is
the discriminant kernel of SO+(L_D) (van der Geer ch. V), so PSO~+(L_D) =
PSL_2(O_K), index 1.  The orbifold Euler number of PSL_2(O_K)\\H^2 is
2 zeta_K(-1) (Hirzebruch, *Hilbert modular surfaces*, Enseign. Math. 19,
1973), and vol_HM divides the Euler number by that of the compact dual,
here chi(P^1 x P^1) = 4, as it gives vol_HM(PSL_2(Z)) = (1/6)/chi(P^1) =
1/12.  So vol_HM = 2 zeta_K(-1)/4.

vol(O(L_D)) = vol(SO~+(L_D)) / 2^(omega(D)+1).  A volume scales by the
index of the groups modulo -id, which acts trivially on the domain, and
-id lies in SO+(L_D) (it turns both the positive and the negative plane by
pi) but not in SO~+(L_D), since it is -1 on the p-part Z/p of the
discriminant group at an odd p | D, and on its Z/4 when D = 8 mod 16.
- [O : SO+] = 4: the reflections in e + f and e - f of U have norms 2 and
  -2, so they act trivially on the discriminant group and reach all four
  components of O(2, 2).
- [PSO+ : PSO~+] = 2^(omega(D)-1): PSO+(L_D) is the Hurwitz-Maass extension
  of PSL_2(O_K), whose quotient is the 2-torsion of the narrow class group,
  (Z/2)^(omega(D)-1) by genus theory (van der Geer ch. I.4).  Equivalently,
  O(q_{L_D}) has two elements on each p-part (+-1 on Z/p and on Z/2 + Z/4,
  and the swap of the generators of (Z/2)^2 when D = 12 mod 16),
  2^omega(D) in all,
  with -id one of them.
So the index is 4 * 2^(omega(D)-1) = 2^(omega(D)+1).

zeta_K(-1) comes from Siegel's divisor sum (Siegel 1969; Cohen, *Sums
involving the values at negative integers of L-functions of quadratic
characters*, Math. Ann. 217, 1975):

    zeta_K(-1) = (1/60) sum_{b^2 < D, b = D mod 2} sigma_1((D - b^2)/4).
"""

import math
import random
from fractions import Fraction


def _prime_exponents(n: int) -> dict[int, int]:
    """{p: e} of n >= 1 by trial division."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_real_fundamental(d: int) -> bool:
    """d > 1 is the discriminant of a real quadratic field: a squarefree
    m = 1 mod 4, or 4m with a squarefree m = 2, 3 mod 4."""
    if d % 4 == 1:
        m = d
    elif d % 4 == 0 and (d // 4) % 4 in (2, 3):
        m = d // 4
    else:
        return False
    return d > 1 and all(e == 1 for e in _prime_exponents(m).values())


def sigma_1(n: int) -> int:
    return math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in _prime_exponents(n).items())


def zeta_k_minus_one(d: int) -> Fraction:
    """zeta_K(-1) of K = Q(sqrt d), d a real fundamental discriminant, by
    Siegel's divisor sum."""
    total = sum(sigma_1((d - b * b) // 4) for b in range(-math.isqrt(d - 1), math.isqrt(d - 1) + 1)
                if (b - d) % 2 == 0)
    return Fraction(total, 60)


def hilbert_spellings(d: int) -> tuple[str, str]:
    """L_D = U + O_K(-1) and U + O_K as expressions."""
    if d % 4 == 1:
        return f"U + gram[-2,-1;-1,{(d - 1) // 2}]", f"U + gram[2,1;1,{(1 - d) // 2}]"
    return f"U + <-2> + <{d // 2}>", f"U + <2> + <{-d // 2}>"


def hilbert_volumes(d: int) -> dict[str, Fraction]:
    """The `O` and `SO~+` volumes of both spellings of L_D."""
    zeta = zeta_k_minus_one(d)
    return {"O": zeta / 2 ** (len(_prime_exponents(d)) + 2), "SO~+": zeta / 2}


def seeded_discriminants(count: int, lo: int, hi: int, seed: int) -> list[int]:
    """`count` distinct real fundamental discriminants drawn log-uniformly
    from [lo, hi), so the cost stays near that of the largest."""
    rng = random.Random(seed)
    out: set[int] = set()
    while len(out) < count:
        d = int(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        if is_real_fundamental(d):
            out.add(d)
    return sorted(out)
