"""Local densities alpha_p of an integral lattice.

Two independent routes:

* `local_density` assembles alpha_p from the Jordan decomposition.  For odd p

      alpha_p = 2^(s-1) p^w prod_j P_p([n_j/2]) prod_j (1 + chi_j p^(-n_j/2))^(-1)

  with s the number of nonzero blocks and w the cross-rank weight.  For p = 2

      alpha_2 = 2^(n-1+w-q) prod_j P_2(rank N_j^even / 2) prod_j E_j^(-1)

  where q sums the oddness corrections q_j and E_j is 1/2 unless both
  neighbouring blocks are even and the odd part is not <e1> + <e2> with
  e1 = e2 mod 4, in which case E_j = (1 + chi(N_j^even) 2^(-rank/2))/2.
  The odd and even parts are those of the block as `jordan_decompose`
  returns it, with the odd part already compressed to at most two units
  (`odd_units`) and chi that of the even part (`chi`).
  The empty even part counts as chi = +1.  These conventions (including the
  counting convention below) are pinned by the oracle tests.  Each alpha_p
  is one integer fraction, reduced once: the lead term, P as the integer
  prod (p^(2i) - 1) over p^(sum k(k+1)), and E_j = (p^k + chi)/p^k (at p = 2
  1/2 or (2^k + chi)/2^(k+1)) multiply as numerators and denominators.

* `siegel_count_oracle` counts matrix self-congruences X^t S X = S mod p^r
  directly (p-adically lifted column candidates, the last column bucketed on
  S c), independently of the decomposition code.  At p = 2 every entry is
  taken plainly mod 2^r; the variant with quadratic conditions mod 2^(r+1)
  does not reproduce the closed forms and is rejected (see tests).  One
  counter, `_siegel_counts`, walks the depths r, r+1, ...: a depth's
  candidates are the next depth's candidates reduced, so each walk (the
  `oracle` command's r and r+1, `oracle_stabilized`) lifts them once, one
  digit per depth, from S reduced once mod p^(deepest depth).
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .arith import valuation
from .errors import FeasibilityError, PreconditionError
from .jordan import JordanBlock, JordanDecomposition, jordan_decompose
from .lattices import Lattice

ORACLE_CANDIDATE_CAP = 2**30
# pairs in one block of the counting oracle; larger is faster but uses more memory
_PAIR_CHUNK = 2**16
# a 2-adic level with no block: even, with the empty even part's chi = +1
_EMPTY_BLOCK = JordanBlock(0, 0, 1, ())
_HALF = Fraction(1, 2)


class LocalDensity(NamedTuple):
    p: int
    value: Fraction
    breakdown: dict


def _p_series_num(p: int, n: int) -> int:
    """prod_{i=1}^{n} (p^(2i) - 1), the numerator of P_p(n) over p^(n(n+1))."""
    num = pw = 1
    for _ in range(n):
        pw *= p * p
        num *= pw - 1
    return num


def p_series(p: int, n: int) -> Fraction:
    """P_p(n) = prod_{i=1}^{n} (1 - p^(-2i)); the empty product is 1."""
    if n < 0:
        raise PreconditionError("P_p needs n >= 0")
    # one integer over the common denominator p^2 p^4 ... p^(2n) = p^(n(n+1))
    return Fraction(_p_series_num(p, n), p ** (n * (n + 1)))


def cross_rank_weight(decomp: JordanDecomposition) -> int:
    """w = sum_j j * ( n_j (n_j + 1)/2 + n_j * sum_{k>j} n_k ).

    The triangular term n_j(n_j+1)/2 is an integer, so w is an integer; the
    w = 3 anchor for U + U(2) + mE8(-1) at p = 2 and the oracle equalities
    pin this grouping of the half.
    """
    blocks = decomp.blocks
    w = 0
    for b in blocks:
        tail = sum(c.rank for c in blocks if c.level > b.level)
        w += b.level * (b.rank * (b.rank + 1) // 2 + b.rank * tail)
    return w


def _assembled(p: int, s: int, w: int, q: int, lead: Fraction, ks, e_factors) -> LocalDensity:
    """alpha_p = lead prod_k P_p(k) / prod_j E_j from integers, reduced once:
    prod_k P_p(k) is one integer over p^(sum k(k+1))."""
    p_num, p_exp = 1, 0
    for k in ks:
        p_num *= _p_series_num(p, k)
        p_exp += k * (k + 1)
    num, den = lead.numerator * p_num, lead.denominator * p**p_exp
    for e in e_factors.values():
        num *= e.denominator
        den *= e.numerator
    breakdown = {"s": s, "w": w, "q": q, "lead": lead, "P": Fraction(p_num, p**p_exp), "E": e_factors}
    return LocalDensity(p, Fraction(num, den), breakdown)


def _density_odd(decomp: JordanDecomposition) -> LocalDensity:
    p, blocks = decomp.p, decomp.blocks
    w = cross_rank_weight(decomp)
    # E_j = 1 + chi_j p^(-k) = (p^k + chi_j) / p^k, k = n_j / 2, at even n_j
    e_factors = {
        b.level: Fraction(p ** (b.rank // 2) + b.chi, p ** (b.rank // 2))
        for b in blocks if b.rank % 2 == 0
    }
    lead = Fraction(p**w << (len(blocks) - 1))  # 2^(s-1) p^w
    return _assembled(p, len(blocks), w, 0, lead, [b.rank // 2 for b in blocks], e_factors)


def _density_two(decomp: JordanDecomposition) -> LocalDensity:
    by_level = {b.level: b for b in decomp.blocks}

    def is_even_at(j: int) -> bool:
        return not by_level.get(j, _EMPTY_BLOCK).odd_units

    n = decomp.total_rank
    w = cross_rank_weight(decomp)
    q = 0
    for b in decomp.blocks:
        if b.odd_units:
            q += b.rank + (0 if is_even_at(b.level + 1) else 1)
    e_factors: dict[int, Fraction] = {}
    for j in range(min(by_level) - 1, max(by_level) + 2):
        b = by_level.get(j, _EMPTY_BLOCK)
        units = b.odd_units
        if not (is_even_at(j - 1) and is_even_at(j + 1)) or (
            len(units) == 2 and (units[0] - units[1]) % 4 == 0
        ):
            e_factors[j] = _HALF
        else:
            # E_j = (1 + chi 2^(-k)) / 2 = (2^k + chi) / 2^(k+1), k = rank N_j^even / 2
            k = (b.rank - len(units)) // 2
            e_factors[j] = Fraction((1 << k) + b.chi, 2 << k)
    e = n - 1 + w - q
    lead = Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)
    ks = [(b.rank - len(b.odd_units)) // 2 for b in decomp.blocks]
    return _assembled(2, len(decomp.blocks), w, q, lead, ks, e_factors)


def density_from_decomposition(decomp: JordanDecomposition) -> LocalDensity:
    """alpha_p from a Jordan decomposition at p."""
    if decomp.p == 2:
        return _density_two(decomp)
    return _density_odd(decomp)


def local_density(lattice: Lattice, p: int) -> LocalDensity:
    """alpha_p(L), exact."""
    return density_from_decomposition(jordan_decompose(lattice, p))


def bad_primes(lattice: Lattice) -> tuple[int, ...]:
    """Sorted primes dividing 2 * det(L); everywhere else L_p is unimodular."""
    return tuple(sorted({2, *lattice.det_factors}))


def _lift(cand, m: int, p: int, s, target: int, digits):
    """The solutions mod m p of c^t S c = target among the lifts c + m t,
    t a row of `digits`, of the solutions `cand` mod m.  With S read mod
    p^deepest and S c reduced mod m p before the dot product, no entry passes
    n p^(2 deepest), inside int64 under the guard."""
    import numpy as np

    lifts = (cand[:, None, :] + m * digits).reshape(-1, cand.shape[1])
    m *= p
    return lifts[np.einsum("ij,ij->i", lifts, lifts @ s % m) % m == target % m]


def _siegel_counts(gram, p: int, r: int, deepest: int) -> Iterator[int]:
    """Yield #{X in Mat_n(Z/q) : X^t S X = S mod q} for q = p^k, k = r, r+1,
    ..., deepest; callers guard deepest.

    Column i solves c^t S c = S_ii; its solutions mod p^(k+1) are among the
    lifts c + p^k t, t in [0, p)^n, of those mod p^k (each reduces to one).
    A lift mod p^k reads S and S_ii only mod p^k, so S is reduced once, mod
    p^deepest, and each distinct S_ii keeps its solutions from one depth to
    the next, lifted by one digit per depth (columns with equal S_ii share
    them).  At rank 1, a x^2 = a mod q iff x^2 = 1 mod q/g, g = gcd(a, q),
    and x -> x mod q/g is g-to-1; the square roots of 1 are kept the same
    way.  The last column c meets the cross conditions only through
    u = S c mod q, so it counts as buckets u of multiplicity m_u: rank 2 sums
    m_u over the (c0, u) with c0.u = S_01; rank 3 sums m_u [c1.u = S_12] over
    (c0, c1) with c0^t S c1 = S_01 joined to (c0, u) with c0.u = S_02.  A
    block of rows of c0 or c1 holds <= _PAIR_CHUNK pairs.  The buckets and
    pairs are formed anew at each depth.
    """
    import numpy as np

    n = len(gram)
    if n > 3:
        raise PreconditionError("oracle counting implemented for rank <= 3 only")
    top = p**deepest
    digits = np.indices((p,) * n, dtype=np.int64).reshape(n, -1).T
    zero = np.zeros((1, n), dtype=np.int64)
    if n == 1:
        # g = p^min(v, k) at depth k, v = v_p(a) capped at deepest
        v = valuation(gram[0][0] % top or top, p)
        one = np.ones((1, 1), dtype=np.int64)
        roots, m = zero, 1
        for k in range(1, deepest + 1):
            if k > v:
                roots = _lift(roots, m, p, one, 1, digits)
                m *= p
            if k >= r:
                yield p ** min(v, k) * len(roots)
        return
    s_top = np.array([[x % top for x in row] for row in gram], dtype=np.int64)
    diag = [int(s_top[i, i]) for i in range(n)]
    cand = dict.fromkeys(diag, zero)
    for k in range(1, deepest + 1):
        q = p**k
        cand = {t: _lift(c, q // p, p, s_top, t, digits) for t, c in cand.items()}
        if k >= r:
            yield _pair_count(s_top % q, q, [cand[t] for t in diag])


def _pair_count(s, q: int, cand) -> int:
    """#{X : X^t S X = S mod q} from each column's solutions `cand` mod q of
    c^t S c = S_ii, S reduced mod q (see `_siegel_counts`)."""
    import numpy as np

    n = len(cand)
    keys, mult = np.unique(cand[-1] @ s % q @ q ** np.arange(n), return_counts=True)
    u = keys[:, None] // q ** np.arange(n) % q
    rows = max(1, _PAIR_CHUNK // max(len(keys), len(cand[1]) if n == 3 else 0))
    blocks = [cand[0][i:i + rows] for i in range(0, len(cand[0]), rows)]
    if n == 2:
        return sum(int((c0 @ u.T % q == s[0, 1]).sum(axis=0) @ mult) for c0 in blocks)
    b = np.vstack([cand[1][i:i + rows] @ u.T % q == s[1, 2]
                   for i in range(0, len(cand[1]), rows)])
    total = 0
    for c0 in blocks:
        pr, pc = np.nonzero(c0 @ s % q @ cand[1].T % q == s[0, 1])
        ar, au = np.nonzero(c0 @ u.T % q == s[0, 2])
        # each (c0, c1) once per bucket u of its c0: au[first:first + reps]
        first = np.searchsorted(ar, pr)
        reps = np.searchsorted(ar, pr, side="right") - first
        us = au[np.arange(reps.sum()) + np.repeat(first - np.cumsum(reps) + reps, reps)]
        total += int(mult[us][b[np.repeat(pc, reps), us]].sum())
    return total


def _guard_depth(p: int, n: int) -> int:
    """Deepest r the oracle guard allows: rank n <= 3, p^(r n^2) <= ORACLE_CANDIDATE_CAP.
    That naive count bounds the lifted work: no counter array exceeds it.  It
    also keeps S mod p^deepest, the one reduction `_siegel_counts` makes, and
    every product of the counter inside int64 (p^deepest <= 2^30 at rank 1)."""
    if n > 3:
        raise FeasibilityError(f"oracle guard: rank {n} > 3")
    r = 0
    while p ** ((r + 1) * n * n) <= ORACLE_CANDIDATE_CAP:
        r += 1
    return r


def siegel_counts_oracle(lattice: Lattice, p: int, r: int, last: int) -> Iterator[Fraction]:
    """Siegel counts at depths r, r+1, ..., last, as `siegel_count_oracle`
    values, from one `_siegel_counts` walk: each depth lifts the column
    candidates of the one before by one digit.  The guard is checked here,
    before any counting; a depth beyond it names the first such depth."""
    n = lattice.rank
    deepest = _guard_depth(p, n)
    if r < 1:
        raise PreconditionError("depth r must be >= 1")
    if last > deepest:
        e = max(r, deepest + 1) * n * n
        # p^e is spelled out only below 2^128: at a deep r it has millions of digits
        value = f" = {p ** e}" if e * p.bit_length() <= 128 else ""
        raise FeasibilityError(
            f"oracle guard: p^(r*rank^2) = {p}^{e}{value} exceeds 2^30 naive candidates"
        )
    counts = _siegel_counts(lattice.gram, p, r, last)
    return (Fraction(c, 2 * p ** (k * n * (n - 1) // 2)) for k, c in enumerate(counts, r))


def siegel_count_oracle(lattice: Lattice, p: int, r: int) -> Fraction:
    """Siegel count at depth r: (1/2) p^(-r n(n-1)/2) #{X : X^t S X = S mod p^r},
    the first value of `siegel_counts_oracle`.

    Convention at p = 2: all entries of the congruence are taken mod 2^r.
    """
    return next(siegel_counts_oracle(lattice, p, r, r))


def oracle_stabilized(lattice: Lattice, p: int) -> tuple[int, Fraction, bool] | None:
    """(r, value, True) at the smallest r >= v_p(2 det)+1 whose oracle value
    equals that at r+1.  If the guard stops the walk first, (r, value, False)
    at the deepest depth r >= 1 the guard allows (below v_p(2 det)+1 when that
    is beyond the guard); None if even r = 1 is.  One `siegel_counts_oracle`
    walk counts each depth once, lifting the column candidates one digit per
    depth, and is advanced no further than the first agreement."""
    deepest = _guard_depth(p, lattice.rank)
    r = min(valuation(2 * abs(lattice.det), p) + 1, deepest)
    if r == 0:
        return None
    values = siegel_counts_oracle(lattice, p, r, deepest)
    current = next(values)
    for nxt in values:
        if nxt == current:
            return r, current, True
        r += 1
        current = nxt
    return r, current, False
