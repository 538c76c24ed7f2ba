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
  `oracle` command's r and r+1, `oracle_stabilized`) reads them off one
  table of all vectors mod p^r at its first depth r and then lifts them
  once, one digit per depth, from S reduced once mod p^(deepest depth).
  Ranks 2 and 3 count in int32: the guard's p^(deepest n^2) <= 2^30 keeps
  every entry below n p^(2 deepest) <= 65,522.

|O(q_L)| of an even lattice is the product of the |O(q_p)|, p | det, since
its discriminant form is the orthogonal sum of its p-parts (Nikulin 1979):
`finite_isometry_order` reads them off the densities, building no form.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .arith import valuation
from .errors import FeasibilityError, InternalCheckError, PreconditionError
from .jordan import JordanBlock, JordanDecomposition, jordan_decompose
from .lattices import Lattice

ORACLE_CANDIDATE_CAP = 2**30
# pairs in one block of the counting oracle (an int32 entry each, 256 kB);
# larger is faster but uses more memory
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


def finite_isometry_order(parts: list[tuple[JordanDecomposition, LocalDensity]]) -> int:
    """|O(A, q)| for the discriminant form of an even lattice L of rank n:
    the product over `parts`, the Jordan decompositions of L at the primes
    p dividing det each with its density alpha_p(L), of

        |O(q_p)| = alpha_p(L) E_0 / (P_p(k_0) p^v) c_p,

    where E_0 is the density's level-0 E factor (1 when it has none), n_0
    the rank of the level-0 block, k_0 = [n_0/2] (at p = 2 the even part's
    half rank (n_0 - #odd units)/2, which is n_0/2 since L is even),
    v = v_p(det), P_p(k) = prod_{i<=k} (1 - p^(-2i)), c_2 = 2^(-(n-1)), and
    at odd p c_p = 2 when n_0 = 0, else 1.  No form is built, so no size of
    A_p costs more than the density does.

    Odd p.  The formula is prod_k |O^{eps_k}_{n_k}(F_p)| p^e over the blocks
    p^k U_k, k >= 1, of rank n_k and chi eps_k, with
    e = sum_k (k - 1) n_k (n_k - 1)/2 + sum_{i<j} min(k_i, k_j) n_i n_j: the
    isometries of the forms U_k mod p, lifted through the kernels of
    reduction mod p^k, and the homomorphisms between blocks (Nikulin 1979,
    section 1.9; Taylor, The Geometry of the Classical Groups).  With
    E = 1 + eps p^(-n/2) at even n and E = 1 at odd n,
    |O^eps_n(F_p)| = 2 p^(n(n-1)/2) P_p([n/2]) / E, so over the s' blocks of
    level >= 1 the product is 2^s' p^(sum_k n_k(n_k-1)/2) prod_{k>=1} P/E.
    The density is alpha_p = 2^(s-1) p^w prod P/E over all s blocks, and
    its w - v equals sum_k n_k (n_k - 1)/2 + e.  Hence
    alpha_p E_0 / (P_p(k_0) p^v) = 2^(s-1-s') prod_k |O^{eps_k}_{n_k}(F_p)| p^e,
    and s - s' is 1 when n_0 > 0, else 0: that is c_p.

    p = 2.  O(L_2) -> O(q_2) is onto (Nikulin 1979, section 1.9), and its
    kernel is the stable group, so |O(q_2)| = [O(L_2) : O~(L_2)], the
    measure alpha_2(L) of O(L_2) over that of O~(L_2).  The formula takes
    the latter to be 2^(n-1) 2^v P_2(k_0) / E_0: the level-0 factor of the
    density and the normalisation alone.  That is not derived here; the
    tests check it against the stabilizer-chain count of |O(q_2)| on the
    2-part built from the block invariants (`tests/chain_oracle.py`), over
    every non-cyclic 2-part of the benchmark pools and over seeded 2-adic
    structures with odd units and levels 1-4.

    An odd level-0 block at p = 2 (an odd lattice, which has no
    discriminant form) is a precondition error; a p-part that is not a
    positive integer is an internal check failure.
    """
    count = 1
    for decomp, density in parts:
        p = decomp.p
        top = next((b for b in decomp.blocks if b.level == 0), None)
        if p == 2 and top is not None and top.odd_units:
            raise PreconditionError(
                "|O(q_2)| needs an even lattice: its unimodular 2-adic block is odd")
        k0 = top.rank // 2 if top else 0
        part = (density.value * density.breakdown["E"].get(0, 1) * p ** (k0 * (k0 + 1))
                / (_p_series_num(p, k0) * p**decomp.det_valuation))
        if p == 2:
            part /= 2 ** (decomp.total_rank - 1)
        elif top is None:
            part *= 2
        if part.denominator != 1 or part <= 0:
            raise InternalCheckError(f"|O(q_{p})| = {part} is not a positive integer")
        count *= part.numerator
    return count


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


def _mod(x, m: int):
    """x mod m, in place, for a temporary integer array x and m > 0: numpy
    divides an array by a scalar much faster than it takes the remainder."""
    y = x // m
    y *= m
    x -= y
    return x


def _lift(cand, m: int, p: int, s, target: int, digits):
    """The solutions mod m p of c^t S c = target among the lifts c + m t,
    t a row of `digits`, of the solutions `cand` mod m.  With S read mod
    p^deepest and S c reduced mod m p before the dot product, no entry passes
    n p^(2 deepest): in int32 at ranks 2 and 3, in int64 at rank 1."""
    import numpy as np

    lifts = (cand[:, None, :] + m * digits).reshape(-1, cand.shape[1])
    m *= p
    return lifts[_mod(np.einsum("ij,ij->i", lifts, _mod(lifts @ s, m)), m) == target % m]


def _table_candidates(table, s, q: int, targets) -> dict:
    """{t: the solutions mod q of c^t S c = t} for each t of `targets`, read
    off `table`, all vectors mod q: c^t S c is formed once for the table."""
    import numpy as np

    value = _mod(np.einsum("ij,ij->i", table, _mod(table @ s, q)), q)
    return {t: table[value == t % q] for t in targets}


def _siegel_counts(gram, p: int, r: int, deepest: int) -> Iterator[int]:
    """Yield #{X in Mat_n(Z/q) : X^t S X = S mod q} for q = p^k, k = r, r+1,
    ..., deepest; callers guard deepest.

    Column i solves c^t S c = S_ii; its solutions mod p^(k+1) are among the
    lifts c + p^k t, t in [0, p)^n, of those mod p^k (each reduces to one).
    A lift mod p^k reads S and S_ii only mod p^k, so S is reduced once, mod
    p^deepest.  At the first depth r the solutions of every distinct S_ii
    are read off one table of all p^(rn) vectors mod p^r (at r = 1 the digit
    table); from there each distinct S_ii keeps its solutions from one depth
    to the next, lifted by one digit per depth (columns with equal S_ii
    share them).  At rank 1, a x^2 = a mod q iff x^2 = 1 mod q/g,
    g = gcd(a, q), and x -> x mod q/g is g-to-1; the square roots of 1 are
    lifted one digit per depth from the zero column, in int64.  The last
    column c meets the cross conditions only through u = S c mod q, so it
    counts as buckets u of multiplicity m_u: rank 2 sums m_u over the
    (c0, u) with c0.u = S_01; rank 3 sums m_u [c1.u = S_12] over (c0, c1)
    with c0^t S c1 = S_01 joined to (c0, u) with c0.u = S_02.  A block of
    rows of c0 or c1 holds <= _PAIR_CHUNK pairs.  The buckets and pairs are
    formed anew at each depth.

    Ranks 2 and 3 count in int32, S reduced in Python before the cast
    (Gram entries may reach 2^63).  With Q = p^deepest every entry stays
    below n Q^2 (S c, c^t S c and the pair products) or Q^n (the bucket
    key); the guard's Q^(n^2) <= 2^30 keeps both below 2^16 (at most 65,522
    at rank 2 and 729 at rank 3).  A caller past the guard gets a
    PreconditionError once either reaches 2^31, not a count that wraps; the
    first table and the buckets have p^(rn) and up to p^(kn) entries.
    """
    import numpy as np

    n = len(gram)
    if n > 3:
        raise PreconditionError("oracle counting implemented for rank <= 3 only")
    top = p**deepest
    if n > 1 and (n * top * top >= 2**31 or top**n >= 2**31):
        raise PreconditionError(
            f"oracle counting in int32 needs n p^(2 deepest) and p^(n deepest) below 2^31,"
            f" not at p^deepest = {p}^{deepest}, rank {n}")
    if r > deepest:
        return
    digits = np.indices((p,) * n, dtype=np.int64 if n == 1 else np.int32).reshape(n, -1).T
    if n == 1:
        # g = p^min(v, k) at depth k, v = v_p(a) capped at deepest
        v = valuation(gram[0][0] % top or top, p)
        one = np.ones((1, 1), dtype=np.int64)
        roots, m = np.zeros((1, 1), dtype=np.int64), 1
        for k in range(1, deepest + 1):
            if k > v:
                roots = _lift(roots, m, p, one, 1, digits)
                m *= p
            if k >= r:
                yield p ** min(v, k) * len(roots)
        return
    # reduced in Python before the cast: Gram entries may reach 2^63
    s_top = np.array([[x % top for x in row] for row in gram], dtype=np.int32)
    diag = [int(s_top[i, i]) for i in range(n)]
    q = p**r
    table = digits if r == 1 else np.indices((q,) * n, dtype=np.int32).reshape(n, -1).T
    cand = _table_candidates(table, s_top, q, dict.fromkeys(diag))
    while True:
        yield _pair_count(s_top % q, q, [cand[t] for t in diag])
        if q == top:
            return
        cand = {t: _lift(c, q, p, s_top, t, digits) for t, c in cand.items()}
        q *= p


def _pair_count(s, q: int, cand) -> int:
    """#{X : X^t S X = S mod q} from each column's solutions `cand` mod q of
    c^t S c = S_ii, S reduced mod q (see `_siegel_counts`), in int32.  The
    buckets u of the last column are counted by `np.bincount` on the key
    sum_i u_i q^i < q^n, with no sort."""
    import numpy as np

    n = len(cand)
    pw = q ** np.arange(n, dtype=np.int32)
    count = np.bincount(_mod(cand[-1] @ s, q) @ pw)
    keys = np.flatnonzero(count)
    mult = count[keys]
    u = _mod(keys.astype(np.int32)[:, None] // pw, q)
    rows = max(1, _PAIR_CHUNK // max(len(keys), len(cand[1]) if n == 3 else 0))
    blocks = [cand[0][i:i + rows] for i in range(0, len(cand[0]), rows)]
    if n == 2:
        return sum(int((_mod(c0 @ u.T, q) == s[0, 1]).sum(axis=0) @ mult) for c0 in blocks)
    b = np.vstack([_mod(cand[1][i:i + rows] @ u.T, q) == s[1, 2]
                   for i in range(0, len(cand[1]), rows)])
    total = 0
    for c0 in blocks:
        pr, pc = np.nonzero(_mod(_mod(c0 @ s, q) @ cand[1].T, q) == s[0, 1])
        ar, au = np.nonzero(_mod(c0 @ u.T, q) == s[0, 2])
        # each (c0, c1) once per bucket u of its c0: au[first:first + reps]
        first = np.searchsorted(ar, pr)
        reps = np.searchsorted(ar, pr, side="right") - first
        us = au[np.arange(reps.sum()) + np.repeat(first - np.cumsum(reps) + reps, reps)]
        total += int(mult[us][b[np.repeat(pc, reps), us]].sum())
    return total


def _guard_depth(p: int, n: int) -> int:
    """Deepest r the oracle guard allows: rank n <= 3, p^(r n^2) <= ORACLE_CANDIDATE_CAP.
    That naive count bounds the lifted work: no counter array exceeds it,
    and the table of the first counted depth r has p^(rn) <= 2^(30/n) rows
    (2^15 at rank 2).  It also keeps S mod p^deepest, the one reduction
    `_siegel_counts` makes, and every product of the counter inside int64 at
    rank 1 (p^deepest <= 2^30) and inside int32 at ranks 2 and 3
    (n p^(2 deepest) <= 65,522 and p^(n deepest) <= 32,761)."""
    if n > 3:
        raise FeasibilityError(f"oracle guard: rank {n} > 3")
    r = 0
    while p ** ((r + 1) * n * n) <= ORACLE_CANDIDATE_CAP:
        r += 1
    return r


def siegel_counts_oracle(lattice: Lattice, p: int, r: int, last: int) -> Iterator[Fraction]:
    """Siegel counts at depths r, r+1, ..., last, as `siegel_count_oracle`
    values, from one `_siegel_counts` walk: the column candidates of depth r
    are read off one table of all vectors mod p^r, and each later depth
    lifts those of the one before by one digit.  The guard is checked here,
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
    walk counts each depth once: the column candidates of its first depth
    come from one table of all vectors mod p^r, each later depth lifts them
    by one digit, and the walk is advanced no further than the first
    agreement."""
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
