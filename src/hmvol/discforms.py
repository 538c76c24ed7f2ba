"""Discriminant quadratic forms, their isometry groups, and the projective
indices among the orthogonal-group variants of an even lattice of signature
(2, n).

The discriminant group A_L = L^/L of an even lattice carries a quadratic
form q with values in Q/2Z; the stable subgroups (the ones acting trivially
on (A_L, q)) sit inside the full groups with index N = |O(q)|, and the
plus/determinant conditions each contribute a further index 2.  The
projective index additionally depends on whether -id lies in the subgroup,
which happens exactly when -id acts trivially on A_L, i.e. when A_L has
exponent <= 2 (and, for the determinant-1 groups, when the rank is even).

(A_L, q_L) is the orthogonal sum of its p-primary parts (A_p, q_p) over
p | det (Nikulin 1979), so |O(q_L)| is the product of the |O(q_p)|, each
read off the invariants of the p-adic Jordan blocks of level >= 1 at its
own p: in closed form at odd p and for a cyclic 2-part, and down a
stabilizer chain on a non-cyclic 2-part, the only part built as a form,
from those invariants alone (no split Gram, so no precision contract with
`jordan`).  A form is held as generators of order p^level, by level, with
q and b as integer tables at the scale of its exponent; no `Fraction`.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from .density import _p_series_num
from .errors import FeasibilityError, PreconditionError
from .jordan import JordanBlock, JordanDecomposition
from .lattices import Lattice

ISOMETRY_ENUM_CAP = 10**5


class FiniteQuadraticForm(NamedTuple):
    """One p-primary part (A_p, q_p), A_p = prod Z/d_i, as integer tables at
    the scale n = lcm(orders), the exponent of A_p: the orders d_i of the
    generators g_i (powers of p, by level), q[i] = n q(g_i) mod 2n and
    b[i][j] = n b(g_i, g_j) mod n, so q(g_i) = q[i] / n in Q/2Z and
    b(g_i, g_j) = b[i][j] / n in Q/Z."""

    orders: tuple[int, ...]
    q: tuple[int, ...]
    b: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return prod(self.orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders)

    @property
    def is_trivial(self) -> bool:
        return not self.orders


# the even unimodular binaries over Z_2: hyperbolic (chi = +1) and the other one
_H = ((0, 1), (1, 0))
_V = ((2, 1), (1, 2))


def _two_part(blocks: list[JordanBlock]) -> FiniteQuadraticForm:
    """(A_2, q_2) of an even lattice from its 2-adic Jordan blocks 2^l U,
    l >= 1, in increasing l.  Each U is rebuilt from its invariants, which
    fix it up to isometry, as its planes (all H but one V when chi = -1)
    and then <u> per odd unit; |O(q_2)| is an isometry invariant.  A row of
    U gives a generator e_i / 2^l of order 2^l with b(e_i, e_j) =
    U_ij / 2^l mod 1 and q(e_i) = U_ii / 2^l mod 2, written at the exponent
    n = 2^(top level) as U_ij s mod n and U_ii s mod 2n, s = n / 2^l.

    The odd units come last: `_chain_count` rejects a candidate image of
    g_i outside its orbit only after a failed search over the generators
    after g_i, and an odd unit can have many (in `2*U + <-2> + E8(-2)` it
    is the characteristic element, fixed by every isometry, and 135 other
    elements share its order and q-value).  Placed first, it makes that
    lattice take over 10 s instead of 10 ms.
    """
    pieces = []  # (level, Gram of H, V or <u>)
    for block in blocks:
        planes = [_H] * ((block.rank - len(block.odd_units)) // 2)
        if block.chi < 0:
            planes[-1] = _V
        pieces += [(block.level, g) for g in planes + [((u,),) for u in block.odd_units]]
    n = 2 ** blocks[-1].level
    k = sum(len(g) for _, g in pieces)
    orders: list[int] = []
    q: list[int] = []
    bil = [[0] * k for _ in range(k)]
    for level, g in pieces:
        s, off = n >> level, len(orders)
        for i, row in enumerate(g):
            bil[off + i][off:off + len(row)] = [x * s % n for x in row]
            q.append(row[i] * s % (2 * n))
            orders.append(2**level)
    return FiniteQuadraticForm(tuple(orders), tuple(q), tuple(map(tuple, bil)))


def finite_isometry_order(decomps: list[JordanDecomposition]) -> int:
    """|O(A, q)| for the discriminant form of an even lattice, from its Jordan
    decompositions at the primes p dividing det: the product of the
    |O(A_p, q_p)|, since the parts are mutually orthogonal (Nikulin 1979).

    At odd p the count is closed form (`_odd_isometry_order`).  A cyclic
    2-part Z/2^k has q(g) = u/2^k with u odd, so x -> a x is an isometry iff
    a^2 = 1 mod 2^(k+1), iff a = +-1 mod 2^k: 1 isometry at k = 1, else 2.
    A non-cyclic 2-part is built as a form from the block invariants
    (`_two_part`) and counted down a stabilizer chain (`_chain_count`),
    whose bucket pass visits all |A_2| elements; the enumeration guard
    prices it by that pass.
    """
    count = 1
    for decomp in decomps:
        blocks = [b for b in decomp.blocks if b.level >= 1]
        if decomp.p != 2:
            count *= _odd_isometry_order(decomp.p, blocks)
        elif sum(b.rank for b in blocks) == 1:
            count *= 1 if blocks[0].level == 1 else 2
        else:
            form = _two_part(blocks)
            if form.order > ISOMETRY_ENUM_CAP:
                raise FeasibilityError(
                    f"isometry enumeration guard: the 2-part of A has "
                    f"|A_2| = {form.order} elements, more than {ISOMETRY_ENUM_CAP}"
                )
            count *= _chain_count(form)
    return count


def _odd_isometry_order(p: int, blocks: list[JordanBlock]) -> int:
    """|O(A_p, q_p)| at odd p from the Jordan blocks p^k U_k, k >= 1, of rank
    n_k, in increasing k (Nikulin 1979, section 1.9; Taylor, The Geometry of
    the Classical Groups):

        prod_k |O^{e_k}_{n_k}(F_p)| p^e,
        e = sum_k (k - 1) n_k (n_k - 1)/2 + sum_{i<j} min(k_i, k_j) n_i n_j,

    the isometries of the forms U_k mod p, lifted through the kernels of
    reduction mod p^k, and the homomorphisms between blocks.  With e_k the
    block's chi, |O_{2m+1}(F_p)| = 2 p^(m^2) prod_{i<=m} (p^(2i) - 1) and
    |O^e_{2m}(F_p)| = 2 p^(m(m-1)) (p^m - e) prod_{i<m} (p^(2i) - 1); a
    cyclic part (one block of rank 1) has the two isometries +-1.
    """
    count, e, below = 1, 0, 0  # below: sum of k_i n_i over the lower blocks
    for block in blocks:
        n, k = block.rank, block.level
        m, odd = divmod(n, 2)
        count *= 2 * _p_series_num(p, (n - 1) // 2)
        if not odd:
            count *= p**m - block.chi
        e += m * (m - 1 + odd) + (k - 1) * n * (n - 1) // 2 + below * n
        below += k * n
    return count * p**e


def _bucket(
    orders: tuple[int, ...], n: int, q: tuple[int, ...], b: tuple[tuple[int, ...], ...]
) -> dict[tuple[int, int], list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The elements x of A whose (order, n*q(x) mod 2n) is that of some
    generator, keyed by that pair, each as (x, B x mod n).

    Elements are built one coordinate at a time:
    q(x + t g_i) = q(x) + t^2 q(g_i) + 2t b(x, g_i), and (B x)_i is n*b(x, g_i).
    """
    k = len(orders)
    wanted = {(orders[i], q[i]) for i in range(k)}
    layer = [((), 0, 1, (0,) * k)]  # (x, n*q(x) mod 2n, order of x, B x mod n)
    for i, (d, qi, row) in enumerate(zip(orders, q, b)):
        step = [(t, t * t * qi, d // gcd(d, t), [t * v for v in row]) for t in range(d)]
        layer = [
            (x + (t,), (qx + tq + 2 * t * bx[i]) % (2 * n), lcm(ox, ot),
             tuple((u + v) % n for u, v in zip(bx, tb)))
            for x, qx, ox, bx in layer
            for t, tq, ot, tb in step
            if i < k - 1 or (lcm(ox, ot), (qx + tq + 2 * t * bx[i]) % (2 * n)) in wanted
        ]
    buckets: dict = {}
    for x, qx, ox, bx in layer:
        buckets.setdefault((ox, qx), []).append((x, bx))
    return buckets


def _complete(options: list, chosen: list, b: tuple[tuple[int, ...], ...], n: int) -> bool:
    """Extend `chosen`, images of g_i, ..., g_{i+len(chosen)-1} as (y, B y), by
    one image per remaining entry of `options` (the images already allowed
    by g_0, ..., g_{i-1}) so that b(y_l, y_j) = b(g_l, g_j); first
    completion found, in place, or False."""
    level = len(chosen)
    if level == len(options):
        return True
    base = len(b) - len(options)  # the level of options[0]
    row = b[base + level]
    for y, by in options[level]:
        if all(sum(map(mul, y, cb)) % n == row[base + j] for j, (_, cb) in enumerate(chosen)):
            chosen.append((y, by))
            if _complete(options, chosen, b, n):
                return True
            chosen.pop()
    return False


def _apply(sigma: list[tuple[int, ...]], x: tuple[int, ...], orders: tuple[int, ...]) -> tuple[int, ...]:
    """sigma(x) for sigma given by its columns: column c lists the c-th
    coordinates of the images of the generators."""
    return tuple(sum(map(mul, x, col)) % d for col, d in zip(sigma, orders))


def _close(orbit: set, gens: list, orders: tuple[int, ...]) -> None:
    """Grow `orbit`, closed under gens[:-1], until it is closed under gens."""
    fresh = [(y, gens[-1:]) for y in orbit]  # each point with the gens it still needs
    while fresh:
        y, todo = fresh.pop()
        for sigma in todo:
            z = _apply(sigma, y, orders)
            if z not in orbit:
                orbit.add(z)
                fresh.append((z, gens))


def _chain_count(form: FiniteQuadraticForm) -> int:
    """|O(A, q)| as prod_i |S_i g_i|, S_i the isometries fixing g_0..g_{i-1}.

    q and b are read as the form stores them, integers n q mod 2n and n b
    mod n at the exponent n of A.
    The candidates for S_i g_i are the elements with the order and q-value
    of g_i and b(x, g_j) = b(g_i, g_j) for j < i.  Levels run from the last
    generator up, so the isometries found below level i generate S_{i+1}.
    A candidate is in the orbit iff some complete assignment fixes
    g_0..g_{i-1} and sends g_i to it; every one found joins the generators,
    and the orbit is closed under them, so only candidates not yet reached
    are searched.  A complete assignment preserves q on the generators and
    b, hence q; it is injective because b is nondegenerate, so it is an
    automorphism.
    """
    if form.is_trivial:
        return 1
    orders, q, b = form.orders, form.q, form.b
    k = len(orders)
    n = form.exponent
    buckets = _bucket(orders, n, q, b)
    cands = [buckets.get((orders[l], q[l]), []) for l in range(k)]
    units = [tuple(int(j == i) for j in range(k)) for i in range(k)]
    # allowed[i][l - i]: the images of g_l for an isometry fixing g_0..g_{i-1}
    allowed = [cands]
    for i in range(1, k):
        allowed.append([[(y, by) for y, by in ys if by[i - 1] == b[l][i - 1]]
                        for l, ys in enumerate(allowed[-1][1:], start=i)])
    gens: list[list[tuple[int, ...]]] = []  # isometries found, as columns
    count = 1
    for i in reversed(range(k)):
        options = allowed.pop()
        orbit = {units[i]}
        for x, bx in options[0]:
            if x in orbit:
                continue
            chosen = [(x, bx)]
            if not _complete(options, chosen, b, n):
                continue
            images = units[:i] + [y for y, _ in chosen]
            gens.append([tuple(img[c] for img in images) for c in range(k)])
            _close(orbit, gens, orders)
        count *= len(orbit)
    return count


GROUP_TAGS = ("O", "O+", "SO+", "O~+", "SO~+")
STABLE_TAGS = ("O~+", "SO~+")


def _require_signature_two_n(lattice: Lattice) -> None:
    sig = lattice.signature
    if sig.positive != 2 or sig.negative < 1:
        raise PreconditionError("projective indices are defined for signature (2, n), n >= 1")


def stable_invariants(
    lattice: Lattice, decomps: list[JordanDecomposition]
) -> tuple[int, bool]:
    """(|O(q_L)|, whether A_L has exponent <= 2): the discriminant data every
    stable-group index needs, from `decomps`, the Jordan decompositions of L
    at (at least) every prime dividing det, in increasing p.  The blocks of
    level >= 1 at those primes must account for all of |det|, and A_L has
    exponent <= 2 iff they all sit at p = 2 and level 1.

    Requires an even signature-(2, n) lattice with a hyperbolic-plane direct
    summand (one class per genus, surjectivity onto O(q)).
    """
    _require_signature_two_n(lattice)
    if not lattice.is_even:
        raise PreconditionError("stable group tags need the discriminant form of an even lattice")
    if not lattice.has_hyperbolic_summand:
        raise PreconditionError(
            "stable-group indices assume a hyperbolic-plane direct summand "
            "(one class per genus, surjectivity onto O(q))"
        )
    decomps = [d for d in decomps if d.p in lattice.det_factors]
    if prod(d.p**d.det_valuation for d in decomps) != abs(lattice.det):
        raise PreconditionError("discriminant group order does not match |det|")
    two_elementary = all(d.p == 2 and b.level <= 1 for d in decomps for b in d.blocks)
    return finite_isometry_order(decomps), two_elementary


def index_and_minus_id(
    lattice: Lattice, tag: str, stable: tuple[int, bool] | None
) -> tuple[int, bool]:
    """([PO(L) : P(Gamma_tag)], whether -id lies in Gamma_tag).

    `stable` is `stable_invariants(lattice, ...)`; it is read only for the stable
    tags and may be None otherwise.  Vertical steps (plus condition,
    determinant condition) have index 2 and the horizontal step (stability)
    index N = |O(q_L)|; passing to projective groups doubles the index
    exactly when -id lies in the subgroup: -id is in O+ always (signature
    (2, n)), in the determinant-1 groups iff the rank is even, and in the
    stable groups iff A_L has exponent <= 2.
    """
    if tag not in GROUP_TAGS:
        raise PreconditionError(f"unknown group tag {tag!r}")
    if tag == "O":
        return 1, True
    _require_signature_two_n(lattice)
    even_rank = lattice.rank % 2 == 0
    if tag == "O+":
        return 2, True
    if tag == "SO+":
        return (4, True) if even_rank else (2, False)
    n_iso, two_elementary = stable
    if tag == "O~+":
        return (2 * n_iso, True) if two_elementary else (n_iso, False)
    # SO~+
    return (4 * n_iso, True) if (two_elementary and even_rank) else (2 * n_iso, False)
