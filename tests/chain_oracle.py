"""The stabilizer-chain count of |O(q_p)|, the test oracle for the program's
`finite_isometry_order`, which reads |O(q_p)| off the local density.

A p-part (A_p, q_p) is held as a `FiniteQuadraticForm`: generators of order
p^level, by level, with q and b as integer tables at the scale of its
exponent; no `Fraction`.  `two_part` builds the 2-part of an even lattice
from the invariants of its 2-adic Jordan blocks, and `chain_count` counts
the isometries of any part down a stabilizer chain.  The chain visits every
element of A_p once (`_bucket`), so its cost grows with |A_p|; the tests
keep to parts it counts in well under a second.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from hmvol.jordan import JordanBlock


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


def two_part(blocks: list[JordanBlock]) -> FiniteQuadraticForm:
    """(A_2, q_2) of an even lattice from its 2-adic Jordan blocks 2^l U,
    l >= 1, in increasing l.  Each U is rebuilt from its invariants, which
    fix it up to isometry, as its planes (all H but one V when chi = -1)
    and then <u> per odd unit; |O(q_2)| is an isometry invariant.  A row of
    U gives a generator e_i / 2^l of order 2^l with b(e_i, e_j) =
    U_ij / 2^l mod 1 and q(e_i) = U_ii / 2^l mod 2, written at the exponent
    n = 2^(top level) as U_ij s mod n and U_ii s mod 2n, s = n / 2^l.

    The odd units come last: `chain_count` rejects a candidate image of
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


def chain_count(form: FiniteQuadraticForm) -> int:
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
