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
N is counted one p-primary part of A_L at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import arith
from .errors import FeasibilityError, PreconditionError
from .lattices import Lattice

ISOMETRY_ENUM_CAP = 10**5


def num_prime_divisors(d: int) -> int:
    """rho(d): number of distinct prime divisors; rho(1) = 0."""
    if d < 1:
        raise PreconditionError("expects a positive integer")
    return len(arith.factorize(d)) if d > 1 else 0


def _smith_normal_form(mat: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Smith normal form with right transform: returns (diag, V) with
    U M V = diag(d_1 | d_2 | ...) for some unimodular U; only V is tracked."""
    n = len(mat)
    m = [row[:] for row in mat]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_op(j, k, f):  # C_j -= f * C_k
        for row in m:
            row[j] -= f * row[k]
        for row in v:
            row[j] -= f * row[k]

    def col_swap(j, k):
        for row in m:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    def row_op(i, k, f):  # R_i -= f * R_k
        for j in range(n):
            m[i][j] -= f * m[k][j]

    def row_swap(i, k):
        m[i], m[k] = m[k], m[i]

    for t in range(n):
        while True:
            # move a minimal nonzero entry of the trailing block to (t, t)
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                raise PreconditionError("matrix is singular")
            bi, bj = best
            if bi != t:
                row_swap(bi, t)
            if bj != t:
                col_swap(bj, t)
            dirty = False
            for i in range(t + 1, n):
                f = m[i][t] // m[t][t]
                if f:
                    row_op(i, t, f)
                if m[i][t]:
                    dirty = True
            for j in range(t + 1, n):
                f = m[t][j] // m[t][t]
                if f:
                    col_op(j, t, f)
                if m[t][j]:
                    dirty = True
            if dirty:
                continue
            # enforce divisibility d_t | trailing entries
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if m[i][j] % m[t][t]:
                        offender = (i, j)
                        break
                if offender:
                    break
            if offender is None:
                break
            col_op(t, offender[1], -1)  # mixes the offending column into column t
    diag = [abs(m[i][i]) for i in range(n)]
    return diag, v


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """(A, q): generator orders d_1 | d_2 | ..., q-values in Q/2Z on the
    generators, and the bilinear values in Q/Z."""

    orders: tuple[int, ...]
    q_values: tuple[Fraction, ...]
    bilinear: tuple[tuple[Fraction, ...], ...]

    @property
    def order(self) -> int:
        out = 1
        for d in self.orders:
            out *= d
        return out

    @property
    def is_trivial(self) -> bool:
        return not self.orders

    @property
    def is_two_elementary(self) -> bool:
        """Exponent <= 2: every generator order divides 2."""
        return all(d <= 2 for d in self.orders)

    def element_order(self, x: tuple[int, ...]) -> int:
        out = 1
        for xi, di in zip(x, self.orders):
            out = lcm(out, di // gcd(di, xi))
        return out

    def q_of(self, x: tuple[int, ...]) -> Fraction:
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            total += x[i] * x[i] * self.q_values[i]
            for j in range(i + 1, k):
                total += 2 * x[i] * x[j] * self.bilinear[i][j]
        return total % 2

    def b_of(self, x: tuple[int, ...], y: tuple[int, ...]) -> Fraction:
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            for j in range(k):
                total += x[i] * y[j] * self.bilinear[i][j]
        return total % 1

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))


def discriminant_form(lattice: Lattice) -> FiniteQuadraticForm:
    """(A_L, q_L) for an even lattice, from the Smith normal form of the Gram
    matrix; q on generators comes from the dual pairing (inverse Gram)."""
    if not lattice.is_even:
        raise PreconditionError("discriminant form requires an even lattice")
    diag, v = _smith_normal_form([list(r) for r in lattice.gram])
    n = lattice.rank
    # M_q[i][j] = (g_i, g_j) for generators g_i = (V e_i)/d_i
    keep = [i for i in range(n) if diag[i] > 1]
    q_vals = []
    bil = [[Fraction(0)] * len(keep) for _ in keep]
    for a, i in enumerate(keep):
        vi = [v[r][i] for r in range(n)]
        gvi = [sum(lattice.gram[r][c] * vi[c] for c in range(n)) for r in range(n)]
        for b, j in enumerate(keep):
            vj = [v[r][j] for r in range(n)]
            pairing = Fraction(sum(gvi[r] * vj[r] for r in range(n)), diag[i] * diag[j])
            bil[a][b] = pairing % 1
            if a == b:
                q_vals.append(pairing % 2)
    form = FiniteQuadraticForm(tuple(diag[i] for i in keep), tuple(q_vals), tuple(map(tuple, bil)))
    if form.order != abs(lattice.det):
        raise PreconditionError("discriminant group order does not match |det|")
    return form


def _p_parts(form: FiniteQuadraticForm) -> list[tuple[int, FiniteQuadraticForm]]:
    """The p-primary parts (p, (A_p, q_p)) of (A, q), in increasing p.

    A generator g of order d gives the generator c*g of A_p, of order
    p^e = p^(v_p(d)) with c = d / p^e; q and b scale by c^2 and c*c'."""
    factored = [arith.factorize(d) for d in form.orders]
    parts = []
    for p in sorted({p for f in factored for p in f}):
        gens = sorted(  # (p^e, c, index of g)
            (p ** f[p], d // p ** f[p], i)
            for i, (d, f) in enumerate(zip(form.orders, factored)) if p in f
        )
        parts.append((p, FiniteQuadraticForm(
            tuple(pe for pe, _, _ in gens),
            tuple(c * c * form.q_values[i] % 2 for _, c, i in gens),
            tuple(tuple(c * c2 * form.bilinear[i][j] % 1 for _, c2, j in gens) for _, c, i in gens),
        )))
    return parts


def finite_isometry_order(form: FiniteQuadraticForm) -> int:
    """|O(A, q)| as the product of |O(A_p, q_p)| over the p-primary parts,
    which are mutually orthogonal (Nikulin 1979).

    A cyclic part at odd p has exactly the isometries +1 and -1; every other
    part is enumerated (`_count_isometries`), and the enumeration guard
    prices each such part by its order |A_p|, the number of elements the
    enumeration visits.
    """
    count = 1
    enumerated = []
    for p, part in _p_parts(form):
        if p != 2 and len(part.orders) == 1:
            count *= 2
        elif part.order > ISOMETRY_ENUM_CAP:
            raise FeasibilityError(
                f"isometry enumeration guard: the {p}-part of A has "
                f"|A_{p}| = {part.order} elements, more than {ISOMETRY_ENUM_CAP}"
            )
        else:
            enumerated.append(part)
    for part in enumerated:
        count *= _count_isometries(part)
    return count


def _count_isometries(form: FiniteQuadraticForm) -> int:
    """|O(A, q)| by brute-force enumeration of generator images.

    Candidates are pruned by element order and q-value, then by bilinear
    compatibility with previously chosen images.  Every complete assignment
    is an automorphism: it preserves the nondegenerate b, so its kernel lies
    in the radical of b and is zero, and an injective endomorphism of a
    finite group is bijective.
    """
    if form.is_trivial:
        return 1
    k = len(form.orders)
    buckets: dict[tuple[int, Fraction], list[tuple[int, ...]]] = {}
    for x in form.elements():
        buckets.setdefault((form.element_order(x), form.q_of(x)), []).append(x)
    candidates = [buckets.get((form.orders[i], form.q_values[i]), []) for i in range(k)]

    chosen: list[tuple[int, ...]] = []

    def extend(i: int) -> int:
        if i == k:
            return 1
        count = 0
        for cand in candidates[i]:
            if all(form.b_of(cand, chosen[j]) == form.bilinear[i][j] % 1 for j in range(i)):
                chosen.append(cand)
                count += extend(i + 1)
                chosen.pop()
        return count

    return extend(0)


def minus_id_in_tilde(lattice: Lattice) -> bool:
    """Whether -id acts trivially on the discriminant group, i.e. lies in the
    stable orthogonal group: true exactly when A_L has exponent <= 2 (every
    generator order divides 2)."""
    return discriminant_form(lattice).is_two_elementary


GROUP_TAGS = ("O", "O+", "SO+", "O~+", "SO~+")
STABLE_TAGS = ("O~+", "SO~+")


def _require_signature_two_n(lattice: Lattice) -> None:
    sig = lattice.signature
    if sig.positive != 2 or sig.negative < 1:
        raise PreconditionError("projective indices are defined for signature (2, n), n >= 1")


def stable_invariants(lattice: Lattice) -> tuple[int, bool]:
    """(|O(q_L)|, whether A_L has exponent <= 2): the discriminant data every
    stable-group index needs, from one discriminant form.

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
    form = discriminant_form(lattice)
    return finite_isometry_order(form), form.is_two_elementary


def index_and_minus_id(
    lattice: Lattice, tag: str, stable: tuple[int, bool] | None
) -> tuple[int, bool]:
    """([PO(L) : P(Gamma_tag)], whether -id lies in Gamma_tag).

    `stable` is `stable_invariants(lattice)`; it is read only for the stable
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


def projective_index(lattice: Lattice, tag: str) -> int:
    """[PO(L) : P(Gamma_tag)] for the group diagram of a signature-(2,n)
    lattice; the stable tags need an even lattice with a hyperbolic-plane
    direct summand (see `index_and_minus_id`)."""
    stable = stable_invariants(lattice) if tag in STABLE_TAGS else None
    return index_and_minus_id(lattice, tag, stable)[0]
