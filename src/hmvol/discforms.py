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
p | det (Nikulin 1979), so |O(q_L)| is the product of the |O(q_p)|.  Each
is read off the local density alpha_p(L) that the volume already needs,
with its level-0 factor removed (`finite_isometry_order`); no form is
built and nothing is enumerated.
"""

from __future__ import annotations

from math import prod

from .density import LocalDensity, _p_series_num
from .errors import InternalCheckError, PreconditionError
from .jordan import JordanDecomposition
from .lattices import Lattice


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


GROUP_TAGS = ("O", "O+", "SO+", "O~+", "SO~+")
STABLE_TAGS = ("O~+", "SO~+")


def _require_signature_two_n(lattice: Lattice) -> None:
    sig = lattice.signature
    if sig.positive != 2 or sig.negative < 1:
        raise PreconditionError("projective indices are defined for signature (2, n), n >= 1")


def stable_invariants(
    lattice: Lattice, decomps: list[JordanDecomposition], densities: list[LocalDensity]
) -> tuple[int, bool]:
    """(|O(q_L)|, whether A_L has exponent <= 2): the discriminant data every
    stable-group index needs, from `decomps`, the Jordan decompositions of L
    at (at least) every prime dividing det, in increasing p, and `densities`,
    the alpha_p(L) read off them, in the same order.  The blocks of
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
    parts = [(d, a) for d, a in zip(decomps, densities, strict=True) if d.p in lattice.det_factors]
    if prod(d.p**d.det_valuation for d, _ in parts) != abs(lattice.det):
        raise PreconditionError("discriminant group order does not match |det|")
    two_elementary = all(d.p == 2 and b.level <= 1 for d, _ in parts for b in d.blocks)
    return finite_isometry_order(parts), two_elementary


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
