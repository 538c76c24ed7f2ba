"""Jordan decomposition of an integral lattice over the p-adic integers.

The Gram matrix is split by symmetric elimination with a minimal-valuation
pivot, by one rule at every p: a diagonal minimum splits off a rank-1
piece, and an off-diagonal minimum b (every diagonal entry of higher
valuation) splits off the 2x2 piece it spans, whose determinant is -b^2
times a unit, so it is p^(2v)-modular; division by 2 never occurs.  One
scan of the remaining block picks the pivot, returning at the first
diagonal unit; the elimination keeps only that remaining (active) block,
so every row and column update runs over the active indices alone.

A direct sum is split one summand at a time: `jordan_decompose` splits each
distinct summand Gram once and concatenates the pieces.  On a
block-diagonal Gram the elimination never mixes blocks, and its pivot rule
restricted to one block picks what it would pick on that block alone, so
the split of the whole Gram is an interleaving of the summand splits; each
invariant of a level is a product or a sorted multiset of piece data, so
the interleaving does not matter.  Only the non-unimodular atoms bring bad
primes.

A summand unimodular at p (p does not divide its det; at p = 2 it must also
be even, such as U or E8(-1)) is not split at all: its pieces would all
land in level 0, and it gives level 0 only its rank and det.  At odd p a
level's unit class is the product of its pieces' determinants, and the det
joins that product at level 0.  At p = 2 its split would be even 2x2
pieces with product of determinants = det mod 8, each of class 7 (chi +1)
or 3 (chi -1), so it multiplies the level-0 chi by kronecker(det, 2).

All arithmetic runs modulo p^M with M = 2 v_p(det) + 8, det that of the
whole lattice, also when a summand is split on its own.  Each step is one
congruence, exact mod p^M: the rest of the active block becomes its Schur
complement through the piece's inverse, which exists because the piece
divided by p^v is invertible mod p (Conway-Sloane, SPLAG ch. 15 section 7).
So a piece of level l is known mod p^(M-l), at least v_p(det) + 8 digits,
which fix unit classes mod p (mod 8 at p = 2).  The precision ledger (a
piece of level l costs l digits, a 2x2 piece 2l, and every pivot keeps 4
above its level) never runs dry at M, as the levels sum to v_p(det); it is
still checked, as a hard error rather than a silent wrong answer.

At p = 2, `_assemble` compresses each block's odd part to at most two units
by the classical unit relation (Conway-Sloane, SPLAG ch. 15 section 7)

    <a> + <b> + <c>  ~  <a+b+c> + (even binary of determinant abc/(a+b+c))

over Z_2; its correctness is enforced empirically by the density oracle
tests, not assumed.

A block is only its invariants (level, rank, chi, odd_units): the density
and the discriminant form read nothing else, so no split Gram leaves this
module and its working precision is no other module's concern.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .arith import is_prime, kronecker, valuation
from .errors import InternalCheckError, PreconditionError
from .lattices import Lattice

_MIN_UNIT_PRECISION = 4


class JordanBlock(NamedTuple):
    """One constituent p^level U of the decomposition, as its invariants.

    At odd p, chi is the Legendre symbol of (-1)^(rank/2) det U (0 at odd
    rank) and odd_units is empty; they fix U up to isometry at even rank
    and up to a unit scaling at odd rank.  At p = 2, odd_units are the odd
    part's units mod 8, compressed to at most two and sorted, and chi is
    the chi of the even part after compression (+1 for the empty even
    part): a sum of hyperbolic planes H, with one V = [2,1;1,2] when
    chi = -1, of rank rank - len(odd_units).  These fix U up to isometry
    over Z_2 (Conway-Sloane, SPLAG ch. 15 section 7).
    """

    level: int
    rank: int
    chi: int
    odd_units: tuple[int, ...]


class JordanDecomposition(NamedTuple):
    p: int
    blocks: tuple[JordanBlock, ...]

    @property
    def total_rank(self) -> int:
        return sum(b.rank for b in self.blocks)

    @property
    def det_valuation(self) -> int:
        return sum(b.level * b.rank for b in self.blocks)


def _pivot_entry(m, p: int):
    """(vmin, i, j): the pivot of the remaining block m.

    vmin is the least valuation of a nonzero entry.  The pivot is the first
    diagonal entry of valuation vmin if there is one, else the first
    off-diagonal entry of valuation vmin in row-major order; by symmetry
    that one lies above the diagonal, so only i < j is scanned, and an
    entry is valued only when it is not divisible by p^(best so far).  The
    search returns at the first unit, so a diagonal unit ends it at once.
    vmin is None if every entry is 0.
    """
    n = len(m)
    best, where = None, None
    for k in range(n):
        x = m[k][k]
        if x and (best is None or x % p**best):
            best, where = valuation(x, p), (k, k)
            if best == 0:
                return 0, k, k
    bound = None if best is None else p**best
    for i in range(n):
        row = m[i]
        for j in range(i + 1, n):
            x = row[j]
            if x and (bound is None or x % bound):
                best, where = valuation(x, p), (i, j)
                if best == 0:
                    return 0, i, j
                bound = p**best
    if where is None:
        return None, 0, 0
    return (best, *where)


def _split_pieces(gram, p: int, modulus_exp: int):
    """Symmetric elimination over Z/p^M; returns [(level, piece_gram), ...].

    piece_gram is a 1x1 [u] with u a unit, or a 2x2 matrix with unit
    off-diagonal and diagonal divisible by p, both already divided by
    p^level.  `m` is always the remaining (active) block, as residues mod
    p^M, and `_pivot_entry` picks every pivot.  One step serves both
    shapes: with p^v P the pivot block and p^v c_k the pivot columns of
    row k, row k becomes row k - c_k P^-1 (pivot rows), P^-1 = adj(P) /
    det(P) mod p^M, and the pivot rows and columns, now 0 mod p^M, are
    dropped.  Raises InternalCheckError if the precision ledger runs dry.
    """
    pM = p**modulus_exp
    m = [[x % pM for x in row] for row in gram]
    pieces = []
    budget = modulus_exp

    while m:
        vmin, i, j = _pivot_entry(m, p)
        if vmin is None or budget - vmin < _MIN_UNIT_PRECISION:
            raise InternalCheckError("p-adic precision exhausted in the Jordan split")
        pv = p**vmin
        # shape-specific: the piece P, its det and w_a = (row a of adj P) (pivot rows)
        if i == j:
            piv = (i,)
            piece = [[m[i][i] // pv]]
            det, ws = piece[0][0], [m[i]]
        else:
            piv = (j, i)  # later index first, so deleting it leaves i in place
            ri, rj = m[i], m[j]
            a, b, c = ri[i] // pv, ri[j] // pv, rj[j] // pv
            piece = [[a, b], [b, c]]
            det = a * c - b * b
            if det % p == 0:
                raise InternalCheckError("2x2 pivot block is not p^(2v)-modular")
            ws = [[(a * y - b * x) % pM for x, y in zip(ri, rj)],
                  [(c * x - b * y) % pM for x, y in zip(ri, rj)]]
        pieces.append((vmin, piece))
        budget -= vmin * len(piv)  # conservative ledger
        for k in piv:
            del m[k]
        if not m:
            break
        # row k -= sum_a c_ka det^-1 w_a, one pivot index a at a time: w_a
        # is p^v det at pivot column a and 0 at the other, so column a of
        # row k still holds p^v c_ka when its turn comes
        inv_det = pow(det, -1, pM)
        for k, w in zip(piv, ws):
            for u in ws:
                del u[k]
            for r, row in enumerate(m):
                ck = row.pop(k) // pv * inv_det % pM
                if ck:
                    m[r] = [(x - ck * y) % pM for x, y in zip(row, w)]
    return pieces


def _det(piece) -> int:
    """Determinant of a split piece: u for [u], ac - b^2 for [a, b; b, c]."""
    return piece[0][0] if len(piece) == 1 else piece[0][0] * piece[1][1] - piece[0][1] ** 2


def _even_chi(det8: int) -> int:
    """chi of a 2-adic even unimodular binary from its determinant mod 8:
    +1 (hyperbolic) for 7, -1 for 3."""
    if det8 == 7:
        return 1
    if det8 == 3:
        return -1
    raise InternalCheckError(f"even binary determinant {det8} mod 8 is not a unit of even type")


def _two_adic_invariants(pieces) -> tuple[int, tuple[int, ...]]:
    """(chi, odd_units) of a 2-adic block from its split pieces.

    The odd units, sorted mod 8, are compressed while more than two remain:
    the first three a, b, c become the single unit a+b+c and an even binary
    of determinant class abc/(a+b+c) mod 8, whose chi joins the even part's.
    """
    chi = 1
    units = []
    for pc in pieces:
        if len(pc) == 1:
            units.append(pc[0][0] % 8)
        else:
            chi *= _even_chi(_det(pc) % 8)
    units.sort()
    while len(units) > 2:
        a, b, c = units[:3]
        e = (a + b + c) % 8
        chi *= _even_chi(a * b * c * pow(e, -1, 8) % 8)
        units = sorted([e] + units[3:])
    return chi, tuple(units)


def _assemble(pieces_by_level, p: int,
              unimodular: tuple[int, int] = (0, 1)) -> tuple[JordanBlock, ...]:
    """The blocks from the split pieces of each level, plus `unimodular`:
    (rank, det) of the summands added to level 0 without a split (an even
    one at p = 2), whose det is a unit at p."""
    extra_rank, extra_det = unimodular
    blocks = []
    for level in sorted({*pieces_by_level, *([0] if extra_rank else [])}):
        pieces = pieces_by_level.get(level, ())
        rank = sum(len(pc) for pc in pieces)
        det_unit = 1
        if level == 0:
            rank += extra_rank
            det_unit = extra_det
        if p == 2:
            chi, odd_units = _two_adic_invariants(pieces)
            # the even split of the unsplit part has prod det_i = det mod 8,
            # and _even_chi(d) = kronecker(d, 2) for d = 3, 7 mod 8
            chi *= kronecker(det_unit, 2)
        else:
            odd_units = ()
            # the unit class is the product of the pieces' determinants
            det_unit *= prod(_det(pc) % p for pc in pieces)
            chi = 0 if rank % 2 else kronecker((-1) ** (rank // 2) * det_unit, p)
        blocks.append(JordanBlock(level, rank, chi, odd_units))
    return tuple(blocks)


def jordan_decompose(lattice: Lattice, p: int) -> JordanDecomposition:
    """Jordan decomposition of L over Z_p, one block per level; at p = 2
    each block carries its compressed odd part and even-part chi.  A direct
    sum is split once per distinct summand Gram, at L's precision, except
    that a summand unimodular at p (and even, at p = 2) only adds its rank
    and det to level 0."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    vdet = valuation(lattice.det, p)
    splits = {}
    by_level: dict[int, list] = {}
    unimodular_rank, unimodular_det = 0, 1
    for part in lattice.summands or (lattice,):
        if part.det % p and (p != 2 or part.is_even):
            unimodular_rank += part.rank
            unimodular_det = unimodular_det * part.det % (8 * p)
            continue
        if part.gram not in splits:
            splits[part.gram] = _split_pieces(part.gram, p, 2 * vdet + 8)
        for level, piece in splits[part.gram]:
            by_level.setdefault(level, []).append(piece)
    decomp = JordanDecomposition(
        p, _assemble(by_level, p, (unimodular_rank, unimodular_det)))
    if decomp.total_rank != lattice.rank:
        raise InternalCheckError("Jordan blocks do not exhaust the rank")
    if decomp.det_valuation != vdet:
        raise InternalCheckError(
            f"valuation identity failed: sum j*n_j = {decomp.det_valuation}, "
            f"v_p(det) = {vdet}"
        )
    return decomp
