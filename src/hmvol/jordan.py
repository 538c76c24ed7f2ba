"""Jordan decomposition of an integral lattice over the p-adic integers.

For odd p the Gram matrix is diagonalized by symmetric elimination with a
minimal-valuation pivot; an off-diagonal minimum is surfaced onto the
diagonal by a row/column addition (2 is a unit).  For p = 2 a diagonal
minimum splits off a rank-1 (odd) piece and an off-diagonal minimum splits
off a 2x2 even piece; division by 2 never occurs.  The pivot is the first
diagonal unit when there is one, else found by one scan of the remaining
block; the elimination keeps only that remaining (active) block, so every
row and column update runs over the active indices alone.

All arithmetic runs modulo p^M with M = 2 v_p(det) + 8; a conservative
precision ledger guarantees unit classes (mod p for odd p, mod 8 for p = 2)
stay exact, and the decomposition retries with doubled precision if the
ledger ever drops too low (it cannot for nonsingular input, but the guard is
kept as a hard error rather than a silent wrong answer).

The 2-adic odd parts are afterwards compressed to rank <= 2 by the classical
unit relation

    <a> + <b> + <c>  ~  <a+b+c> + (even binary of determinant abc/(a+b+c))

over Z_2; its correctness is enforced empirically by the density oracle
tests, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .arith import is_prime, legendre, valuation
from .errors import InternalCheckError, PreconditionError
from .lattices import Lattice

_MIN_UNIT_PRECISION = 4


@dataclass(frozen=True)
class TwoAdicData:
    """Even/odd split of a 2-adic unimodular block.

    odd_units are diagonal units mod 8; after normalization at most two
    remain.  chi_even is the chi invariant of the even part (+1 for the empty
    part, the empty sum of hyperbolic planes).
    """

    even_rank: int
    chi_even: int
    odd_units: tuple[int, ...]

    @property
    def is_even(self) -> bool:
        return not self.odd_units



@dataclass(frozen=True)
class JordanBlock:
    level: int
    rank: int
    unit_gram: tuple[tuple[int, ...], ...]
    chi: int
    two_adic: Optional[TwoAdicData] = None


@dataclass(frozen=True)
class JordanDecomposition:
    p: int
    blocks: tuple[JordanBlock, ...]
    working_precision: int
    normalized: bool

    @property
    def total_rank(self) -> int:
        return sum(b.rank for b in self.blocks)

    @property
    def det_valuation(self) -> int:
        return sum(b.level * b.rank for b in self.blocks)


class _PrecisionExhausted(Exception):
    pass


def _pivot_entry(m, p: int):
    """(vmin, i, j): the pivot of the remaining block m when no diagonal
    entry is a unit.

    vmin is the least valuation of a nonzero entry.  The pivot is the first
    diagonal entry of valuation vmin if there is one, else the first
    off-diagonal entry of valuation vmin in row-major order; by symmetry
    that one lies above the diagonal, so only i < j is scanned, and an
    entry is valued only when it is not divisible by p^(best so far).
    Raises _PrecisionExhausted if every entry is 0.
    """
    n = len(m)
    best, where = None, None
    for k in range(n):
        x = m[k][k]
        if x and (best is None or x % p**best):
            best, where = valuation(x, p), (k, k)
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
        raise _PrecisionExhausted
    return (best, *where)


def _split_pieces(gram, p: int, modulus_exp: int):
    """Symmetric elimination over Z/p^M; returns [(level, piece_gram), ...].

    piece_gram is a 1x1 [u] with u a unit, or (p = 2 only) a 2x2 matrix with
    unit off-diagonal and even diagonal, both already divided by p^level.
    `m` is always the remaining (active) block, as residues mod p^M: rows
    and columns of split-off pieces are dropped, since no later step reads
    them, and every update runs over the remaining block only.  The first
    diagonal unit, if any, is the pivot; otherwise `_pivot_entry` scans.
    Raises _PrecisionExhausted if the precision ledger runs dry.
    """
    pM = p**modulus_exp
    m = [[x % pM for x in row] for row in gram]
    pieces = []
    budget = modulus_exp

    while m:
        i = next((k for k, row in enumerate(m) if row[k] % p), None)
        if i is not None:
            vmin, j = 0, i
        else:
            vmin, i, j = _pivot_entry(m, p)
        if budget - vmin < _MIN_UNIT_PRECISION:
            raise _PrecisionExhausted
        pv = p**vmin

        if p != 2 and i != j:
            # surface a diagonal pivot; one of R_i +/- R_j has valuation vmin
            cand = (m[i][i] + 2 * m[i][j] + m[j][j]) % pM
            sign = 1 if cand % (pv * p) else -1
            m[i] = [(x + sign * y) % pM for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] = (row[i] + sign * row[j]) % pM
            j = i

        if i == j:
            # after the row updates column i of the rest is 0 mod p^M, so
            # the matching column updates would change only row i
            prow = m.pop(i)
            unit = prow.pop(i) // pv
            inv_unit = pow(unit, -1, pM)
            for k, row in enumerate(m):
                ck = ((row.pop(i) // pv) * inv_unit) % pM
                if ck:
                    m[k] = [(x - ck * y) % pM for x, y in zip(row, prow)]
            pieces.append((vmin, [[unit]]))
            budget -= vmin  # conservative ledger
        else:
            # p = 2, minimal valuation strictly off-diagonal: even 2x2 split
            a, b, c = m[i][i], m[i][j], m[j][j]
            det2 = (a * c - b * b) % pM
            if det2 == 0 or valuation(det2, p) != 2 * vmin:
                raise InternalCheckError("2x2 pivot block is not p^(2v)-modular")
            pd = pv * pv
            inv_det = pow(det2 // pd, -1, pM)
            rest = [k for k in range(len(m)) if k != i and k != j]
            ri = [m[i][k] for k in rest]
            rj = [m[j][k] for k in rest]
            # row k -= alpha_k R_i + beta_k R_j clears columns i, j of row k
            # up to the precision lost in dividing by det2; the column
            # operations then use those residues rx_k, ry_k
            coeffs = []
            for k in rest:
                x, y = m[k][i], m[k][j]
                alpha = ((((x * c - y * b) % pM) // pd) * inv_det) % pM
                beta = ((((y * a - x * b) % pM) // pd) * inv_det) % pM
                coeffs.append((alpha, beta,
                               (x - alpha * a - beta * b) % pM,
                               (y - alpha * b - beta * c) % pM))
            rows = []
            for k, (alpha, beta, rx, ry) in zip(rest, coeffs):
                row = [m[k][l] for l in rest]
                if alpha or beta or rx or ry:  # else both updates leave row k
                    row = [(x - alpha * u - beta * w - al * rx - bl * ry) % pM
                           for x, u, w, (al, bl, _, _) in zip(row, ri, rj, coeffs)]
                rows.append(row)
            m = rows
            pieces.append((vmin, [[a // pv, b // pv], [b // pv, c // pv]]))
            budget -= 2 * vmin
    return pieces


def _chi_even_piece(piece) -> int:
    """chi of a 2-adic even binary piece from its determinant class mod 8."""
    d = (piece[0][0] * piece[1][1] - piece[0][1] * piece[1][0]) % 8
    if d == 7:
        return 1
    if d == 3:
        return -1
    raise InternalCheckError(f"even binary determinant {d} mod 8 is not a unit of even type")


def _block_diag(pieces):
    n = sum(len(pc) for pc in pieces)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for pc in pieces:
        k = len(pc)
        for a in range(k):
            for b in range(k):
                rows[off + a][off + b] = pc[a][b]
        off += k
    return tuple(tuple(r) for r in rows)


def _assemble(pieces_by_level, p: int, report_exp: int) -> tuple[JordanBlock, ...]:
    pR = p**report_exp
    blocks = []
    for level in sorted(pieces_by_level):
        pieces = pieces_by_level[level]
        rank = sum(len(pc) for pc in pieces)
        reduced = [[[x % pR for x in row] for row in pc] for pc in pieces]
        if p != 2:
            units = [pc[0][0] for pc in reduced]
            if rank % 2:
                chi = 0
            else:
                det_unit = 1
                for u in units:
                    det_unit = det_unit * u % p
                chi = legendre((-1) ** (rank // 2) * det_unit, p)
            blocks.append(JordanBlock(level, rank, _block_diag(reduced), chi, None))
        else:
            odd_units = []
            even_rank = 0
            chi_even = 1
            for pc in reduced:
                if len(pc) == 1:
                    odd_units.append(pc[0][0] % 8)
                else:
                    even_rank += 2
                    chi_even *= _chi_even_piece(pc)
            data = TwoAdicData(even_rank, chi_even, tuple(odd_units))
            blocks.append(JordanBlock(level, rank, _block_diag(reduced), chi_even, data))
    return tuple(blocks)


def jordan_decompose(lattice: Lattice, p: int) -> JordanDecomposition:
    """Jordan decomposition of L over Z_p.

    For p = 2 the result is in raw split form (each block a sum of rank-1 odd
    and rank-2 even pieces); apply `two_adic_normalize` to compress odd parts
    to rank <= 2 before feeding density formulas.
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    vdet = valuation(lattice.det, p)
    report_exp = vdet + 3
    modulus_exp = 2 * vdet + 8
    for _ in range(6):
        try:
            raw = _split_pieces(lattice.gram, p, modulus_exp)
            break
        except _PrecisionExhausted:  # pragma: no cover - ledger is conservative
            modulus_exp *= 2
    else:  # pragma: no cover
        raise InternalCheckError("p-adic precision kept collapsing; giving up")
    by_level: dict[int, list] = {}
    for level, piece in raw:
        by_level.setdefault(level, []).append(piece)
    blocks = _assemble(by_level, p, report_exp)
    decomp = JordanDecomposition(p, blocks, report_exp, normalized=(p != 2))
    if decomp.total_rank != lattice.rank:
        raise InternalCheckError("Jordan blocks do not exhaust the rank")
    if decomp.det_valuation != vdet:
        raise InternalCheckError(
            f"valuation identity failed: sum j*n_j = {decomp.det_valuation}, "
            f"v_p(det) = {vdet}"
        )
    return decomp


def _canonical_even_gram(even_rank: int, chi_even: int):
    """Canonical even part: hyperbolic planes, the last one replaced by the
    non-hyperbolic binary when chi is -1."""
    pieces = []
    for k in range(even_rank // 2):
        last = k == even_rank // 2 - 1
        pieces.append([[2, 1], [1, 2]] if (last and chi_even == -1) else [[0, 1], [1, 0]])
    return pieces


def two_adic_normalize(decomp: JordanDecomposition) -> JordanDecomposition:
    """Compress every 2-adic odd part to rank <= 2.

    Three odd units a, b, c are replaced by the single unit a+b+c together
    with an even binary of determinant class abc/(a+b+c) mod 8 (hyperbolic
    for class 7, non-hyperbolic for class 3).  Rank and determinant class are
    preserved; the resulting invariants are exactly the ones the 2-adic
    density formula consumes.
    """
    if decomp.p != 2:
        raise PreconditionError("two_adic_normalize applies to p = 2 only")
    if decomp.normalized:
        return decomp
    new_blocks = []
    for block in decomp.blocks:
        data = block.two_adic
        units = sorted(data.odd_units)
        even_rank = data.even_rank
        chi_even = data.chi_even
        while len(units) > 2:
            a, b, c = units[:3]
            e = (a + b + c) % 8
            delta = a * b * c * pow(e, -1, 8) % 8
            if delta == 3:
                chi_even = -chi_even
            elif delta != 7:
                raise InternalCheckError(f"absorbed binary has determinant {delta} mod 8")
            even_rank += 2
            units = sorted([e] + units[3:])
        data2 = TwoAdicData(even_rank, chi_even, tuple(units))
        pieces = [[[u]] for u in units] + _canonical_even_gram(even_rank, chi_even)
        new_blocks.append(
            replace(block, unit_gram=_block_diag(pieces), chi=chi_even, two_adic=data2)
        )
    out = JordanDecomposition(2, tuple(new_blocks), decomp.working_precision, normalized=True)
    if out.total_rank != decomp.total_rank or out.det_valuation != decomp.det_valuation:
        raise InternalCheckError("normalization changed rank or determinant valuation")
    return out
