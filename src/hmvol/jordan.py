"""Jordan decomposition of an integral lattice over the p-adic integers.

For odd p the Gram matrix is diagonalized by symmetric elimination with a
minimal-valuation pivot; an off-diagonal minimum is surfaced onto the
diagonal by a row/column addition (2 is a unit).  For p = 2 a diagonal
minimum splits off a rank-1 (odd) piece and an off-diagonal minimum splits
off a 2x2 even piece; division by 2 never occurs.

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

    @property
    def odd_rank(self) -> int:
        return len(self.odd_units)


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

    def block_at(self, level: int) -> Optional[JordanBlock]:
        for b in self.blocks:
            if b.level == level:
                return b
        return None

    @property
    def total_rank(self) -> int:
        return sum(b.rank for b in self.blocks)

    @property
    def det_valuation(self) -> int:
        return sum(b.level * b.rank for b in self.blocks)


class _PrecisionExhausted(Exception):
    pass


def _val_mod(x: int, p: int, cap: int) -> Optional[int]:
    """p-adic valuation of the residue x, or None if x = 0 mod p^cap."""
    if x % p**cap == 0:
        return None
    return valuation(x, p)


def _split_pieces(gram, p: int, modulus_exp: int):
    """Symmetric elimination over Z/p^M; returns [(level, piece_gram), ...].

    piece_gram is a 1x1 [u] with u a unit, or (p = 2 only) a 2x2 matrix with
    unit off-diagonal and even diagonal, both already divided by p^level.
    Raises _PrecisionExhausted if the precision ledger runs dry.
    """
    n = len(gram)
    pM = p**modulus_exp
    m = [[x % pM for x in row] for row in gram]
    active = list(range(n))
    pieces = []
    budget = modulus_exp

    def entry_val(i, j):
        return _val_mod(m[i][j], p, modulus_exp)

    while active:
        vmin = None
        where = None
        on_diag = False
        for i in active:
            for j in active:
                v = entry_val(i, j)
                if v is not None and (vmin is None or v < vmin or (v == vmin and i == j and not on_diag)):
                    vmin, where, on_diag = v, (i, j), i == j
        if vmin is None:
            raise _PrecisionExhausted
        if budget - vmin < _MIN_UNIT_PRECISION:
            raise _PrecisionExhausted
        i, j = where

        if p != 2 and not on_diag:
            # surface a diagonal pivot; one of R_i +/- R_j has valuation vmin
            sign = 1
            cand = (m[i][i] + 2 * m[i][j] + m[j][j]) % pM
            v = _val_mod(cand, p, modulus_exp)
            if v is None or v > vmin:
                sign = -1
            for k in range(n):
                m[i][k] = (m[i][k] + sign * m[j][k]) % pM
            for k in range(n):
                m[k][i] = (m[k][i] + sign * m[k][j]) % pM
            on_diag = True
            j = i

        if on_diag:
            piv = m[i][i]
            unit = piv // p**vmin
            inv_unit = pow(unit, -1, pM)
            for k in active:
                if k == i:
                    continue
                ck = ((m[k][i] // p**vmin) * inv_unit) % pM
                if ck == 0:
                    continue
                for l in range(n):
                    m[k][l] = (m[k][l] - ck * m[i][l]) % pM
            for k in active:
                if k == i:
                    continue
                ck = ((m[i][k] // p**vmin) * inv_unit) % pM
                if ck == 0:
                    continue
                for l in range(n):
                    m[l][k] = (m[l][k] - ck * m[l][i]) % pM
            pieces.append((vmin, [[unit % pM]]))
            active.remove(i)
            budget -= vmin  # conservative ledger
        else:
            # p = 2, minimal valuation strictly off-diagonal: even 2x2 split
            a, b, c = m[i][i], m[i][j], m[j][j]
            det2 = (a * c - b * b) % pM
            vdet = _val_mod(det2, p, modulus_exp)
            if vdet is None or vdet != 2 * vmin:
                raise InternalCheckError("2x2 pivot block is not p^(2v)-modular")
            inv_det = pow(det2 // p**vdet, -1, pM)
            for k in active:
                if k in (i, j):
                    continue
                num_a = (m[k][i] * c - m[k][j] * b) % pM
                num_b = (m[k][j] * a - m[k][i] * b) % pM
                alpha = ((num_a // p**vdet) * inv_det) % pM
                beta = ((num_b // p**vdet) * inv_det) % pM
                for l in range(n):
                    m[k][l] = (m[k][l] - alpha * m[i][l] - beta * m[j][l]) % pM
            for k in active:
                if k in (i, j):
                    continue
                num_a = (m[i][k] * c - m[j][k] * b) % pM
                num_b = (m[j][k] * a - m[i][k] * b) % pM
                alpha = ((num_a // p**vdet) * inv_det) % pM
                beta = ((num_b // p**vdet) * inv_det) % pM
                for l in range(n):
                    m[l][k] = (m[l][k] - alpha * m[l][i] - beta * m[l][j]) % pM
            pv = p**vmin
            piece = [
                [(a // pv) % pM, (b // pv) % pM],
                [(b // pv) % pM, (c // pv) % pM],
            ]
            pieces.append((vmin, piece))
            active.remove(i)
            active.remove(j)
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
