import random
from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hmvol.arith import kronecker, valuation
from hmvol.density import bad_primes, density_from_decomposition, local_density
from hmvol.errors import InternalCheckError, PreconditionError
from hmvol.expr import lattice_from_text
from hmvol.families import k_lattice, l_lattice, n_lattice, t_lattice, unimodular_ii
from hmvol.jordan import (
    _MIN_UNIT_PRECISION,
    JordanBlock,
    JordanDecomposition,
    _assemble,
    _pivot_entry,
    _split_pieces,
    jordan_decompose,
)
from hmvol.lattices import (
    Lattice,
    direct_sum,
    e8,
    from_gram,
    hyperbolic_plane,
    rank_one,
    rescale,
)

from conftest import ORACLE_CORPUS, SIGNATURE_2N_EXPRESSIONS


# ------------------------------------------- the full-scan split, as oracle

def _val_mod(x: int, p: int, cap: int) -> Optional[int]:
    """p-adic valuation of the residue x, or None if x = 0 mod p^cap."""
    if x % p**cap == 0:
        return None
    return valuation(x, p)


def scan_split_pieces(gram, p: int, modulus_exp: int):
    """The split `jordan_decompose` used before the active-block one: every
    pivot step scans every active pair, and row/column updates run over all
    n indices.  Same contract as `jordan._split_pieces`."""
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
        if vmin is None or budget - vmin < _MIN_UNIT_PRECISION:
            raise InternalCheckError("p-adic precision exhausted in the Jordan split")
        i, j = where

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
            # minimal valuation strictly off-diagonal: 2x2 split
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


def scan_decompose(lattice: Lattice, p: int, split=scan_split_pieces) -> JordanDecomposition:
    """`jordan_decompose` assembled from `split` (the full scan by default)
    of the whole Gram at the same working precision, unimodular summands
    included; equality compares level, rank, chi and odd_units at every
    level."""
    vdet = valuation(lattice.det, p)
    by_level: dict[int, list] = {}
    for level, piece in split(lattice.gram, p, 2 * vdet + 8):
        by_level.setdefault(level, []).append(piece)
    return JordanDecomposition(p, _assemble(by_level, p))


def _assert_matches_scan(lattice: Lattice, p: int) -> None:
    vdet = valuation(lattice.det, p)
    for modulus_exp in (2 * vdet + 8, vdet + 5):  # the working and a scarce precision
        try:
            expected = scan_split_pieces(lattice.gram, p, modulus_exp)
        except InternalCheckError as exc:
            with pytest.raises(type(exc)):
                _split_pieces(lattice.gram, p, modulus_exp)
        else:
            assert _split_pieces(lattice.gram, p, modulus_exp) == expected
    assert jordan_decompose(lattice, p) == scan_decompose(lattice, p)


@st.composite
def _gram_and_prime(draw, primes=(2, 3, 5, 7, 11, 13)):
    """A prime p from `primes` and a nonsingular symmetric Gram of rank
    <= 8 whose entries are small multiples of powers of p; about a third
    have a zero diagonal (the off-diagonal pivot branches)."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(min_value=1, max_value=8))
    zero_diagonal = draw(st.integers(min_value=0, max_value=2)) == 0
    entries = st.builds(lambda u, e: u * p**e, st.integers(-9, 9), st.sampled_from([0, 0, 1, 2, 3]))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                rows[i][j] = rows[j][i] = draw(entries)
    try:
        lattice = from_gram(rows)
    except PreconditionError:
        assume(False)
    return lattice, p


@given(_gram_and_prime())
@settings(max_examples=400, deadline=None)
def test_split_matches_full_scan_oracle(case):
    _assert_matches_scan(*case)


def _corpus() -> list[Lattice]:
    """The oracle and signature-(2, n) corpora, the II, T, L, K and N
    families, and 100 random direct sums."""
    corpus = [lattice_from_text(t) for t in ORACLE_CORPUS + SIGNATURE_2N_EXPRESSIONS]
    corpus += [unimodular_ii(m) for m in range(3)] + [t_lattice(m) for m in range(3)]
    for m in (0, 2):
        for d in range(1, 41):
            corpus += [l_lattice(m, d), k_lattice(m, d)]
            if d % 4 == 1:
                corpus.append(n_lattice(m, d))
    rng = random.Random(7)
    corpus += [_random_lattice(rng) for _ in range(100)]
    return corpus


def test_direct_sum_splits_each_summand_once(monkeypatch):
    # L(2, 6) = 2U + 2E8(-1) + <-12> is built with no elimination; U and
    # E8(-1) are even unimodular, so only <-12> is split, once at each bad
    # prime
    from hmvol import jordan, lattices

    eliminated, split = [], []
    det_and_signature, split_pieces = lattices._det_and_signature, jordan._split_pieces

    def recording_det(gram):
        eliminated.append(gram)
        return det_and_signature(gram)

    def recording_split(gram, p, modulus_exp):
        split.append((gram, p))
        return split_pieces(gram, p, modulus_exp)

    monkeypatch.setattr(lattices, "_det_and_signature", recording_det)
    monkeypatch.setattr(jordan, "_split_pieces", recording_split)
    lat = l_lattice(2, 6)
    primes = bad_primes(lat)
    assert primes == (2, 3)
    decomps = [jordan_decompose(lat, p) for p in primes]
    assert eliminated == []
    assert len({atom.gram for atom in lat.summands}) == 3
    assert split == [(((-12,),), 2), (((-12,),), 3)]
    assert decomps == [scan_decompose(lat, p) for p in primes]


def test_unsplit_unimodular_chi_matches_split():
    # an even unimodular summand adds (rank, det) to level 0 with
    # chi = kronecker(det, 2) at p = 2, the Legendre symbol of
    # (-1)^(rank/2) det at odd p; the split of its Gram must agree
    atoms = [hyperbolic_plane(), hyperbolic_plane(-1), e8(1), e8(-1),
             from_gram([[2, 1], [1, 2]]), from_gram([[2, 1], [1, -2]])]
    for atom in atoms:
        for p in (2, 3, 5, 7):
            if atom.det % p == 0:
                continue
            by_level: dict[int, list] = {}
            for level, piece in _split_pieces(atom.gram, p, 8):
                by_level.setdefault(level, []).append(piece)
            (split_block,) = _assemble(by_level, p)
            (block,) = jordan_decompose(atom, p).blocks
            assert block == split_block, (atom.gram, p)
            assert (block.level, block.rank) == (0, atom.rank)
        assert jordan_decompose(atom, 2).blocks[0].chi == kronecker(atom.det, 2)


def test_split_matches_full_scan_oracle_on_corpora():
    for lattice in _corpus():
        for p in sorted({2, 3, 5, 7, *bad_primes(lattice)}):
            _assert_matches_scan(lattice, p)


def _assert_precision_stable(lattice: Lattice, p: int) -> None:
    # no step loses precision: at M + 6 the split has the same levels and
    # piece shapes, and a piece of level l agrees with it mod p^(M - l)
    modulus_exp = 2 * valuation(lattice.det, p) + 8
    pieces = _split_pieces(lattice.gram, p, modulus_exp)
    finer = _split_pieces(lattice.gram, p, modulus_exp + 6)
    assert [(lv, len(pc)) for lv, pc in pieces] == [(lv, len(pc)) for lv, pc in finer]
    for (level, piece), (_, fine) in zip(pieces, finer):
        q = p ** (modulus_exp - level)
        assert piece == [[x % q for x in row] for row in fine], (lattice.gram, p, level)


@given(_gram_and_prime())
@settings(max_examples=300, deadline=None)
def test_split_is_stable_under_more_precision(case):
    _assert_precision_stable(*case)


def test_split_is_stable_under_more_precision_on_corpora():
    for lattice in _corpus():
        for p in sorted({2, 3, 5, 7, *bad_primes(lattice)}):
            _assert_precision_stable(lattice, p)


# ------------------------------- the surfacing odd-p split, as oracle

def surfacing_split_pieces(gram, p: int, modulus_exp: int):
    """The split `jordan_decompose` used before one pivot rule served every
    p: at odd p an off-diagonal minimum is first surfaced onto the diagonal
    by adding R_j to R_i or subtracting it (2 is a unit), so every odd-p
    piece is 1x1.  Same contract as `jordan._split_pieces`, whose pieces it
    gives at p = 2."""
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
        if vmin is None or budget - vmin < _MIN_UNIT_PRECISION:
            raise InternalCheckError("p-adic precision exhausted in the Jordan split")
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


_ODD_PRIMES = (3, 5, 7, 11, 13)


@given(_gram_and_prime(primes=_ODD_PRIMES))
@settings(max_examples=300, deadline=None)
def test_split_matches_surfacing_oracle(case):
    lattice, p = case
    assert jordan_decompose(lattice, p) == scan_decompose(lattice, p, surfacing_split_pieces)


def test_split_matches_surfacing_oracle_on_corpora():
    for lattice in _corpus():
        for p in sorted({*_ODD_PRIMES, *bad_primes(lattice)} - {2}):
            assert jordan_decompose(lattice, p) == scan_decompose(
                lattice, p, surfacing_split_pieces), (lattice.gram, p)


# ------------------------- the sequential 2-adic compression, as oracle

def sequential_two_adic_blocks(lattice: Lattice) -> list[tuple]:
    """(level, rank, chi, odd_units) per 2-adic block, by the route taken
    before `jordan_decompose` compressed the odd part itself: the raw
    split's odd units mod 8 and even-piece chi per level, then three sorted
    units at a time a, b, c become <a+b+c> and an even binary whose
    determinant class abc/(a+b+c) mod 8 is 7 (chi +1) or 3 (chi -1)."""
    vdet = valuation(lattice.det, 2)
    by_level: dict[int, list] = {}
    for level, piece in _split_pieces(lattice.gram, 2, 2 * vdet + 8):
        by_level.setdefault(level, []).append(piece)
    blocks = []
    for level in sorted(by_level):
        units, even_rank, chi_even = [], 0, 1
        for pc in by_level[level]:
            if len(pc) == 1:
                units.append(pc[0][0] % 8)
            else:
                even_rank += 2
                chi_even *= {7: 1, 3: -1}[(pc[0][0] * pc[1][1] - pc[0][1] ** 2) % 8]
        units.sort()
        while len(units) > 2:
            a, b, c = units[:3]
            e = (a + b + c) % 8
            delta = a * b * c * pow(e, -1, 8) % 8
            assert delta in (3, 7)
            if delta == 3:
                chi_even = -chi_even
            even_rank += 2
            units = sorted([e] + units[3:])
        blocks.append((level, even_rank + len(units), chi_even, tuple(units)))
    return blocks


def _assert_matches_sequential(lattice: Lattice) -> None:
    dec = jordan_decompose(lattice, 2)
    got = [(b.level, b.rank, b.chi, b.odd_units) for b in dec.blocks]
    assert got == sequential_two_adic_blocks(lattice), lattice.gram


@given(_gram_and_prime(primes=(2,)))
@settings(max_examples=200, deadline=None)
def test_two_adic_compression_matches_sequential_oracle(case):
    _assert_matches_sequential(case[0])


def test_two_adic_compression_matches_sequential_oracle_on_corpora():
    for lattice in _corpus():
        _assert_matches_sequential(lattice)


def test_hyperbolic_plane_odd_prime():
    dec = jordan_decompose(hyperbolic_plane(), 3)
    assert len(dec.blocks) == 1
    b = dec.blocks[0]
    assert (b.level, b.rank, b.chi) == (0, 2, 1)


def test_t_lattice_two_adic_blocks():
    lat = direct_sum(hyperbolic_plane(), hyperbolic_plane(2), e8(-1))
    dec = jordan_decompose(lat, 2)
    assert [b.level for b in dec.blocks] == [0, 1]
    b0, b1 = dec.blocks
    assert (b0.rank, b0.odd_units, b0.chi) == (10, (), 1)
    assert (b1.rank, b1.odd_units, b1.chi) == (2, (), 1)


def test_jordan_block_is_its_invariants():
    # a block holds no split Gram, so the order of the summands, which
    # orders the pieces of a level, leaves every block unchanged
    assert JordanBlock._fields == ("level", "rank", "chi", "odd_units")
    texts = ("<-2> + U(2) + <-6> + gram[-4,2;2,-4]", "gram[-4,2;2,-4] + <-6> + U(2) + <-2>")
    expected = {2: (JordanBlock(1, 6, -1, (5, 7)),),
                3: (JordanBlock(0, 4, 1, ()), JordanBlock(1, 2, 1, ()))}
    for p, blocks in expected.items():
        for text in texts:
            assert jordan_decompose(lattice_from_text(text), p).blocks == blocks, (text, p)
    # the unit class of an odd-p level is the product of its pieces'
    # determinants, -1 for the 2x2 piece U(3) splits into at p = 3
    for text, chi in (("U(3) + <3> + <-3>", 1), ("U(3) + <3> + <3>", -1)):
        blocks = jordan_decompose(lattice_from_text(text), 3).blocks
        assert blocks == (JordanBlock(1, 4, chi, ()),), text


def test_e8_two_adic_single_even_block():
    dec = jordan_decompose(e8(-1), 2)
    assert len(dec.blocks) == 1
    b = dec.blocks[0]
    assert (b.level, b.rank) == (0, 8)
    assert b.odd_units == ()
    assert b.chi == 1


def test_block_chi_hyperbolic_all_primes():
    for p in (2, 3, 5, 7, 11):
        dec = jordan_decompose(hyperbolic_plane(), p)
        assert dec.blocks[0].chi == 1
    # a rescaled U is one hyperbolic block at its level: a 2x2 piece
    for text, p, level in (("U(3)", 3, 1), ("U(9)", 3, 2), ("U(25)", 5, 2)):
        dec = jordan_decompose(lattice_from_text(text), p)
        assert dec.blocks == (JordanBlock(level, 2, 1, ()),), text
    # a 2x2 pivot with rows remaining, whose elimination goes through the
    # piece's inverse: of level 2 at p = 3, of level 1 and 0 at p = 2
    for text, p, blocks in (
        ("gram[0,0,27,27;0,0,9,18;27,9,0,54;27,18,54,0]", 3,
         (JordanBlock(2, 2, 1, ()), JordanBlock(3, 2, 1, ()))),
        ("gram[0,4,2;4,0,2;2,2,8]", 2, (JordanBlock(1, 2, 1, ()), JordanBlock(3, 1, 1, (3,)))),
        ("gram[0,1,1;1,0,1;1,1,0]", 2, (JordanBlock(0, 2, 1, ()), JordanBlock(1, 1, 1, (7,)))),
    ):
        assert jordan_decompose(lattice_from_text(text), p).blocks == blocks, text


def test_block_chi_nonhyperbolic_binary():
    dec = jordan_decompose(from_gram([[2, 1], [1, 2]]), 2)
    assert dec.blocks[0].chi == -1


def test_block_chi_odd_prime_square_class():
    # <-2> + <2> at p = 5: (-1)^1 * det = 4, a square mod 5
    dec = jordan_decompose(direct_sum(rank_one(-2), rank_one(2)), 5)
    assert len(dec.blocks) == 1
    assert dec.blocks[0].chi == 1


def test_normalize_single_hyperbolic_piece():
    b = jordan_decompose(hyperbolic_plane(), 2).blocks[0]
    assert (b.rank, b.odd_units, b.chi) == (2, (), 1)


def test_normalize_three_odd_units():
    lat = direct_sum(rank_one(1), rank_one(1), rank_one(1))
    b = jordan_decompose(lat, 2).blocks[0]
    assert b.rank == 3
    # <1,1,1> ~ <3> + non-hyperbolic even binary
    assert b.odd_units == (3,)
    assert b.chi == -1


def test_normalize_opposite_units_stay():
    lat = direct_sum(rank_one(1), rank_one(-1))
    b = jordan_decompose(lat, 2).blocks[0]
    assert b.odd_units == (1, 7)
    assert (b.rank, b.chi) == (2, 1)


def test_rejects_nonprime():
    with pytest.raises(PreconditionError, match="prime"):
        jordan_decompose(hyperbolic_plane(), 6)


def test_good_prime_single_unimodular_block():
    lat = lattice_from_text("2*U + <-6>")  # det -6
    for p in (5, 7, 11):
        dec = jordan_decompose(lat, p)
        assert len(dec.blocks) == 1
        assert dec.blocks[0].level == 0


def test_rescaling_shifts_levels():
    lat = lattice_from_text("U + <2> + <-10>")
    for p in (2, 3, 5):
        base = jordan_decompose(lat, p)
        shifted = jordan_decompose(rescale(lat, p), p)
        assert [(b.level + 1, b.rank) for b in base.blocks] == [
            (b.level, b.rank) for b in shifted.blocks
        ]


_ATOM_POOL = (
    lambda: hyperbolic_plane(1),
    lambda: hyperbolic_plane(2),
    lambda: hyperbolic_plane(-3),
    lambda: e8(-1),
    lambda: rank_one(1),
    lambda: rank_one(-2),
    lambda: rank_one(6),
    lambda: rank_one(-20),
    lambda: rank_one(9),
    lambda: from_gram([[2, 1], [1, 2]]),
    lambda: from_gram([[2, 1], [1, -2]]),
    lambda: from_gram([[4, 2], [2, -3]]),
)


def _random_lattice(rng: random.Random) -> Lattice:
    parts = [rng.choice(_ATOM_POOL)() for _ in range(rng.randint(1, 4))]
    lat = direct_sum(*parts)
    if rng.random() < 0.3:
        lat = rescale(lat, rng.choice([-1, 2, 3, -2]))
    return lat


def test_rank_and_valuation_conservation_randomized():
    from hmvol.arith import valuation

    rng = random.Random(20240811)
    for _ in range(1000):
        lat = _random_lattice(rng)
        p = rng.choice([2, 3, 5, 7])
        dec = jordan_decompose(lat, p)
        assert dec.total_rank == lat.rank
        vdet = valuation(lat.det, p)
        assert dec.det_valuation == vdet
        if vdet == 0 and p != 2:
            assert len(dec.blocks) == 1 and dec.blocks[0].level == 0


def _random_unimodular(rng: random.Random, n: int):
    # random integer matrix with determinant +-1, as a product of shears
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def test_density_invariant_under_basis_change():
    # alpha_p is an isometry invariant: conjugating the Gram matrix by a
    # unimodular basis change must not move the computed density, whatever
    # normalization choices the decomposition made
    rng = random.Random(1234)
    base_lattices = [
        lattice_from_text(t)
        for t in ("<1> + <2>", "<2> + <-8>", "U + <2>", "<1> + <1> + <1>",
                  "gram[2,1;1,2] + <3>", "U(2) + <-4>")
    ]
    for lat in base_lattices:
        n = lat.rank
        for p in (2, 3):
            reference = local_density(lat, p).value
            for _ in range(6):
                u = _random_unimodular(rng, n)
                g = [[sum(u[i][a] * lat.gram[a][b] * u[j][b] for a in range(n) for b in range(n))
                      for j in range(n)] for i in range(n)]
                conj = Lattice(g)
                assert local_density(conj, p).value == reference


def test_density_from_decomposition_matches():
    lat = lattice_from_text("U + <2> + <-24>")
    dec = jordan_decompose(lat, 2)
    assert density_from_decomposition(dec).value == local_density(lat, 2).value
