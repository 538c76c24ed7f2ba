import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import hmvol.density as density
from hmvol.arith import is_prime
from hmvol.density import (
    _p_series_num,
    _siegel_counts,
    bad_primes,
    cross_rank_weight,
    local_density,
    oracle_stabilized,
    siegel_count_oracle,
)
from hmvol.errors import FeasibilityError, PreconditionError
from hmvol.expr import lattice_from_text
from hmvol.families import k_lattice, l_lattice, n_lattice, t_lattice, unimodular_ii
from hmvol.jordan import jordan_decompose
from hmvol.lattices import Lattice

from conftest import integer_route_corpus
from family_fixtures import (
    fixture_alpha_ii,
    fixture_alpha_k,
    fixture_alpha_l,
    fixture_alpha_n,
    fixture_alpha_t2,
    p_series,
)
from fraction_routes import density_odd, density_two


def integer_p_series(p: int, n: int) -> Fraction:
    """P_p(n) by the program's route: one integer over p^(n(n+1))."""
    return Fraction(_p_series_num(p, n), p ** (n * (n + 1)))


def test_p_series_values():
    assert integer_p_series(3, 1) == Fraction(8, 9)
    assert integer_p_series(2, 0) == 1
    assert integer_p_series(5, 0) == 1
    assert integer_p_series(2, 2) == Fraction(3, 4) * Fraction(15, 16)


def test_p_series_matches_fraction_products():
    for p in (2, 3, 5, 7, 11, 13, 9973):
        for n in range(0, 33):
            assert integer_p_series(p, n) == p_series(p, n), (p, n)


def test_cross_rank_weight_anchors():
    # U + U(2) + m E8(-1) at p = 2 has w = 3
    for m in (1, 2):
        dec = jordan_decompose(t_lattice(m), 2)
        assert cross_rank_weight(dec) == 3
    # a single level-0 block has w = 0
    assert cross_rank_weight(jordan_decompose(unimodular_ii(1), 2)) == 0
    # <-6> at p = 3: one level-1 rank-1 block, w = 1
    dec = jordan_decompose(lattice_from_text("<-6>"), 3)
    assert cross_rank_weight(dec) == 1


def test_alpha_hyperbolic_plane_at_3():
    lat = lattice_from_text("U")
    val = local_density(lat, 3).value
    assert val == Fraction(2, 3)
    assert val == p_series(3, 1) / (1 + Fraction(1, 3))


def test_alpha_unimodular_family_closed_form():
    for m in (0, 1, 2):
        lat = unimodular_ii(m)
        for p in (2, 3, 5):
            assert local_density(lat, p).value == fixture_alpha_ii(m, p)


def test_alpha2_t_family_closed_form():
    for m in (1, 2):
        assert local_density(t_lattice(m), 2).value == fixture_alpha_t2(m)


def test_alpha2_l_family_odd_d():
    for m in (0, 1):
        for d in (1, 3, 5, 7):
            expected = Fraction(2) ** (8 * m + 6) * p_series(2, 4 * m + 2)
            assert local_density(l_lattice(m, d), 2).value == expected


def test_family_alpha_tables():
    # the family alpha case tables, m in {0, 2}, d in 1..40 (the CI catalog
    # K range), at every bad prime and the good primes 3 and 7: the stable
    # volumes cancel alpha_p at p | det, so the catalog's O~+ rows do not
    # check these densities
    for m in (0, 2):
        for d in range(1, 41):
            cases = [(l_lattice(m, d), fixture_alpha_l), (k_lattice(m, d), fixture_alpha_k)]
            if d % 4 == 1:
                cases.append((n_lattice(m, d), fixture_alpha_n))
            for lat, fixture in cases:
                for p in sorted({*bad_primes(lat), 3, 7}):
                    expected = fixture(m, d, p)
                    assert local_density(lat, p).value == expected, (fixture.__name__, m, d, p)


def test_bad_primes():
    assert bad_primes(unimodular_ii(2)) == (2,)
    assert bad_primes(l_lattice(0, 6)) == (2, 3)
    assert bad_primes(k_lattice(2, 5)) == (2, 5)


def test_positivity_and_breakdown():
    for text in ("U", "<1> + <2>", "2*U + <-24>", "U + <2> + <-8>"):
        lat = lattice_from_text(text)
        for p in bad_primes(lat):
            dens = local_density(lat, p)
            assert dens.value > 0
            b = dens.breakdown
            recombined = b["lead"] * b["P"]
            for e in b["E"].values():
                recombined /= e
            assert recombined == dens.value


def test_good_prime_closed_form():
    for text in ("2*U + <-2>", "U + <2> + <-14>", "2*U + E8(-1)"):
        lat = lattice_from_text(text)
        rho = lat.rank
        for p in (3, 5, 7, 11, 13):
            if (2 * abs(lat.det)) % p == 0:
                continue
            val = local_density(lat, p).value
            if rho % 2:
                assert val == p_series(p, (rho - 1) // 2)
            else:
                dec = jordan_decompose(lat, p)
                chi = dec.blocks[0].chi
                assert val == p_series(p, rho // 2) / (1 + Fraction(chi, p ** (rho // 2)))


# ------------------------------------------------------------- the oracle

@functools.cache
def _columns(q: int, n: int):
    """All q^n vectors in [0, q)^n in lexicographic order, one read-only table
    per (q, n) shared by the two references and `_blocks`."""
    cols = np.ascontiguousarray(np.indices((q,) * n, dtype=np.int64).reshape(n, -1).T)
    cols.flags.writeable = False
    return cols


# The counter before columns were lifted and bucketed, kept verbatim (its
# rank-1 residue scan included, its table of all q^n vectors now `_columns`)
# as the reference for `_siegel_counts`: each column's candidates are filtered
# from a table of all q^n vectors, and rank-3 pairs are counted once per
# candidate c0.
TABLE_PAIR_CHUNK = 2**16


def table_siegel_count(gram, p: int, r: int) -> int:
    """#{X in Mat_n(Z/p^r) : X^t S X = S mod p^r}.  No guard; callers enforce
    feasibility.

    Column i of a solution satisfies c^t S c = S_ii, so the candidates for
    each column are read off one table of all q^n vectors, q = p^r.  At
    rank 2 the count is then the number of pairs (c0, c1) of candidates with
    c0^t S c1 = S_01, taken as dot products in blocks of rows of c0 of at
    most TABLE_PAIR_CHUNK entries each (at least one row).  At rank 3 each c0
    prunes the candidates for c1 and c2 before their pairs are counted.
    """
    import numpy as np

    n = len(gram)
    if n > 3:
        raise PreconditionError("oracle counting implemented for rank <= 3 only")
    q = p**r
    s = np.array([[x % q for x in row] for row in gram], dtype=np.int64)
    if n == 1:
        # x^2 is reduced before the product, so no product reaches q^2, which
        # fits int64 for q < 2^31; blocks of 2^16 stay in cache
        total = 0
        for lo in range(0, q, 1 << 16):
            x = np.arange(lo, min(lo + (1 << 16), q), dtype=np.int64)
            total += int(np.count_nonzero(x * x % q * s[0, 0] % q == s[0, 0]))
        return total
    cols = _columns(q, n)
    scols = cols @ s % q
    diag = np.einsum("ij,ij->i", cols, scols) % q
    masks = [diag == s[i, i] for i in range(n)]
    cand = [cols[m] for m in masks]
    cand_s = [scols[m] for m in masks]
    total = 0
    if n == 2:
        b1 = cand_s[1].T
        rows = max(1, TABLE_PAIR_CHUNK // max(1, b1.shape[1]))
        for lo in range(0, len(cand[0]), rows):
            dots = cand[0][lo:lo + rows] @ b1 % q
            total += int(np.count_nonzero(dots == s[0, 1]))
        return total
    b1, b2 = cand_s[1], cand_s[2]
    for c0 in cand[0]:
        m1 = (b1 @ c0 - s[0, 1]) % q == 0
        m2 = (b2 @ c0 - s[0, 2]) % q == 0
        c1s = cand[1][m1]
        c2ss = cand_s[2][m2]
        if len(c1s) == 0 or len(c2ss) == 0:
            continue
        dots = c1s @ c2ss.T % q
        total += int(np.count_nonzero(dots == s[1, 2]))
    return total


# The counter before rank-2 pairs were counted in blocks, kept verbatim (its
# table of all q^n vectors, built from itertools.product, now `_columns`) as
# the reference for `_siegel_counts`; only its rank-2 and rank-3 branches are
# used (its rank-1 products wrap int64 once q^2 |a| > 2^63).
def loop_siegel_count(gram, p: int, r: int) -> int:
    """#{X in Mat_n(Z/p^r) : X^t S X = S mod p^r}, column-by-column with
    pruning on partial congruences.  No guard; callers enforce feasibility."""
    import numpy as np

    n = len(gram)
    q = p**r
    s = np.array([[x % q for x in row] for row in gram], dtype=np.int64)
    if n == 1:
        total = 0
        for lo in range(0, q, 1 << 22):
            x = np.arange(lo, min(lo + (1 << 22), q), dtype=np.int64)
            total += int(np.count_nonzero((x * x * s[0, 0] - s[0, 0]) % q == 0))
        return total
    cols = _columns(q, n)
    scols = cols @ s % q
    diag = np.einsum("ij,ij->i", cols, scols) % q
    cand = [cols[diag == s[i, i]] for i in range(n)]
    cand_s = [scols[diag == s[i, i]] for i in range(n)]
    total = 0
    if n == 2:
        b1 = cand_s[1]
        for c0 in cand[0]:
            total += int(np.count_nonzero((b1 @ c0 - s[0, 1]) % q == 0))
        return total
    if n == 3:
        b1, b2 = cand_s[1], cand_s[2]
        for c0 in cand[0]:
            m1 = (b1 @ c0 - s[0, 1]) % q == 0
            m2 = (b2 @ c0 - s[0, 2]) % q == 0
            c1s = cand[1][m1]
            c2ss = cand_s[2][m2]
            if len(c1s) == 0 or len(c2ss) == 0:
                continue
            dots = c1s @ c2ss.T % q
            total += int(np.count_nonzero(dots == s[1, 2]))
        return total
    raise PreconditionError("oracle counting implemented for rank <= 3 only")


RANK3_TEXTS = ("<1> + <1> + <1>", "<1> + <1> + <-1>", "U + <1>", "U + <2>")


def _guarded_depths(p, n):
    """Every depth r whose naive candidate count p^(r n^2) is inside the
    public oracle guard."""
    r = 1
    while p ** (r * n * n) <= density.ORACLE_CANDIDATE_CAP:
        yield r
        r += 1


def _random_gram(rng, n, bound):
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-bound, bound)
        try:
            Lattice(g)
        except PreconditionError:  # singular
            continue
        return g


def siegel_count(gram, p, r):
    """The counter's count at the one depth r."""
    return next(_siegel_counts(gram, p, r, r))


def _near_2_62(gram, q):
    """`gram` shifted by multiples of q to entries near +-2^62 (diagonal
    entries up, off-diagonal down): the same Gram mod q."""
    shift = 2**62 // q * q
    n = len(gram)
    return [[gram[i][j] + (shift if i == j else -shift) for j in range(n)] for i in range(n)]


def _blocks(gram, p, r):
    """(#c0, block width) of the counter's rows of c0, from a table of all
    q^n columns: the width is the number of buckets S c mod q of the last
    column's candidates, and at rank 3 at least the number of c1 candidates."""
    n, q = len(gram), p**r
    s = np.array(gram, dtype=np.int64) % q
    cols = _columns(q, n)
    value = np.einsum("ij,ij->i", cols, cols @ s) % q
    cand = [cols[value == s[i, i]] for i in range(n)]
    buckets = len(np.unique(cand[-1] @ s % q @ q ** np.arange(n)))
    return len(cand[0]), buckets if n == 2 else max(buckets, len(cand[1]))


def _walk_agrees(monkeypatch, g, p, expected):
    """The counter's walk over depths 1, 2, ... gives `expected`, with the
    default block and with blocks of 1, 2 and 7 rows of c0 at every depth;
    returns how many of the tiny-block counts end on a partial block."""
    deepest = len(expected)
    assert list(_siegel_counts(g, p, 1, deepest)) == expected, (g, p)
    shapes = [_blocks(g, p, r) for r in range(1, deepest + 1)]
    partial = 0
    for rows in (1, 2, 7):
        walk = _siegel_counts(g, p, 1, deepest)
        for r, ((n0, width), want) in enumerate(zip(shapes, expected), 1):
            # the walk reads the chunk at each depth: rows * width + width - 1
            # entries hold exactly `rows` rows
            monkeypatch.setattr(density, "_PAIR_CHUNK", rows * width + width - 1)
            assert next(walk) == want, (g, p, r, rows)
            partial += n0 % rows != 0
    monkeypatch.undo()
    return partial


def test_counter_matches_loop_oracle(oracle_corpus, monkeypatch):
    # the lifted, bucketed counter against the per-column loop: rank 2 on the
    # corpus (at p = 181 too, the largest guarded rank-2 modulus) and on
    # seeded random Grams, and rank 3 on seeded random Grams, at every guarded
    # depth of one walk per (Gram, p), with the default block and with blocks
    # of 1, 2 and 7 rows of c0 (the last block partial in many cases)
    rng = random.Random(8)
    rank2 = [lat.gram for _, lat in oracle_corpus if lat.rank == 2]
    primes = (2, 3, 5, 7, 11, 13)
    walks = [(g, p) for g in rank2 for p in (2, 3, 5, 7, 181)]
    for i in range(200):
        walks.append((_random_gram(rng, 2, 40), primes[i % len(primes)]))
    partial = {2: 0, 3: 0}
    cases = 0
    for g, p in walks:
        expected = [loop_siegel_count(g, p, r) for r in _guarded_depths(p, 2)]
        partial[2] += _walk_agrees(monkeypatch, g, p, expected)
        cases += len(expected)
    assert cases >= 200 * 2
    for i in range(40):
        g = _random_gram(rng, 3, 12)
        p = (2, 3, 5, 7)[i % 4]
        expected = [loop_siegel_count(g, p, r) for r in _guarded_depths(p, 3)]
        partial[3] += _walk_agrees(monkeypatch, g, p, expected)
    assert partial[2] > 100 and partial[3] > 20, partial


def test_counter_matches_table_oracle(oracle_corpus):
    # the lifted, bucketed counter against the table counter it replaced, at
    # every guarded depth of one walk per (Gram, p): the corpus, seeded random
    # rank-2 and rank-3 Grams, and Grams whose last-column candidates share
    # few buckets S c mod q; the corpus also at p = 181, the largest prime
    # with a nonzero guard depth (1, at rank 2)
    rng = random.Random(15)
    primes = (2, 3, 5, 7, 11, 13)
    corpus = [lat.gram for _, lat in oracle_corpus if lat.rank > 1]
    grams = corpus + [lattice_from_text(t).gram for t in RANK3_TEXTS]
    grams += [_random_gram(rng, 2, 40) for _ in range(200)]
    grams += [_random_gram(rng, 3, 12) for _ in range(40)]
    walks = [(g, p, density._guard_depth(p, len(g))) for g in grams for p in primes]
    walks += [(g, 181, 1) for g in corpus]
    # S = 4 (3, -5) and 4 (1, -3): 1,024 columns in a few hundred buckets
    walks += [(g, 2, 7) for g in ([[12, 0], [0, -20]], [[4, 0], [0, -12]])]
    rank3 = 0
    for g, p, deepest in walks:
        if deepest == 0:
            continue
        expected = [table_siegel_count(g, p, r) for r in range(1, deepest + 1)]
        assert list(_siegel_counts(g, p, 1, deepest)) == expected, (g, p)
        rank3 += deepest if len(g) == 3 else 0
    assert rank3 > 40
    # S = 0 mod q: every column is a candidate, all in one bucket
    expected = [table_siegel_count([[8, 0], [0, 8]], 2, r) for r in (1, 2, 3)]
    assert list(_siegel_counts([[8, 0], [0, 8]], 2, 1, 3)) == expected
    assert expected == [2 ** (4 * r) for r in (1, 2, 3)]


def test_counter_walk_matches_table_oracle_at_every_depth(oracle_corpus):
    # one walk from depth 1 gives the table counter's count at every depth:
    # the lifted candidates of each depth carry over to the next, so a
    # target or S taken mod the wrong power of p shows at the second depth.
    # Rank 1 includes p^v | a below, at and beyond the deepest depth; S = 8 I
    # is 0 mod q to depth 3, and 4 diag(3, -5) has degenerate 2-adic buckets.
    # The corpus and RANK3_TEXTS reach every extreme int32 modulus p^deepest
    # (rank 2 at p = 181, 13, 5, 3 and 2, rank 3 at p = 2, 3, 5 and 7).  Each
    # walk runs again on its Gram shifted by multiples of p^deepest to
    # entries near +-2^62, which must be reduced before the cast, and that
    # Gram is counted at the deepest depth alone, off one table of all
    # vectors mod p^deepest
    grams = [lat.gram for _, lat in oracle_corpus]
    grams += [lattice_from_text(t).gram for t in RANK3_TEXTS]
    grams += [[[a]] for a in (12, -40, 7 * 2**5, 2**16, 2**20, 45, -162, 250, -3 * 5**4)]
    grams += [[[8, 0], [0, 8]], [[12, 0], [0, -20]]]
    walked = 0
    for g in grams:
        for p in (2, 3, 5, 7, 13, 181):
            deepest = density._guard_depth(p, len(g))
            if len(g) == 1:
                # the residue scan of the table counter reads all p^r residues
                deepest = max(k for k in range(1, 20) if p**k <= 2**16)
            if deepest == 0:
                continue
            expected = [table_siegel_count(g, p, r) for r in range(1, deepest + 1)]
            near = _near_2_62(g, p**deepest)
            for gram in (g, near):
                assert list(_siegel_counts(gram, p, 1, deepest)) == expected, (gram, p)
            assert siegel_count(near, p, deepest) == expected[-1], (near, p)
            walked += 1
    # rank 3 has no guarded depth at p = 13 or 181
    assert walked == 6 * len(grams) - 2 * len(RANK3_TEXTS)
    # S = 0 mod q makes every matrix a solution, at every guarded (rank, p)
    for n in (2, 3):
        for p in (2, 3, 5, 7, 11, 13, 181):
            deepest = density._guard_depth(p, n)
            if deepest:
                zero = _near_2_62([[0] * n for _ in range(n)], p**deepest)
                assert siegel_count(zero, p, deepest) == p ** (deepest * n * n), (n, p)


def test_guard_keeps_the_int32_counter_inside_its_bound():
    # every prime with a nonzero guard depth at rank 2 or 3 (p <= 181 at rank
    # 2, p <= 7 at rank 3) has Q = p^deepest with n Q^2 (S c, c^t S c, the
    # pair products) and Q^n (the bucket key) below 2^16; past 2^31 the
    # counter refuses before it counts
    for n, largest in ((2, 65_522), (3, 729)):
        bounds = [max(n * Q * Q, Q**n)
                  for p in range(2, 400) if is_prime(p)
                  for Q in [p ** density._guard_depth(p, n)] if Q > 1]
        assert max(bounds) == largest < 2**16, n
    with pytest.raises(PreconditionError, match="int32"):
        siegel_count([[1, 0], [0, 1]], 2, 15)  # 2 * 2^30 = 2^31
    with pytest.raises(PreconditionError, match="int32"):
        siegel_count([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2, 11)  # 2^33


def test_rank_one_counter_matches_residue_scan():
    # a x^2 = a mod q counted from the lifted square roots of 1 mod q/g
    # against the table counter's scan of all q residues
    rng = random.Random(27)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        r = rng.randint(1, int(20 * math.log(2) / math.log(p)))
        a = rng.choice((rng.randint(-50, 50) or 1, rng.randint(-10**6, 10**6) or 1, p**r * 7))
        assert siegel_count([[a]], p, r) == table_siegel_count([[a]], p, r), (a, p, r)


def test_oracle_hyperbolic_plane():
    lat = lattice_from_text("U")
    # |O(hyperbolic plane over F_3)| = 4 congruence solutions at r = 1
    assert siegel_count(lat.gram, 3, 1) == 4
    assert siegel_count_oracle(lat, 3, 1) == Fraction(2, 3)
    assert siegel_count_oracle(lat, 3, 2) == Fraction(2, 3)
    assert siegel_count_oracle(lat, 3, 1) == local_density(lat, 3).value


def test_oracle_rank_one():
    lat = lattice_from_text("<1>")
    # x^2 = 1 mod 3 has two solutions, value = 1
    assert siegel_count_oracle(lat, 3, 1) == 1
    assert local_density(lat, 3).value == 1


def _square_roots_of_one(m, p):
    """#{x mod m : x^2 = 1 mod m} for a power m of p."""
    if p > 2:
        return 1 if m == 1 else 2
    return 1 if m <= 2 else 2 if m == 4 else 4


def test_oracle_rank_one_large_modulus():
    # #{x mod q : a x^2 = a} = g * N(q/g), g = gcd(a, q); the products
    # x * x * a wrapped int64 once q^2 |a| > 2^63, which halved the unit cases
    for a, p, r in ((1, 3, 14), (100, 3, 14), (1000003, 3, 14), (-7000001, 3, 14),
                    (1000003, 5, 10), (1000003, 2, 22)):
        q = p**r
        g = math.gcd(a, q)
        assert siegel_count([[a]], p, r) == g * _square_roots_of_one(q // g, p), (a, p, r)


def test_oracle_rank_checked_before_table():
    with pytest.raises(PreconditionError, match="rank <= 3"):
        siegel_count([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]], 2, 20)


def test_oracle_guards():
    big = lattice_from_text("2*U + 2*E8(-1)")
    with pytest.raises(FeasibilityError, match="rank"):
        siegel_count_oracle(big, 2, 1)
    small = lattice_from_text("<1> + <1> + <1>")
    with pytest.raises(FeasibilityError, match="2\\^30"):
        siegel_count_oracle(small, 2, 4)  # 2^(4*9) naive candidates
    # a walk past the guard names its first depth beyond it, before counting
    with pytest.raises(FeasibilityError, match="= 2\\^36 = 68719476736 exceeds"):
        density.siegel_counts_oracle(small, 2, 3, 4)
    with pytest.raises(FeasibilityError, match="= 2\\^45 = 35184372088832 exceeds"):
        density.siegel_counts_oracle(small, 2, 5, 6)
    with pytest.raises(PreconditionError, match="depth r must be >= 1"):
        density.siegel_counts_oracle(small, 2, 0, 1)


def test_oracle_agreement_corpus(oracle_corpus):
    for text, lat in oracle_corpus:
        for p in (2, 3, 5, 7):
            if (2 * abs(lat.det)) % p:
                continue
            r, value, stable = oracle_stabilized(lat, p)
            assert stable, (text, p, r)
            assert value == local_density(lat, p).value, (text, p, r)


def test_oracle_rank3_beyond_public_guard():
    # rank-3 validation of the odd-unit compression: the public oracle guard
    # stops at depth 3 for rank 3, so walk the internal counter directly
    # through the stabilized depths 4 and 5
    cases = {
        "<1> + <1> + <1>": Fraction(6),
        "<1> + <1> + <-1>": Fraction(2),
        "U + <1>": Fraction(2),
        "U + <2>": Fraction(12),
    }
    for text, expected in cases.items():
        lat = lattice_from_text(text)
        for r, count in enumerate(_siegel_counts(lat.gram, 2, 4, 5), 4):
            value = Fraction(count, 2 * 2 ** (3 * r))
            assert value == expected, (text, r)
        assert local_density(lat, 2).value == expected


def test_oracle_two_adic_convention_variant_rejected():
    # the alternative convention (quadratic conditions one power deeper)
    # fails to reproduce the closed forms, so the plain one is used
    import itertools

    import numpy as np

    def quad_variant_count(gram, r):
        q = 2**r
        s = np.array([[x % (2 * q) for x in row] for row in gram], dtype=np.int64)
        n = len(gram)
        cols = np.array(list(itertools.product(range(q), repeat=n)), dtype=np.int64)
        scols = cols @ s
        diag = np.einsum("ij,ij->i", cols, scols)
        ok = [(diag - s[i, i]) % (2 * q) == 0 for i in range(n)]
        total = 0
        for c0 in cols[ok[0]]:
            dots = scols[ok[1]] @ c0
            total += int(np.count_nonzero((dots - s[0, 1]) % q == 0))
        return total

    u = lattice_from_text("U")
    for r in (3, 4, 5):
        plain = siegel_count_oracle(u, 2, r)
        variant = Fraction(quad_variant_count(u.gram, r), 2 * 2**r)
        assert plain == local_density(u, 2).value == 2
        assert variant != plain


def test_oracle_agreement_random_grams():
    # seeded sweep over dense Gram matrices: exercises 2x2 even splits, odd
    # unit compression and the full correction window on inputs the named
    # corpus does not reach
    from hmvol.arith import valuation

    rng = random.Random(20240811)
    tested = 0
    for _ in range(60):
        while True:
            a, b, c = (rng.randint(-9, 9) for _ in range(3))
            det = a * c - b * b
            if det != 0 and abs(det) <= 48:
                break
        lat = Lattice([[a, b], [b, c]])
        for p in (2, 3, 5, 7):
            v = valuation(2 * abs(det), p)
            r = v + 3 if p == 2 else v + 2
            if p ** (4 * r) > density.ORACLE_CANDIDATE_CAP:  # the public guard
                continue
            count = siegel_count(lat.gram, p, r)
            assert Fraction(count, 2 * p**r) == local_density(lat, p).value, (a, b, c, p)
            tested += 1
    assert tested > 200


def test_integer_density_matches_fraction_route():
    # every bad prime of the oracle, signature-(2, n) and default catalog lattices
    checked = 0
    for label, lat in integer_route_corpus():
        for p in bad_primes(lat):
            decomp = jordan_decompose(lat, p)
            new = density.density_from_decomposition(decomp)
            old = (density_two if p == 2 else density_odd)(decomp)
            assert new.value == old.value, (label, p)
            for key in ("s", "w", "q", "lead", "P"):
                assert new.breakdown[key] == old.breakdown[key], (label, p, key)
            assert new.breakdown["E"].keys() == old.breakdown["E"].keys(), (label, p)
            for j, e in old.breakdown["E"].items():
                assert new.breakdown["E"][j] == e, (label, p, j)
            checked += 1
    assert checked >= 100
