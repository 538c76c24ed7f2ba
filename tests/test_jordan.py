import random

import pytest

from hmvol.density import density_from_decomposition, local_density
from hmvol.errors import PreconditionError
from hmvol.expr import lattice_from_text
from hmvol.jordan import jordan_decompose, two_adic_normalize
from hmvol.lattices import (
    Lattice,
    direct_sum,
    e8,
    from_gram,
    hyperbolic_plane,
    rank_one,
    rescale,
)


def test_hyperbolic_plane_odd_prime():
    dec = jordan_decompose(hyperbolic_plane(), 3)
    assert len(dec.blocks) == 1
    b = dec.blocks[0]
    assert (b.level, b.rank, b.chi) == (0, 2, 1)


def test_t_lattice_two_adic_blocks():
    lat = direct_sum(hyperbolic_plane(), hyperbolic_plane(2), e8(-1))
    dec = two_adic_normalize(jordan_decompose(lat, 2))
    assert [b.level for b in dec.blocks] == [0, 1]
    b0, b1 = dec.blocks
    assert (b0.rank, b0.two_adic.is_even, b0.chi) == (10, True, 1)
    assert (b1.rank, b1.two_adic.is_even, b1.chi) == (2, True, 1)


def test_e8_two_adic_single_even_block():
    dec = jordan_decompose(e8(-1), 2)
    assert len(dec.blocks) == 1
    b = dec.blocks[0]
    assert (b.level, b.rank) == (0, 8)
    assert b.two_adic.is_even
    assert b.chi == 1


def test_block_chi_hyperbolic_all_primes():
    for p in (2, 3, 5, 7, 11):
        dec = jordan_decompose(hyperbolic_plane(), p)
        assert dec.blocks[0].chi == 1


def test_block_chi_nonhyperbolic_binary():
    dec = jordan_decompose(from_gram([[2, 1], [1, 2]]), 2)
    assert dec.blocks[0].chi == -1


def test_block_chi_odd_prime_square_class():
    # <-2> + <2> at p = 5: (-1)^1 * det = 4, a square mod 5
    dec = jordan_decompose(direct_sum(rank_one(-2), rank_one(2)), 5)
    assert len(dec.blocks) == 1
    assert dec.blocks[0].chi == 1


def test_normalize_single_hyperbolic_piece():
    dec = two_adic_normalize(jordan_decompose(hyperbolic_plane(), 2))
    data = dec.blocks[0].two_adic
    assert (data.even_rank, data.odd_units, data.is_even) == (2, (), True)


def test_normalize_three_odd_units():
    lat = direct_sum(rank_one(1), rank_one(1), rank_one(1))
    dec = two_adic_normalize(jordan_decompose(lat, 2))
    data = dec.blocks[0].two_adic
    assert data.even_rank + len(data.odd_units) == 3
    assert len(data.odd_units) == 1
    # <1,1,1> ~ <3> + non-hyperbolic even binary
    assert data.odd_units == (3,)
    assert data.chi_even == -1


def test_normalize_opposite_units_stay():
    lat = direct_sum(rank_one(1), rank_one(-1))
    dec = two_adic_normalize(jordan_decompose(lat, 2))
    data = dec.blocks[0].two_adic
    assert sorted(data.odd_units) == [1, 7]
    assert data.even_rank == 0


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
