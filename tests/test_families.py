import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from hmvol.density import local_density, oracle_stabilized
from hmvol.errors import PreconditionError
from hmvol.expr import lattice_from_text
from hmvol.families import (
    fixture_vol_ii_oplus,
    fixture_vol_k_tilde,
    fixture_vol_l_tilde,
    fixture_vol_n_tilde,
    k_lattice,
    l_lattice,
    n_lattice,
    t_lattice,
    unimodular_ii,
)
from hmvol.lattices import Signature
from hmvol.volumes import cusp_dim_leading

from family_fixtures import (
    fixture_cusp_k_tilde,
    fixture_cusp_paramodular,
    fixture_dim_ii_leading,
    k_two_adic_exponent,
)


def test_family_shapes():
    assert unimodular_ii(2).signature == Signature(2, 18)
    assert t_lattice(1).signature == Signature(2, 10)
    assert l_lattice(2, 7).signature == Signature(2, 19)
    assert k_lattice(0, 5).signature == Signature(2, 2)
    assert n_lattice(0, 13).signature == Signature(2, 2)
    assert k_lattice(0, 5).det == 20
    assert n_lattice(0, 13).det == 13
    assert abs(l_lattice(0, 4).det) == 8


def test_frozen_anchor_values():
    # hand-derived through the unreduced volume chain
    assert fixture_vol_ii_oplus(0) == Fraction(1, 288)
    assert fixture_vol_l_tilde(0, 1) == Fraction(1, 2880)
    assert fixture_vol_k_tilde(0, 1) == Fraction(1, 48)
    assert fixture_vol_k_tilde(0, 5) == Fraction(1, 12)
    assert fixture_vol_k_tilde(0, 3) == Fraction(1, 24)
    assert fixture_vol_k_tilde(0, 12) == Fraction(1, 3)
    assert fixture_vol_n_tilde(0, 1) == Fraction(1, 288)
    assert fixture_vol_n_tilde(0, 5) == Fraction(1, 120)
    assert fixture_cusp_paramodular(3) == Fraction(10, 8640)


def test_growth_constant_consistent_with_volume_constant():
    # the growth fixture must be exactly (2/n!) times the volume fixture;
    # n = 8m+2.  This consistency pins the corrected volume constant.  The
    # two case tables split alike, so the growth fixture is also held to the
    # engine: d = 4, 16, 20, 36 (d = 0 mod 4, odd discriminant) need the split
    # on the discriminant
    for m in (0, 1):
        for d in (1, 2, 3, 4, 5, 6, 7, 12, 13, 16, 20, 36):
            lead = fixture_cusp_k_tilde(m, d)
            vol = fixture_vol_k_tilde(m, d)
            assert lead == Fraction(2, factorial(8 * m + 2)) * vol, (m, d)
            assert lead == cusp_dim_leading(k_lattice(m, d), "O~+"), (m, d)


def test_k_two_adic_exponent_table():
    assert k_two_adic_exponent(1) == 6
    assert k_two_adic_exponent(5) == 6
    assert k_two_adic_exponent(3) == 7
    assert k_two_adic_exponent(7) == 7
    assert k_two_adic_exponent(2) == 8
    assert k_two_adic_exponent(6) == 8
    assert k_two_adic_exponent(8) == 11   # 2^3 || 8
    assert k_two_adic_exponent(16) == 12  # 2^4 || 16
    # the d = 4 mod 8 entries: exponent 9, not 10
    assert k_two_adic_exponent(4) == 9
    assert k_two_adic_exponent(12) == 9
    assert k_two_adic_exponent(20) == 9


def test_k_exponent_at_4_mod_8_pinned_by_oracle():
    # the rank-2 constituent <2> + <-8> decides the d = 4 mod 8 exponent:
    # stabilized count 128 = 2^(9-2) * ... matches the formula path, while
    # the 8+s extrapolation would demand 256
    lat = lattice_from_text("<2> + <-8>")
    r, value, stable = oracle_stabilized(lat, 2)
    assert stable and value == Fraction(128)
    assert local_density(lat, 2).value == Fraction(128)
    # and the full K(0,4) two-adic density uses exponent 9
    alpha = local_density(k_lattice(0, 4), 2).value
    assert alpha == Fraction(2**9) * Fraction(3, 4)


def test_vol_l_tilde_d1_doubling():
    # the d = 1 member carries an explicit extra factor 2 over the d > 1 form
    base = Fraction(1, 2) ** 2 * abs(Fraction(1, 6) * Fraction(-1, 30)) / 8
    assert fixture_vol_l_tilde(0, 1) == 2 * base


def test_dim_ii_growth_fixture():
    for m in (0, 1):
        assert cusp_dim_leading(unimodular_ii(m), "O~+") == fixture_dim_ii_leading(m)


@pytest.mark.parametrize("build, d, rank", [
    (unimodular_ii, (), 80000004),
    (t_lattice, (), 80000004),
    (l_lattice, (3,), 80000005),
    (k_lattice, (3,), 80000004),
    (n_lattice, (5,), 80000004),
], ids=["II", "T", "L", "K", "N"])
def test_family_over_rank_cap_builds_no_copies(build, d, rank):
    # the rank cap is checked on the count m, before any copy of E8(-1) is listed
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match=f"rank {rank} exceeds cap 64"):
            build(10**7, *d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
