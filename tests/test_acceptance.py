"""Acceptance suite: one test per criterion, one pass/fail line each.

Every assertion is exact rational equality; the stated runtime budgets are
asserted as well.  Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from hmvol.cli import main as cli_main
from hmvol.density import local_density, oracle_stabilized
from hmvol.expr import lattice_from_text
from hmvol.families import (
    fixture_ratio_t_over_ii,
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
from hmvol.lattices import direct_sum, e8, from_gram, hyperbolic_plane, rank_one, rescale
from hmvol.special_values import SymbolicReal
from hmvol.volumes import cusp_dim_leading, group_volume, vol_hm

from conftest import ORACLE_CORPUS, SIGNATURE_2N_EXPRESSIONS, isometry_order, num_prime_divisors
from family_fixtures import fixture_cusp_k3, fixture_cusp_paramodular
from siegel import siegel_identities


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}]: FAIL")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed <= budget_seconds else f"PASS but over budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({elapsed:.2f}s)")
    assert elapsed <= budget_seconds, f"runtime {elapsed:.1f}s exceeds budget {budget_seconds}s"


def test_criterion_1_sp2z_anchor(capsys):
    with criterion(1, "Sp(2,Z) anchor", 1.0):
        code = cli_main(["analyze", "2*U + <-2>", "--group", "SO~+", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["volumes"]["SO~+"] == {"num": "1", "den": "2880"}
        assert doc["cusp_leading"]["SO~+"] == {"num": "1", "den": "8640"}


def test_criterion_2_unimodular_family():
    with criterion(2, "unimodular family closed form", 5.0):
        for m in (0, 1, 2):
            vol = group_volume(unimodular_ii(m), "O+")
            assert vol == fixture_vol_ii_oplus(m), m


def test_criterion_3_t_over_ii_ratio():
    with criterion(3, "T/II volume ratio", 5.0):
        for m in (1, 2, 3):
            ratio = group_volume(t_lattice(m), "O~+") / group_volume(
                unimodular_ii(m), "O~+"
            )
            assert ratio == fixture_ratio_t_over_ii(m), m


def test_criterion_4_l_family_sweep():
    with criterion(4, "L-family sweep and K3 growth", 30.0):
        for m in (0, 2):
            for d in range(1, 21):
                assert group_volume(l_lattice(m, d), "O~+") == fixture_vol_l_tilde(m, d), (m, d)
        for d in range(2, 11):
            assert cusp_dim_leading(l_lattice(2, d), "O~+") == fixture_cusp_k3(d), d


def test_criterion_5_paramodular():
    with criterion(5, "paramodular growth", 5.0):
        for d in (2, 3, 4, 5, 6):
            lead = cusp_dim_leading(l_lattice(0, d), "SO~+")
            assert lead == fixture_cusp_paramodular(d), d
        for d in (2, 3, 5):  # prime d simplification
            assert cusp_dim_leading(l_lattice(0, d), "SO~+") == Fraction(d * d + 1, 8640)


def test_criterion_6_k_n_two_route():
    with criterion(6, "K/N two-route check", 30.0):
        # d = 4, 16, 20, 36: d = 0 mod 4 with an odd discriminant D
        for d in (1, 2, 3, 4, 5, 6, 7, 12, 16, 20, 36):
            assert group_volume(k_lattice(0, d), "O~+") == fixture_vol_k_tilde(0, d), d
        for d in (1, 5, 13):
            assert group_volume(n_lattice(0, d), "O~+") == fixture_vol_n_tilde(0, d), d


def test_criterion_7_oracle_suite():
    with criterion(7, "oracle suite", 600.0):
        assert len(ORACLE_CORPUS) == 12
        checked = 0
        for text in ORACLE_CORPUS:
            lat = lattice_from_text(text)
            assert lat.rank <= 3
            for p in (2, 3, 5):
                if (2 * abs(lat.det)) % p:
                    continue
                r, value, stable = oracle_stabilized(lat, p)
                assert stable, (text, p, r)
                assert value == local_density(lat, p).value, (text, p, r)
                checked += 1
        assert checked >= 17  # every entry at p=2, plus the odd-prime cases


def test_criterion_8_lemma_sweeps():
    with criterion(8, "discriminant-form order sweeps", 60.0):
        for d in range(1, 31):
            assert isometry_order(rank_one(-2 * d)) == 2 ** num_prime_divisors(d), d
        for d in range(1, 31):
            lat = direct_sum(rank_one(2), rank_one(-2 * d))
            expected = 2 ** (num_prime_divisors(d) + 1) if (d % 4 == 3 or d % 8 == 0) else 2 ** num_prime_divisors(d)
            assert isometry_order(lat) == expected, d
        for d in range(1, 30, 4):  # d = 1 mod 4
            lat = from_gram([[2, 1], [1, (1 - d) // 2]])
            assert isometry_order(lat) == 2 ** num_prime_divisors(d), d


def test_criterion_9_structural_invariants():
    with criterion(9, "structural invariants", 120.0):
        corpus = [lattice_from_text(t) for t in SIGNATURE_2N_EXPRESSIONS]
        for lat in corpus:
            v = vol_hm(lat)
            assert isinstance(v, Fraction) and v > 0
            assert group_volume(lat, "O+") == 2 * v
            assert siegel_identities(lat).ratio == SymbolicReal(v)
        # Jordan rank/valuation conservation over randomized compositions
        from hmvol.arith import valuation
        from hmvol.jordan import jordan_decompose

        atoms = (
            lambda: hyperbolic_plane(1),
            lambda: hyperbolic_plane(2),
            lambda: e8(-1),
            lambda: rank_one(1),
            lambda: rank_one(-2),
            lambda: rank_one(6),
            lambda: rank_one(-20),
            lambda: from_gram([[2, 1], [1, 2]]),
            lambda: from_gram([[2, 1], [1, -2]]),
        )
        rng = random.Random(0xACCE)
        for _ in range(1000):
            parts = [rng.choice(atoms)() for _ in range(rng.randint(1, 3))]
            lat = direct_sum(*parts)
            if rng.random() < 0.25:
                lat = rescale(lat, rng.choice([-1, 2, 3]))
            p = rng.choice([2, 3, 5, 7])
            dec = jordan_decompose(lat, p)
            assert dec.total_rank == lat.rank
            assert dec.det_valuation == valuation(lat.det, p)
