"""End-to-end volumes against the classical covolumes of `classical`."""

from fractions import Fraction

import pytest

from classical import (
    hilbert_spellings,
    hilbert_volumes,
    is_real_fundamental,
    seeded_discriminants,
    zeta_k_minus_one,
)
from hmvol.expr import lattice_from_text
from hmvol.volumes import build_report

SMALL = [d for d in range(2, 3000) if is_real_fundamental(d)]
# log-uniform, since the engine's B_{2,chi} is linear in D: one D near 10^6
# costs ~0.4 s per spelling, and these six (3,181 to 136,909) ~0.2 s in all
LARGE = seeded_discriminants(6, 3000, 10**6, seed=16)


def test_siegel_sum_values():
    # zeta_K(-1) = zeta(-1) L(-1, chi_D) = B_{2,chi_D}/24, e.g. B_{2,chi_5} = 4/5
    assert [zeta_k_minus_one(d) for d in (5, 8, 12, 13, 17)] == [
        Fraction(1, 30), Fraction(1, 12), Fraction(1, 6), Fraction(1, 6), Fraction(1, 3)]
    assert len(SMALL) == 909 and SMALL[:6] == [5, 8, 12, 13, 17, 21]


def _hilbert_failures(discs):
    failures = []
    for d in discs:
        want = hilbert_volumes(d)
        for text in hilbert_spellings(d):
            got = build_report(lattice_from_text(text), ("O", "SO~+")).volumes
            if got != want:
                failures.append((text, got, want))
    return failures


@pytest.mark.parametrize("discs", [SMALL, LARGE], ids=["D<3000", "seeded D<10^6"])
def test_hilbert_modular_surface_volumes(discs):
    # vol(O) = zeta_K(-1)/2^(omega(D)+2) and vol(SO~+) = zeta_K(-1)/2, exactly
    failures = _hilbert_failures(discs)
    assert not failures, (len(failures), failures[:3])
