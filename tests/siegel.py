"""Siegel volumes of O(L)\\D and of its compact dual, for the cross-identity
tests: their ratio must equal vol_HM(O(L)).  Built from `build_report`'s own
Euler product and the record routes of the det power and the gamma factor in
`fraction_routes`, so the identity checks the gamma factor and the assembly
of the volume, not the densities."""

from dataclasses import dataclass
from fractions import Fraction

from fraction_routes import det_power, gamma_factor
from hmvol.lattices import Lattice
from hmvol.special_values import SymbolicReal
from hmvol.volumes import build_report


@dataclass(frozen=True)
class SiegelIdentities:
    gamma_r: SymbolicReal
    gamma_s: SymbolicReal
    gamma_rs: SymbolicReal
    vol_s_group: SymbolicReal
    vol_s_dual: SymbolicReal
    ratio: SymbolicReal


def _inverse(x: SymbolicReal) -> SymbolicReal:
    """1/x for a value without a surd, as every gamma_m and their products are."""
    assert x.radicand == 1, x
    return SymbolicReal(1 / x.coefficient, -x.pi_half_exponent)


def siegel_gamma(m: int) -> SymbolicReal:
    """gamma_m = prod_{k=1}^m pi^(k/2) / Gamma(k/2)."""
    return _inverse(gamma_factor(m))


def vol_s_so(m: int) -> SymbolicReal:
    """Siegel volume of the compact group SO(m): 2^(m-1) gamma_m."""
    return SymbolicReal(Fraction(2) ** (m - 1)) * siegel_gamma(m)


def siegel_identities(lattice: Lattice, g_sp_plus: int = 1) -> SiegelIdentities:
    """Siegel volume of O(L)\\D, of the compact dual, and their ratio."""
    report = build_report(lattice, ("O",), g_sp_plus)
    r, s = lattice.signature
    g_r, g_s, g_rs = siegel_gamma(r), siegel_gamma(s), siegel_gamma(r + s)
    alpha_inf = SymbolicReal(Fraction(2, g_sp_plus)) * report.euler_product
    vol_group = SymbolicReal(Fraction(2)) * alpha_inf * det_power(lattice) * _inverse(g_r * g_s)
    vol_dual = SymbolicReal(Fraction(2)) * g_rs * _inverse(g_r * g_s)
    return SiegelIdentities(g_r, g_s, g_rs, vol_group, vol_dual, vol_group * _inverse(vol_dual))
