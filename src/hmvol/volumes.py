"""Hirzebruch-Mumford volumes of orthogonal groups of indefinite lattices.

Main identity, for an indefinite lattice of rank rho >= 3:

    vol_HM(O(L)) = (2 / g_sp+) |det L|^((rho+1)/2)
                   * prod_{k=1}^{rho} pi^(-k/2) Gamma(k/2)
                   * prod_p alpha_p(L)^(-1)

where g_sp+ is the number of proper spinor genera in the genus (1 whenever a
hyperbolic plane splits off) and alpha_p are the local densities.  The Euler
product over all primes collapses exactly: at good primes alpha_p has the
closed unimodular form, so the tail is a finite product of zeta values (odd
rank) or zeta values and one quadratic Dirichlet L-value (even rank), with
rational corrections at the primes dividing 2 det L.  The L-value is that of
the genus discriminant D: at a good prime p the one unimodular Jordan block
has chi = kronecker(D, p) by construction (checked in the tests), so only
the bad primes are decomposed.  The corrections and the alpha_p^(-1) at the
bad primes make one rational.  The bad primes, the surd of |det L|^((rho+1)/2)
and D all come from one factorization of det, `Lattice.det_factors`.

The pi powers and square roots cancel by construction.  The Euler product
is the one `SymbolicReal` record: a rational times pi^((rho^2-1)/4) (odd
rho) or pi^(rho^2/4) sqrt(c) (even rho, c the squarefree part of |det L|).
The gamma factor is a rational times the inverse pi power, and
|det L|^((rho+1)/2) is an integer times the same sqrt(c), so vol_HM(O(L)) is
one product of rationals; the tests check the cancellation on the record
route.  Volumes of the subgroup variants (plus, determinant-1, stable)
follow by multiplying with the projective index, and the leading
coefficient of cusp-form dimension growth for signature (2, n) is
(2/n!) vol_HM(Gamma).  Every entry point reads its value off `build_report`:
`vol_hm`, `group_volume` and `cusp_dim_leading` return a `Fraction`, and
`euler_alpha_product` the `SymbolicReal` record of the Euler product.

The group diagram, for an even lattice of signature (2, n): the stable
subgroups (the ones acting trivially on the discriminant form (A_L, q_L))
sit inside the full groups with index N = |O(q_L)|, and the plus and
determinant conditions each contribute a further index 2.  The projective
index also depends on whether -id lies in the subgroup: -id is in O+ always,
in the determinant-1 groups iff the rank is even, and in the stable groups
iff -id acts trivially on A_L, i.e. A_L has exponent <= 2.  One rule,
`_refusal`, decides which tags a lattice has.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .arith import kronecker, squarefree_split
from .density import (
    LocalDensity,
    _p_series_num,
    bad_primes,
    density_from_decomposition,
    finite_isometry_order,
    oracle_stabilized,
)
from .errors import InternalCheckError, PreconditionError
from .jordan import jordan_decompose
from .lattices import Lattice
from .special_values import (
    SymbolicReal,
    field_discriminant,
    gamma_factor,
    l_closed,
    zeta_product,
)


# a "~" marks the stable groups, which act trivially on the discriminant form
GROUP_TAGS = ("O", "O+", "SO+", "O~+", "SO~+")


def _is_two_n(lattice: Lattice) -> bool:
    """Whether `lattice` has signature (2, n), n >= 1."""
    return lattice.signature.positive == 2 and lattice.signature.negative >= 1


def _refusal(lattice: Lattice, tag: str) -> str | None:
    """Why `lattice` has no group `tag`, or None when it has one."""
    if tag not in GROUP_TAGS:
        return f"unknown group tag {tag!r}"
    if tag == "O":
        return None
    if not _is_two_n(lattice):
        return "projective indices are defined for signature (2, n), n >= 1"
    if "~" not in tag:
        return None
    if not lattice.is_even:
        return "stable group tags need the discriminant form of an even lattice"
    if not lattice.has_hyperbolic_summand:
        return ("stable-group indices assume a hyperbolic-plane direct summand "
                "(one class per genus, surjectivity onto O(q))")
    return None


def _index_and_minus_id(
    tag: str, even_rank: bool, n_iso: int | None, two_elementary: bool | None
) -> tuple[int, bool]:
    """([PO(L) : P(Gamma_tag)], whether -id lies in Gamma_tag).  The index is
    [O(L) : Gamma_tag], halved when -id is not in Gamma_tag, since -id is in
    O(L); `n_iso` = |O(q_L)| and `two_elementary` (A_L has exponent <= 2)
    are read only for the stable tags."""
    full, minus_id = {"O": (1, True), "O+": (2, True), "SO+": (4, even_rank),
                      "O~+": (2, two_elementary), "SO~+": (4, two_elementary and even_rank)}[tag]
    if "~" in tag:
        full *= n_iso
    return (full if minus_id else full // 2), minus_id


def genus_discriminant(lattice: Lattice) -> int:
    """Fundamental discriminant attached to an even-rank lattice: the
    discriminant of Q(sqrt((-1)^(rho/2) det L))."""
    c, _ = squarefree_split(lattice.det_factors)
    sign = (-1) ** (lattice.rank // 2) * (1 if lattice.det > 0 else -1)
    return field_discriminant(sign * c)


def euler_alpha_product(lattice: Lattice) -> SymbolicReal:
    """prod_p alpha_p(L)^(-1) over all primes, as an exact symbolic value.

    Bad primes (dividing 2 det L) contribute their exact alpha_p^(-1); the
    good-prime tail is zeta(2)...zeta(2t) for odd rank 2t+1, and
    zeta(2)...zeta(2t-2) L(t, chi_D) for even rank 2t with D the genus
    discriminant, both times rational corrections at the bad primes.
    """
    return build_report(lattice, ("O",)).euler_product


def _euler_product(lattice: Lattice, densities: list[LocalDensity]) -> SymbolicReal:
    """euler_alpha_product from the densities at the bad primes: the
    alpha_p^(-1) and the bad-prime corrections make one integer numerator
    and denominator, reduced once, which multiply the zeta (and L) values."""
    num = den = 1
    for d in densities:
        num *= d.value.denominator
        den *= d.value.numerator
    rho = lattice.rank
    if rho % 2:
        t = (rho - 1) // 2
        for d in densities:
            # P_p(t) = _p_series_num(p, t) / p^(t(t+1))
            num *= _p_series_num(d.p, t)
            den *= d.p ** (t * (t + 1))
        return SymbolicReal(zeta_product(t) * Fraction(num, den), 2 * t * (t + 1))
    t = rho // 2
    if lattice.det < 0:
        # chi_D(-1) != (-1)^t here; L(t, chi_D) has no elementary closed form
        raise PreconditionError(
            "even-rank lattices with negative determinant fall outside the exact "
            "closed-form Euler product (odd-parity L-value)"
        )
    # at p not dividing 2 det the one unimodular Jordan block has
    # chi = kronecker(disc, p), so the good primes give L(t, chi_disc)
    disc = genus_discriminant(lattice)
    for d in densities:
        # P_p(t-1) (1 - chi(p) p^(-t)) = _p_series_num(p, t-1) (p^t - chi(p)) / p^(t^2)
        num *= _p_series_num(d.p, t - 1) * (d.p**t - kronecker(disc, d.p))
        den *= d.p ** (t * t)
    # the squarefree part c of |det| is that of |D| = c or 4c, the surd of L(t, chi_D)
    coefficient = zeta_product(t - 1) * l_closed(t, disc) * Fraction(num, den)
    return SymbolicReal(coefficient, 2 * t * t, squarefree_split(lattice.det_factors)[0])


def vol_hm(lattice: Lattice, g_sp_plus: int = 1) -> Fraction:
    """Hirzebruch-Mumford volume of O(L), an exact rational, read off the
    one-tag report."""
    return build_report(lattice, ("O",), g_sp_plus).volumes["O"]


def group_volume(lattice: Lattice, tag: str, g_sp_plus: int = 1) -> Fraction:
    """vol_HM of the subgroup named by `tag`, as an exact rational:
    [PO(L) : P Gamma_tag] * vol_HM(O(L)), read off the one-tag report."""
    return build_report(lattice, (tag,), g_sp_plus).volumes[tag]


def cusp_dim_leading(lattice: Lattice, tag: str, g_sp_plus: int = 1) -> Fraction:
    """Leading coefficient of dim S_k(Gamma_tag): (2/n!) vol_HM(Gamma_tag) for
    signature (2, n); the k^n coefficient of the dimension growth."""
    if not _is_two_n(lattice):
        raise PreconditionError("cusp dimension growth is defined for signature (2, n)")
    return build_report(lattice, (tag,), g_sp_plus).cusp_leading[tag]


class VolumeReport(NamedTuple):
    """Everything computed for one lattice/group-set pair; each report has
    its own `assumptions` and `oracle_checks` lists."""

    lattice: Lattice
    g_sp_plus: int
    bad_primes: tuple[int, ...]
    densities: list[LocalDensity]
    euler_product: SymbolicReal
    volumes: dict[str, Fraction]
    indices: dict[str, int]
    cusp_leading: dict[str, Fraction]
    assumptions: list[str]
    oracle_checks: list[dict]


def build_report(
    lattice: Lattice,
    tags: tuple[str, ...] | None = None,
    g_sp_plus: int = 1,
    oracle_check: bool = False,
) -> VolumeReport:
    """Assemble the full report used by the CLI and the acceptance tests.

    Each stage runs once for the lattice: one Jordan decomposition per bad
    prime and one density from each, which give the Euler product, then
    vol_HM(O(L)), and (for the stable tags) |O(q)| at the primes dividing
    det.  Every tag's volume is its index times
    vol_HM(O(L)), and its cusp term is 2/n! times that volume.  A repeated
    tag counts once.  The default tags are those `_refusal` accepts; the
    first asked-for tag it refuses raises, after the Euler product, whose
    own precondition comes first.  With a hyperbolic-plane direct summand
    the genus has one class, so any g_sp_plus but 1 is a precondition error.
    """
    if g_sp_plus < 1:
        raise PreconditionError("spinor genus count must be a positive integer")
    if lattice.rank < 3:
        raise PreconditionError("volume formula needs rank >= 3")
    if lattice.is_definite:
        raise PreconditionError("volume formula needs an indefinite lattice")
    if lattice.has_hyperbolic_summand and g_sp_plus != 1:
        raise PreconditionError(
            f"g_sp+ = {g_sp_plus} contradicts the hyperbolic-plane direct summand: "
            "the genus has a single class, so g_sp+ = 1"
        )
    is_two_n = _is_two_n(lattice)
    refused = None
    if tags is None:
        tags = tuple(tag for tag in GROUP_TAGS if _refusal(lattice, tag) is None)
    else:
        tags = tuple(dict.fromkeys(tags))
        refused = next(filter(None, (_refusal(lattice, tag) for tag in tags)), None)
    bad = bad_primes(lattice)
    decomps = [jordan_decompose(lattice, p) for p in bad]
    densities = [density_from_decomposition(d) for d in decomps]
    euler = _euler_product(lattice, densities)
    if refused:
        raise PreconditionError(refused)
    rho, adet = lattice.rank, abs(lattice.det)
    if rho % 2:
        det_power = adet ** ((rho + 1) // 2)
    else:
        # |det|^((rho+1)/2) = |det|^(rho/2) s sqrt(c), |det| = c s^2, and the
        # Euler product's sqrt(c) makes sqrt(c)^2 = c
        c, s = squarefree_split(lattice.det_factors)
        det_power = adet ** (rho // 2) * s * c
    vol = Fraction(2 * det_power, g_sp_plus) * gamma_factor(rho) * euler.coefficient
    assumptions = []
    if lattice.has_hyperbolic_summand:
        assumptions.append(
            "g_sp+ = 1; the default 1 is justified: a hyperbolic-plane direct summand "
            "is present, so the genus has a single class"
        )
    else:
        assumptions.append(
            "g_sp+ = %d assumed (no hyperbolic-plane summand detected; supply --gsp "
            "if the genus has several spinor genera)" % g_sp_plus
        )
    n_iso = two_elementary = None
    if any("~" in tag for tag in tags):
        parts = [(d, a) for d, a in zip(decomps, densities) if d.p in lattice.det_factors]
        n_iso = finite_isometry_order(parts)
        two_elementary = all(d.p == 2 and b.level <= 1 for d, _ in parts for b in d.blocks)
    volumes: dict[str, Fraction] = {}
    indices: dict[str, int] = {}
    cusp: dict[str, Fraction] = {}
    cusp_factor = Fraction(2, factorial(lattice.signature.negative)) if is_two_n else None
    for tag in tags:
        indices[tag], minus_id = _index_and_minus_id(tag, rho % 2 == 0, n_iso, two_elementary)
        volumes[tag] = indices[tag] * vol
        if is_two_n:
            cusp[tag] = cusp_factor * volumes[tag]
            if minus_id:
                assumptions.append(
                    f"{tag}: -id lies in the group; the dimension formula counts weights k "
                    f"with (-1)^k = chi(-id) only"
                )
    oracle_checks = []
    if oracle_check:
        if lattice.rank <= 3:
            for density in densities:
                p = density.p
                walk = oracle_stabilized(lattice, p)
                if walk is None:
                    assumptions.append(
                        f"oracle check at p={p} skipped: even depth r=1 needs "
                        f"{p}^{lattice.rank**2} > 2^30 naive candidates"
                    )
                    continue
                r, value, stabilized = walk
                matches = value == density.value
                oracle_checks.append(
                    {"p": p, "r": r, "oracle": value, "stable": stabilized, "matches_formula": matches}
                )
                if stabilized and not matches:
                    raise InternalCheckError(
                        f"oracle disagrees with the density formula at p={p}"
                    )
        else:
            assumptions.append("oracle check skipped: rank exceeds the oracle bound 3")
    return VolumeReport(
        lattice=lattice,
        g_sp_plus=g_sp_plus,
        bad_primes=bad,
        densities=densities,
        euler_product=euler,
        volumes=volumes,
        indices=indices,
        cusp_leading=cusp,
        assumptions=assumptions,
        oracle_checks=oracle_checks,
    )
