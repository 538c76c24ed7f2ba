from math import prod

import pytest

from hmvol.arith import factorize
from hmvol.density import density_from_decomposition, finite_isometry_order
from hmvol.expr import lattice_from_text
from hmvol.jordan import jordan_decompose

# Rank <= 2 corpus for the counting-oracle suite: consecutive-depth
# stabilization for rank-3 lattices at p = 2 needs depth 4, whose naive
# candidate count 2^36 exceeds the 2^30 guard, so the corpus stays at rank 2
# (rank-3 checks run against the internal counter in test_density instead).
ORACLE_CORPUS = (
    "U",                # even unimodular, hyperbolic
    "gram[2,1;1,2]",    # even unimodular, non-hyperbolic (chi = -1)
    "<1>",              # odd unimodular
    "<1> + <1>",        # odd pair with the mod-4 exception
    "<1> + <-1>",       # odd pair without the exception
    "<1> + <2>",        # odd blocks at adjacent levels
    "<1> + <-4>",       # odd blocks separated by a trivial level
    "<2> + <-8>",       # scaled version of the separated configuration
    "U(3)",             # p-scaled even block at p = 3
    "<3> + <-3>",       # odd p-scaled diagonal at p = 3
    "<1> + <5>",        # exception pair, also 5-adic content
    "<2> + <-10>",      # scaled odd pair, also 5-adic content
)


@pytest.fixture(scope="session")
def oracle_corpus():
    return [(text, lattice_from_text(text)) for text in ORACLE_CORPUS]


# Signature (2, n) lattices used for the structural volume invariants.
SIGNATURE_2N_EXPRESSIONS = (
    "2*U",
    "2*U + E8(-1)",
    "2*U + 2*E8(-1)",
    "U + U(2)",
    "U + U(2) + E8(-1)",
    "U + U(2) + 2*E8(-1)",
    "2*U + <-2>",
    "2*U + <-6>",
    "2*U + <-24>",
    "2*U + E8(-1) + <-10>",
    "U + <2> + <-2>",
    "U + <2> + <-8>",
    "U + <2> + <-24>",
    "U + E8(-1) + <2> + <-14>",
    "U + gram[2,1;1,-2]",
    "U + gram[2,1;1,-6]",
    "2*U + gram[-2,-1;-1,-2]",
)


@pytest.fixture(scope="session")
def signature_2n_corpus():
    return [(text, lattice_from_text(text)) for text in SIGNATURE_2N_EXPRESSIONS]


def part_order(decomp) -> int:
    """|O(q_p)| by the program's route, read off the density of `decomp`."""
    return finite_isometry_order([(decomp, density_from_decomposition(decomp))])


def isometry_order(lat) -> int:
    """|O(q_L)| by the program's route: the product of the |O(q_p)|, p | det."""
    return prod(part_order(jordan_decompose(lat, p)) for p in lat.det_factors)


def num_prime_divisors(d: int) -> int:
    """rho(d): number of distinct prime divisors of d >= 1; rho(1) = 0."""
    return len(factorize(d))


def catalog_default_lattices():
    """(label, lattice) for every lattice the default `hmvol catalog` rows
    build, read off the CLI's default ranges."""
    from hmvol import families
    from hmvol.cli import _CATALOG_DEFAULTS

    builders = {
        "II": (families.unimodular_ii,),
        "T": (families.t_lattice, families.unimodular_ii),
        "L": (families.l_lattice,),
        "K": (families.k_lattice,),
        "N": (families.n_lattice,),
    }
    out = []
    for family, ranges in _CATALOG_DEFAULTS.items():
        for m in ranges["m"]:
            for d in ranges["d"]:
                args = (m,) if d is None else (m, d)
                out.extend((f"{b.__name__}{args}", b(*args)) for b in builders[family])
    return out


def integer_route_corpus():
    """The lattices on which the integer assembly of alpha_p and of the Euler
    product must equal the Fraction routes in `fraction_routes`."""
    texts = ORACLE_CORPUS + SIGNATURE_2N_EXPRESSIONS
    return [(t, lattice_from_text(t)) for t in texts] + catalog_default_lattices()
