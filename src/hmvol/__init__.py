"""Exact Hirzebruch-Mumford volumes of orthogonal groups of indefinite
integral lattices, with local densities computed both in closed form and by
brute-force counting."""

from .density import (
    LocalDensity,
    bad_primes,
    cross_rank_weight,
    local_density,
    oracle_stabilized,
    p_series,
    siegel_count_oracle,
    siegel_counts_oracle,
)
from .discforms import (
    FiniteQuadraticForm,
    discriminant_form,
    finite_isometry_order,
    projective_index,
)
from .errors import (
    ExpressionError,
    FeasibilityError,
    HmvolError,
    InternalCheckError,
    PreconditionError,
)
from .expr import evaluate, lattice_from_text, parse_expr, render
from .jordan import JordanBlock, JordanDecomposition, jordan_decompose
from .lattices import (
    Lattice,
    Signature,
    direct_sum,
    e8,
    from_gram,
    hyperbolic_plane,
    rank_one,
    rescale,
)
from .special_values import (
    SymbolicReal,
    bernoulli,
    fundamental_discriminant,
    gamma_factor,
    generalized_bernoulli,
    kronecker,
    l_closed,
    zeta_closed,
)
from .volumes import (
    VolumeReport,
    build_report,
    cusp_dim_leading,
    euler_alpha_product,
    group_volume,
    vol_hm,
)

__version__ = "0.1.0"
