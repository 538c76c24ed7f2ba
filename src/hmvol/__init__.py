"""Exact Hirzebruch-Mumford volumes of orthogonal groups of indefinite
integral lattices, with local densities computed both in closed form and by
brute-force counting.

`__all__` is the API that README's "What it computes" lists; every other
function stays importable from its module."""

from .density import local_density, siegel_count_oracle, siegel_counts_oracle
from .errors import (
    ExpressionError,
    FeasibilityError,
    HmvolError,
    InternalCheckError,
    PreconditionError,
)
from .expr import lattice_from_text
from .lattices import from_gram
from .special_values import SymbolicReal
from .volumes import build_report, cusp_dim_leading, euler_alpha_product, group_volume, vol_hm

__all__ = [
    "lattice_from_text",
    "from_gram",
    "vol_hm",
    "euler_alpha_product",
    "SymbolicReal",
    "build_report",
    "group_volume",
    "cusp_dim_leading",
    "local_density",
    "siegel_count_oracle",
    "siegel_counts_oracle",
    "HmvolError",
    "ExpressionError",
    "PreconditionError",
    "FeasibilityError",
    "InternalCheckError",
]

__version__ = "0.1.0"
