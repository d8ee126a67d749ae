"""Exact rational arithmetic, sparse polynomials, and fraction-free linear algebra."""

from .linalg import (
    divide_exact,
    generic_rank,
    nullspace_rational,
    nullspace_symbolic,
    poly_proportional,
    proportional,
    rank_rational,
)
from .poly import Monomial, Poly, PolyMatrix, VarTable, grlex_key, monomial_str

__all__ = [
    "Monomial",
    "Poly",
    "PolyMatrix",
    "VarTable",
    "divide_exact",
    "generic_rank",
    "grlex_key",
    "monomial_str",
    "nullspace_rational",
    "nullspace_symbolic",
    "poly_proportional",
    "proportional",
    "rank_rational",
]
