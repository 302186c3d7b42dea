"""Exact workbench for gamma-positivity, its alternating variants, and
Hurwitz stability of the classical combinatorial polynomial families."""

from .polynomial import (
    BiPoly,
    DegreeTooSmall,
    NotDivisible,
    Scalar,
    UniPoly,
    f_to_h,
    poly_gcd,
)

__all__ = [
    "BiPoly",
    "DegreeTooSmall",
    "NotDivisible",
    "Scalar",
    "UniPoly",
    "f_to_h",
    "poly_gcd",
]

__version__ = "0.1.0"
