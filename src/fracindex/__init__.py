"""Exact cohomological index computations for symbols twisted by a finite
central subgroup: fractional indices, moment tables and full index
distributions, in rational and cyclotomic arithmetic.
"""

from fracindex.scalars import (
    Cyclotomic,
    a_hat_series,
    bernoulli,
    cyclotomic_polynomial,
)

__all__ = [
    "Cyclotomic",
    "a_hat_series",
    "bernoulli",
    "cyclotomic_polynomial",
]

__version__ = "0.1.0"
