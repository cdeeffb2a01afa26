"""Exact cohomological index computations for symbols twisted by a finite
central subgroup: fractional indices, moment tables and full index
distributions, in rational and cyclotomic arithmetic.
"""

from fracindex.scalars import (
    Cyclotomic,
    PowerSeries,
    Rational,
    bernoulli,
    cyclotomic_polynomial,
    genus_series,
)

__all__ = [
    "Cyclotomic",
    "PowerSeries",
    "Rational",
    "bernoulli",
    "cyclotomic_polynomial",
    "genus_series",
]

__version__ = "0.1.0"
