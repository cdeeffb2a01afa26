"""Exact scalar arithmetic: rationals, cyclotomic numbers, Bernoulli numbers
and the a-hat genus series.

Everything here is exact.  Rational scalars are `fractions.Fraction`;
cyclotomic scalars are residues modulo the N-th cyclotomic polynomial,
stored as integer numerators over one positive denominator in lowest
terms.  Phi_N is monic with integer coefficients, built by integer long
division of t^N - 1 by Phi_d for every proper divisor d.  Roots of unity
enter only through `power_residues`, whose integer row k is t^k modulo
Phi_N, for every order N, N <= 2 (zeta = +-1) included.
`residue_scalar` turns deg(Phi_N) integer numerators over one denominator
into an emitted scalar, building no Cyclotomic when it is rational, and
`galois_conjugate` (sigma_a: zeta -> zeta^a, a a unit mod N) sends the
coefficient of zeta^i to row a*i mod N by deg(Phi_N) integer dot products.
A Cyclotomic is a value the engine emits and compares, built from at most
deg(Phi_N) integer numerators (nothing is folded); it has sums and
rational multiples, each built by `_cyclotomic` (one gcd pass, none of the
constructor's checks), and no product of two cyclotomic scalars.  No float
ever enters or leaves this module.

The one-root a-hat series (x/2)/sinh(x/2) and its log are read from two
separate Bernoulli closed forms, neither derived from the other, so the
root route and the power-sum route of `characteristic.a_hat` rest on
different formulas and a wrong coefficient makes them disagree.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Union

Scalar = Union[Fraction, "Cyclotomic"]


class Frozen:
    """Base of the package's immutable value classes.  A record lists its
    fields in `__slots__` and writes no __init__: this one stores one
    argument per slot, in order and as given (the caller converts), and
    raises TypeError on the wrong count.  A class that derives or caches
    writes its own, says why, and computes only those values before one
    call of this one stores every field.  Assignment and deletion raise
    AttributeError.  Records are not dataclasses: importing them loads
    `inspect` (+0.95 MiB peak RSS per benchmark run), and on Python 3.11 a
    frozen slotted dataclass raises TypeError when a non-field is set."""

    __slots__ = ()

    def __init__(self, *values):
        names = type(self).__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} values, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of rational values (ints or Fractions) over their
    least common denominator; gcd(numerators, denominator) is 1."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the order-th cyclotomic
    polynomial: t^order - 1 divided exactly by the monic Phi_d of every
    proper divisor d, so every step is integer long division."""
    if order < 1:
        raise ValueError(f"cyclotomic order must be positive, got {order}")
    num = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            divisor = cyclotomic_polynomial(d)
            deg = len(divisor) - 1
            terms = [(j, c) for j, c in enumerate(divisor[:-1]) if c]
            quotient = [0] * (len(num) - deg)
            for k in range(len(num) - 1, deg - 1, -1):
                lead = num[k]
                if lead:
                    quotient[k - deg] = lead
                    for j, c in terms:
                        num[k - deg + j] -= lead * c
            assert not any(num[:deg]), "t^N - 1 must be divisible by each Phi_d"
            num = quotient
    return tuple(num)


@lru_cache(maxsize=None)
def power_residues(order: int) -> tuple[tuple[int, ...], ...]:
    """Row k, for 0 <= k < order, holds the coefficients (ascending) of
    t^k modulo the order-th cyclotomic polynomial.

    Phi_N is monic with integer coefficients, so every row is integral;
    since Phi_N divides t^N - 1, t^k reduces like t^(k mod N).
    """
    modulus = cyclotomic_polynomial(order)
    row = [1] + [0] * (len(modulus) - 2)
    rows = []
    for _ in range(order):
        rows.append(tuple(row))
        top = row[-1]  # t * row overflows into t^deg = -(lower terms of Phi_N)
        row = [0] + row[:-1]
        if top:
            row = [r - top * m for r, m in zip(row, modulus)]
    return tuple(rows)


def residue_scalar(order: int, numerators: list[int], denominator: int) -> Scalar:
    """sum_i numerators[i] * zeta^i / denominator, zeta = zeta_order: deg(Phi_N)
    int numerators over a positive int denominator, as a Fraction when only
    the constant term is nonzero (no Cyclotomic is built), else `_cyclotomic`."""
    if not any(numerators[1:]):
        return Fraction(numerators[0], denominator)
    return _cyclotomic(order, numerators, denominator)


@lru_cache(maxsize=None)
def _conjugation(order: int, unit: int) -> tuple[tuple[int, ...], ...]:
    """sigma_a on numerators, a = `unit`: row j holds numerator j of each
    row a*i mod N of `power_residues`, i < deg(Phi_N)."""
    residues = power_residues(order)
    return tuple(zip(*[residues[unit * i % order] for i in range(len(residues[0]))]))


def galois_conjugate(value: Scalar, unit: int) -> Scalar:
    """sigma_a(value) for a = `unit`, a unit mod the value's order N: zeta ->
    zeta^a fixes a Fraction and sends the numerator c_i of zeta^i to c_i
    times row a*i mod N: one dot product per row of `_conjugation`."""
    if type(value) is Fraction:
        return value
    vector = [sum(map(mul, row, value.numerators)) for row in _conjugation(value.order, unit)]
    return residue_scalar(value.order, vector, value.denominator)


class Cyclotomic(Frozen):
    """An element of the cyclotomic field of the given order, as a value:
    a residue modulo Phi_order stored as deg(Phi_order) integer numerators
    over one positive denominator, in lowest terms (a zero element has
    denominator 1), so equal elements have equal fields.

    The constructor takes at most deg(Phi_order) int numerators (fewer are
    padded with zeros) over an optional int denominator >= 1; a non-int
    numerator raises TypeError, a longer list or another denominator
    ValueError; the module's own results skip these checks.  The class
    supports exactly what the engine's route compare and the output need:
    `root_of_unity`, exact zero and rationality tests, sums with an element
    of the same order or a rational on either side (promoted into the
    order; another order raises ValueError), the element times an int or a
    Fraction, equality and repr.  Elements are not hashable, and there is
    no product of two elements and no negation or difference (multiply by
    -1).  Its own constructor checks and pads.
    """

    __slots__ = ("order", "numerators", "denominator")

    def __init__(self, order: int, numerators, denominator: int = 1) -> None:
        poly = list(numerators)
        for c in poly:
            if type(c) is not int:
                raise TypeError(f"cyclotomic numerators must be ints, got {type(c).__name__}")
        if type(denominator) is not int or denominator < 1:
            raise ValueError(f"cyclotomic denominator must be an int >= 1, got {denominator!r}")
        deg = len(cyclotomic_polynomial(order)) - 1
        if len(poly) > deg:
            raise ValueError(f"order {order} takes at most {deg} numerators, got {len(poly)}")
        _cyclotomic(order, poly + [0] * (deg - len(poly)), denominator, self)

    @classmethod
    def root_of_unity(cls, order: int, exponent: int = 1) -> "Cyclotomic":
        """The primitive order-th root of unity raised to `exponent`."""
        return cls(order, power_residues(order)[exponent % order])

    def is_zero(self) -> bool:
        return not any(self.numerators)

    def is_rational(self) -> bool:
        return not any(self.numerators[1:])

    # -- arithmetic ----------------------------------------------------------

    def _pair(self, other) -> "Cyclotomic":
        """The other operand in this element's field: a rational is promoted
        into this order, and an element of another order is an error."""
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [other.numerator], other.denominator)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if other.order != self.order:
            raise ValueError(f"cyclotomic orders differ: {self.order} and {other.order}")
        return other

    def __add__(self, other):
        other = self._pair(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.denominator, other.denominator
        poly = [x * db + y * da for x, y in zip(self.numerators, other.numerators)]
        return _cyclotomic(self.order, poly, da * db)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        poly = [c * other.numerator for c in self.numerators]
        return _cyclotomic(self.order, poly, self.denominator * other.denominator)

    def __eq__(self, other):
        other = self._pair(other)
        if other is NotImplemented:
            return NotImplemented
        return self.numerators == other.numerators and self.denominator == other.denominator

    def __repr__(self):
        den = self.denominator
        body = ", ".join(str(Fraction(n, den)) for n in self.numerators)
        return f"Cyclotomic({self.order}, [{body}])"


def _cyclotomic(order: int, num: list, den: int, out: Cyclotomic | None = None) -> Cyclotomic:
    """The element of deg(Phi_order) int numerators over an int den >= 1, in
    lowest terms by one gcd pass, its slots set in `out` or a new element;
    the constructor's checks are for values from outside the package."""
    g = math.gcd(den, *num)
    if g != 1:
        num, den = [c // g for c in num], den // g
    if out is None:
        out = object.__new__(Cyclotomic)
    _set_order(out, order)
    _set_numerators(out, tuple(num))
    _set_denominator(out, den)
    return out


_set_order, _set_numerators, _set_denominator = (
    Cyclotomic.order.__set__, Cyclotomic.numerators.__set__, Cyclotomic.denominator.__set__
)


def demote(value: Scalar) -> Scalar:
    """Convert a rational-valued Cyclotomic back to a Fraction; pass
    everything else through unchanged."""
    if isinstance(value, Cyclotomic) and value.is_rational():
        return Fraction(value.numerators[0], value.denominator)
    return value


def scalar_to_json(value: Scalar):
    """Serialize a scalar: Fractions as "p/q" strings, genuine cyclotomics
    as {"order": N, "coefficients": [...]}, each coefficient its numerator
    over the denominator in lowest terms, by one gcd."""
    value = demote(value)
    if type(value) is Fraction:
        return str(value)
    den = value.denominator
    coefficients = []
    for n in value.numerators:
        g = math.gcd(n, den)
        coefficients.append(str(n // g) if g == den else f"{n // g}/{den // g}")
    return {"order": value.order, "coefficients": coefficients}


# ---------------------------------------------------------------------------
# Bernoulli numbers


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number, under the convention bernoulli(1) = -1/2.

    Defined by the recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1.
    """
    if n < 0:
        raise ValueError(f"Bernoulli index must be nonnegative, got {n}")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


# ---------------------------------------------------------------------------
# the a-hat genus series (Hirzebruch, Topological Methods in Algebraic
# Geometry, section 1)


def a_hat_series(order: int) -> tuple[Fraction, ...]:
    """Coefficients of x^0 .. x^order of (x/2)/sinh(x/2), the odd ones 0: the
    x^2k one is (2^(1-2k) - 1) B_2k / (2k)!, one Fraction from B_2k's parts."""
    if order < 0:
        raise ValueError("series order must be nonnegative")
    coefficients = [Fraction(0)] * (order + 1)
    for n in range(0, order + 1, 2):
        b = bernoulli(n)
        coefficients[n] = Fraction((2 - 2**n) * b.numerator, 2**n * b.denominator * math.factorial(n))
    return tuple(coefficients)


def a_hat_log_series(order: int) -> tuple[Fraction, ...]:
    """Coefficients of x^0 .. x^order of log((x/2)/sinh(x/2)), 0 but at x^2k,
    k >= 1: -B_2k / (2k (2k)!), one Fraction from B_2k's parts."""
    if order < 0:
        raise ValueError("series order must be nonnegative")
    coefficients = [Fraction(0)] * (order + 1)
    for n in range(2, order + 1, 2):
        b = bernoulli(n)
        coefficients[n] = Fraction(-b.numerator, b.denominator * n * math.factorial(n))
    return tuple(coefficients)
