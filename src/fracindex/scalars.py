"""Exact scalar arithmetic: rationals, cyclotomic numbers, Bernoulli numbers
and truncated formal power series.

Everything here is exact.  Rational scalars are `fractions.Fraction`;
cyclotomic scalars are residues modulo the N-th cyclotomic polynomial,
stored as integer numerators over one positive denominator in lowest
terms.  Sums and products of cyclotomic scalars are integer work: t^k for
k >= deg(Phi_N) folds in as the integer row k of `power_residues`, and
one gcd pass reduces each result.  `root_of_unity_sum` puts its weights
over one denominator and adds rows of the same table; it builds no
Cyclotomic when the sum is rational (always, for N <= 2).  No float ever
enters or leaves this module.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

#: Rational scalars are plain stdlib fractions (always lowest terms,
#: positive denominator, exact arithmetic).
Rational = Fraction

Scalar = Union[Fraction, "Cyclotomic"]


class Frozen:
    """Base of the package's immutable value classes: each sets its slots
    once in __init__ through object.__setattr__, and assignment afterwards
    raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def rational_to_string(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of rational values (ints or Fractions) over their
    least common denominator; gcd(numerators, denominator) is 1."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


# ---------------------------------------------------------------------------
# dense univariate polynomials over Fraction (ascending coefficients): the
# exact division that builds the cyclotomic polynomials


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    while len(rem) >= len(b) and _poly_trim(rem):
        shift = len(rem) - len(b)
        c = rem[-1] * inv_lead
        quo[shift] = c
        for j, bj in enumerate(b):
            rem[shift + j] -= c * bj
        _poly_trim(rem)
    return _poly_trim(quo), rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the order-th cyclotomic polynomial.

    Computed by exact division of t^order - 1 by the cyclotomic polynomials
    of all proper divisors; no factorization involved.
    """
    if order < 1:
        raise ValueError(f"cyclotomic order must be positive, got {order}")
    num = [Fraction(-1)] + [Fraction(0)] * (order - 1) + [Fraction(1)]
    for d in range(1, order):
        if order % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not rem, "t^N - 1 must be divisible by each Phi_d"
    return tuple(num)


@lru_cache(maxsize=None)
def power_residues(order: int) -> tuple[tuple[int, ...], ...]:
    """Row k, for 0 <= k < order, holds the coefficients (ascending) of
    t^k modulo the order-th cyclotomic polynomial.

    Phi_N is monic with integer coefficients, so every row is integral;
    since Phi_N divides t^N - 1, t^k reduces like t^(k mod N).
    """
    modulus = [int(c) for c in cyclotomic_polynomial(order)]
    row = [1] + [0] * (len(modulus) - 2)
    rows = []
    for _ in range(order):
        rows.append(tuple(row))
        top = row[-1]  # t * row overflows into t^deg = -(lower terms of Phi_N)
        row = [0] + row[:-1]
        if top:
            row = [r - top * m for r, m in zip(row, modulus)]
    return tuple(rows)


def root_of_unity_sum(order: int, weights: Mapping[int, Fraction]) -> Scalar:
    """sum_k weights[k] * zeta^k for zeta a primitive order-th root of
    unity: the weights go over one common denominator and their integer
    numerators add up rows of `power_residues`.  A rational sum (always,
    when order <= 2 and the field is Q) is returned as a Fraction without
    building a Cyclotomic."""
    numerators, den = common_denominator(list(weights.values()))
    poly = [0] * order
    for k, n in zip(weights, numerators):
        poly[k % order] += n
    poly = _fold(order, poly)
    if not any(poly[1:]):
        return Fraction(poly[0], den)
    return Cyclotomic(order, poly, den)


def _fold(order: int, poly: list[int]) -> list[int]:
    """Reduce integer coefficients (ascending) modulo the order-th
    cyclotomic polynomial in place: t^k for k >= deg(Phi_order) adds row
    k % order of `power_residues`."""
    residues = power_residues(order)
    deg = len(residues[0])
    for k in range(deg, len(poly)):
        if poly[k]:
            for i, r in enumerate(residues[k % order]):
                poly[i] += r * poly[k]
    del poly[deg:]
    poly += [0] * (deg - len(poly))
    return poly


class Cyclotomic(Frozen):
    """An element of the cyclotomic field of the given order: a residue
    modulo the cyclotomic polynomial, stored as deg(Phi_order) integer
    numerators over one positive denominator, in lowest terms (a zero
    element has denominator 1), so equal elements have equal fields.
    `coeffs` is the Fraction view.

    The constructor takes int or Fraction coefficients of any length over
    an optional positive integer denominator; t^k for k >= deg(Phi_order)
    is folded in through row k of `power_residues`.  Both operands of
    arithmetic live in one field: a rational operand is promoted into the
    order, and an element of another order raises ValueError (every value
    the engine emits lives in the field of the group exponent).  Zero
    testing is exact; an element whose non-constant numerators all vanish
    converts losslessly to a Fraction.
    """

    __slots__ = ("order", "numerators", "denominator")

    def __init__(self, order: int, coeffs, denominator: int = 1) -> None:
        poly, scale = list(coeffs), 1
        if not all(type(c) is int for c in poly):
            poly, scale = common_denominator(poly)
        poly = _fold(order, poly)
        g = math.gcd(denominator * scale, *poly)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "numerators", tuple([c // g for c in poly]))
        object.__setattr__(self, "denominator", denominator * scale // g)

    @classmethod
    def root_of_unity(cls, order: int, exponent: int = 1) -> "Cyclotomic":
        """The primitive order-th root of unity raised to `exponent`."""
        return cls(order, power_residues(order)[exponent % order])

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "Cyclotomic":
        return cls(order, [Fraction(value)])

    # -- conversions --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(n, self.denominator) for n in self.numerators])

    def is_zero(self) -> bool:
        return not any(self.numerators)

    def is_rational(self) -> bool:
        return not any(self.numerators[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.numerators[0], self.denominator)

    # -- arithmetic ----------------------------------------------------------

    def _pair(self, other) -> "Cyclotomic":
        """The other operand in this element's field: a rational is promoted
        into this order, and an element of another order is an error."""
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other, self.order)
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
        return Cyclotomic(self.order, poly, da * db)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.numerators], self.denominator)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            poly = [c * other.numerator for c in self.numerators]
            return Cyclotomic(self.order, poly, self.denominator * other.denominator)
        other = self._pair(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.numerators, other.numerators
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Cyclotomic(self.order, out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._pair(other)
        if other is NotImplemented:
            return NotImplemented
        return self.numerators == other.numerators and self.denominator == other.denominator

    def __hash__(self):
        if self.is_rational():
            return hash(self.to_rational())
        return hash((self.order, self.numerators, self.denominator))

    def __repr__(self):
        body = ", ".join(rational_to_string(c) for c in self.coeffs)
        return f"Cyclotomic({self.order}, [{body}])"


def demote(value: Scalar) -> Scalar:
    """Convert a rational-valued Cyclotomic back to a Fraction; pass
    everything else through unchanged."""
    if isinstance(value, Cyclotomic) and value.is_rational():
        return value.to_rational()
    return value


def scalar_to_json(value: Scalar):
    """Serialize a scalar: Fractions as "p/q" strings, genuine cyclotomics
    as {"order": N, "coefficients": [...]}."""
    value = demote(value)
    if isinstance(value, Fraction):
        return rational_to_string(value)
    return {
        "order": value.order,
        "coefficients": [rational_to_string(c) for c in value.coeffs],
    }


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
# truncated one-variable formal power series


class PowerSeries(Frozen):
    """A formal power series in one variable truncated at a fixed order:
    coefficients for x^0 .. x^order, all Fractions.  The inverse and the
    log of an order-k series are again order-k series, exact up to x^k.
    """

    __slots__ = ("variable", "order", "coeffs")

    def __init__(self, coeffs, order: int | None = None, variable: str = "x") -> None:
        coeffs = [Fraction(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        coeffs = coeffs[: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.order else Fraction(0)

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv0 = 1 / c0
        out = [inv0] + [Fraction(0)] * self.order
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += self.coeffs[j] * out[k - j] if j <= self.order else 0
            out[k] = -inv0 * acc
        return PowerSeries(out, self.order, self.variable)

    def log(self) -> "PowerSeries":
        """log of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        out = [Fraction(0)] * (self.order + 1)
        # l' = f'/f  =>  k f_0 l_k = k f_k - sum_{j<k} j l_j f_{k-j}
        for k in range(1, self.order + 1):
            acc = k * self.coeffs[k]
            for j in range(1, k):
                acc -= j * out[j] * self.coeffs[k - j]
            out[k] = acc / k
        return PowerSeries(out, self.order, self.variable)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (self.variable, self.order, self.coeffs) == (other.variable, other.order, other.coeffs)

    def __hash__(self):
        return hash((self.variable, self.order, self.coeffs))

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(rational_to_string(c))
            else:
                coeff = "" if c == 1 else rational_to_string(c) + "*"
                power = self.variable if k == 1 else f"{self.variable}^{k}"
                parts.append(f"{coeff}{power}")
        body = " + ".join(parts) if parts else "0"
        return f"PowerSeries({body} + O({self.variable}^{self.order + 1}))"


def genus_series(kind: str, order: int, variable: str = "x") -> PowerSeries:
    """One-root characteristic series of a multiplicative genus.

    kind "a_hat": (x/2)/sinh(x/2), an even series;
    kind "todd":  x/(1 - e^(-x)).

    Both are produced by exact division of the defining expansions.
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    if kind == "a_hat":
        # sinh(x/2)/(x/2) = sum_k x^(2k) / (4^k (2k+1)!)
        denom = [Fraction(0)] * (order + 1)
        for k in range(0, order // 2 + 1):
            denom[2 * k] = Fraction(1, 4**k * math.factorial(2 * k + 1))
        return PowerSeries(denom, order, variable).inverse()
    if kind == "todd":
        # (1 - e^(-x))/x = sum_k (-1)^k x^k / (k+1)!
        denom = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(order + 1)]
        return PowerSeries(denom, order, variable).inverse()
    raise ValueError(f"unknown genus series kind {kind!r}")
