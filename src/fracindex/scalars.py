"""Exact scalar arithmetic: rationals, cyclotomic numbers, Bernoulli numbers
and the a-hat genus series.

Everything here is exact.  Rational scalars are `fractions.Fraction`;
cyclotomic scalars are residues modulo the N-th cyclotomic polynomial,
stored as integer numerators over one positive denominator in lowest
terms.  Phi_N is monic with integer coefficients, built by integer long
division of t^N - 1 by Phi_d for every proper divisor d.  Roots of unity
enter only through `power_residues`, whose integer row k is t^k modulo
Phi_N, for every order N, N <= 2 (zeta = +-1) included.
`root_of_unity_sum` takes integer weights over one denominator and adds
rows of that table; it builds no Cyclotomic when the sum is rational.
Its other reader, `galois_conjugate` (sigma_a: zeta -> zeta^a, a a unit
mod N), sends the coefficient of zeta^i to row a*i mod N through it.  A
Cyclotomic is a value the engine emits and compares, built from at most
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
from typing import Mapping, Union

Scalar = Union[Fraction, "Cyclotomic"]


class Frozen:
    """Base of the package's immutable value classes.  A record lists its
    fields in `__slots__` and writes no __init__: this one stores one
    argument per slot, in order and as given (the caller converts), and
    raises TypeError on the wrong count.  A class that derives, filters or
    caches writes its own and says why.  Assignment and deletion raise
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


def root_of_unity_sum(order: int, weights: Mapping[int, int], denominator: int) -> Scalar:
    """sum_k weights[k] * zeta^k / denominator for zeta a primitive order-th
    root of unity: int weights, as `IndexProblem.moments` passes them, times
    row k % order of `power_residues`, over the positive int `denominator`.
    A rational sum is returned as a Fraction without building a Cyclotomic."""
    residues = power_residues(order)
    vector = [0] * len(residues[0])
    for k, w in weights.items():
        for i, r in enumerate(residues[k % order]):
            vector[i] += w * r
    if not any(vector[1:]):
        return Fraction(vector[0], denominator)
    return _cyclotomic(order, vector, denominator)


def galois_conjugate(value: Scalar, unit: int) -> Scalar:
    """sigma_a(value) for a = `unit`, a unit mod the value's order N: zeta ->
    zeta^a fixes a Fraction and sends the numerator c_i of zeta^i to c_i
    times row a*i mod N, by `root_of_unity_sum` over the same denominator."""
    if type(value) is Fraction:
        return value
    weights = {unit * i % value.order: c for i, c in enumerate(value.numerators)}
    return root_of_unity_sum(value.order, weights, value.denominator)


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
        body = ", ".join(rational_to_string(Fraction(n, den)) for n in self.numerators)
        return f"Cyclotomic({self.order}, [{body}])"


def _cyclotomic(order: int, num: list, den: int, out: Cyclotomic | None = None) -> Cyclotomic:
    """The element of deg(Phi_order) int numerators over an int den >= 1,
    in lowest terms by one gcd pass, built into `out` or into a new element;
    the constructor's checks are for values from outside the package."""
    g = math.gcd(den, *num)
    if g != 1:
        num, den = [c // g for c in num], den // g
    if out is None:
        out = object.__new__(Cyclotomic)
    object.__setattr__(out, "order", order)
    object.__setattr__(out, "numerators", tuple(num))
    object.__setattr__(out, "denominator", den)
    return out


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
        return rational_to_string(value)
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
    """Coefficients of x^0 .. x^order of (x/2)/sinh(x/2): the x^2k
    coefficient is (2^(1-2k) - 1) B_2k / (2k)!, and the odd ones vanish."""
    if order < 0:
        raise ValueError("series order must be nonnegative")
    return tuple(
        (Fraction(2) ** (1 - n) - 1) * bernoulli(n) / math.factorial(n)
        if n % 2 == 0 else Fraction(0)
        for n in range(order + 1)
    )


def a_hat_log_series(order: int) -> tuple[Fraction, ...]:
    """Coefficients of x^0 .. x^order of log((x/2)/sinh(x/2)): the x^2k
    coefficient, k >= 1, is -B_2k / (2k (2k)!), and all others vanish."""
    if order < 0:
        raise ValueError("series order must be nonnegative")
    return tuple(
        -bernoulli(n) / (n * math.factorial(n)) if n and n % 2 == 0 else Fraction(0)
        for n in range(order + 1)
    )
