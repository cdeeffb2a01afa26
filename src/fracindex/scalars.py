"""Exact scalar arithmetic: rationals, cyclotomic numbers, Bernoulli numbers
and truncated formal power series.

Everything here is exact.  Rational scalars are `fractions.Fraction`;
cyclotomic scalars are residues modulo the N-th cyclotomic polynomial with
Fraction coefficients.  No float ever enters or leaves this module.

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


def rational_to_string(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# dense univariate polynomials over Fraction (ascending coefficients);
# internal helpers shared by cyclotomic reduction and power series code


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


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


def _poly_xgcd(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim([x - y for x, y in _zip_pad(s0, _poly_mul(q, s1))])
        t0, t1 = t1, _poly_trim([x - y for x, y in _zip_pad(t0, _poly_mul(q, t1))])
    return r0, s0, t0


def _zip_pad(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    zero = Fraction(0)
    for i in range(n):
        yield (a[i] if i < len(a) else zero), (b[i] if i < len(b) else zero)


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
    unity: a Fraction when the sum is rational, else a Cyclotomic."""
    coeffs = [Fraction(0)] * order
    for k, w in weights.items():
        coeffs[k % order] += w
    return demote(Cyclotomic(order, coeffs))


class Cyclotomic:
    """An element of the cyclotomic field of the given order: a residue
    modulo the cyclotomic polynomial, stored as a Fraction coefficient
    vector of length deg(Phi_order).

    Arithmetic between different orders lifts both operands to the lcm
    order.  Zero testing is exact; an element whose non-constant
    coefficients all vanish converts losslessly to a Fraction.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        residues = power_residues(order)
        deg = len(residues[0])
        poly = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(poly) > deg:
            for k in range(deg, len(poly)):
                if poly[k]:
                    for i, r in enumerate(residues[k % order]):
                        if r:
                            poly[i] += r * poly[k]
            del poly[deg:]
        else:
            poly += [Fraction(0)] * (deg - len(poly))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(poly))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @classmethod
    def root_of_unity(cls, order: int, exponent: int = 1) -> "Cyclotomic":
        """The primitive order-th root of unity raised to `exponent`."""
        return cls(order, power_residues(order)[exponent % order])

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "Cyclotomic":
        return cls(order, [Fraction(value)])

    # -- conversions --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def lift(self, order: int) -> "Cyclotomic":
        """Re-express in the cyclotomic field of a multiple of the order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot lift order {self.order} into order {order}")
        step = order // self.order
        out: list[Fraction] = []
        for k, c in enumerate(self.coeffs):
            pos = k * step
            if pos >= len(out):
                out.extend([Fraction(0)] * (pos + 1 - len(out)))
            out[pos] += c
        return Cyclotomic(order, out)

    # -- arithmetic ----------------------------------------------------------

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, 1)
        elif not isinstance(other, Cyclotomic):
            return NotImplemented, NotImplemented  # type: ignore[return-value]
        n = math.lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Cyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Cyclotomic(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [c * other for c in self.coeffs])
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Cyclotomic(a.order, _poly_mul(list(a.coeffs), list(b.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        modulus = list(cyclotomic_polynomial(self.order))
        g, s, _ = _poly_xgcd(_poly_trim(list(self.coeffs)), modulus)
        # g is a nonzero constant since Phi_N is irreducible over Q
        assert len(g) == 1, "gcd with the cyclotomic modulus must be constant"
        return Cyclotomic(self.order, [c / g[0] for c in s])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("cyclotomic division by zero")
            return Cyclotomic(self.order, [c / other for c in self.coeffs])
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyclotomic.from_rational(1, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.to_rational() == other
        if isinstance(other, Cyclotomic):
            a, b = self._pair(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.to_rational())
        return hash((self.order, self.coeffs))

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


class PowerSeries:
    """A formal power series in one variable truncated at a fixed order:
    coefficients for x^0 .. x^order, all Fractions.

    Operations never see past the truncation order; in particular the
    product of two order-k series is again an order-k series.
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

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries values are immutable")

    @classmethod
    def constant(cls, value, order: int, variable: str = "x") -> "PowerSeries":
        return cls([Fraction(value)], order, variable)

    @classmethod
    def identity(cls, order: int, variable: str = "x") -> "PowerSeries":
        """The series x."""
        return cls([Fraction(0), Fraction(1)], order, variable)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.order else Fraction(0)

    def _coerce(self, other) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            return PowerSeries.constant(other, self.order, self.variable)
        if isinstance(other, PowerSeries):
            if other.variable != self.variable:
                raise ValueError(f"variable mismatch: {self.variable} vs {other.variable}")
            if other.order != self.order:
                raise ValueError(f"truncation order mismatch: {self.order} vs {other.order}")
            return other
        raise TypeError(f"cannot combine PowerSeries with {type(other).__name__}")

    def truncate(self, order: int) -> "PowerSeries":
        return PowerSeries(self.coeffs, order, self.variable)

    def __add__(self, other):
        other = self._coerce(other)
        return PowerSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order, self.variable)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs], self.order, self.variable)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PowerSeries([c * other for c in self.coeffs], self.order, self.variable)
        other = self._coerce(other)
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return PowerSeries(out, self.order, self.variable)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PowerSeries":
        if n < 0:
            return self.inverse() ** (-n)
        out = PowerSeries.constant(1, self.order, self.variable)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * self._coerce(other).inverse()

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(x)); requires inner to have zero constant term."""
        inner = self._coerce(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires zero constant term")
        out = PowerSeries.constant(self.coeffs[self.order], self.order, self.variable)
        for k in range(self.order - 1, -1, -1):  # Horner in the inner series
            out = out * inner + self.coeffs[k]
        return out

    def exp(self) -> "PowerSeries":
        """exp of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise ValueError("exp requires zero constant term")
        out = [Fraction(1)] + [Fraction(0)] * self.order
        # e' = e * f'  =>  k e_k = sum_j j f_j e_{k-j}
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += j * self.coeffs[j] * out[k - j]
            out[k] = acc / k
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
