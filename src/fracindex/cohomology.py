"""Finite rational cohomology models of compact manifolds.

A model is a graded-commutative polynomial quotient on even-degree
generators, with rewrite relations of the restricted shape

    (generator)^k  ->  polynomial of the same degree,

a declared fundamental monomial, and an orientation value.  Classes are
kept in normal form: every stored monomial is irreducible and every
monomial of degree above the model dimension is zero.  Integration reads
off the fundamental coefficient times the orientation.

Every coefficient is rational.  Roots of unity never enter a class: the
engine keeps one rational class per bracket exponent and converts only
the values it emits.

Models are immutable after validation and classes are immutable always;
everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from fracindex.scalars import rational_to_string

#: Monomials are exponent tuples aligned with the model's generator order.
Monomial = tuple[int, ...]

_REDUCTION_CAP = 100_000  # rewrite steps per normal form before giving up


class ModelError(ValueError):
    """A manifold model or one of its declarations violates an invariant."""


class ExpressionError(ValueError):
    """A polynomial expression failed to parse or referenced unknown names."""


def monomial_name(names: Iterable[str], exponents: Iterable[int]) -> str:
    """Render an exponent tuple over the given names, as in "x^2*y"; the
    empty product is "1"."""
    parts = []
    for name, e in zip(names, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _accumulate(table: dict, key, delta) -> None:
    value = table.get(key, Fraction(0)) + delta
    if value == 0:
        table.pop(key, None)
    else:
        table[key] = value


class ManifoldModel:
    """A finite cohomology ring: generators, rewrite relations, and a
    fundamental class against which integration is defined.

    relations maps a generator index to (power, replacement terms); the
    replacement is stored in raw monomial form and must be homogeneous of
    the same degree as the rewritten power.
    """

    __slots__ = (
        "dimension",
        "generators",
        "relations",
        "fundamental_monomial",
        "orientation",
        "_normal_cache",
    )

    def __init__(
        self,
        dimension: int,
        generators: Iterable[tuple[str, int]],
        relations: Mapping[int, tuple[int, Mapping[Monomial, Fraction]]],
        fundamental_monomial: Monomial,
        orientation: Fraction,
    ) -> None:
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "generators", tuple((str(n), int(d)) for n, d in generators))
        object.__setattr__(
            self,
            "relations",
            {
                int(i): (int(k), {tuple(m): Fraction(c) for m, c in rhs.items()})
                for i, (k, rhs) in relations.items()
            },
        )
        object.__setattr__(self, "fundamental_monomial", tuple(fundamental_monomial))
        object.__setattr__(self, "orientation", Fraction(orientation))
        object.__setattr__(self, "_normal_cache", {})
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("ManifoldModel is immutable after construction")

    # -- basic structure -----------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    def generator_index(self, name: str) -> int:
        for i, (gname, _) in enumerate(self.generators):
            if gname == name:
                return i
        raise ExpressionError(f"unknown generator {name!r}")

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * self.generators[i][1] for i, e in enumerate(mono))

    def zero_monomial(self) -> Monomial:
        return (0,) * len(self.generators)

    def generator_class(self, name: str) -> "CohClass":
        i = self.generator_index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(self.generators)))
        return CohClass(self, {mono: Fraction(1)})

    def one(self) -> "CohClass":
        return CohClass(self, {self.zero_monomial(): Fraction(1)})

    def zero(self) -> "CohClass":
        return CohClass(self, {})

    def monomials_up_to(self, max_degree: int) -> list[Monomial]:
        """All raw monomials of degree <= max_degree, in (degree, lex) order."""
        out: list[Monomial] = []

        def walk(prefix: list[int], i: int, degree: int) -> None:
            if i == len(self.generators):
                out.append(tuple(prefix))
                return
            gdeg = self.generators[i][1]
            e = 0
            while degree + e * gdeg <= max_degree:
                walk(prefix + [e], i + 1, degree + e * gdeg)
                e += 1

        walk([], 0, 0)
        out.sort(key=lambda m: (self.monomial_degree(m), m))
        return out

    def basis(self) -> list[Monomial]:
        """The irreducible monomials of degree <= dimension."""
        return [m for m in self.monomials_up_to(self.dimension) if self._is_normal(m)]

    # -- normal forms ---------------------------------------------------------

    def _applicable(self, mono: Monomial) -> list[int]:
        return [
            i
            for i, (power, _) in self.relations.items()
            if mono[i] >= power
        ]

    def _is_normal(self, mono: Monomial) -> bool:
        return self.monomial_degree(mono) <= self.dimension and not self._applicable(mono)

    def _rewrite_once(self, mono: Monomial, i: int) -> dict[Monomial, Fraction]:
        power, rhs = self.relations[i]
        rest = list(mono)
        rest[i] -= power
        out: dict[Monomial, Fraction] = {}
        for rmono, rcoeff in rhs.items():
            combined = tuple(a + b for a, b in zip(rest, rmono))
            out[combined] = out.get(combined, Fraction(0)) + rcoeff
        return out

    def normal_form(self, mono: Monomial) -> dict[Monomial, Fraction]:
        """Rewrite a raw monomial into a combination of basis monomials."""
        cached = self._normal_cache.get(mono)
        if cached is not None:
            return cached
        # iterative worklist; a step cap converts cyclic relation sets into a
        # load-time error instead of an unbounded loop
        pending: dict[Monomial, Fraction] = {mono: Fraction(1)}
        done: dict[Monomial, Fraction] = {}
        steps = 0
        while pending:
            current, coeff = pending.popitem()
            if self.monomial_degree(current) > self.dimension:
                continue
            cached = self._normal_cache.get(current)
            if cached is not None:
                for nmono, ncoeff in cached.items():
                    _accumulate(done, nmono, coeff * ncoeff)
                continue
            hits = self._applicable(current)
            if not hits:
                _accumulate(done, current, coeff)
                continue
            steps += 1
            if steps > _REDUCTION_CAP:
                raise ModelError(
                    "rewrite system does not terminate on " + self.monomial_name(mono)
                )
            for rmono, rcoeff in self._rewrite_once(current, hits[0]).items():
                _accumulate(pending, rmono, coeff * rcoeff)
        self._normal_cache[mono] = done
        return done

    def monomial_name(self, mono: Monomial) -> str:
        return monomial_name(self.names, mono)

    # -- validation ------------------------------------------------------------

    def _validate(self) -> None:
        if self.dimension < 0 or self.dimension % 2 != 0:
            raise ModelError(f"dimension must be even and nonnegative, got {self.dimension}")
        seen: set[str] = set()
        for name, degree in self.generators:
            if degree <= 0 or degree % 2 != 0:
                raise ModelError(f"generator {name!r} must have even positive degree, got {degree}")
            if name in seen:
                raise ModelError(f"duplicate generator name {name!r}")
            seen.add(name)
        for i, (power, rhs) in self.relations.items():
            if not (0 <= i < len(self.generators)):
                raise ModelError(f"relation on unknown generator index {i}")
            if power < 1:
                raise ModelError("relation power must be positive")
            lhs_degree = power * self.generators[i][1]
            for mono, coeff in rhs.items():
                if len(mono) != len(self.generators):
                    raise ModelError("relation term has the wrong arity")
                if coeff != 0 and self.monomial_degree(mono) != lhs_degree:
                    raise ModelError(
                        f"relation on {self.generators[i][0]!r} is not degree-homogeneous: "
                        f"{self.monomial_name(mono)} has degree {self.monomial_degree(mono)}, "
                        f"expected {lhs_degree}"
                    )
        if len(self.fundamental_monomial) != len(self.generators):
            raise ModelError("fundamental monomial has the wrong arity")
        if self.monomial_degree(self.fundamental_monomial) != self.dimension:
            raise ModelError("fundamental monomial degree must equal the model dimension")
        if self.orientation == 0:
            raise ModelError("orientation value must be nonzero")
        if not self._is_normal(self.fundamental_monomial):
            raise ModelError("fundamental monomial must be irreducible")
        self._check_confluence()

    def _check_confluence(self) -> None:
        """Reducing any monomial of degree <= dimension must terminate and
        must not depend on which applicable relation fires first."""
        for mono in self.monomials_up_to(self.dimension):
            self.normal_form(mono)
        for mono in self.monomials_up_to(self.dimension):
            hits = self._applicable(mono)
            if len(hits) < 2:
                continue
            results = []
            for i in hits:
                acc: dict[Monomial, Fraction] = {}
                for rmono, rcoeff in self._rewrite_once(mono, i).items():
                    for nmono, ncoeff in self.normal_form(rmono).items():
                        value = acc.get(nmono, Fraction(0)) + rcoeff * ncoeff
                        if value == 0:
                            acc.pop(nmono, None)
                        else:
                            acc[nmono] = value
                results.append(acc)
            if any(r != results[0] for r in results[1:]):
                raise ModelError(
                    "relation set is not confluent at " + self.monomial_name(mono)
                )

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in self.generators)
        return f"ManifoldModel(dim={self.dimension}, generators=[{gens}])"


class CohClass:
    """An element of a ManifoldModel in normal form: a mapping from reduced
    monomials to nonzero Fraction coefficients.  Coefficients are rational
    only; any other coefficient raises TypeError."""

    __slots__ = ("model", "terms")

    def __init__(self, model: ManifoldModel, terms: Mapping[Monomial, Fraction | int]) -> None:
        reduced: dict[Monomial, Fraction] = {}
        for mono, coeff in terms.items():
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(
                    f"class coefficients must be rational, got {type(coeff).__name__}"
                )
            if not coeff:
                continue
            for nmono, ncoeff in model.normal_form(tuple(mono)).items():
                value = coeff * ncoeff
                if nmono in reduced:
                    value = reduced[nmono] + value
                if value == 0:
                    reduced.pop(nmono, None)
                else:
                    reduced[nmono] = value
        clean = {
            mono: reduced[mono]
            for mono in sorted(reduced, key=lambda m: (model.monomial_degree(m), m))
        }
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CohClass values are immutable")

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get(self.model.zero_monomial(), Fraction(0))

    def degree_part(self, degree: int) -> "CohClass":
        return CohClass(
            self.model,
            {m: c for m, c in self.terms.items() if self.model.monomial_degree(m) == degree},
        )

    def degrees(self) -> list[int]:
        return sorted({self.model.monomial_degree(m) for m in self.terms})

    def is_homogeneous(self, degree: int) -> bool:
        return all(self.model.monomial_degree(m) == degree for m in self.terms)

    # -- ring operations ---------------------------------------------------------

    def _check_model(self, other: "CohClass") -> None:
        if other.model is not self.model:
            raise ValueError("classes belong to different manifold models")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = scalar_class(self.model, other)
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check_model(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return CohClass(self.model, terms)

    __radd__ = __add__

    def __neg__(self):
        return CohClass(self.model, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = scalar_class(self.model, other)
        if not isinstance(other, CohClass):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CohClass(self.model, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check_model(other)
        raw: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                if self.model.monomial_degree(mono) > self.model.dimension:
                    continue
                raw[mono] = raw.get(mono, 0) + c1 * c2
        return CohClass(self.model, raw)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CohClass":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.model.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = scalar_class(self.model, other)
        if not isinstance(other, CohClass):
            return NotImplemented
        return self.model is other.model and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.model), tuple(sorted(self.terms.items()))))

    # -- the operations the index formulas need ------------------------------------

    def exponential(self) -> "CohClass":
        """sum_k self^k / k!, a finite sum; requires zero constant term."""
        if self.constant_term() != 0:
            raise ValueError("exponential requires a nilpotent class (zero constant term)")
        out = self.model.one()
        power = self.model.one()
        k = 1
        while True:
            power = power * self
            if power.is_zero():
                return out
            out = out + power * Fraction(1, math.factorial(k))
            k += 1

    def inverse(self) -> "CohClass":
        """Multiplicative inverse via the finite geometric series; requires a
        nonzero constant term."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ValueError("class with zero constant term is not invertible")
        c0_inv = 1 / c0
        nil = self * c0_inv - 1
        out = self.model.one()
        power = self.model.one()
        sign = 1
        while True:
            power = power * nil
            if power.is_zero():
                return out * c0_inv
            sign = -sign
            out = out + power * sign

    def integrate(self) -> Fraction:
        """Pair against the fundamental class: the coefficient of the
        fundamental monomial times the orientation value."""
        coeff = self.terms.get(self.model.fundamental_monomial, Fraction(0))
        return coeff * self.model.orientation

    # -- rendering --------------------------------------------------------------

    def to_expression(self) -> str:
        """Deterministic polynomial expression in the model's generators."""
        if self.is_zero():
            return "0"
        parts = []
        for mono, coeff in self.terms.items():
            mono_name = self.model.monomial_name(mono)
            if mono_name == "1":
                parts.append(rational_to_string(coeff))
            elif coeff == 1:
                parts.append(mono_name)
            elif coeff == -1:
                parts.append("-" + mono_name)
            else:
                parts.append(rational_to_string(coeff) + "*" + mono_name)
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    def __repr__(self):
        return f"CohClass({self.to_expression()})"


def scalar_class(model: ManifoldModel, value: Fraction | int) -> CohClass:
    return CohClass(model, {model.zero_monomial(): value})


# ---------------------------------------------------------------------------
# model constructors


def build_model(
    dimension: int,
    generators: Iterable[tuple[str, int]],
    relations: Iterable[tuple[str, str]] = (),
    fundamental: tuple[str, Fraction | int | str] | None = None,
) -> ManifoldModel:
    """Build and validate a model from textual declarations.

    relations are (lhs, rhs) expression pairs where lhs must be a pure
    power of one generator; fundamental is (monomial expression,
    orientation value).
    """
    generators = tuple((str(n), int(d)) for n, d in generators)
    names = [n for n, _ in generators]
    if len(set(names)) != len(names):
        raise ModelError("duplicate generator name in declaration")

    def raw_terms(text: str) -> dict[Monomial, Fraction]:
        return parse_terms(text, names)

    relation_map: dict[int, tuple[int, dict[Monomial, Fraction]]] = {}
    for lhs, rhs in relations:
        lhs_terms = raw_terms(lhs)
        if len(lhs_terms) != 1:
            raise ModelError(f"relation left side must be a single monomial: {lhs!r}")
        (mono, coeff), = lhs_terms.items()
        if coeff != 1:
            raise ModelError(f"relation left side must have coefficient 1: {lhs!r}")
        support = [i for i, e in enumerate(mono) if e > 0]
        if len(support) != 1:
            raise ModelError(f"relation left side must be a pure power of one generator: {lhs!r}")
        index = support[0]
        if index in relation_map:
            raise ModelError(f"generator {names[index]!r} has more than one relation")
        relation_map[index] = (mono[index], raw_terms(rhs))

    if fundamental is None:
        if dimension != 0 or generators:
            raise ModelError("fundamental class is required for positive-dimensional models")
        fund_mono: Monomial = ()
        orientation: Fraction = Fraction(1)
    else:
        fund_text, orientation_value = fundamental
        fund_terms = raw_terms(fund_text)
        if len(fund_terms) != 1 or list(fund_terms.values()) != [Fraction(1)]:
            raise ModelError("fundamental class must be a single monomial with coefficient 1")
        (fund_mono,) = fund_terms.keys()
        orientation = Fraction(orientation_value)

    return ManifoldModel(dimension, generators, relation_map, fund_mono, orientation)


def point_model() -> ManifoldModel:
    """The zero-dimensional model: integration reads the scalar itself."""
    return ManifoldModel(0, (), {}, (), Fraction(1))


def projective_space_model(n: int, name: str = "x") -> ManifoldModel:
    """The cohomology of complex projective n-space: one degree-2 generator
    with its (n+1)-st power rewritten to zero."""
    if n < 0:
        raise ModelError("projective space dimension must be nonnegative")
    if n == 0:
        return point_model()
    return build_model(
        2 * n,
        [(name, 2)],
        [(f"{name}^{n + 1}", "0")],
        (f"{name}^{n}", 1),
    )


def product_model(m1: ManifoldModel, m2: ManifoldModel) -> ManifoldModel:
    """The product of two models: generators side by side, relations carried
    over, fundamental monomial and orientation multiplied.  Clashing
    generator names from the second factor are renamed with a numeric
    suffix."""
    taken = set(m1.names)
    renamed: list[str] = []
    for name, _ in m2.generators:
        candidate = name
        suffix = 2
        while candidate in taken:
            candidate = f"{name}{suffix}"
            suffix += 1
        taken.add(candidate)
        renamed.append(candidate)

    generators = list(m1.generators) + [
        (renamed[i], d) for i, (_, d) in enumerate(m2.generators)
    ]
    n1, n2 = len(m1.generators), len(m2.generators)

    def left(mono: Monomial) -> Monomial:
        return tuple(mono) + (0,) * n2

    def right(mono: Monomial) -> Monomial:
        return (0,) * n1 + tuple(mono)

    relations: dict[int, tuple[int, dict[Monomial, Fraction]]] = {}
    for i, (power, rhs) in m1.relations.items():
        relations[i] = (power, {left(m): c for m, c in rhs.items()})
    for i, (power, rhs) in m2.relations.items():
        relations[n1 + i] = (power, {right(m): c for m, c in rhs.items()})

    fundamental = left(m1.fundamental_monomial)[:n1] + tuple(m2.fundamental_monomial)
    return ManifoldModel(
        m1.dimension + m2.dimension,
        generators,
        relations,
        fundamental,
        m1.orientation * m2.orientation,
    )


# ---------------------------------------------------------------------------
# expression parsing
#
# grammar:  expr   := ['-'] term (('+'|'-') term)*
#           term   := factor ('*' factor)*
#           factor := atom ['^' INT]
#           atom   := NUMBER ['/' NUMBER] | NAME | '(' expr ')'


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r} at position {i}")
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, names: list[str]) -> None:
        self.text = text
        self.names = names
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str | None = None) -> _Token:
        token = self.tokens[self.pos]
        if kind is not None and token.kind != kind:
            raise ExpressionError(
                f"expected {kind} at position {token.pos} in {self.text!r}, got {token.text!r}"
            )
        self.pos += 1
        return token

    def parse(self) -> dict[Monomial, Fraction]:
        result = self.expr()
        trailing = self.peek()
        if trailing.kind != "end":
            raise ExpressionError(
                f"unexpected {trailing.text!r} at position {trailing.pos} in {self.text!r}"
            )
        return result

    def expr(self) -> dict[Monomial, Fraction]:
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = {m: -c for m, c in acc.items()}
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            for mono, coeff in rhs.items():
                delta = coeff if op == "+" else -coeff
                value = acc.get(mono, Fraction(0)) + delta
                if value == 0:
                    acc.pop(mono, None)
                else:
                    acc[mono] = value
        return acc

    def term(self) -> dict[Monomial, Fraction]:
        acc = self.factor()
        while self.peek().kind == "*":
            self.take()
            acc = self._multiply(acc, self.factor())
        return acc

    def _multiply(self, a, b) -> dict[Monomial, Fraction]:
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = tuple(x + y for x, y in zip(m1, m2))
                value = out.get(mono, Fraction(0)) + c1 * c2
                if value == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = value
        return out

    def factor(self) -> dict[Monomial, Fraction]:
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            exponent_token = self.take("number")
            exponent = int(exponent_token.text)
            if exponent < 1:
                raise ExpressionError(
                    f"exponent must be a positive integer at position {exponent_token.pos}"
                )
            out = {(0,) * len(self.names): Fraction(1)}
            for _ in range(exponent):
                out = self._multiply(out, base)
            return out
        return base

    def atom(self) -> dict[Monomial, Fraction]:
        token = self.peek()
        unit: Monomial = (0,) * len(self.names)
        if token.kind == "number":
            self.take()
            value = Fraction(int(token.text))
            if self.peek().kind == "/":
                self.take()
                den_token = self.take("number")
                den = int(den_token.text)
                if den == 0:
                    raise ExpressionError(f"zero denominator at position {den_token.pos}")
                value /= den
            return {unit: value}
        if token.kind == "name":
            self.take()
            if token.text not in self.names:
                raise ExpressionError(
                    f"unknown generator {token.text!r} at position {token.pos}"
                )
            index = self.names.index(token.text)
            mono = tuple(1 if i == index else 0 for i in range(len(self.names)))
            return {mono: Fraction(1)}
        if token.kind == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        raise ExpressionError(
            f"unexpected {token.text!r} at position {token.pos} in {self.text!r}"
        )


def parse_terms(text: str, names: Iterable[str]) -> dict[Monomial, Fraction]:
    """Parse an expression into raw (unreduced) monomial terms."""
    return _Parser(text, list(names)).parse()


def parse_expression(text: str, model: ManifoldModel) -> CohClass:
    """Parse a polynomial expression in the model's generators and reduce
    it to normal form."""
    return CohClass(model, parse_terms(text, model.names))
