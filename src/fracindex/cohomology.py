"""Finite rational cohomology models of compact manifolds.

A model is a graded-commutative polynomial quotient on even-degree
generators, with rewrite relations of the restricted shape

    (generator)^k  ->  polynomial of the same degree,

a declared fundamental monomial, and an orientation value.  Classes are
kept in normal form: every stored monomial is irreducible and every
monomial of degree above the model dimension is zero.  Integration reads
off the fundamental coefficient times the orientation.

Every coefficient is rational, held as integer numerators over one
positive denominator in lowest terms: class arithmetic is integer work
with one gcd pass per result.  Every product goes through one kernel, a
per-model table from a pair of monomials (m1, m2) to the normal form of
m1 * m2 as integers over a denominator (1 for integral relations), the
multiplication table of the quotient algebra (Cox, Little & O'Shea, Using
Algebraic Geometry, ch. 2 section 4).  The table is filled as pairs are
first multiplied, never by walking the basis.  Roots of unity never enter
a class: the engine keeps one rational class per bracket exponent and
converts only the values it emits.

Validation never walks the raw monomials.  Termination is decided on the
one-step rewrite graph over the monomials of degree <= dimension built
from the generators that some relation with a nonzero right side touches:
every other exponent is constant along a rewrite chain, so dividing it out
maps any cycle into that set, and a finite graph without a cycle admits no
infinite chain.  Every left side is a pure power g_i^k_i, so the only
critical pairs are the overlaps g_i^k_i * g_j^k_j; a terminating system
whose critical pairs all reduce to one normal form is confluent (Newman's
lemma with the critical-pair lemma, Baader & Nipkow, Term Rewriting and
All That, ch. 6; for linear combinations, Bergman's diamond lemma, Adv.
Math. 29, 1978).

Models are immutable after validation and classes are immutable always;
everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from fracindex.scalars import common_denominator, rational_to_string

#: Monomials are exponent tuples aligned with the model's generator order.
Monomial = tuple[int, ...]


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


def _check_grading(dimension: int, generators: Iterable[tuple[str, int]]) -> None:
    if dimension < 0 or dimension % 2 != 0:
        raise ModelError(f"dimension must be even and nonnegative, got {dimension}")
    seen: set[str] = set()
    for name, degree in generators:
        if degree <= 0 or degree % 2 != 0:
            raise ModelError(f"generator {name!r} must have even positive degree, got {degree}")
        if name in seen:
            raise ModelError(f"duplicate generator name {name!r}")
        seen.add(name)


def _accumulate(table: dict, key, delta) -> None:
    value = table.get(key)
    value = delta if value is None else value + delta
    if value:
        table[key] = value
    else:
        table.pop(key, None)


class ManifoldModel:
    """A finite cohomology ring: generators, rewrite relations, and a
    fundamental class against which integration is defined.

    relations maps a generator index to (power, replacement terms); the
    replacement is stored in raw monomial form without zero coefficients
    and must be homogeneous of the same degree as the rewritten power.
    """

    __slots__ = (
        "dimension",
        "generators",
        "relations",
        "fundamental_monomial",
        "orientation",
        "_normal_cache",
        "_products",
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
                int(i): (int(k), {tuple(m): Fraction(c) for m, c in rhs.items() if c})
                for i, (k, rhs) in relations.items()
            },
        )
        object.__setattr__(self, "fundamental_monomial", tuple(fundamental_monomial))
        object.__setattr__(self, "orientation", Fraction(orientation))
        object.__setattr__(self, "_normal_cache", {})
        object.__setattr__(self, "_products", {})
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

    def monomials_up_to(
        self, max_degree: int, support: Iterable[int] | None = None
    ) -> list[Monomial]:
        """All raw monomials of degree <= max_degree, in (degree, lex) order;
        with `support`, only those in the generators of those indices."""
        free = set(range(len(self.generators)) if support is None else support)
        out: list[Monomial] = [()]
        for i, (_, gdeg) in enumerate(self.generators):
            out = [
                m + (e,)
                for m in out
                for e in range((max_degree - self.monomial_degree(m)) // gdeg + 1 if i in free else 1)
            ]
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
        # iterative worklist; validation has ruled out rewrite cycles, so it
        # ends
        pending: dict[Monomial, Fraction] = {mono: Fraction(1)}
        done: dict[Monomial, Fraction] = {}
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
            for rmono, rcoeff in self._rewrite_once(current, hits[0]).items():
                _accumulate(pending, rmono, coeff * rcoeff)
        self._normal_cache[mono] = done
        return done

    def _product_entry(self, m1: Monomial, m2: Monomial) -> tuple[int, list]:
        """The normal form of m1 * m2 as (d, [(m, n), ...]) with integer n:
        the product is sum n * m / d, and d is 1 when the form is integral."""
        form = self.normal_form(tuple([a + b for a, b in zip(m1, m2)]))
        numerators, d = common_denominator(list(form.values()))
        return d, list(zip(form, numerators))

    def monomial_name(self, mono: Monomial) -> str:
        return monomial_name(self.names, mono)

    # -- validation ------------------------------------------------------------

    def _validate(self) -> None:
        _check_grading(self.dimension, self.generators)
        for i, (power, rhs) in self.relations.items():
            if not (0 <= i < len(self.generators)):
                raise ModelError(f"relation on unknown generator index {i}")
            if power < 1:
                raise ModelError("relation power must be positive")
            lhs_degree = power * self.generators[i][1]
            for mono in rhs:
                if len(mono) != len(self.generators):
                    raise ModelError("relation term has the wrong arity")
                if self.monomial_degree(mono) != lhs_degree:
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
        must not depend on which applicable relation fires first.

        Termination is checked first, on the restricted rewrite graph of
        `_check_termination`.  Then, by Newman's lemma with the critical-pair
        lemma (Baader & Nipkow, Term Rewriting and All That, ch. 6) and
        Bergman's diamond lemma (Adv. Math. 29, 1978), it suffices that the
        two rewrites of each overlap g_i^k_i * g_j^k_j have one normal form:
        a monomial where both relations apply is that overlap times a
        monomial, and truncation above the dimension commutes with
        multiplication.  An overlap above the dimension is zero on both
        sides, since the relations are homogeneous.  Each generator has at
        most one relation, so there are no other critical pairs.  Two
        rewrites that agree term by term need no normal form."""
        self._check_termination()
        zero = self.zero_monomial()
        indices = sorted(self.relations)
        for a, i in enumerate(indices):
            for j in indices[a + 1 :]:
                overlap = list(zero)
                overlap[i] = self.relations[i][0]
                overlap[j] = self.relations[j][0]
                overlap = tuple(overlap)
                if self.monomial_degree(overlap) > self.dimension:
                    continue
                left, right = self._rewrite_once(overlap, i), self._rewrite_once(overlap, j)
                if left != right and CohClass(self, left) != CohClass(self, right):
                    raise ModelError(
                        "relation set is not confluent at " + self.monomial_name(overlap)
                    )

    def _check_termination(self) -> None:
        """Reject a rewrite cycle among the monomials of degree <= dimension.

        Only relations with a nonzero right side make edges, and they change
        only the exponents of the generators they touch; any cycle therefore
        divides down to one among the monomials in those generators alone,
        which is the graph searched here (depth first).  A relation whose
        left side lies above the dimension never fires there."""
        active = [
            i
            for i, (power, rhs) in self.relations.items()
            if rhs and power * self.generators[i][1] <= self.dimension
        ]
        if not active:
            return
        touched = set(active)
        for i in active:
            for mono in self.relations[i][1]:
                touched.update(g for g, e in enumerate(mono) if e)

        def successors(mono: Monomial):
            for i in active:
                if mono[i] >= self.relations[i][0]:
                    yield from self._rewrite_once(mono, i)

        state: dict[Monomial, bool] = {}  # True while on the search path
        for start in self.monomials_up_to(self.dimension, touched):
            if start in state:
                continue
            state[start] = True
            path = [(start, successors(start))]
            while path:
                mono, pending = path[-1]
                for nxt in pending:
                    if state.get(nxt):
                        raise ModelError(
                            "rewrite system does not terminate on " + self.monomial_name(nxt)
                        )
                    if nxt not in state:
                        state[nxt] = True
                        path.append((nxt, successors(nxt)))
                        break
                else:
                    state[mono] = False
                    path.pop()

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in self.generators)
        return f"ManifoldModel(dim={self.dimension}, generators=[{gens}])"


class CohClass:
    """An element of a ManifoldModel in normal form: the sum over reduced
    monomials m of numerators[m] * m / denominator, in lowest terms (no
    zero numerator, a positive denominator, 1 for the zero class), so equal
    classes have equal fields.  `terms` is the read-only Fraction view in
    (degree, monomial) order.  The constructor takes int or Fraction
    coefficients on raw monomials; any other coefficient raises TypeError."""

    __slots__ = ("model", "numerators", "denominator")

    def __init__(self, model: ManifoldModel, terms: Mapping[Monomial, Fraction | int]) -> None:
        num: dict[Monomial, int] = {}
        den = 1
        if terms:
            for coeff in terms.values():
                if not isinstance(coeff, (int, Fraction)):
                    raise TypeError(
                        f"class coefficients must be rational, got {type(coeff).__name__}"
                    )
            numerators, den = common_denominator(list(terms.values()))
            raw = {tuple(m): n for m, n in zip(terms, numerators) if n}
            num, scale = _product(model, {model.zero_monomial(): 1}, raw)
            den *= scale
        _lowest(model, num, den, self)

    def __setattr__(self, name, value):
        raise AttributeError("CohClass values are immutable")

    # -- structure -------------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        model, den = self.model, self.denominator
        order = sorted(self.numerators, key=lambda m: (model.monomial_degree(m), m))
        return MappingProxyType({m: Fraction(self.numerators[m], den) for m in order})

    def is_zero(self) -> bool:
        return not self.numerators

    def constant_term(self) -> Fraction:
        return Fraction(self.numerators.get(self.model.zero_monomial(), 0), self.denominator)

    def degree_part(self, degree: int) -> "CohClass":
        degree_of = self.model.monomial_degree
        part = {m: c for m, c in self.numerators.items() if degree_of(m) == degree}
        return _lowest(self.model, part, self.denominator)

    def is_homogeneous(self, degree: int) -> bool:
        return all(self.model.monomial_degree(m) == degree for m in self.numerators)

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
        den = math.lcm(self.denominator, other.denominator)
        fa, fb = den // self.denominator, den // other.denominator
        num = {m: c * fa for m, c in self.numerators.items()}
        for m, c in other.numerators.items():
            num[m] = num.get(m, 0) + c * fb
        return _lowest(self.model, num, den)

    __radd__ = __add__

    def __neg__(self):
        return _lowest(self.model, {m: -c for m, c in self.numerators.items()}, self.denominator)

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
            num = {m: c * other.numerator for m, c in self.numerators.items()}
            return _lowest(self.model, num, self.denominator * other.denominator)
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check_model(other)
        num, scale = _product(self.model, self.numerators, other.numerators)
        return _lowest(self.model, num, self.denominator * other.denominator * scale)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CohClass":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.model.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = scalar_class(self.model, other)
        if not isinstance(other, CohClass):
            return NotImplemented
        return self.model is other.model and (self.numerators, self.denominator) == (
            other.numerators, other.denominator
        )

    def __hash__(self):
        return hash((id(self.model), self.denominator, frozenset(self.numerators.items())))

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
        coeff = self.numerators.get(self.model.fundamental_monomial, 0)
        orientation = self.model.orientation
        return Fraction(coeff * orientation.numerator, self.denominator * orientation.denominator)

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


def _product(model: ManifoldModel, a: dict, b: dict) -> tuple[dict[Monomial, int], int]:
    """The one product kernel: the integer numerators a * b reduced through
    the model's product table, and the extra denominator that rational
    structure constants bring (1 when they are integral).  The table maps
    m1 -> m2 -> the normal form of m1 * m2 and is filled on first use."""
    table = model._products
    out: dict[Monomial, int] = {}
    scale = 1
    for m1, c1 in a.items():
        row = table.setdefault(m1, {})
        for m2, c2 in b.items():
            d, pairs = row.get(m2) or row.setdefault(m2, model._product_entry(m1, m2))
            if scale % d:
                grow = d // math.gcd(scale, d)
                out = {m: v * grow for m, v in out.items()}
                scale *= grow
            c = c1 * c2 * (scale // d)
            for m, n in pairs:
                out[m] = out.get(m, 0) + c * n
    return out, scale


def _lowest(model: ManifoldModel, num: dict, den: int, out: CohClass | None = None) -> CohClass:
    """The class num / den (den > 0) in lowest terms, built into `out` or
    into a new class."""
    g = math.gcd(den, *num.values())
    num = {m: c // g for m, c in num.items() if c}
    if out is None:
        out = object.__new__(CohClass)
    object.__setattr__(out, "model", model)
    object.__setattr__(out, "numerators", num)
    object.__setattr__(out, "denominator", den // g)
    return out


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
    orientation value).  No term of this text may have a degree above the
    dimension plus the largest generator degree: the first power of a
    generator above the dimension lies within that bound, and a relation
    beyond it could never fire.
    """
    dimension = int(dimension)
    generators = tuple((str(n), int(d)) for n, d in generators)
    _check_grading(dimension, generators)
    names = [n for n, _ in generators]
    bound = dimension + max((d for _, d in generators), default=0)

    def raw_terms(text: str) -> dict[Monomial, Fraction]:
        return parse_terms(text, generators, bound, truncate=False)

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
#
# Every product keeps its terms within a degree bound (generator degrees
# are positive, so a term above it stays above it in every later product),
# and powers go by repeated squaring: "x^99999999" costs about 27 products.

_MAX_POWER_BITS = 1 << 16  # a power of a constant term may not outgrow this


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
    def __init__(
        self, text: str, generators: Iterable[tuple[str, int]], max_degree: int, truncate: bool
    ) -> None:
        self.text = text
        self.names = [name for name, _ in generators]
        self.degrees = [degree for _, degree in generators]
        self.max_degree = max_degree
        self.truncate = truncate
        self.tokens = _tokenize(text)
        self.pos = 0

    def _within_bound(self, mono: Monomial) -> bool:
        """Whether a term is kept: above the bound it is dropped when
        truncating and rejected otherwise."""
        degree = sum(e * d for e, d in zip(mono, self.degrees))
        if degree <= self.max_degree:
            return True
        if self.truncate:
            return False
        raise ExpressionError(
            f"term {monomial_name(self.names, mono)} of degree {degree} exceeds the degree "
            f"bound {self.max_degree} in {self.text!r}"
        )

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    @staticmethod
    def _int(token: _Token) -> int:
        try:
            return int(token.text)
        except ValueError:  # longer than the interpreter's int() digit limit
            raise ExpressionError(
                f"number of {len(token.text)} digits at position {token.pos} is too long"
            ) from None

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
                _accumulate(acc, mono, coeff if op == "+" else -coeff)
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
                if self._within_bound(mono):
                    value = out[mono] = c1 * c2 + out.get(mono, 0)
                    if not value:
                        del out[mono]
        return out

    def factor(self) -> dict[Monomial, Fraction]:
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            exponent_token = self.take("number")
            exponent = self._int(exponent_token)
            if exponent < 1:
                raise ExpressionError(
                    f"exponent must be a positive integer at position {exponent_token.pos}"
                )
            constant = base.get((0,) * len(self.names), Fraction(0))
            bits = max(abs(constant.numerator), constant.denominator).bit_length()
            if bits > 1 and exponent * bits > _MAX_POWER_BITS:
                raise ExpressionError(
                    f"exponent {exponent} at position {exponent_token.pos} is too large "
                    f"for the constant term {constant}"
                )
            out = {(0,) * len(self.names): Fraction(1)}
            while exponent:
                if exponent & 1:
                    out = self._multiply(out, base)
                exponent >>= 1
                if exponent:
                    base = self._multiply(base, base)
            return out
        return base

    def atom(self) -> dict[Monomial, Fraction]:
        token = self.peek()
        unit: Monomial = (0,) * len(self.names)
        if token.kind == "number":
            self.take()
            value = Fraction(self._int(token))
            if self.peek().kind == "/":
                self.take()
                den_token = self.take("number")
                den = self._int(den_token)
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
            return {mono: Fraction(1)} if self._within_bound(mono) else {}
        if token.kind == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        raise ExpressionError(
            f"unexpected {token.text!r} at position {token.pos} in {self.text!r}"
        )


def parse_terms(
    text: str, generators: Iterable[tuple[str, int]], max_degree: int, truncate: bool
) -> dict[Monomial, Fraction]:
    """Parse an expression into raw (unreduced) monomial terms of degree at
    most max_degree; terms above it are dropped when `truncate` and raise
    ExpressionError otherwise."""
    return _Parser(text, generators, max_degree, truncate).parse()


def parse_expression(text: str, model: ManifoldModel) -> CohClass:
    """Parse a polynomial expression in the model's generators and reduce
    it to normal form.  Terms above the model dimension are dropped while
    parsing, as they vanish in the model."""
    return CohClass(model, parse_terms(text, model.generators, model.dimension, truncate=True))
