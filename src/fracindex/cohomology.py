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
with one gcd pass per result, and every sum, of classes or of parsed
terms, is one integer accumulation over the lcm of the denominators.
Classes are keyed by a per-model monomial index, built lazily: a monomial
gets the next int, and its degree a slot in an array, when the model first
meets it, as a raw term or in a normal form.  Exponent tuples stay at the
edges: `terms`, `to_expression`, the constructor and the parser.  Every
product goes through one kernel, a per-model table from an index pair
(i, j) to the normal form of e_i * e_j as integers on indices over a
denominator (1 for integral relations), the multiplication table of the
quotient algebra (Cox, Little & O'Shea, Using Algebraic Geometry, ch. 2
section 4).  Each normal form is computed once and shared by every pair
with that product; a product that vanishes has a dead entry that the
kernel skips.  The table is filled as pairs are first multiplied, never by
walking the basis, and is keyed by ordered pairs: the engine's two routes
associate products differently, so its cross-check reads different
entries; a class is built from raw terms through the unit row.  Roots of
unity never enter a class.

Validation never walks the raw monomials: `_check_termination` searches
the rewrite graph of the relations with a nonzero right side for a cycle,
and without one a pure-power system is confluent (the argument is there).

Expressions are read in one pass over the tokens of one regular
expression; every sub-expression is integer numerators over one positive
denominator, and each product or sum takes one gcd pass.  The parser
multiplies raw monomials itself, not through the product table: relations
are parsed before any model exists, and a product in the free ring under a
degree bound is not the quotient product.  A power of one monomial within
the bound is one exponent scaling; every other power goes by repeated
squaring, so "x^99999999" costs about 27 products and an over-bound error
names the first square that leaves the bound.

Every power series in a class runs through one loop, `evaluate_series`:
the exponential, the inverse (1/c0 times the alternating series in the
nilpotent part) and the one-root genus series of `characteristic`.  It,
class powers and the Newton power sums of `characteristic` run on integer
numerators, one class per result, and a series stops once powers vanish.

Models are immutable after validation and classes are immutable always;
everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add, itemgetter, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from fracindex.scalars import Frozen, common_denominator, rational_to_string

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


class ManifoldModel(Frozen):
    """A finite cohomology ring: generators, rewrite relations, and a
    fundamental class against which integration is defined.

    relations maps a generator index to (power, replacement terms); the
    replacement is in raw monomial form without zero coefficients and must
    be homogeneous of the same degree as the rewritten power.  The values
    are stored as `build_model` passes them: it has checked the grading,
    each relation and the fundamental monomial and orientation, where the
    position of each declaration is known.  The constructor keeps the one
    check that needs the rewrite system as a whole, termination.

    The monomial index (`_index`, its inverse `_monomials`, `_degrees`)
    holds the unit at 0 and the fundamental monomial at `_fundamental` once
    built; it and the product table `_products` grow on first use.
    """

    __slots__ = (
        "dimension",
        "generators",
        "relations",
        "fundamental_monomial",
        "orientation",
        "_normal_cache",
        "_products",
        "_images",
        "_index",
        "_monomials",
        "_degrees",
        "_fundamental",
    )

    def __init__(
        self,
        dimension: int,
        generators: tuple[tuple[str, int], ...],
        relations: dict[int, tuple[int, dict[Monomial, Fraction]]],
        fundamental_monomial: Monomial,
        orientation: Fraction,
    ) -> None:
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "fundamental_monomial", fundamental_monomial)
        object.__setattr__(self, "orientation", orientation)
        for name in ("_normal_cache", "_products", "_images", "_index"):
            object.__setattr__(self, name, {})
        object.__setattr__(self, "_monomials", [])
        object.__setattr__(self, "_degrees", [])
        self._check_termination()
        self._intern((0,) * len(generators))
        object.__setattr__(self, "_fundamental", self._intern(fundamental_monomial))

    # -- basic structure -----------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    def _degree(self, mono: Monomial) -> int:
        return sum(map(mul, mono, map(itemgetter(1), self.generators)))

    def _intern(self, mono: Monomial) -> int:
        """The index of a monomial, the next one if it is new."""
        if mono not in self._index:
            self._index[mono] = len(self._monomials)
            self._monomials.append(mono)
            self._degrees.append(self._degree(mono))
        return self._index[mono]

    def one(self) -> "CohClass":
        return _class(self, {0: 1}, 1)

    def zero(self) -> "CohClass":
        return _class(self, {}, 1)

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
                for e in range((max_degree - self._degree(m)) // gdeg + 1 if i in free else 1)
            ]
        return sorted(out, key=lambda m: (self._degree(m), m))

    # -- normal forms ---------------------------------------------------------

    def _rewrite_once(self, mono: Monomial, i: int) -> dict[Monomial, Fraction]:
        power, rhs = self.relations[i]
        rest = mono[:i] + (mono[i] - power,) + mono[i + 1 :]
        return {tuple(map(add, rest, rmono)): rcoeff for rmono, rcoeff in rhs.items()}

    def normal_form(self, mono: Monomial) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Rewrite a raw monomial into a combination of basis monomials,
        returned as (d, ((i, n), ...)) with monomial indices i and integer n:
        the form is sum n * e_i / d, d = 1 when it is integral, and the zero
        form is the dead (); each is computed once per model, and every
        product-table entry it fills shares it.  A monomial above the
        dimension, or one whose exponent reaches a relation with an empty
        right side, is dead without a rewrite and enters no index."""
        entry = self._normal_cache.get(mono)
        if entry is not None:
            return entry
        alive = self._degree(mono) <= self.dimension and all(
            mono[i] < power or rhs for i, (power, rhs) in self.relations.items()
        )
        # iterative worklist; validation has ruled out rewrite cycles, so it
        # ends, and relations are homogeneous, so every term keeps the degree
        pending = {mono: Fraction(1)} if alive else {}
        done: dict[int, Fraction] = {}
        while pending:
            current, coeff = pending.popitem()
            cached = self._normal_cache.get(current)
            if cached is not None:
                d, pairs = cached or (1, ())
                for i, n in pairs:
                    done[i] = done.get(i, 0) + coeff * Fraction(n, d)
                continue
            hits = [i for i, (power, _) in self.relations.items() if current[i] >= power]
            if not hits:
                i = self._intern(current)
                done[i] = done[i] + coeff if i in done else coeff
                continue
            for rmono, rcoeff in self._rewrite_once(current, hits[0]).items():
                pending[rmono] = pending.get(rmono, 0) + coeff * rcoeff
        done = {i: c for i, c in done.items() if c}
        numerators, d = common_denominator(list(done.values()))
        entry = self._normal_cache[mono] = (d, tuple(zip(done, numerators))) if done else ()
        return entry

    # -- validation ------------------------------------------------------------

    def _check_termination(self) -> None:
        """Reject a rewrite cycle among the monomials of degree <= dimension.

        Only relations with a nonzero right side make edges, and they change
        only the exponents of the generators they touch; any cycle therefore
        divides down to one among the monomials in those generators alone,
        which is the graph searched here (depth first).  A relation whose
        left side lies above the dimension never fires there.

        Without a cycle the system is also confluent.  Where rules i and j
        both apply, to g_i^k_i * g_j^k_j * M, rewriting by i and then each
        resulting term by j gives r_i * r_j * M, and so does j then i: a
        rewrite on one generator leaves the pure power of another in place.
        Relations are homogeneous, so truncation drops both sides alike.
        Termination and this one-step join give confluence (Newman's lemma;
        Bergman's diamond lemma, Adv. Math. 29, 1978)."""
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
                            "relations: rewrite system does not terminate on "
                            + monomial_name(self.names, nxt)
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


class CohClass(Frozen):
    """An element of a ManifoldModel in normal form: the sum over indices i
    of reduced monomials e_i of numerators[i] * e_i / denominator, in lowest
    terms (no zero numerator, a positive denominator, 1 for the zero class),
    so equal classes have equal fields; a constant hashes as its Fraction.
    `terms` is the read-only Fraction view on exponent tuples in (degree,
    monomial) order.  The constructor takes int or Fraction
    coefficients on raw monomials; any other coefficient raises TypeError."""

    __slots__ = ("model", "numerators", "denominator")

    def __init__(self, model: ManifoldModel, terms: Mapping[Monomial, Fraction | int]) -> None:
        for coeff in terms.values():
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"class coefficients must be rational, got {type(coeff).__name__}")
        numerators, den = common_denominator(list(terms.values()))
        _reduced(model, {tuple(m): n for m, n in zip(terms, numerators) if n}, den, self)

    # -- structure -------------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        monomials, degrees, den = self.model._monomials, self.model._degrees, self.denominator
        order = sorted(self.numerators, key=lambda i: (degrees[i], monomials[i]))
        return MappingProxyType({monomials[i]: Fraction(self.numerators[i], den) for i in order})

    def is_zero(self) -> bool:
        return not self.numerators

    def constant_term(self) -> Fraction:
        return Fraction(self.numerators.get(0, 0), self.denominator)

    def degree_part(self, degree: int) -> "CohClass":
        degrees = self.model._degrees
        part = {i: c for i, c in self.numerators.items() if degrees[i] == degree}
        return _class(self.model, part, self.denominator)

    def is_homogeneous(self, degree: int) -> bool:
        degrees = self.model._degrees
        return all(degrees[i] == degree for i in self.numerators)

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = scalar_class(self.model, other)
        if not isinstance(other, CohClass):
            return NotImplemented
        return class_sum([self, other])

    __radd__ = __add__

    def __neg__(self):
        return _class(self.model, {m: -c for m, c in self.numerators.items()}, self.denominator)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, CohClass)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = {m: c * other.numerator for m, c in self.numerators.items()} if other else {}
            return _class(self.model, num, self.denominator * other.denominator)
        if not isinstance(other, CohClass):
            return NotImplemented
        num, scale = _product(self.model, self.numerators, other.numerators)
        return _class(self.model, num, self.denominator * other.denominator * scale)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CohClass":
        if n < 0:
            return self.inverse() ** (-n)
        model, base, den = self.model, self.numerators, self.denominator
        out, out_den = {0: 1}, 1
        while n:
            if n & 1:
                out, out_den = _times(model, out, out_den, base, den)
            n >>= 1
            if n:
                base, den = _times(model, base, den, base, den)
        return _class(model, out, out_den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = scalar_class(self.model, other)
        if not isinstance(other, CohClass):
            return NotImplemented
        return self.model is other.model and (self.numerators, self.denominator) == (
            other.numerators, other.denominator
        )

    def __hash__(self):
        if self.numerators.keys() <= {0}:  # a constant, equal to its Fraction
            return hash(self.constant_term())
        return hash((id(self.model), self.denominator, frozenset(self.numerators.items())))

    # -- the operations the index formulas need ------------------------------------

    def exponential(self) -> "CohClass":
        """sum_k self^k / k!, a finite sum; requires zero constant term."""
        half = self.model.dimension // 2
        return evaluate_series([Fraction(1, math.factorial(k)) for k in range(half + 1)], self)

    def inverse(self) -> "CohClass":
        """Multiplicative inverse: 1/c0 times the finite alternating series
        in the nilpotent class self/c0 - 1; requires a nonzero constant
        term c0."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ValueError("class with zero constant term is not invertible")
        c0_inv = 1 / c0
        signs = [(-1) ** k for k in range(self.model.dimension // 2 + 1)]
        return evaluate_series(signs, self * c0_inv - 1) * c0_inv

    def integrate(self) -> Fraction:
        """Pair against the fundamental class: the coefficient of the
        fundamental monomial times the orientation value."""
        coeff = self.numerators.get(self.model._fundamental, 0)
        orientation = self.model.orientation
        return Fraction(coeff * orientation.numerator, self.denominator * orientation.denominator)

    # -- rendering --------------------------------------------------------------

    def to_expression(self) -> str:
        """Deterministic polynomial expression in the model's generators."""
        if self.is_zero():
            return "0"
        parts = []
        for mono, coeff in self.terms.items():
            mono_name = monomial_name(self.model.names, mono)
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


def _product(model: ManifoldModel, a: dict, b: dict) -> tuple[dict[int, int], int]:
    """The one product kernel: the integer numerators a * b, none zero,
    reduced through the model's product table, and the extra denominator
    that rational structure constants bring (1 when they are integral).
    Row i of the table maps j to the normal form of e_i * e_j, filled on
    first use; a pair whose product vanishes, above the dimension or by
    the relations, keeps the dead entry (), which the kernel skips."""
    table, monomials, out, scale = model._products, model._monomials, {}, 1
    for i, c1 in a.items():
        row = table.get(i) or table.setdefault(i, {})
        for j, c2 in b.items():
            entry = row.get(j)
            if entry is None:
                entry = row[j] = model.normal_form(tuple(map(add, monomials[i], monomials[j])))
            if entry:
                d, pairs = entry
                if scale % d:
                    grow = d // math.gcd(scale, d)
                    out = {m: v * grow for m, v in out.items()}
                    scale *= grow
                c = c1 * c2 * (scale // d)
                for m, n in pairs:
                    out[m] = out.get(m, 0) + c * n
    return {m: v for m, v in out.items() if v}, scale


def _reduced(model: ManifoldModel, raw: dict, den: int, out: CohClass | None = None) -> CohClass:
    """The class of the integer terms raw / den (den > 0) on raw monomials,
    in normal form, built into `out` or into a new class: the unit times
    the indexed raw terms, through the table's unit row."""
    # a known monomial is read from the index (the unit, 0, goes through _intern)
    raw = {model._index.get(m) or model._intern(m): c for m, c in raw.items()}
    num, scale = _product(model, {0: 1}, raw)
    return _class(model, num, den * scale, out)


def _sum(parts: Sequence[tuple[Mapping, int]]) -> tuple[dict, int]:
    """The one sum: integer terms num / den (den > 0) added over the lcm of
    the denominators in one pass, zeros dropped, not in lowest terms."""
    den = math.lcm(*[d for _, d in parts])
    out: dict = {}
    for num, d in parts:
        scale = den // d
        for m, c in num.items():
            out[m] = out.get(m, 0) + c * scale
    return {m: c for m, c in out.items() if c}, den


def _lowest(num: dict, den: int) -> tuple[dict, int]:
    """Nonzero integer numerators over den > 0 in lowest terms, by one gcd
    pass; returned as given when they already are."""
    g = math.gcd(den, *num.values())
    if g == 1:
        return num, den
    return {m: c // g for m, c in num.items()}, den // g


def _times(model: ManifoldModel, a: dict, da: int, b: dict, db: int) -> tuple[dict, int]:
    """(a / da) * (b / db) for integer terms a and b, in lowest terms."""
    num, scale = _product(model, a, b)
    return _lowest(num, da * db * scale)


def _class(model: ManifoldModel, num: dict, den: int, out: CohClass | None = None) -> CohClass:
    """The class of nonzero integer numerators on reduced monomials over
    den > 0, in lowest terms, built into `out` or into a new class."""
    num, den = _lowest(num, den)
    if out is None:
        out = object.__new__(CohClass)
    object.__setattr__(out, "model", model)
    object.__setattr__(out, "numerators", num)
    object.__setattr__(out, "denominator", den)
    return out


def scalar_class(model: ManifoldModel, value: Fraction | int) -> CohClass:
    return CohClass(model, {model._monomials[0]: value})


def class_sum(classes: Sequence[CohClass]) -> CohClass:
    """The sum of a nonempty list of classes of one model, in one integer
    accumulation over the lcm of their denominators and one gcd pass."""
    return _class(classes[0].model, *_sum([(cls.numerators, cls.denominator) for cls in classes]))


def evaluate_series(coeffs: Sequence[Fraction | int], cls: CohClass) -> CohClass:
    """sum_k coeffs[k] * cls^k for a class with zero constant term, on integer
    numerators with one class for the result.  Every generator has positive
    degree, so cls^k vanishes once 2k exceeds the model dimension; the sum
    stops there or when the coefficients run out."""
    if cls.constant_term() != 0:
        raise ValueError("series evaluation requires a class with zero constant term")
    power, den, parts = {0: 1}, 1, []
    for k, c in enumerate(coeffs):
        if k:
            power, den = _times(cls.model, power, den, cls.numerators, cls.denominator)
            if not power:
                break
        if c:
            parts.append(({m: v * c.numerator for m, v in power.items()}, den * c.denominator))
    return _class(cls.model, *_sum(parts))


# ---------------------------------------------------------------------------
# model constructors


def build_model(
    dimension: int,
    generators: Iterable[tuple[str, int]],
    relations: Iterable[tuple[str, str]] = (),
    fundamental: tuple[str, Fraction] | None = None,
) -> ManifoldModel:
    """Build and validate a model from textual declarations.

    relations are (lhs, rhs) expression pairs where lhs must be a pure
    power of one generator; fundamental is (monomial expression,
    orientation value).  No term of this text may have a degree above the
    dimension plus the largest generator degree: the first power of a
    generator above the dimension lies within that bound, and a relation
    beyond it could never fire.

    Every ModelError and ExpressionError raised here starts with the path
    of the declaration at fault, relative to the arguments: `dimension`,
    `generators[i].name` or `.degree`, `relations[i].lhs` or `.rhs`,
    `fundamental[0]` or `[1]`, and `relations` for a rewrite cycle.
    """
    generators = tuple(generators)
    if dimension < 0 or dimension % 2 != 0:
        raise ModelError(f"dimension: must be even and nonnegative, got {dimension}")
    names = [n for n, _ in generators]
    degrees = [d for _, d in generators]
    seen: set[str] = set()
    for i, (name, degree) in enumerate(generators):
        if degree <= 0 or degree % 2 != 0:
            raise ModelError(f"generators[{i}].degree: must be even and positive, got {degree}")
        if name in seen:
            raise ModelError(f"generators[{i}].name: duplicate generator name {name!r}")
        seen.add(name)
    bound = dimension + max(degrees, default=0)

    def raw_terms(text: str, path: str) -> dict[Monomial, Fraction]:
        try:
            num, den = parse_terms(text, generators, bound, truncate=False)
        except ExpressionError as exc:
            raise ExpressionError(f"{path}: {exc}") from exc
        return {m: Fraction(c, den) for m, c in num.items()}

    relation_map: dict[int, tuple[int, dict[Monomial, Fraction]]] = {}
    for i, (lhs, rhs) in enumerate(relations):
        path = f"relations[{i}]"
        lhs_terms = raw_terms(lhs, f"{path}.lhs")
        if len(lhs_terms) != 1:
            raise ModelError(f"{path}.lhs: must be a single monomial, got {lhs!r}")
        (mono, coeff), = lhs_terms.items()
        if coeff != 1:
            raise ModelError(f"{path}.lhs: must have coefficient 1, got {lhs!r}")
        support = [g for g, e in enumerate(mono) if e > 0]
        if len(support) != 1:
            raise ModelError(f"{path}.lhs: must be a pure power of one generator, got {lhs!r}")
        index = support[0]
        if index in relation_map:
            raise ModelError(
                f"{path}.lhs: generator {names[index]!r} has more than one relation"
            )
        rhs_terms = raw_terms(rhs, f"{path}.rhs")
        expected = mono[index] * degrees[index]
        for m in rhs_terms:
            if (degree := sum(map(mul, m, degrees))) != expected:
                raise ModelError(
                    f"{path}.rhs: not degree-homogeneous: {monomial_name(names, m)} has degree "
                    f"{degree}, expected {expected}"
                )
        relation_map[index] = (mono[index], rhs_terms)

    if fundamental is None:
        if dimension != 0 or generators:
            raise ModelError("fundamental: missing, and required for positive-dimensional models")
        fund_mono: Monomial = ()
        orientation: Fraction = Fraction(1)
    else:
        fund_text, orientation = fundamental
        fund_terms = raw_terms(fund_text, "fundamental[0]")
        if len(fund_terms) != 1 or list(fund_terms.values()) != [1]:
            raise ModelError("fundamental[0]: must be a single monomial with coefficient 1")
        (fund_mono,) = fund_terms
        if (degree := sum(map(mul, fund_mono, degrees))) != dimension:
            raise ModelError(f"fundamental[0]: degree {degree} must equal the dimension {dimension}")
        if any(fund_mono[g] >= power for g, (power, _) in relation_map.items()):
            raise ModelError(f"fundamental[0]: must be irreducible, got {fund_text!r}")
        if orientation == 0:
            raise ModelError("fundamental[1]: the orientation must be nonzero")

    return ManifoldModel(dimension, generators, relation_map, fund_mono, orientation)


# ---------------------------------------------------------------------------
# expression parsing

_MAX_POWER_BITS = 1 << 16  # a power of a constant term may not outgrow this
_MAX_NESTING = 100  # parentheses deeper than this are rejected, not recursed into
#: One (number, name, other) tuple per token, two fields empty; a number is
#: what int() reads (decimal digits of any script).
_TOKEN = re.compile(r"(\d+)|(\w+)|(\S)")
_STRAY = re.compile(r"[^\s\w+\-*/^()]")  # in ASCII text, the only bad characters
_END = ("", "", "")  # after the last token: no field set


def _positions(text: str) -> list[int]:
    """The position of each token of the text and of its end."""
    return [match.start() for match in _TOKEN.finditer(text)] + [len(text)]


def parse_terms(
    text: str, generators: Iterable[tuple[str, int]], max_degree: int, truncate: bool
) -> tuple[dict[Monomial, int], int]:
    """Parse an expression into raw (unreduced) monomial terms of degree at
    most max_degree: integer numerators, none zero, over one positive
    denominator in lowest terms.  Terms above the bound are dropped when
    `truncate` and raise ExpressionError otherwise; without `truncate` the
    bound is at least every generator's degree, as `build_model`'s is.

        expr   := ['-'] term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := atom ['^' INT]
        atom   := NUMBER ['/' NUMBER] | NAME | '(' expr ')'

    The bound holds after every product (generator degrees are positive,
    so a term above it stays above it in every later product), and
    parentheses nest at most _MAX_NESTING deep."""
    names = [name for name, _ in generators]
    degrees = [degree for _, degree in generators]
    unit = (0,) * len(names)
    degree_of = {unit: 0}  # every monomial built so far

    def at(i: int) -> str:
        return f"at position {_positions(text)[i]}"

    # a name starts with a letter or "_", not with a digit like "²"; in ASCII
    # text only a stray character can break a rule
    tokens = _TOKEN.findall(text)
    if not text.isascii() or _STRAY.search(text):
        for index, (_, name, other) in enumerate(tokens):
            first = name[:1] or other
            if first and not (first.isalpha() or first == "_" or first in "+-*/^()"):
                raise ExpressionError(f"unexpected character {first!r} {at(index)}")
    tokens.append(_END)

    def unexpected(i: int, wanted: str = "") -> ExpressionError:
        got = "".join(tokens[i])
        if wanted:
            return ExpressionError(f"expected {wanted} {at(i)} in {text!r}, got {got!r}")
        return ExpressionError(f"unexpected {got!r} {at(i)} in {text!r}")

    def over_bound(mono: Monomial) -> ExpressionError:
        degree = sum(map(mul, mono, degrees))
        return ExpressionError(
            f"term {monomial_name(names, mono)} of degree {degree} exceeds the degree "
            f"bound {max_degree} in {text!r}"
        )

    def integer(i: int) -> int:
        digits = tokens[i][0]
        try:
            return int(digits)
        except ValueError:  # longer than the interpreter's int() digit limit
            raise ExpressionError(f"number of {len(digits)} digits {at(i)} is too long") from None

    def product(a: dict, da: int, b: dict, db: int) -> tuple[dict, int]:
        if len(b) == 1 and unit in b:
            a, b = b, a
        if len(a) == 1 and unit in a:  # a constant keeps the other side's terms
            return _lowest({m: a[unit] * c for m, c in b.items()}, da * db)
        out: dict[Monomial, int] = {}
        right = [(m2, c2, degree_of[m2]) for m2, c2 in b.items()]
        for m1, c1 in a.items():
            d1 = degree_of[m1]
            for m2, c2, d2 in right:
                mono = tuple(map(add, m1, m2))
                if d1 + d2 <= max_degree:
                    degree_of[mono] = d1 + d2
                    out[mono] = out.get(mono, 0) + c1 * c2
                elif not truncate:
                    raise over_bound(mono)
        return _lowest(out if all(out.values()) else {m: c for m, c in out.items() if c}, da * db)

    def expr(i: int, depth: int) -> tuple[dict, int, int]:
        negate = tokens[i][2] == "-"
        num, den, i = term(i + negate, depth)
        if not negate and tokens[i][2] not in ("+", "-"):
            return num, den, i
        terms = [({m: -c for m, c in num.items()} if negate else num, den)]
        while tokens[i][2] in ("+", "-"):
            minus = tokens[i][2] == "-"
            num, den, i = term(i + 1, depth)
            terms.append(({m: -c for m, c in num.items()} if minus else num, den))
        return (*_lowest(*_sum(terms)), i)

    def term(i: int, depth: int) -> tuple[dict, int, int]:
        num, den, i = factor(i, depth)
        while tokens[i][2] == "*":
            rhs, rden, i = factor(i + 1, depth)
            num, den = product(num, den, rhs, rden)
        return num, den, i

    def factor(i: int, depth: int) -> tuple[dict, int, int]:
        number, name, other = tokens[i]
        if number:
            n, den, i = integer(i), 1, i + 1
            if tokens[i][2] == "/":
                if not tokens[i + 1][0]:
                    raise unexpected(i + 1, "number")
                den = integer(i + 1)
                if den == 0:
                    raise ExpressionError(f"zero denominator {at(i + 1)}")
                g = math.gcd(n, den)
                n, den, i = n // g, den // g, i + 2
            num = {unit: n} if n else {}
        elif name:
            if name not in names:
                raise ExpressionError(f"unknown generator {name!r} {at(i)}")
            index = names.index(name)
            mono = unit[:index] + (1,) + unit[index + 1 :]
            degree_of[mono] = degrees[index]
            num, den, i = ({mono: 1} if degrees[index] <= max_degree else {}), 1, i + 1
        elif other == "(":
            if depth == _MAX_NESTING:
                raise ExpressionError(f"parentheses nested more than {_MAX_NESTING} deep {at(i)}")
            num, den, i = expr(i + 1, depth + 1)
            if tokens[i][2] != ")":
                raise unexpected(i, ")")
            i += 1
        else:
            raise unexpected(i)
        if tokens[i][2] != "^":
            return num, den, i
        if not tokens[i + 1][0]:
            raise unexpected(i + 1, "number")
        exponent = integer(i + 1)
        if exponent < 1:
            raise ExpressionError(f"exponent must be a positive integer {at(i + 1)}")
        constant = num.get(unit, 0)
        g = math.gcd(constant, den)
        bits = max(abs(constant) // g, den // g).bit_length()
        if bits > 1 and exponent * bits > _MAX_POWER_BITS:
            raise ExpressionError(
                f"exponent {exponent} {at(i + 1)} is too large "
                f"for the constant term {Fraction(constant, den)}"
            )
        i += 2
        if len(num) == 1:
            ((mono, c),) = num.items()
            degree = degree_of[mono] * exponent
            if degree <= max_degree:
                mono = tuple([e * exponent for e in mono])
                degree_of[mono] = degree
                return {mono: c**exponent}, den**exponent, i
        out, out_den = {unit: 1}, 1
        while exponent:
            if exponent & 1:
                out, out_den = product(out, out_den, num, den)
            exponent >>= 1
            if exponent:
                num, den = product(num, den, num, den)
        return out, out_den, i

    try:
        num, den, i = expr(0, 0)
        if tokens[i] is not _END:
            raise unexpected(i)
    finally:
        # expr, term and factor reach one another through their cells, a
        # reference cycle only the garbage collector would free
        del expr, term, factor
    return num, den


def parse_expression(text: str, model: ManifoldModel) -> CohClass:
    """Parse a polynomial expression in the model's generators and reduce
    it to normal form.  Terms above the model dimension are dropped while
    parsing, as they vanish in the model."""
    num, den = parse_terms(text, model.generators, model.dimension, truncate=True)
    return _reduced(model, num, den)
