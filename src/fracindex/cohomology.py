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
section 4).  Each normal form, as that of every monomial a rewrite reaches,
is computed once and shared by every pair with that product; a product
that vanishes has a dead entry that the kernel skips, an integral entry
(d = 1) adds its numerators with no rescale, and a result is filtered for
zeros only when a sum cancelled.
The table is filled as pairs are first multiplied, never by walking the
basis, and is keyed by ordered pairs: the engine's two routes associate
products differently, so its cross-check reads different entries; a class
is built from raw terms through the unit row.  Roots of unity never enter
a class.

Validation never walks the raw monomials: `_check_termination` accepts a
system whose generator graph is acyclic at once, else searches the rewrite
graph for a cycle, and without one a pure-power system is confluent (the
arguments are there).

Expressions are read in one `findall` pass of one pattern, a tuple of an
optional joiner and one factor each, with a stack for parentheses; a name
is looked up in a name -> (position, degree) map that each model, and each
`build_model` call, builds once.  A term folds its numbers and generator
powers within the degree bound into one int coefficient over one
denominator and one exponent list, and is integer numerators over one
denominator from a parenthesised factor on; an expression adds its terms
into one sum over a running denominator, with one gcd at its end.  An error
rebuilds its match from the tuple's index.  The parser multiplies raw
monomials itself: relations are parsed before any model exists.  A power
of a parenthesised factor goes by repeated squaring, so "(1+x)^99999999"
costs about 27 products, and an over-bound error names the first square
that leaves the bound.

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
from contextlib import suppress
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from itertools import islice
from operator import add, itemgetter, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from fracindex.scalars import Frozen, common_denominator

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
    holds the unit at 0 and the fundamental monomial, which the model keeps
    only as its index `_fundamental`; the index and the product table
    `_products` grow on first use, from caches its own constructor starts.
    """

    __slots__ = (
        "dimension",
        "generators",
        "relations",
        "orientation",
        "_name_index",
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
        # the caches start empty, and `_fundamental` is set once interned
        super().__init__(
            dimension, generators, relations, orientation, name_index(generators),
            {}, {}, {}, {}, [], [], None,
        )
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
        form is the dead ().  A monomial above the dimension, or one whose
        exponent reaches a relation with an empty right side, is dead and
        enters no index; one that reaches no relation is the basis monomial
        (1, ((i, 1),)).  Any other sums the forms of its terms under its first
        relation, so every monomial a rewrite reaches gets one entry per model,
        shared by every product-table entry it fills.  The walk is depth first
        on an explicit stack, as rewrite chains can be long; validation rules
        out cycles, and relations are homogeneous, so the degree stays."""
        cache = self._normal_cache
        entry = cache.get(mono)
        if entry is not None:
            return entry
        if self._degree(mono) > self.dimension:
            cache[mono] = ()
            return ()
        stack = [mono]
        while stack:
            current = stack.pop()
            if current in cache:
                continue
            reached = [i for i, (power, _) in self.relations.items() if current[i] >= power]
            if not reached or not all(self.relations[i][1] for i in reached):
                cache[current] = () if reached else (1, ((self._intern(current), 1),))
                continue
            image = self._rewrite_once(current, reached[0])
            missing = [m for m in image if m not in cache]
            if missing:  # their forms first, then this one again
                stack += [current, *missing]
                continue
            parts = []  # each term's form times its coefficient, in integers
            for m, coeff in image.items():
                d, pairs = cache[m] or (1, ())
                parts.append(({i: coeff.numerator * n for i, n in pairs}, coeff.denominator * d))
            num, d = _lowest(*_sum(parts))
            cache[current] = (d, tuple(num.items())) if num else ()
        return cache[mono]

    # -- validation ------------------------------------------------------------

    def _check_termination(self) -> None:
        """Reject a rewrite cycle among the monomials of degree <= dimension.

        Only relations with a nonzero right side firing within the dimension
        make edges.  Let each right-side term of rule i have a lower exponent
        of g_i than the left side (for homogeneous relations: no right side
        holds its left side), and the graph with an edge i -> j for each other
        g_j in a right side of rule i be acyclic.  Then a rewrite by rule i
        lowers the exponent of g_i and changes only generators after i in a
        topological order, so it lowers the monomial in the lexicographic
        order by that order, a well-order, and the system terminates.  Else
        any cycle divides down to one among the monomials in the generators
        the rules touch, which are searched depth first.

        Without a cycle the system is also confluent.  Where rules i and j
        both apply, to g_i^k_i * g_j^k_j * M, rewriting by i and then each
        resulting term by j gives r_i * r_j * M, and so does j then i: a
        rewrite on one generator leaves the pure power of another in place.
        Relations are homogeneous, so truncation drops both sides alike.
        Termination and this one-step join give confluence (Newman's lemma;
        Bergman's diamond lemma, Adv. Math. 29, 1978)."""
        active = {
            i: rhs
            for i, (power, rhs) in self.relations.items()
            if rhs and power * self.generators[i][1] <= self.dimension
        }
        graph = {i: {j for m in rhs for j, e in enumerate(m) if e} - {i} for i, rhs in active.items()}
        with suppress(CycleError):
            if all(m[i] < self.relations[i][0] for i, rhs in active.items() for m in rhs):
                TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
                return
        touched = set(active).union(*graph.values())

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
    so equal classes have equal fields.  `terms` is the read-only Fraction
    view on exponent tuples in (degree, monomial) order.  Its own
    constructor normalizes int or Fraction coefficients on raw monomials;
    any other coefficient raises TypeError.  A rational enters a sum or a
    product on the right only, there is no negation or difference (add
    cls * -1), and a class never equals a number."""

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
            other = CohClass(self.model, {self.model._monomials[0]: other})
        if not isinstance(other, CohClass):
            return NotImplemented
        return class_sum([self, other])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = {m: c * other.numerator for m, c in self.numerators.items()} if other else {}
            return _class(self.model, num, self.denominator * other.denominator)
        if not isinstance(other, CohClass):
            return NotImplemented
        num, scale = _product(self.model, self.numerators, other.numerators)
        return _class(self.model, num, self.denominator * other.denominator * scale)

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
        return evaluate_series(signs, self * c0_inv + -1) * c0_inv

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
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono_name)
            elif coeff == -1:
                parts.append("-" + mono_name)
            else:
                parts.append(str(coeff) + "*" + mono_name)
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
    the relations, keeps the dead entry (), which the kernel skips.  An
    integral entry needs no rescale of the sum so far, and the zeros of
    cancelled sums are dropped in one pass only when there are any."""
    table, monomials, out, scale = model._products, model._monomials, {}, 1
    for i, c1 in a.items():
        row = table.get(i) or table.setdefault(i, {})
        for j, c2 in b.items():
            entry = row.get(j)
            if entry is None:
                entry = row[j] = model.normal_form(tuple(map(add, monomials[i], monomials[j])))
            if entry:
                d, pairs = entry
                if d != 1 and scale % d:
                    grow = d // math.gcd(scale, d)
                    out = {m: v * grow for m, v in out.items()}
                    scale *= grow
                c = c1 * c2 * (scale if d == 1 else scale // d)
                for m, n in pairs:
                    out[m] = out.get(m, 0) + c * n
    return (out if all(out.values()) else {m: v for m, v in out.items() if v}), scale


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
    _set_model(out, model)
    _set_numerators(out, num)
    _set_denominator(out, den)
    return out


_set_model, _set_numerators, _set_denominator = (
    CohClass.model.__set__, CohClass.numerators.__set__, CohClass.denominator.__set__
)


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
    orientation value).  A generator name is one name token of the
    expression grammar.  Each distinct text is parsed once, and no term of
    it may have a degree above the dimension plus the largest generator
    degree: the first power of a generator above the dimension lies within
    that bound, and a relation beyond it could never fire.

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
    lookup = name_index(generators)
    seen: set[str] = set()
    for i, (name, degree) in enumerate(generators):
        if degree <= 0 or degree % 2 != 0:
            raise ModelError(f"generators[{i}].degree: must be even and positive, got {degree}")
        if not is_generator_name(name):
            raise ModelError(f"generators[{i}].name: not a name expressions can read, got {name!r}")
        if name in seen:
            raise ModelError(f"generators[{i}].name: duplicate generator name {name!r}")
        seen.add(name)
    bound = dimension + max(degrees, default=0)
    parsed: dict[str, dict[Monomial, Fraction]] = {}  # each distinct text, parsed once

    def raw_terms(text: str, path: str) -> dict[Monomial, Fraction]:
        if text not in parsed:
            try:
                num, den = parse_terms(text, lookup, bound, truncate=False)
            except ExpressionError as exc:
                raise ExpressionError(f"{path}: {exc}") from exc
            parsed[text] = {m: Fraction(c, den) for m, c in num.items()}
        return parsed[text]

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
#: Groups: joiner, number (what int() reads), "/", denominator, name, ")",
#: "^", exponent ("" after a "/" or "^" with no digits), "(", and one other
#: character ("" at the end); `findall` gives "" for a group that took no
#: part.  No match fails, as the last alternative matches where the others
#: do not, and only an optional "/" or "^" part backtracks, over the space
#: it read: the scan takes linear time.
_FACTOR = re.compile(
    r"\s*(?:([-+*])\s*)?(?:(?:(\d+)(?:\s*(/)\s*(\d*))?|(\w+)|(\)))(?:\s*(\^)\s*(\d*))?|(\()|(\S?))"
)


def is_generator_name(name: str) -> bool:
    """Whether `name` is one name token of the expression grammar: a letter
    or "_" and then word characters.  Model generators and invariant
    generators are held to it, so a monomial written from their names, as
    "P1^2*E", names one exponent tuple and no other."""
    return (name[:1].isalpha() or name[:1] == "_") and re.fullmatch(r"\w+", name) is not None


def name_index(generators: Iterable[tuple[str, int]]) -> dict[str, tuple[int, int]]:
    """Each generator name's position and degree, in generator order: what
    the parser reads names through, built once per model."""
    return {name: (i, degree) for i, (name, degree) in enumerate(generators)}


def _match(text: str, k: int) -> re.Match:
    """The k-th match of the scan, rebuilt for an error."""
    return next(islice(_FACTOR.finditer(text), k, None))


def _unexpected(text: str, match: re.Match, wanted: str = "", groups=(1, 2, 5, 6, 9, 10)):
    """The error at the first token of the match in these groups ("" is the end)."""
    group = next(g for g in groups if match[g] is not None)
    got, where = match[group], f"at position {match.start(group)} in {text!r}"
    said = f"expected {wanted} {where}, got {got!r}" if wanted else f"unexpected {got!r} {where}"
    return ExpressionError(said)


def _exponent(text: str, k: int, digits: str, constant: int = 0, den: int = 1) -> int:
    """The exponent of the k-th match's factor, whose constant term is constant / den."""
    exponent = int(digits)
    if exponent < 1:
        raise ExpressionError(
            f"exponent must be a positive integer at position {_match(text, k).start(8)}"
        )
    g = math.gcd(constant, den)
    bits = max(abs(constant) // g, den // g).bit_length()
    if bits > 1 and exponent * bits > _MAX_POWER_BITS:
        said = f"a constant term of {bits} bits"
        with suppress(ValueError):  # str() refuses ints past int()'s digit limit too
            said = f"the constant term {Fraction(constant, den)}"
        raise ExpressionError(
            f"exponent {exponent} at position {_match(text, k).start(8)} is too large for {said}"
        )
    return exponent


def _over_bound(mono: Monomial, bound: tuple) -> ExpressionError:
    index, max_degree, _, text = bound
    degree = sum(e * d for e, (_, d) in zip(mono, index.values()))
    return ExpressionError(
        f"term {monomial_name(index, mono)} of degree {degree} exceeds "
        f"the degree bound {max_degree} in {text!r}"
    )


def _rescaled(acc: dict, den: int, d: int) -> tuple[dict, int]:
    """Integer terms acc / den over the lcm of den and d."""
    g = d // math.gcd(den, d)
    return ({m: c * g for m, c in acc.items()} if acc else acc), den * g


def _raw_product(a: dict, da: int, b: dict, db: int, bound: tuple) -> tuple[dict, int]:
    """(a / da) * (b / db) on raw monomials in lowest terms; a term above the bound
    (name index, max_degree, truncate, text) is dropped when truncating, else refused."""
    index, max_degree, truncate, _ = bound
    degrees = [d for _, d in index.values()]
    unit = (0,) * len(degrees)
    if len(b) == 1 and unit in b:
        a, b = b, a
    if len(a) == 1 and unit in a:  # a constant keeps the other side's terms
        return _lowest({m: a[unit] * c for m, c in b.items()}, da * db)
    out: dict[Monomial, int] = {}
    right = [(m2, c2, sum(map(mul, m2, degrees))) for m2, c2 in b.items()]
    for m1, c1 in a.items():
        d1 = sum(map(mul, m1, degrees))
        for m2, c2, d2 in right:
            mono = tuple(map(add, m1, m2))
            if d1 + d2 <= max_degree:
                out[mono] = out.get(mono, 0) + c1 * c2
            elif not truncate:
                raise _over_bound(mono, bound)
    return _lowest(out if all(out.values()) else {m: c for m, c in out.items() if c}, da * db)


def _raw_power(num: dict, den: int, exponent: int, bound: tuple) -> tuple[dict, int]:
    """(num / den) ** exponent by repeated squaring, within the bound."""
    out, out_den = {(0,) * len(bound[0]): 1}, 1
    while exponent:
        if exponent & 1:
            out, out_den = _raw_product(out, out_den, num, den, bound)
        exponent >>= 1
        if exponent:
            num, den = _raw_product(num, den, num, den, bound)
    return out, out_den


def parse_terms(
    text: str, index: Mapping[str, tuple[int, int]], max_degree: int, truncate: bool
) -> tuple[dict[Monomial, int], int]:
    """Parse an expression into raw (unreduced) monomial terms of degree at
    most max_degree: integer numerators, none zero, over one positive
    denominator in lowest terms.  Terms above the bound are dropped when
    `truncate` and raise ExpressionError otherwise; without `truncate` the
    bound is at least every generator's degree, as `build_model`'s is.
    Names are read through `index`, the `name_index` of the generators,
    which `build_model` and each model build once.

        expr   := ['-'] term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := atom ['^' INT]
        atom   := NUMBER ['/' NUMBER] | NAME | '(' expr ')'

    One `findall` pass of `_FACTOR` reads a joiner and a factor per tuple.
    A term folds its numbers, converted inline, and its generator powers,
    each name looked up in the index, into one int over one denominator and
    one exponent list, and is integer numerators over one denominator from
    a parenthesised factor on.  Each expression is one sum over a running
    denominator, moved to the lcm only when a term's does not divide it,
    with one gcd at its end; "(" pushes the sum and term around it on a
    stack, at most _MAX_NESTING deep.  An error rebuilds its match from the
    tuple's index, and a token starting with a character no rule reads is
    reported first, as by a tokenizer reading the whole text first.  The
    bound holds after every product: degrees are positive."""
    bound, width = (index, max_degree, truncate, text), len(index)
    acc, aden, stack = {}, 1, []  # the innermost expression's sum; per "(", the state outside
    num, nden, coeff, den, exps, degree = None, 1, 1, 1, [0] * width, 0  # coeff -1 after "-"
    start = True  # where an expression starts, a "-" or a factor comes
    try:
        for k, (joiner, number, slash, over, name, close, caret, exponent, opening, other) in (
            enumerate(_FACTOR.findall(text))  # the last tuple is the end, all ""
        ):
            if start:
                if joiner and joiner != "-":
                    raise _unexpected(text, _match(text, k))
                coeff = -1 if joiner else 1
            elif joiner != "*":  # "+", "-", or no joiner: only ")" or the end may come
                if not joiner and not (
                    close and stack or not (stack or number or name or close or opening or other)
                ):
                    raise _unexpected(text, _match(text, k), ")" if stack else "")
                if num is None:  # the term joins the sum, moved to the lcm of the denominators
                    if coeff:
                        if aden % den:
                            acc, aden = _rescaled(acc, aden, den)
                        mono = tuple(exps)
                        acc[mono] = acc.get(mono, 0) + coeff * (aden // den)
                else:
                    if aden % nden:
                        acc, aden = _rescaled(acc, aden, nden)
                    for mono, c in num.items():
                        acc[mono] = acc.get(mono, 0) + c * (aden // nden)
                num, den, exps, degree = None, 1, [0] * width, 0
                coeff = -1 if joiner == "-" else 1
                if not joiner:  # the expression is done
                    inner, iden = _lowest(
                        acc if all(acc.values()) else {m: c for m, c in acc.items() if c}, aden
                    )
                    if not stack:
                        return inner, iden
                    acc, aden, num, nden = stack.pop()
                    if caret:
                        e = _exponent(text, k, exponent, inner.get((0,) * width, 0), iden)
                        inner, iden = _raw_power(inner, iden, e, bound)
                    num, nden = _raw_product(num, nden, inner, iden, bound)
                    continue
            if name:
                entry = index.get(name)
                if entry is None:
                    raise ExpressionError(
                        f"unknown generator {name!r} at position {_match(text, k).start(5)}"
                    )
                i, gdeg = entry
                e = int(exponent) if caret else 1
                if not e:  # "^0", which _exponent refuses
                    _exponent(text, k, exponent)
                exps[i] += e
                degree += gdeg * e
                if degree > max_degree:
                    if truncate:
                        coeff = 0
                    elif gdeg * e > max_degree:  # raises at the first square that leaves the bound
                        _raw_power({(0,) * i + (1,) + (0,) * (width - i - 1): 1}, 1, e, bound)
                    elif coeff:  # a zero term stays zero unchecked
                        raise _over_bound(tuple(exps), bound)
            elif number:
                n, d = int(number), int(over) if slash else 1
                if not d:
                    raise ExpressionError(f"zero denominator at position {_match(text, k).start(4)}")
                if caret:
                    g = math.gcd(n, d)
                    n, d = n // g, d // g
                    e = _exponent(text, k, exponent, n, d)
                    n, d = n**e, d**e
                coeff, den = coeff * n, den * d
            elif opening:
                if len(stack) == _MAX_NESTING:
                    raise ExpressionError(
                        f"parentheses nested more than {_MAX_NESTING} deep "
                        f"at position {_match(text, k).start(9)}"
                    )
                if num is None:  # the term is a dict from here on
                    num, nden = ({tuple(exps): coeff} if coeff else {}), den
                stack.append((acc, aden, num, nden))
                acc, aden, num, coeff, den, exps, degree = {}, 1, None, 1, 1, [0] * width, 0
                start = True
                continue
            else:  # a factor must come here
                raise _unexpected(text, _match(text, k), groups=(6, 10))
            if num is not None:  # after a parenthesised factor each factor multiplies in
                num, nden = _raw_product(num, nden, {tuple(exps): coeff} if coeff else {}, den, bound)
                coeff, den, exps, degree = 1, 1, [0] * width, 0
            start = False
    except ValueError as exc:  # an ExpressionError, or int() refusing a number
        for m in _FACTOR.finditer(text):  # unless a token starts with a character no rule reads
            for c, at in ((m[5] or "_")[0], m.start(5)), (m[10] or "+", m.start(10)):
                if not (c.isalpha() or c in "_+-*/^()"):
                    raise ExpressionError(f"unexpected character {c!r} at position {at}") from None
        if isinstance(exc, ExpressionError):
            raise
        m = _match(text, k)  # int() refused the first of its numbers that it refuses
        for group in 2, 4, 8:
            if m[group] == "":  # no digits after a "/" or "^"
                raise _unexpected(text, _FACTOR.match(text, m.end(group)), "number") from None
            with suppress(ValueError):  # else more digits than int() reads
                int(m[group] or 0)
                continue
            raise ExpressionError(
                f"number of {len(m[group])} digits at position {m.start(group)} is too long"
            ) from None


def parse_expression(text: str, model: ManifoldModel) -> CohClass:
    """Parse a polynomial expression in the model's generators and reduce
    it to normal form.  Terms above the model dimension are dropped while
    parsing, as they vanish in the model."""
    num, den = parse_terms(text, model._name_index, model.dimension, truncate=True)
    return _reduced(model, num, den)
