"""The index distribution of a twisted symbol as exact moment data.

A symbol enters as a family of base-reduced classes u_chi indexed by
characters of the finite center; integrating a compactly supported symbol
class over the cotangent space is, by convention, the base integral of its
reduction (positive orientation).  The distribution the symbol induces on
the group is supported on the center and is described, at each central
element, by a moment table: the exact pairings of the local invariant
distribution against monomials in the declared invariant generators,
whose curvature images come from `groups.chern_weil_eval` once per model,
generator images and degree bound.  The fractional index at gamma is the
degree-zero entry of that table, the coefficient of the point mass.

Every bracket is a power zeta_N^k of one primitive root of unity, N the
exponent of the center, so every class stays rational and roots of unity
enter only where a moment or pairing is emitted.  Two independent routes
lead to the table at a central element gamma, and every full run computes
both and compares them exactly:

- direct, u * (a-hat^2 * image): the u_chi are summed into buckets U_k
  by bracket exponent k, over one denominator per gamma, each dotted with
  the integer moment rows r_key[m] = integral of (a-hat^2 * image_key) * m
  over the symbol's support monomials m, and each moment is converted
  once from its integer pairings {k: w_k} to sum_k w_k zeta^k;
- recombined, (a-hat^2 * u) * image: rational per-character tables at the
  identity, read as integer columns over one denominator per key, are
  summed by bracket exponent and each sum is weighted by its bracket, a
  genuine Cyclotomic, in field arithmetic (the int +-1 it is when N <= 2,
  where the direct route takes the sign from k's parity); each key is
  divided by its column denominator once.

The routes associate the product differently and so read different
entries of the model's product table: a disagreement catches a wrong
bracket, bucket or root-of-unity conversion, and a wrong structure
constant that only one route reads; what both share is left to the test
oracles.  A mismatch can only be an arithmetic bug, never bad input data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from fracindex.characteristic import BundleData, a_hat, a_hat_squared
from fracindex.cohomology import CohClass, ManifoldModel, Monomial, _lowest, class_sum, monomial_name
from fracindex.groups import (
    Element,
    FiniteAbelianGroup,
    InvariantGeneratorDecl,
    MomentKey,
    WeightSystem,
    bracket,
    bracket_exponent,
    character_jet,
    chern_weil_eval,
    graded_order,
)
from fracindex.scalars import Frozen, Scalar, common_denominator, demote, root_of_unity_sum


class EngineError(ValueError):
    """A symbol or task request is inconsistent with the declared data."""


class InternalConsistencyError(RuntimeError):
    """The two computation routes for a distribution disagreed; this is an
    arithmetic fault in the engine, not a data problem."""


class SymbolData(Frozen):
    """A symbol presented by its base-reduced classes, one per character of
    the finite center; only finitely many components."""

    __slots__ = ("group", "components", "label")

    def __init__(
        self,
        group: FiniteAbelianGroup,
        components: Mapping[Sequence[int], CohClass],
        label: str | None = None,
    ) -> None:
        clean: dict[Element, CohClass] = {}
        model = None
        for raw, cls in components.items():
            chi = group.reduce(tuple(raw))
            if model is None:
                model = cls.model
            elif cls.model is not model:
                raise EngineError("symbol components live on different models")
            if chi in clean:
                cls = clean[chi] + cls
            if not cls.is_zero():
                clean[chi] = cls
            else:
                clean.pop(chi, None)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "components", dict(sorted(clean.items())))
        object.__setattr__(self, "label", label)

    def __repr__(self):
        label = f" {self.label!r}" if self.label else ""
        return f"SymbolData({len(self.components)} components{label})"


class MomentTable(Frozen):
    """Exact pairings of the invariant distribution at one central element
    against monomials in the declared generators, keyed by exponent tuple
    and ordered by (total degree, lexicographic)."""

    __slots__ = ("gamma", "generator_names", "values")

    def __init__(
        self,
        gamma: Element,
        generator_names: Sequence[str],
        values: Mapping[MomentKey, Scalar],
    ) -> None:
        ordered = {key: values[key] for key in graded_order(values)}
        object.__setattr__(self, "gamma", tuple(gamma))
        object.__setattr__(self, "generator_names", tuple(generator_names))
        object.__setattr__(self, "values", ordered)

    def mass(self) -> Scalar:
        """The degree-zero moment: the coefficient of the point mass."""
        zero = (0,) * len(self.generator_names)
        return self.values.get(zero, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, MomentTable):
            return NotImplemented
        return (
            self.gamma == other.gamma
            and self.generator_names == other.generator_names
            and self.values == other.values
        )

    def __repr__(self):
        body = ", ".join(
            f"{monomial_name(self.generator_names, k)}: {v}" for k, v in self.values.items()
        )
        return f"MomentTable(gamma={self.gamma}, {{{body}}})"


class IndexDistribution(Frozen):
    """The index distribution: one moment table per element of the finite
    center, ordered lexicographically by exponent tuple."""

    __slots__ = ("group", "tables")

    def __init__(self, group: FiniteAbelianGroup, tables: Mapping[Element, MomentTable]) -> None:
        ordered = {gamma: tables[gamma] for gamma in sorted(tables)}
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "tables", ordered)

    def __eq__(self, other):
        if not isinstance(other, IndexDistribution):
            return NotImplemented
        return self.group == other.group and self.tables == other.tables

    def __repr__(self):
        return f"IndexDistribution(over {self.group!r}, {len(self.tables)} tables)"


class IndexProblem(Frozen):
    """Everything a distribution computation needs: the manifold model, the
    finite center, the declared invariant generators, the symbol, and the
    square of the tangent a-hat class.  Monomial images are computed once
    per model, moment rows once per problem and degree bound, and the
    integral of each basis monomial against an image once per problem.
    Both routes carry integers over one denominator and build a Fraction
    or Cyclotomic only where a moment is emitted or compared."""

    __slots__ = (
        "model",
        "group",
        "generators",
        "symbol",
        "a_hat_squared",
        "_image_cache",
        "_row_cache",
        "_dual_cache",
    )

    def __init__(
        self,
        model: ManifoldModel,
        group: FiniteAbelianGroup,
        generators: Sequence[InvariantGeneratorDecl],
        symbol: SymbolData,
        a_hat_squared: CohClass | None = None,
    ) -> None:
        if symbol.group != group:
            raise EngineError("symbol group does not match the problem group")
        for gen in generators:
            if gen.image.model is not model:
                raise EngineError(f"generator {gen.name!r} image lives on a different model")
        for cls in symbol.components.values():
            if cls.model is not model:
                raise EngineError("symbol classes live on a different model")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise EngineError("duplicate invariant generator names")
        if a_hat_squared is None:
            a_hat_squared = model.one()
        if a_hat_squared.model is not model:
            raise EngineError("a-hat class lives on a different model")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "a_hat_squared", a_hat_squared)
        object.__setattr__(self, "_image_cache", {})
        object.__setattr__(self, "_row_cache", {})
        object.__setattr__(self, "_dual_cache", {})

    @classmethod
    def with_tangent(
        cls,
        model: ManifoldModel,
        group: FiniteAbelianGroup,
        generators: Sequence[InvariantGeneratorDecl],
        symbol: SymbolData,
        tangent: BundleData | None,
    ) -> "IndexProblem":
        """Build the problem with the a-hat square computed from tangent
        bundle data; absent data means a flat tangent contribution."""
        square = None if tangent is None else a_hat_squared(tangent)
        return cls(model, group, generators, symbol, square)

    # -- the core pairings ----------------------------------------------------

    def reduced_integrand(self, gamma: Sequence[int]) -> dict[int, CohClass]:
        """The symbol buckets at a central element: bracket exponent k ->
        the sum U_k, in one integer accumulation, of the symbol components
        whose bracket with gamma is zeta_N^k.  The integrand is a-hat^2 *
        sum_k zeta_N^k U_k; the direct route pairs U_k with moment rows that
        carry the a-hat square, u * (a-hat^2 * image), where the recombined
        route pairs (a-hat^2 * u) * image.  gamma need not be reduced."""
        members: dict[int, list[CohClass]] = {}
        for chi, u_chi in self.symbol.components.items():
            members.setdefault(bracket_exponent(self.group, chi, gamma), []).append(u_chi)
        return {k: class_sum(classes) for k, classes in members.items()}

    def fractional_index(self, gamma: Sequence[int]) -> Scalar:
        """The degree-zero moment at gamma: the point-mass coefficient, and
        at the identity the analytical index of the underlying operator."""
        return self.moments(gamma, 0).mass()

    # -- moment tables ----------------------------------------------------------

    def _monomial_images(self, max_degree: int) -> dict[MomentKey, CohClass]:
        """The image class of every moment monomial, in graded order, from
        the model's table of images as integers by generator images and
        bound (a class kept on its own model would be a reference cycle)."""
        images = self._image_cache.get(max_degree)
        if images is None:
            table, gens = self.model._images, self.generators
            key = (max_degree, *[(g.image.denominator, *g.image.numerators.items()) for g in gens])
            if key in table:
                images = {k: _lowest(self.model, num, den) for k, num, den in table[key]}
            else:
                images = chern_weil_eval(gens, max_degree, self.model)
                table[key] = [(k, c.numerators, c.denominator) for k, c in images.items()]
            self._image_cache[max_degree] = images
        return images

    def _moment_rows(self, max_degree: int) -> dict[MomentKey, tuple[dict[Monomial, int], int]]:
        """One integer row per moment key, in graded order: the integral of
        (a-hat^2 * image_key) * m for every monomial m of the symbol's
        support, as {m: numerator} without zeros over one denominator.  Each
        row combines the integer columns of a-hat^2 * i paired with the
        support, one per distinct image monomial i."""
        rows = self._row_cache.get(max_degree)
        if rows is not None:
            return rows
        model = self.model
        support = sorted({m for u in self.symbol.components.values() for m in u.numerators})
        points = {m: CohClass(model, {m: 1}) for m in support}
        integrals: dict[Monomial, dict[Monomial, Fraction]] = {}
        columns: dict[Monomial, tuple[list[int], int]] = {}
        rows = {}
        for key, image in self._monomial_images(max_degree).items():
            for i in image.numerators:
                if i not in columns:
                    weighted = self.a_hat_squared * CohClass(model, {i: 1})
                    paired = self._pairings(weighted, points, integrals)
                    columns[i] = common_denominator(list(paired.values()))
            den = math.lcm(*[columns[i][1] for i in image.numerators])
            values = [0] * len(support)
            for i, n in image.numerators.items():
                column, d = columns[i]
                scale = n * (den // d)
                values = [v + scale * w for v, w in zip(values, column)]
            row = {m: r for m, r in zip(support, values) if r}
            rows[key] = (row, den * image.denominator)
        self._row_cache[max_degree] = rows
        return rows

    def _pairings(self, integrand: CohClass, targets: Mapping, duals: dict) -> dict:
        """The integral of integrand * target for every homogeneous target
        class, by the target's label.

        Relations are degree-homogeneous, so only integrand terms of the
        degree complementary to the target reach the fundamental class; each
        such term contributes its integer numerator times the integral of
        the target times its monomial, kept in duals[label][monomial], and
        each pairing is reduced to lowest terms once."""
        model = self.model
        by_degree: dict[int, list[tuple[Monomial, int]]] = {}
        for mono, n in integrand.numerators.items():
            by_degree.setdefault(model.monomial_degree(mono), []).append((mono, n))
        den = integrand.denominator
        values = {}
        for label, target in targets.items():
            # no integrand term has the degree dimension + 1 a zero target gets
            degree = model.dimension - max(map(model.monomial_degree, target.numerators), default=-1)
            cache = duals.setdefault(label, {})
            num, dual_den = 0, 1
            for mono, n in by_degree.get(degree, ()):
                dual = cache.get(mono)
                if dual is None:
                    dual = cache[mono] = (target * CohClass(model, {mono: 1})).integrate()
                q = dual.denominator
                num, dual_den = num * q + n * dual.numerator * dual_den, dual_den * q
            values[label] = Fraction(num, den * dual_den)
        return values

    def moments(self, gamma: Sequence[int], max_degree: int | None = None) -> MomentTable:
        """The moment table at gamma: pairings against all generator
        monomials of total degree up to the bound (default: half the model
        dimension; higher monomials pair to zero by truncation), from
        integer dot products of each bucket U_k, over the lcm of their
        denominators, with the moment rows, and one conversion to the
        cyclotomic field per moment."""
        if max_degree is None:
            max_degree = self.model.dimension // 2
        if max_degree < 0:
            raise EngineError("moment degree bound must be nonnegative")
        gamma = self.group.reduce(tuple(gamma))
        buckets = self.reduced_integrand(gamma).items()
        buckets = [(k, u.numerators, u.denominator) for k, u in buckets]
        lcm = math.lcm(*[d for _, _, d in buckets])
        order = self.group.exponent
        values = {}
        for key, (row, den) in self._moment_rows(max_degree).items():
            weights = {
                k: lcm // d * sum([r * num[m] for m, r in row.items() if m in num])
                for k, num, d in buckets
            }
            values[key] = root_of_unity_sum(order, weights, den * lcm)
        return MomentTable(gamma, [g.name for g in self.generators], values)

    def _per_character_tables(self, max_degree: int) -> dict[Element, MomentTable]:
        """Identity-route tables, one per symbol component; all rational."""
        names = [g.name for g in self.generators]
        identity = self.group.identity()
        images = self._monomial_images(max_degree)
        tables: dict[Element, MomentTable] = {}
        for chi, u_chi in self.symbol.components.items():
            values = self._pairings(self.a_hat_squared * u_chi, images, self._dual_cache)
            tables[chi] = MomentTable(identity, names, values)
        return tables

    def full_distribution(self, max_degree: int | None = None) -> IndexDistribution:
        """Moment tables at every central element.

        Each table comes from the direct route (integer buckets dotted with
        the moment rows) and is recomputed from the per-character tables at
        the identity, read once per run as integer columns: per bracket
        exponent, the bracket (a Cyclotomic, or the int +-1 when N <= 2)
        times the sum of column entries, each key divided by its column
        denominator once.  Disagreement raises InternalConsistencyError.
        """
        if max_degree is None:
            max_degree = self.model.dimension // 2
        per_character = self._per_character_tables(max_degree)
        characters = list(per_character)
        columns = {
            key: common_denominator([t.values[key] for t in per_character.values()])
            for key in self._monomial_images(max_degree)
        }
        order = self.group.exponent
        tables: dict[Element, MomentTable] = {}
        for gamma in self.group.elements():
            direct = self.moments(gamma, max_degree)
            groups: dict[int, list[int]] = {}
            for j, chi in enumerate(characters):
                groups.setdefault(bracket_exponent(self.group, chi, gamma), []).append(j)
            recombined: dict[MomentKey, Scalar | int] = {}
            for k, members in groups.items():
                chi = characters[members[0]]  # zeta = +-1 when N <= 2: the int (-1)^k
                weight = (-1) ** k if order <= 2 else bracket(self.group, chi, gamma)
                for key, (numerators, _) in columns.items():
                    term = weight * sum([numerators[j] for j in members])
                    recombined[key] = recombined[key] + term if key in recombined else term
            for key, expected in direct.values.items():
                total, den = recombined.get(key, 0), columns[key][1]
                value = Fraction(total, den) if order <= 2 else demote(total * Fraction(1, den))
                if value != expected:
                    raise InternalConsistencyError(
                        "distribution routes disagree at gamma="
                        f"{gamma}, monomial {monomial_name(direct.generator_names, key)}: "
                        f"direct {expected!r} vs recombined {value!r}"
                    )
            tables[gamma] = direct
        return IndexDistribution(self.group, tables)

    def mms_projective(self, max_degree: int | None = None) -> IndexDistribution:
        """The distribution of a symbol concentrated on a single character,
        as for projective elliptic operators: one identity table scaled by
        the bracket value at each central element."""
        if len(self.symbol.components) != 1:
            raise EngineError(
                "projective form requires a symbol concentrated on a single character; "
                f"got {len(self.symbol.components)} components"
            )
        (chi_o,) = self.symbol.components
        base = self.moments(self.group.identity(), max_degree)
        order = self.group.exponent
        tables = {}
        for gamma in self.group.elements():
            k = bracket_exponent(self.group, chi_o, gamma)
            values = {key: root_of_unity_sum(order, {k: v.numerator}, v.denominator)
                      for key, v in base.values.items()}
            tables[gamma] = MomentTable(gamma, base.generator_names, values)
        return IndexDistribution(self.group, tables)

    def atiyah_pairing(self, system: WeightSystem, label) -> Fraction:
        """With a trivial center, the pairing of the index distribution
        against an irreducible character: the index of the symbol twisted
        by the associated bundle, an exact rational."""
        if not self.group.is_trivial():
            raise EngineError("character pairing requires a trivial center")
        u = self.symbol.components.get(self.group.identity(), self.model.zero())
        return (self.a_hat_squared * u * character_jet(system, label)).integrate()


def dirac_problem(
    model: ManifoldModel,
    tangent: BundleData,
    generators: Sequence[InvariantGeneratorDecl] = (),
) -> IndexProblem:
    """The problem for the lifted Dirac symbol of an oriented even-
    dimensional manifold: center of order two, symbol concentrated on the
    nontrivial character with base reduction the inverse a-hat class, so
    the net integrand at the identity is the a-hat class itself."""
    group = FiniteAbelianGroup([2])
    symbol = SymbolData(group, {(1,): a_hat(tangent).inverse()}, label="dirac")
    return IndexProblem(model, group, generators, symbol, a_hat_squared(tangent))

