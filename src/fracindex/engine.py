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
exponent of the center, so every class stays rational.  Roots of unity
enter only through `scalars.power_residues`, for every N, N <= 2 included,
and only where a moment is emitted or compared.  `full_distribution` is
the one distribution method, a projective symbol on one character included.
Two independent routes lead to the table at a central element gamma, and
every full distribution computes both and compares them exactly:

- direct, u * (a-hat^2 * image): the u_chi are summed into buckets U_k
  by bracket exponent k, over one denominator per gamma, each dotted with
  the integer moment rows r_key[m] = integral of (a-hat^2 * image_key) * m
  over the symbol's support monomials m, and each moment is converted
  once from its integer pairings {k: w_k} to sum_k w_k zeta^k;
- recombined, (a-hat^2 * u) * image: the pairings of a-hat^2 * u_chi at
  the identity are kept as one integer column per key over one
  denominator, entry chi; per gamma, each key gathers one integer vector
  of length deg Phi_N, to which every bracket exponent k adds its column
  sum times the integer numerators of the bracket zeta_N^k.  The vector is
  compared with the direct moment times the column denominator: in
  integers when the direct moment is rational, as a Cyclotomic difference
  tested for zero otherwise.

Rows and columns hold nonzero-image keys only: a zero-image key reads no
product-table entry on either route, so it is the exact 0 in both.

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
from fracindex.cohomology import CohClass, ManifoldModel, Monomial, class_sum, monomial_name
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
)
from fracindex.scalars import (
    Cyclotomic,
    Frozen,
    Scalar,
    cyclotomic_polynomial,
    demote,
    root_of_unity_sum,
)


class InternalConsistencyError(RuntimeError):
    """The two computation routes for a distribution disagreed; this is an
    arithmetic fault in the engine, not a data problem."""


class SymbolData(Frozen):
    """A symbol presented by its base-reduced classes, one per character of
    the finite center, in character order; a zero class is dropped.  Each
    character is reduced and named once, and every class lives on one
    model: `scenarios._build_symbol` checks `group.contains`, refuses a
    repeated character, and parses each class on the scenario's model."""

    __slots__ = ("group", "components")

    def __init__(self, group: FiniteAbelianGroup, components: Mapping[Element, CohClass]) -> None:
        nonzero = {chi: cls for chi, cls in sorted(components.items()) if not cls.is_zero()}
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "components", nonzero)

    def __repr__(self):
        return f"SymbolData({len(self.components)} components)"


class MomentTable(Frozen):
    """Exact pairings of the invariant distribution at one central element
    against monomials in the declared generators, keyed by exponent tuple.
    The values are kept as given, and come in graded order: the engine
    builds them by `chern_weil_eval`'s image order."""

    __slots__ = ("gamma", "generator_names", "values")

    def __init__(
        self,
        gamma: Element,
        generator_names: Sequence[str],
        values: Mapping[MomentKey, Scalar],
    ) -> None:
        object.__setattr__(self, "gamma", tuple(gamma))
        object.__setattr__(self, "generator_names", tuple(generator_names))
        object.__setattr__(self, "values", values)

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
    center.  The tables are kept as given, and come in lexicographic
    exponent order: the engine builds them by `group.elements()`."""

    __slots__ = ("group", "tables")

    def __init__(self, group: FiniteAbelianGroup, tables: Mapping[Element, MomentTable]) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "tables", tables)

    def __eq__(self, other):
        if not isinstance(other, IndexDistribution):
            return NotImplemented
        return self.group == other.group and self.tables == other.tables

    def __repr__(self):
        return f"IndexDistribution(over {self.group!r}, {len(self.tables)} tables)"


class IndexProblem(Frozen):
    """Everything a distribution computation needs: the manifold model, the
    finite center, the declared invariant generators, the symbol, and the
    square of the tangent a-hat class.  Monomial images are kept once per
    model as integers, moment rows once per problem and degree bound, and
    the integral of each product of two basis monomials once per problem
    (a table per model would outlive a change to the model's product
    table); rows and columns skip zero-image keys, the exact 0 on both
    routes.  Both routes carry integers over one denominator and
    build a Fraction or Cyclotomic only where a moment is emitted or
    compared.  The symbol is over `group`, every class lives on `model`,
    and generator names are distinct: `scenarios.parse_scenario` reads a
    run on one model and group and refuses a name declared twice."""

    __slots__ = (
        "model",
        "group",
        "generators",
        "symbol",
        "a_hat_squared",
        "_row_cache",
        "_duals",
    )

    def __init__(
        self,
        model: ManifoldModel,
        group: FiniteAbelianGroup,
        generators: Sequence[InvariantGeneratorDecl],
        symbol: SymbolData,
        a_hat_squared: CohClass | None = None,
    ) -> None:
        if a_hat_squared is None:
            a_hat_squared = model.one()
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "a_hat_squared", a_hat_squared)
        object.__setattr__(self, "_row_cache", {})
        object.__setattr__(self, "_duals", {})

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

    def _monomial_images(self, max_degree: int) -> list[tuple[MomentKey, dict[Monomial, int], int]]:
        """The image of every moment monomial, in graded order, as (key,
        numerators, denominator), from the model's table by generator
        images and bound (a class kept on its own model would be a
        reference cycle).  Image terms enter the key sorted, so equal
        images built in another term order share one entry."""
        table, gens = self.model._images, self.generators
        key = (max_degree, *[(g.image.denominator, *sorted(g.image.numerators.items())) for g in gens])
        if key not in table:
            images = chern_weil_eval(gens, max_degree, self.model).items()
            table[key] = [(k, c.numerators, c.denominator) for k, c in images]
        return table[key]

    def _moment_rows(self, max_degree: int) -> dict[MomentKey, tuple[dict[Monomial, int], int]]:
        """One integer row per nonzero-image key, in graded order: the
        integral of (a-hat^2 * image_key) * m for every monomial m of the
        symbol's support, as {m: numerator} without zeros over one
        denominator; a zero-image key has no row.  Each row combines the
        integer columns of a-hat^2 * i paired with the support, one per
        distinct image monomial i."""
        rows = self._row_cache.get(max_degree)
        if rows is not None:
            return rows
        model = self.model
        support = sorted({m for u in self.symbol.components.values() for m in u.numerators})
        points = [{m: 1} for m in support]
        columns: dict[Monomial, tuple[list[int], int]] = {}
        rows = {}
        for key, image, image_den in self._monomial_images(max_degree):
            if not image:
                continue
            for i in image:
                if i not in columns:
                    weighted = self.a_hat_squared * CohClass(model, {i: 1})
                    columns[i] = self._pairings(weighted, points)
            den = math.lcm(*[columns[i][1] for i in image])
            values = [0] * len(support)
            for i, n in image.items():
                column, d = columns[i]
                scale = n * (den // d)
                values = [v + scale * w for v, w in zip(values, column)]
            row = {m: r for m, r in zip(support, values) if r}
            rows[key] = (row, den * image_den)
        self._row_cache[max_degree] = rows
        return rows

    def _pairings(
        self, integrand: CohClass, targets: Sequence[Mapping[Monomial, int]]
    ) -> tuple[list[int], int]:
        """The integral of integrand * target for every target, given by its
        integer numerators {monomial: n} (its denominator is the caller's),
        as one integer column over one denominator (`_column`).

        Relations are degree-homogeneous, so a target monomial m pairs only
        with the integrand terms of the complementary degree; each such term
        n contributes its numerator times the integral of m * n, read from
        the problem's table `_duals`, and the terms are summed over the lcm
        of those integrals' denominators."""
        model, duals = self.model, self._duals
        by_degree: dict[int, list[tuple[Monomial, int]]] = {}
        for mono, n in integrand.numerators.items():
            degree = model.dimension - model.monomial_degree(mono)
            by_degree.setdefault(degree, []).append((mono, n))
        pairs = []
        for target in targets:
            num, den = 0, 1
            for m, t in target.items():
                for mono, n in by_degree.get(model.monomial_degree(m), ()):
                    dual = duals.get((m, mono))
                    if dual is None:
                        product = CohClass(model, {m: 1}) * CohClass(model, {mono: 1})
                        dual = duals[m, mono] = product.integrate()
                    q = dual.denominator
                    if den % q:
                        grow = q // math.gcd(den, q)
                        num, den = num * grow, den * grow
                    num += t * n * dual.numerator * (den // q)
            pairs.append((num, den * integrand.denominator))
        return _column(pairs)

    def moments(self, gamma: Sequence[int], max_degree: int | None = None) -> MomentTable:
        """The moment table at gamma: pairings against all generator
        monomials of total degree up to the bound (default: half the model
        dimension; higher monomials pair to zero by truncation), from
        integer dot products of each bucket U_k, over the lcm of their
        denominators, with the moment rows, and one conversion to the
        cyclotomic field per row; a zero-image key is the exact 0.  gamma is
        a group element as the table records it: `scenarios._check_gamma`
        holds a task's gamma to the group's exponent ranges, and
        `scenarios._check_max_degree` keeps every bound a task or run names
        nonnegative."""
        if max_degree is None:
            max_degree = self.model.dimension // 2
        buckets = self.reduced_integrand(gamma).items()
        buckets = [(k, u.numerators, u.denominator) for k, u in buckets]
        lcm = math.lcm(*[d for _, _, d in buckets])
        order = self.group.exponent
        keys = [key for key, _, _ in self._monomial_images(max_degree)]
        values = dict.fromkeys(keys, Fraction(0))
        for key, (row, den) in self._moment_rows(max_degree).items():
            weights = {
                k: lcm // d * sum([r * num[m] for m, r in row.items() if m in num])
                for k, num, d in buckets
            }
            values[key] = root_of_unity_sum(order, weights, den * lcm)
        return MomentTable(gamma, [g.name for g in self.generators], values)

    def _character_columns(self, max_degree: int) -> dict[MomentKey, tuple[list[int], int]]:
        """The identity-route pairings of a-hat^2 * u_chi against every
        nonzero moment image: one integer column per such key, in graded
        order, with entry j for the j-th symbol component, over one
        denominator in lowest terms.  All rational."""
        images = [entry for entry in self._monomial_images(max_degree) if entry[1]]
        targets = [image for _, image, _ in images]
        pairings = [
            self._pairings(self.a_hat_squared * u_chi, targets)
            for u_chi in self.symbol.components.values()
        ]
        return {
            key: _column([(column[j], d * image_den) for column, d in pairings])
            for j, (key, _, image_den) in enumerate(images)
        }

    def full_distribution(self, max_degree: int | None = None) -> IndexDistribution:
        """Moment tables at every central element.

        Each table comes from the direct route (integer buckets dotted with
        the moment rows) and is recomputed from the per-character columns at
        the identity, read once per run: per moment key, one integer vector
        of length deg Phi_N gathers, for each bracket exponent k, the column
        sum s_k times the numerators of the bracket zeta_N^k (a root of
        unity read from `power_residues`, denominator 1), for every N.  A
        zero-image key has no column and is the exact 0 on both routes; one
        vector per (gamma, column key) is compared with the direct moment
        times the column denominator: in integers when the direct moment is
        a Fraction, as a Cyclotomic difference tested for zero otherwise.
        Disagreement raises InternalConsistencyError.
        """
        if max_degree is None:
            max_degree = self.model.dimension // 2
        columns = self._character_columns(max_degree)
        characters = list(self.symbol.components)
        order = self.group.exponent
        width = len(cyclotomic_polynomial(order)) - 1
        tables: dict[Element, MomentTable] = {}
        for gamma in self.group.elements():
            direct = self.moments(gamma, max_degree)
            groups: dict[int, list[int]] = {}
            for j, chi in enumerate(characters):
                groups.setdefault(bracket_exponent(self.group, chi, gamma), []).append(j)
            recombined = {key: [0] * width for key in columns}
            for members in groups.values():
                # a root of unity: integer numerators over the denominator 1
                root = bracket(self.group, characters[members[0]], gamma).numerators
                for key, (numerators, _) in columns.items():
                    total = sum([numerators[j] for j in members])
                    if total:
                        vector = recombined[key]
                        for i, r in enumerate(root):
                            vector[i] += total * r
            for key, (_, den) in columns.items():
                expected, vector = direct.values[key], recombined[key]
                if isinstance(expected, Fraction):
                    p, q = expected.numerator, expected.denominator
                    agree = not any(vector[1:]) and vector[0] * q == p * den
                else:
                    agree = (Cyclotomic(order, vector) - expected * den).is_zero()
                if not agree:
                    raise InternalConsistencyError(
                        "distribution routes disagree at gamma="
                        f"{gamma}, monomial {monomial_name(direct.generator_names, key)}: "
                        f"direct {expected!r} vs recombined "
                        f"{demote(Cyclotomic(order, vector, den))!r}"
                    )
            tables[gamma] = direct
        return IndexDistribution(self.group, tables)

    def atiyah_pairing(self, system: WeightSystem, label) -> Fraction:
        """With a trivial center, the pairing of the index distribution
        against an irreducible character: the index of the symbol twisted
        by the associated bundle, an exact rational.  The center is trivial:
        `scenarios._check_label` refuses the task on any other group."""
        u = self.symbol.components.get(self.group.identity(), self.model.zero())
        return (self.a_hat_squared * u * character_jet(system, label)).integrate()


def _column(pairings: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Integer pairs (numerator, denominator) over their least common
    denominator, in lowest terms: the numerators the reduced Fractions
    would give, without reducing each one."""
    den = math.lcm(*[d for _, d in pairings])
    column = [n * (den // d) for n, d in pairings]
    g = math.gcd(den, *column)
    if g == 1:
        return column, den
    return [n // g for n in column], den // g


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
    symbol = SymbolData(group, {(1,): a_hat(tangent).inverse()})
    return IndexProblem(model, group, generators, symbol, a_hat_squared(tangent))

