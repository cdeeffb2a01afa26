"""The index distribution of a twisted symbol as exact moment data.

A symbol enters as a family of base-reduced classes u_chi indexed by
characters of the finite center; integrating a compactly supported symbol
class over the cotangent space is, by convention, the base integral of its
reduction (positive orientation).  The distribution the symbol induces on
the group is supported on the center and is described, at each central
element, by a moment table: the exact pairings of the local invariant
distribution against monomials in the declared invariant generators.

Every bracket is a power zeta_N^k of one primitive root of unity, N the
exponent of the center, so every class stays rational and roots of unity
enter only where a moment or pairing is emitted.  Two independent routes
lead to the table at a central element gamma, and every full run computes
both and compares them exactly:

- direct: the u_chi are summed into rational buckets U_k by bracket
  exponent k, and each a-hat^2 * U_k is paired rationally with every
  monomial image; each moment is then converted once from its bucket
  pairings {k: w_k} to sum_k w_k zeta^k;
- recombined: rational per-character tables at the identity are grouped by
  bracket exponent and each group is weighted by its bracket, a genuine
  Cyclotomic, in field arithmetic.

A mismatch can only be an arithmetic bug, never bad input data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from fracindex.characteristic import BundleData, a_hat, a_hat_squared
from fracindex.cohomology import CohClass, ManifoldModel, Monomial, monomial_name
from fracindex.groups import (
    Element,
    FiniteAbelianGroup,
    InvariantGeneratorDecl,
    TestJet,
    WeightSystem,
    bracket,
    bracket_exponent,
    character_jet,
    chern_weil_eval,
)
from fracindex.scalars import Scalar, common_denominator, demote, root_of_unity_sum

#: Moment-table keys: exponent tuples over the declared generator order.
MomentKey = tuple[int, ...]


def _moment_key_order(key: MomentKey):
    """Graded order: total degree first, then declaration precedence (an
    earlier generator's power sorts before a later one's)."""
    return (sum(key), tuple(-e for e in key))


class EngineError(ValueError):
    """A symbol or task request is inconsistent with the declared data."""


class InternalConsistencyError(RuntimeError):
    """The two computation routes for a distribution disagreed; this is an
    arithmetic fault in the engine, not a data problem."""


class SymbolData:
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

    def __setattr__(self, name, value):
        raise AttributeError("SymbolData is immutable")

    def component(self, chi: Sequence[int]) -> CohClass | None:
        return self.components.get(self.group.reduce(tuple(chi)))

    def __add__(self, other: "SymbolData") -> "SymbolData":
        if not isinstance(other, SymbolData):
            return NotImplemented
        if other.group != self.group:
            raise EngineError("cannot add symbols over different groups")
        merged: dict[Element, CohClass] = dict(self.components)
        for chi, cls in other.components.items():
            merged[chi] = merged[chi] + cls if chi in merged else cls
        return SymbolData(self.group, merged, label=self.label)

    def __repr__(self):
        label = f" {self.label!r}" if self.label else ""
        return f"SymbolData({len(self.components)} components{label})"


class MomentTable:
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
        ordered = {key: values[key] for key in sorted(values, key=_moment_key_order)}
        object.__setattr__(self, "gamma", tuple(gamma))
        object.__setattr__(self, "generator_names", tuple(generator_names))
        object.__setattr__(self, "values", ordered)

    def __setattr__(self, name, value):
        raise AttributeError("MomentTable is immutable")

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


class IndexDistribution:
    """The index distribution: one moment table per element of the finite
    center, ordered lexicographically by exponent tuple."""

    __slots__ = ("group", "tables")

    def __init__(self, group: FiniteAbelianGroup, tables: Mapping[Element, MomentTable]) -> None:
        ordered = {gamma: tables[gamma] for gamma in sorted(tables)}
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "tables", ordered)

    def __setattr__(self, name, value):
        raise AttributeError("IndexDistribution is immutable")

    def table(self, gamma: Sequence[int]) -> MomentTable:
        return self.tables[self.group.reduce(tuple(gamma))]

    def mass(self, gamma: Sequence[int]) -> Scalar:
        return self.table(gamma).mass()

    def total_mass(self) -> Scalar:
        masses = [table.mass() for table in self.tables.values()]
        if not masses:
            return Fraction(0)
        return demote(sum(masses[1:], masses[0]))

    def __eq__(self, other):
        if not isinstance(other, IndexDistribution):
            return NotImplemented
        return self.group == other.group and self.tables == other.tables

    def __repr__(self):
        return f"IndexDistribution(over {self.group!r}, {len(self.tables)} tables)"


class IndexProblem:
    """Everything a distribution computation needs: the manifold model, the
    finite center, the declared invariant generators, the symbol, and the
    square of the tangent a-hat class.  Monomial images are computed once
    per problem and degree bound, and the integral of each basis monomial
    against an image once per problem."""

    __slots__ = (
        "model",
        "group",
        "generators",
        "symbol",
        "a_hat_squared",
        "_image_cache",
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
        object.__setattr__(self, "_dual_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("IndexProblem is immutable")

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
        """The base-manifold integrand at a central element as rational
        buckets: bracket exponent k -> the a-hat square times the sum U_k of
        the symbol components whose bracket with gamma is zeta_N^k.  The
        integrand itself is sum_k zeta_N^k times bucket k."""
        gamma = self.group.reduce(tuple(gamma))
        sums: dict[int, CohClass] = {}
        for chi, u_chi in self.symbol.components.items():
            k = bracket_exponent(self.group, chi, gamma)
            sums[k] = sums[k] + u_chi if k in sums else u_chi
        return {k: self.a_hat_squared * u_k for k, u_k in sums.items()}

    def pair_with_jet(self, gamma: Sequence[int], jet: TestJet) -> Scalar:
        """Pair the distribution at gamma against an invariant test jet."""
        image = chern_weil_eval(jet, self.generators, self.model)
        weights = {
            k: (bucket * image).integrate() for k, bucket in self.reduced_integrand(gamma).items()
        }
        return root_of_unity_sum(self.group.exponent, weights)

    def fractional_index(self, gamma: Sequence[int]) -> Scalar:
        """Pair against a unit bump at gamma: the point-mass coefficient,
        and at the identity the analytical index of the underlying
        operator."""
        return self.pair_with_jet(gamma, TestJet.unit_bump())

    # -- moment tables ----------------------------------------------------------

    def default_degree(self) -> int:
        return self.model.dimension // 2

    def _moment_keys(self, max_degree: int) -> list[MomentKey]:
        # no recursive closure: it would keep the problem alive in a cycle
        keys: list[MomentKey] = [()]
        for _ in self.generators:
            keys = [key + (e,) for key in keys for e in range(max_degree - sum(key) + 1)]
        return sorted(keys, key=_moment_key_order)

    def _monomial_images(self, max_degree: int) -> dict[MomentKey, CohClass]:
        """The image class of every moment monomial, cached per degree bound.
        Keys come in graded order, so each image is one product away from
        the image of a lower key."""
        cached = self._image_cache.get(max_degree)
        if cached is not None:
            return cached
        images: dict[MomentKey, CohClass] = {}
        for key in self._moment_keys(max_degree):
            i = next((i for i, e in enumerate(key) if e), None)
            if i is None:
                images[key] = self.model.one()
            else:
                lower = key[:i] + (key[i] - 1,) + key[i + 1 :]
                images[key] = images[lower] * self.generators[i].image
        self._image_cache[max_degree] = images
        return images

    def _pairings(self, integrand: CohClass, max_degree: int) -> dict[MomentKey, Fraction]:
        """The integral of integrand * image for every monomial image.

        Relations are degree-homogeneous, so only integrand terms of the
        degree complementary to the image reach the fundamental class; each
        such term contributes its integer numerator times the integral of
        its monomial against the image, computed once per problem, and each
        pairing is reduced to lowest terms once."""
        model = self.model
        by_degree: dict[int, list[tuple[Monomial, int]]] = {}
        for mono, n in integrand.numerators.items():
            by_degree.setdefault(model.monomial_degree(mono), []).append((mono, n))
        den = integrand.denominator
        values: dict[MomentKey, Fraction] = {}
        for key, image in self._monomial_images(max_degree).items():
            degree = model.dimension - 2 * sum(
                g.s_degree * e for g, e in zip(self.generators, key)
            )
            duals = self._dual_cache.setdefault(key, {})
            num, dual_den = 0, 1
            for mono, n in by_degree.get(degree, ()):
                dual = duals.get(mono)
                if dual is None:
                    dual = duals[mono] = (image * CohClass(model, {mono: 1})).integrate()
                q = dual.denominator
                num, dual_den = num * q + n * dual.numerator * dual_den, dual_den * q
            values[key] = Fraction(num, den * dual_den)
        return values

    def moments(self, gamma: Sequence[int], max_degree: int | None = None) -> MomentTable:
        """The moment table at gamma: pairings against all generator
        monomials of total degree up to the bound (default: half the model
        dimension; higher monomials pair to zero by truncation).  Each
        bucket is paired rationally, and each moment is converted to the
        cyclotomic field once."""
        if max_degree is None:
            max_degree = self.default_degree()
        if max_degree < 0:
            raise EngineError("moment degree bound must be nonnegative")
        gamma = self.group.reduce(tuple(gamma))
        pairings = {
            k: self._pairings(bucket, max_degree)
            for k, bucket in self.reduced_integrand(gamma).items()
        }
        order = self.group.exponent
        values = {
            key: root_of_unity_sum(order, {k: p[key] for k, p in pairings.items()})
            for key in self._monomial_images(max_degree)
        }
        return MomentTable(gamma, [g.name for g in self.generators], values)

    def _per_character_tables(self, max_degree: int) -> dict[Element, MomentTable]:
        """Identity-route tables, one per symbol component; all rational."""
        names = [g.name for g in self.generators]
        identity = self.group.identity()
        tables: dict[Element, MomentTable] = {}
        for chi, u_chi in self.symbol.components.items():
            values = self._pairings(self.a_hat_squared * u_chi, max_degree)
            tables[chi] = MomentTable(identity, names, values)
        return tables

    def full_distribution(self, max_degree: int | None = None) -> IndexDistribution:
        """Moment tables at every central element.

        Each table comes from the direct route: rational buckets of the
        symbol components by bracket exponent, paired rationally, with one
        conversion to the cyclotomic field per moment.  It is then recomputed
        from the rational per-character tables at the identity, summed by
        bracket exponent and weighted by genuine bracket values in
        cyclotomic field arithmetic, and the two must agree exactly;
        disagreement raises InternalConsistencyError.
        """
        if max_degree is None:
            max_degree = self.default_degree()
        per_character = self._per_character_tables(max_degree)
        tables: dict[Element, MomentTable] = {}
        for gamma in self.group.elements():
            direct = self.moments(gamma, max_degree)
            groups: dict[int, tuple[Element, list[MomentTable]]] = {}
            for chi, table in per_character.items():
                k = bracket_exponent(self.group, chi, gamma)
                groups.setdefault(k, (chi, []))[1].append(table)
            recombined: dict[MomentKey, Scalar] = {}
            for chi, members in groups.values():
                weight = bracket(self.group, chi, gamma)
                for key in direct.values:
                    numerators, den = common_denominator([t.values[key] for t in members])
                    term = weight * Fraction(sum(numerators), den)
                    recombined[key] = recombined[key] + term if key in recombined else term
            for key, expected in direct.values.items():
                value = demote(recombined.get(key, Fraction(0)))
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
            values = {key: root_of_unity_sum(order, {k: v}) for key, v in base.values.items()}
            tables[gamma] = MomentTable(gamma, base.generator_names, values)
        return IndexDistribution(self.group, tables)

    def atiyah_pairing(self, system: WeightSystem, label) -> Fraction:
        """With a trivial center, the pairing of the index distribution
        against an irreducible character: the index of the symbol twisted
        by the associated bundle, an exact rational."""
        if not self.group.is_trivial():
            raise EngineError("character pairing requires a trivial center")
        u = self.symbol.component(self.group.identity())
        if u is None:
            u = self.model.zero()
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


def projective_dirac(
    model: ManifoldModel,
    tangent: BundleData,
    generators: Sequence[InvariantGeneratorDecl] = (),
    max_degree: int | None = None,
) -> IndexDistribution:
    """The index distribution of the lifted Dirac symbol: equal and
    opposite moment tables at the two central elements."""
    return dirac_problem(model, tangent, generators).full_distribution(max_degree)
