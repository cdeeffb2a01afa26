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
as integer rows; a scalar is built only per emitted or compared moment.
The exponents k(chi, gamma) are one integer row per element, over the
symbol's components in their own order, computed once per problem by
`groups.bracket_exponents` for both routes below; as k(chi, a*gamma) =
a*k(chi, gamma) mod N, the table at a*gamma is sigma_a (zeta -> zeta^a)
of the table at gamma for each unit a mod N.
`full_distribution` is the one distribution method, a projective symbol on
one character included.  Two independent routes lead to the table at a
central element gamma, and every full distribution computes both and
compares them exactly:

- direct, u * (a-hat^2 * image), at the first element of each Galois orbit:
  the integer matrix M[i][chi], the integral of u_chi * (a-hat^2 * e_i)
  over one denominator for each distinct image monomial e_i and symbol
  component, is built once per problem and degree bound; per gamma each
  row i becomes the deg Phi_N numerators of sum_chi M[i][chi] *
  zeta^k(chi, gamma), and a key's image coefficients combine those rows
  into one scalar; every other table of the orbit is sigma_a of those
  values;
- recombined, (a-hat^2 * u) * image: each a-hat^2 * u_chi is paired at the
  identity with each distinct image monomial, one reduced integer column
  per image monomial, entry chi; a key's image coefficients scale those
  columns, and combine them over a common denominator only for an image of
  several terms, into one column per key in lowest terms, by one gcd; per
  gamma, the numerators of the brackets zeta_N^k(chi, gamma) form deg
  Phi_N integer rows over the characters, and each key's vector of length
  deg Phi_N holds the dot products of those rows with its column, read
  from one dot product per row: by Kronecker substitution, entry chi of
  every key column is packed once per call into one integer, key s as its
  signed base-2^w digit s from the top, w the bit length of the largest
  |entry| of `power_residues` times the largest sum of |entries| of a
  column, plus a sign bit, rounded up to whole bytes; each product is
  written out by one `to_bytes` and key s read from its w/8 bytes.  No dot
  product exceeds that bound in size, so every digit is read back exactly;
  the direct route does not pack, so a packing fault shows in the compare.
  The vector is compared with the direct moment times the column
  denominator: in integers when the direct moment is rational, otherwise
  as one Cyclotomic sum tested for zero, expected * -den + vector, three
  constructions.

A zero-image key is combined on neither route: it reads no product-table
entry, so it is the exact 0 in both.

The routes associate the product differently and so read different
entries of the model's product table: a disagreement catches a wrong
bracket, root-of-unity conversion or sigma_a, and a wrong structure
constant that only one route reads; what both share, the exponent table
included, is left to the test oracles.  A mismatch can only be an
arithmetic bug, never bad input data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from fracindex.characteristic import BundleData, a_hat, a_hat_squared
from fracindex.cohomology import CohClass, ManifoldModel, _class, _product, monomial_name
from fracindex.groups import (
    Element,
    FiniteAbelianGroup,
    InvariantGeneratorDecl,
    MomentKey,
    WeightSystem,
    bracket,
    bracket_exponents,
    character_jet,
    chern_weil_eval,
)
from fracindex.scalars import Cyclotomic, Frozen, Scalar, cyclotomic_polynomial, demote
from fracindex.scalars import galois_conjugate, power_residues, residue_scalar


class InternalConsistencyError(RuntimeError):
    """The two computation routes for a distribution disagreed; this is an
    arithmetic fault in the engine, not a data problem."""


class SymbolData(Frozen):
    """A symbol presented by its base-reduced classes: `components` maps a
    character of the finite center to its class, every class on one model.
    `scenarios._build_symbol` checks `group.contains`, refuses a repeated
    character, parses each class on the scenario's model, and drops a zero
    class, so "x - x" is not the one component `mms_projective` allows.
    The engine needs neither an order nor the dropped zeros: its sums over
    the components are exact."""

    __slots__ = ("components",)

    def __repr__(self):
        return f"SymbolData({len(self.components)} components)"


class MomentTable(Frozen):
    """Exact pairings of the invariant distribution at one central element
    against monomials in the declared generators, keyed by exponent tuple.
    The values are kept as given, and come in graded order: the engine
    builds them by `chern_weil_eval`'s image order.  `gamma` and
    `generator_names` are tuples: the writer keys a dict by
    `generator_names`."""

    __slots__ = ("gamma", "generator_names", "values")

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
    center, keyed by that element and kept as given; the engine builds
    them in lexicographic exponent order, by `group.elements()`."""

    __slots__ = ("tables",)

    def __eq__(self, other):
        if not isinstance(other, IndexDistribution):
            return NotImplemented
        return self.tables == other.tables

    def __repr__(self):
        return f"IndexDistribution({len(self.tables)} tables)"


class IndexProblem(Frozen):
    """Everything a distribution computation needs: the manifold model, the
    finite center, the declared invariant generators, the symbol, and the
    square of the tangent a-hat class, all on the model's lazily built
    monomial index.  Monomial images are kept once per model; per problem,
    the key order and the nonzero-image entries (`_live_images`) and the
    direct route's integer matrix M (`_moment_rows`) once per degree
    bound, `_exponents` the exponent row once per gamma (one int per symbol
    component, in the symbol's order, read by both routes), and `_duals`,
    the integral of each product of two basis monomials, by three
    `_product` calls, the unit row for each monomial and then the pair: a
    table per model would outlive a change to the product table, and the
    entry (m, n) alone misses the unit-row corruptions behind 3 of the 17
    catches on CP^6 and 1 of the 42 on CP^16.  Both routes stay in integers
    over one denominator up to the moment emitted or compared, the direct
    one from M to `scalars.residue_scalar`.
    The symbol is over `group`, every class lives on `model`, and
    generator names are distinct: `scenarios.parse_scenario` reads a run
    on one model and group and refuses a name declared twice.  Its own
    constructor starts the caches, and reads no a-hat square as 1."""

    __slots__ = (
        "model",
        "group",
        "generators",
        "symbol",
        "a_hat_squared",
        "_row_cache",
        "_live",
        "_duals",
        "_exponents",
    )

    def __init__(
        self,
        model: ManifoldModel,
        group: FiniteAbelianGroup,
        generators: Sequence[InvariantGeneratorDecl],
        symbol: SymbolData,
        a_hat_squared: CohClass | None = None,
    ) -> None:
        super().__init__(model, group, generators, symbol, a_hat_squared or model.one(), {}, {}, {}, {})

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

    def _bracket_exponents(self, gamma: Sequence[int]) -> list[int]:
        """The exponent row at gamma, k(chi, gamma) per symbol component in
        the symbol's order, by one `bracket_exponents` call on first use; both
        routes read it, so a wrong entry is left to the test oracles."""
        key = tuple(gamma)
        if key not in self._exponents:
            self._exponents[key] = bracket_exponents(self.group, self.symbol.components, gamma)
        return self._exponents[key]

    def reduced_integrand(self, gamma: Sequence[int], max_degree: int) -> dict[int, list[int]]:
        """The direct route at gamma (need not be reduced): for each row i of
        M (`_moment_rows`), the deg Phi_N integer numerators over M's
        denominator of sum_chi M[i][chi] * zeta_N^k(chi, gamma), the integral
        of (sum_chi <chi, gamma> u_chi) * (a-hat^2 * e_i).  Numerator j is one
        dot product of the row with numerator j of the `power_residues` rows
        of the exponent row; no class is built or summed per gamma."""
        residues, rows = power_residues(self.group.exponent), self._moment_rows(max_degree)[0]
        roots = list(zip(*[residues[k] for k in self._bracket_exponents(gamma)]))
        roots = roots or [()] * len(residues[0])  # no component
        return {i: [sum(map(mul, root, row)) for root in roots] for i, row in rows.items()}

    def fractional_index(self, gamma: Sequence[int]) -> Scalar:
        """The degree-zero moment at gamma: the point-mass coefficient, and
        at the identity the analytical index of the underlying operator."""
        return self.moments(gamma, 0).mass()

    # -- moment tables ----------------------------------------------------------

    def _monomial_images(self, max_degree: int) -> list[tuple[MomentKey, dict[int, int], int]]:
        """The image of every moment monomial, in graded order, as (key,
        numerators, denominator), from the model's table by generator images
        and bound (a class kept on its own model would be a reference cycle);
        a vanished key has no numerators.  Terms enter the key sorted, so
        equal images built in another term order share one entry."""
        table, gens = self.model._images, self.generators
        key = (max_degree, *[(g.image.denominator, *sorted(g.image.numerators.items())) for g in gens])
        if key not in table:
            images = chern_weil_eval(gens, max_degree, self.model).items()
            table[key] = [(k, c.numerators, c.denominator) for k, c in images]
        return table[key]

    def _live_images(self, max_degree: int) -> tuple[list[MomentKey], list]:
        """The keys of `_monomial_images` and its nonzero-image entries, per bound."""
        if max_degree not in self._live:
            images = self._monomial_images(max_degree)
            self._live[max_degree] = [k for k, _, _ in images], [e for e in images if e[1]]
        return self._live[max_degree]

    def _moment_rows(self, max_degree: int) -> tuple[dict[int, list[int]], int]:
        """The direct route's pairings, once per problem and bound: the
        integer matrix M over one denominator, one row per distinct image
        monomial e_i in order of first use, entry chi the integral of u_chi *
        (a-hat^2 * e_i) in the symbol's order.  Row i is one `_pairings` column
        of a-hat^2 * e_i against the symbol's support monomials, over its d_i,
        dotted with each component's numerators over the lcm of the
        component denominators; M's denominator is that lcm times lcm(d_i)."""
        cached = self._row_cache.get(max_degree)
        if cached is not None:
            return cached
        model, square, components = self.model, self.a_hat_squared, self.symbol.components.values()
        scale = math.lcm(*[u.denominator for u in components])
        symbol = [(u.numerators, scale // u.denominator) for u in components]
        support = sorted({m for num, _ in symbol for m in num})
        rows, dens = {}, {}
        for _, image, _ in self._live_images(max_degree)[1]:
            for i in image:
                if i not in rows:  # a-hat^2 * e_i by one product, no normal form
                    column, dens[i] = self._pairings(square * _class(model, {i: 1}, 1), support)
                    pairs = [(m, r) for m, r in zip(support, column) if r]
                    rows[i] = [s * sum([r * num.get(m, 0) for m, r in pairs]) for num, s in symbol]
        den = math.lcm(*dens.values())
        rows = {i: [n * (den // dens[i]) for n in row] for i, row in rows.items()}
        cached = self._row_cache[max_degree] = rows, den * scale
        return cached

    def _pairings(self, integrand: CohClass, targets: Sequence[int]) -> tuple[list[int], int]:
        """The integral of integrand * e_m for every target monomial index
        m, as one integer column over one denominator (`_column`).

        Relations are degree-homogeneous, so a target monomial m pairs only
        with the integrand terms of the complementary degree; each such term
        n contributes its numerator times the integral of m * n, read from
        the problem's table `_duals`, and the terms are summed over the lcm
        of those integrals' denominators."""
        model, duals, degrees = self.model, self._duals, self.model._degrees
        by_degree: dict[int, list[tuple[int, int]]] = {}
        for mono, n in integrand.numerators.items():
            by_degree.setdefault(model.dimension - degrees[mono], []).append((mono, n))
        pairs = []
        for m in targets:
            num, den = 0, 1
            for mono, n in by_degree.get(degrees[m], ()):
                dual = duals.get((m, mono))
                if dual is None:  # both monomials through the unit row, then the pair
                    a, da = _product(model, {0: 1}, {m: 1})
                    b, db = _product(model, {0: 1}, {mono: 1})
                    ab, scale = _product(model, a, b)
                    dual = duals[m, mono] = _class(model, ab, da * db * scale).integrate()
                q = dual.denominator
                if den % q:
                    grow = q // math.gcd(den, q)
                    num, den = num * grow, den * grow
                num += n * dual.numerator * (den // q)
            pairs.append((num, den * integrand.denominator))
        return _column(pairs)

    def moments(self, gamma: Sequence[int], max_degree: int | None = None) -> MomentTable:
        """The moment table at gamma: pairings against all generator
        monomials of total degree up to the bound (default: half the model
        dimension; higher monomials pair to zero by truncation).  A live
        key's deg Phi_N numerators are its image coefficients times the rows
        of `reduced_integrand`, over the image denominator times M's, made
        one scalar by `residue_scalar`; a key not in `_live_images` is the exact 0.
        gamma is a group element as the table records it: `scenarios._check_gamma`
        holds a task's gamma to the group's exponent ranges, and
        `scenarios._check_max_degree` keeps every bound a task or run names
        nonnegative."""
        if max_degree is None:
            max_degree = self.model.dimension // 2
        vectors, den = self.reduced_integrand(gamma, max_degree), self._moment_rows(max_degree)[1]
        order, (keys, live) = self.group.exponent, self._live_images(max_degree)
        values = dict.fromkeys(keys, Fraction(0))
        for key, image, image_den in live:
            (i, n), *rest = image.items()
            vector = [n * v for v in vectors[i]]
            for i, n in rest:
                vector = [c + n * v for c, v in zip(vector, vectors[i])]
            values[key] = residue_scalar(order, vector, image_den * den)
        return MomentTable(tuple(gamma), tuple(g.name for g in self.generators), values)

    def _character_columns(self, max_degree: int) -> dict[MomentKey, tuple[list[int], int]]:
        """The identity-route pairings: each a-hat^2 * u_chi paired once with
        each distinct image monomial, entry j of that monomial's column the
        j-th component's pairing, reduced once per monomial, and one integer
        column per nonzero-image key, in graded order, over one denominator
        in lowest terms: the monomial's column times n over den * image_den
        for an image n * e_i, else the image's columns summed over the lcm
        of their denominators.  All rational."""
        images = [(k, list(im.items()), d) for k, im, d in self._live_images(max_degree)[1]]
        targets = list(dict.fromkeys([i for _, image, _ in images for i, _ in image]))
        square, components = self.a_hat_squared, self.symbol.components.values()
        pairings = [self._pairings(square * u_chi, targets) for u_chi in components]
        by_target = {i: _column([(p[j], d) for p, d in pairings]) for j, i in enumerate(targets)}
        columns = {}
        for key, ((i, n), *image), image_den in images:
            column, den = by_target[i]
            column = [n * p for p in column]
            for i, n in image:
                target, d = by_target[i]
                lcm = math.lcm(den, d)
                a, b = lcm // den, n * (lcm // d)
                column, den = [a * c + b * p for c, p in zip(column, target)], lcm
            den *= image_den
            g = math.gcd(den, *column)
            columns[key] = ([c // g for c in column], den // g) if g != 1 else (column, den)
        return columns

    def full_distribution(self, max_degree: int | None = None) -> IndexDistribution:
        """Moment tables at every central element.

        The direct route (`reduced_integrand`, then `moments`) runs at
        gamma, the first element of its Galois orbit {a*gamma : a a unit
        mod N} in `group.elements()` order (the only unit is 1 when N <= 2),
        and the table at a*gamma, reduced componentwise, is sigma_a of its
        values.  Every table is recomputed from the per-character columns
        at the identity, read once per run: at gamma, entry j of row i is
        numerator i of zeta_N^k, k the j-th entry of the exponent row (a
        root of unity read from `power_residues`, denominator 1, by one
        `bracket` call per k and run), for every N, and each key's vector is
        the dot products of those rows with its column, read from one dot
        product per row with the packed columns (`_packed_products`, exact
        by the bound of `_slot_width`; the direct route does not pack).  A
        zero-image key has no column and is the exact 0 on both routes; one
        vector per (gamma, column key) is compared with the emitted moment
        times the column denominator, at every gamma, so sigma_a is checked
        too: in integers when that moment is a Fraction, otherwise as the
        one Cyclotomic sum expected * -den + vector tested for zero.
        Disagreement raises InternalConsistencyError.
        """
        if max_degree is None:
            max_degree = self.model.dimension // 2
        columns = self._character_columns(max_degree)
        order, orders = self.group.exponent, self.group.cyclic_orders
        width = len(cyclotomic_polynomial(order)) - 1
        products = _packed_products([column for column, _ in columns.values()], power_residues(order))
        units = [a for a in range(2, order) if math.gcd(a, order) == 1]
        conjugates: dict[Element, tuple[Element, int]] = {}
        roots: dict[int, tuple[int, ...]] = {}  # exponent k -> numerators of zeta_N^k
        tables: dict[Element, MomentTable] = {}
        for gamma in self.group.elements():
            if gamma in conjugates:
                first, a = conjugates[gamma]
                values = {key: galois_conjugate(v, a) for key, v in tables[first].values.items()}
                direct = MomentTable(gamma, tables[first].generator_names, values)
            else:
                direct = self.moments(gamma, max_degree)
                for a in units:
                    conjugates.setdefault(tuple(a * g % n for g, n in zip(gamma, orders)), (gamma, a))
            exponents = self._bracket_exponents(gamma)
            for k, chi in zip(exponents, self.symbol.components):
                if k not in roots:  # a root of unity: integer numerators over the denominator 1
                    roots[k] = bracket(self.group, chi, gamma).numerators
            rows = list(zip(*[roots[k] for k in exponents])) or [()] * width  # no component
            for (key, (_, den)), vector in zip(columns.items(), products(rows)):
                expected = direct.values[key]
                if type(expected) is Fraction:
                    p, q = expected.numerator, expected.denominator
                    agree = not any(vector[1:]) and vector[0] * q == p * den
                else:
                    agree = (expected * -den + Cyclotomic(order, vector)).is_zero()
                if not agree:
                    raise InternalConsistencyError(
                        "distribution routes disagree at gamma="
                        f"{gamma}, monomial {monomial_name(direct.generator_names, key)}: "
                        f"direct {expected!r} vs recombined "
                        f"{demote(Cyclotomic(order, vector, den))!r}"
                    )
            tables[gamma] = direct
        return IndexDistribution(tables)

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


def _slot_width(columns: Sequence[Sequence[int]], residues: Sequence[Sequence[int]]) -> int:
    """Bits per packed slot: a column dotted with a row of `residues` entries
    is at most the largest |entry| times the column's sum of |entries| in
    size, and that bound's bit length plus a sign bit holds it."""
    largest = max(max(map(abs, row)) for row in residues)
    return (largest * max([sum(map(abs, c)) for c in columns], default=0)).bit_length() + 1


def _packed_products(columns: Sequence[Sequence[int]], residues: Sequence[Sequence[int]]):
    """Kronecker substitution (von zur Gathen and Gerhard, Modern Computer
    Algebra, 8.4): entry j of every column packed into one integer, column s
    as its signed base-2^w digit s from the top, w the bits of `_slot_width`
    rounded up to whole bytes.  The function returned takes rows of
    `residues` entries and gives, per column, its dot products with the
    rows: one dot product per row with the packed entries, plus 2^(w-1) in
    every digit, written out by one `to_bytes` and digit s read from its
    w/8 bytes.  Exact: each dot product lies in [-2^(w-1), 2^(w-1)), so
    every shifted digit lies in [0, 2^w) and the base-2^w expansion reads
    it back.  Packing and reading go through bytes, so both take time
    linear in the packed size, whatever the number of columns."""
    size = -(-_slot_width(columns, residues) // 8)  # bytes per slot
    half, total = 1 << (8 * size - 1), len(columns) * size
    offset = int.from_bytes(half.to_bytes(size) * len(columns))
    packed = [
        int.from_bytes(b"".join([(c + half).to_bytes(size) for c in entries])) - offset
        for entries in zip(*columns)
    ]
    starts, from_bytes = range(0, total, size), int.from_bytes

    def products(rows: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
        digits = [(sum(map(mul, row, packed)) + offset).to_bytes(total) for row in rows]
        return zip(*[[from_bytes(d[i : i + size]) - half for i in starts] for d in digits])

    return products


def dirac_problem(
    model: ManifoldModel,
    tangent: BundleData,
    generators: Sequence[InvariantGeneratorDecl] = (),
) -> IndexProblem:
    """The problem for the lifted Dirac symbol of an oriented even-
    dimensional manifold: center of order two, symbol concentrated on the
    nontrivial character with base reduction the inverse a-hat class, so
    the net integrand at the identity is the a-hat class itself."""
    symbol = SymbolData({(1,): a_hat(tangent).inverse()})
    return IndexProblem(model, FiniteAbelianGroup((2,)), generators, symbol, a_hat_squared(tangent))

