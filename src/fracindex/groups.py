"""The group-theoretic inputs: the finite central subgroup, its character
group and duality bracket, declared invariant-polynomial generators with
their curvature images, and weight systems for representation characters.

The engine never sees the Lie algebra itself.  Invariant polynomials enter
only through their declared cohomology images, and `chern_weil_eval` is
the one place a polynomial in the generators is evaluated on the
curvature.  Representations enter only through integer weights paired
with degree-2 line classes.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import Iterable, Sequence

from fracindex.cohomology import CohClass, ManifoldModel, class_sum
from fracindex.scalars import Cyclotomic, Frozen

#: Group elements and characters are exponent tuples over the cyclic factors.
Element = tuple[int, ...]


class FiniteAbelianGroup(Frozen):
    """A product of cyclic groups; elements are exponent tuples reduced
    modulo the cyclic orders, whose product is `order` and lcm `exponent`.
    The trivial group has no factors.  The scenario parser refuses an order
    below 1; its own constructor derives `order` and `exponent`, and keeps
    the orders as given."""

    __slots__ = ("cyclic_orders", "order", "exponent")

    def __init__(self, cyclic_orders: Sequence[int]) -> None:
        super().__init__(cyclic_orders, math.prod(cyclic_orders), math.lcm(*cyclic_orders))

    def is_trivial(self) -> bool:
        return self.order == 1

    def identity(self) -> Element:
        return (0,) * len(self.cyclic_orders)

    def contains(self, element: Sequence[int]) -> bool:
        return len(element) == len(self.cyclic_orders) and all(
            0 <= e < n for e, n in zip(element, self.cyclic_orders)
        )

    def elements(self) -> list[Element]:
        """All elements in lexicographic exponent order."""
        return list(itertools.product(*(range(n) for n in self.cyclic_orders)))

    def __repr__(self):
        if not self.cyclic_orders:
            return "FiniteAbelianGroup(trivial)"
        body = " x ".join(f"Z/{n}" for n in self.cyclic_orders)
        return f"FiniteAbelianGroup({body})"


def bracket_exponents(
    group: FiniteAbelianGroup, characters: Iterable[Sequence[int]], element: Sequence[int]
) -> list[int]:
    """The duality pairing of each character with a group element as an
    exponent row: the k in [0, N) with bracket = zeta_N^k, N the group
    exponent.  The weights g_i N/n_i of the element are computed once, and
    each k is one integer dot product with the character mod N.  Each term
    depends only on k_i g_i mod n_i, so the entries need not be reduced.
    Each tuple has one entry per factor: it passes `group.contains` in the
    scenario parser, or comes from `group.elements()`."""
    n = group.exponent
    weights = [g * (n // order) for g, order in zip(element, group.cyclic_orders)]
    return [sum(map(mul, chi, weights)) % n for chi in characters]


def bracket(group: FiniteAbelianGroup, character: Sequence[int], element: Sequence[int]) -> Cyclotomic:
    """The duality pairing between a character and a group element: the
    exact root of unity zeta_N^k, N the group exponent and k the one entry
    of `bracket_exponents` for this character."""
    return Cyclotomic.root_of_unity(group.exponent, *bracket_exponents(group, [character], element))


class InvariantGeneratorDecl(Frozen):
    """A declared generator of the invariant polynomials, carrying its
    degree in the symmetric algebra and its image class under the
    curvature evaluation (connection independence is assumed, not
    checked).  The scenario parser holds s_degree >= 1 and the image
    homogeneous of degree 2 * s_degree; the constructor stores them."""

    __slots__ = ("name", "s_degree", "image")

    def __repr__(self):
        return f"InvariantGeneratorDecl({self.name!r}, s_degree={self.s_degree})"


#: Moment keys: exponent tuples over the declared generator order.
MomentKey = tuple[int, ...]


def graded_order(keys: Iterable[MomentKey]) -> list[MomentKey]:
    """Graded order: total degree first, then declaration precedence (an
    earlier generator's power sorts before a later one's), i.e. descending
    lexicographic; two stable sorts keep every comparison in C."""
    return sorted(sorted(keys, reverse=True), key=sum)


def chern_weil_eval(
    generators: Sequence[InvariantGeneratorDecl], max_degree: int, model: ManifoldModel
) -> dict[MomentKey, CohClass]:
    """The curvature image of every monomial in the generators of total
    degree up to max_degree: each generator is replaced by its declared
    image class.  Keys are exponent tuples over the generator order, in
    graded order, so each image is one product away from the image of a
    lower key; the unit key () or (0, ..., 0) maps to 1.  A key vanishes by
    degree, with no product, when its degree weighted by each image's
    lowest term degree (the dimension + 1 for a zero image) exceeds the
    dimension: relations are homogeneous, every monomial above the
    dimension is dead, and each term of a product has at least the sum of
    its factors' lowest term degrees.  The weight is exact for the parser's
    homogeneous images; the zero class is built only if a key vanishes."""
    degrees, top = model._degrees, model.dimension
    weights = [min([degrees[i] for i in g.image.numerators], default=top + 1) for g in generators]
    keys: list[MomentKey] = [()]
    for _ in generators:
        keys = [key + (e,) for key in keys for e in range(max_degree - sum(key) + 1)]
    images: dict[MomentKey, CohClass] = {}
    zero = None
    for key in graded_order(keys):
        if sum(map(mul, key, weights)) > top:
            images[key] = zero = zero or model.zero()
        elif (i := next((i for i, e in enumerate(key) if e), None)) is None:
            images[key] = model.one()
        else:
            images[key] = images[key[:i] + (key[i] - 1,) + key[i + 1 :]] * generators[i].image
    return images


class WeightSystem(Frozen):
    """Weight data for representation characters: one degree-2 line class
    per torus coordinate, plus the family rule that turns a label into the
    multiset of integer weight vectors.

    kind "torus": the label is a weight vector (or a plain integer in rank
    one) and names the one-dimensional representation with that weight.
    kind "su2": the label is a nonnegative integer highest weight, with
    weight multiset (label, label-2, ..., -label) against the single
    declared line class.  The scenario parser builds a system only from a
    nonempty `weight_system` list and holds the kind to these two, an su2
    system to one line class and every line class homogeneous of degree 2;
    `scenarios._check_label` holds every label to these forms.
    """

    __slots__ = ("kind", "line_classes")

    @property
    def rank(self) -> int:
        return len(self.line_classes)

    def weights_of(self, label) -> list[tuple[int, ...]]:
        """The weight vectors of the representation a label names.  The
        label has the system's form: under "torus" an int list of length
        `rank`, or an int when the rank is one; under "su2" a nonnegative
        int.  `scenarios._check_label` refuses every other label at parse."""
        if self.kind == "su2":
            return [(m,) for m in range(label, -label - 1, -2)]
        return [(label,)] if isinstance(label, int) else [tuple(label)]

    def root_class(self, weight: Sequence[int]) -> CohClass:
        return class_sum([line * w for w, line in zip(weight, self.line_classes)])

    def __repr__(self):
        return f"WeightSystem({self.kind!r}, rank={self.rank})"


def character_jet(system: WeightSystem, label) -> CohClass:
    """The curvature image of a representation character: the sum over the
    representation's weights of the exponential of the matching line
    class.  The dimension of the representation is the constant term."""
    weights = system.weights_of(label)
    return class_sum([system.root_class(weight).exponential() for weight in weights])
