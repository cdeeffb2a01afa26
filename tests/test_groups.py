"""Finite centers, duality brackets, curvature images, weight systems."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracindex.cohomology import parse_expression
from fracindex.groups import (
    FiniteAbelianGroup,
    InvariantGeneratorDecl,
    WeightSystem,
    bracket,
    bracket_exponents,
    character_jet,
    chern_weil_eval,
    graded_order,
)
from fracindex.scalars import Cyclotomic, cyclotomic_polynomial
from fracindex.scenarios import ScenarioError, _build_group_block

from oracles import bracket_exponent_by_reduction, cyclotomic_product, projective_model


@pytest.fixture
def cp2():
    return projective_model(x=2)


# ---------------------------------------------------------------------------
# groups and brackets


def test_group_elements_lexicographic():
    group = FiniteAbelianGroup([2, 3])
    assert group.elements() == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]
    assert group.order == 6
    assert group.exponent == 6


def test_trivial_group():
    group = FiniteAbelianGroup([])
    assert group.is_trivial()
    assert group.elements() == [()]
    assert group.identity() == ()
    assert bracket(group, (), ()) == 1


def test_group_arithmetic():
    group = FiniteAbelianGroup([4])
    for raw, reduced in [((-1,), (3,)), ((9,), (1,))]:
        assert tuple(e % n for e, n in zip(raw, group.cyclic_orders)) == reduced
        assert group.contains(reduced) and not group.contains(raw)
        assert bracket_exponents(group, [(1,)], raw) == bracket_exponents(group, [(1,)], reduced)


def test_bracket_identity_is_one():
    group = FiniteAbelianGroup([2, 2])
    for chi in group.elements():
        assert bracket(group, chi, group.identity()) == 1


def test_bracket_z2():
    group = FiniteAbelianGroup([2])
    assert bracket(group, (1,), (1,)) == -1
    assert bracket(group, (0,), (1,)) == 1


def test_bracket_z4_primitive():
    group = FiniteAbelianGroup([4])
    assert bracket(group, (1,), (1,)) == Cyclotomic.root_of_unity(4)
    assert bracket(group, (1,), (2,)) == -1
    assert bracket(group, (2,), (1,)) == -1


def test_bracket_mixed_orders():
    group = FiniteAbelianGroup([2, 3])
    value = bracket(group, (1, 1), (1, 1))
    assert value == Cyclotomic.root_of_unity(6, 3 + 2)  # zeta_6^3 * zeta_6^2


def test_bracket_bilinearity():
    group = FiniteAbelianGroup([2, 4])
    rng = random.Random(31)

    def plus(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, group.cyclic_orders))

    modulus = list(cyclotomic_polynomial(group.exponent))

    def times(x, y):
        # the product of two brackets by long division modulo Phi_N
        return cyclotomic_product(list(x.numerators), list(y.numerators), modulus)

    for _ in range(20):
        chi1 = tuple(rng.randrange(n) for n in group.cyclic_orders)
        chi2 = tuple(rng.randrange(n) for n in group.cyclic_orders)
        g1 = tuple(rng.randrange(n) for n in group.cyclic_orders)
        g2 = tuple(rng.randrange(n) for n in group.cyclic_orders)
        left = bracket(group, plus(chi1, chi2), g1).numerators
        assert list(left) == times(bracket(group, chi1, g1), bracket(group, chi2, g1))
        right = bracket(group, chi1, plus(g1, g2)).numerators
        assert list(right) == times(bracket(group, chi1, g1), bracket(group, chi1, g2))


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [2, 3], [6]])
def test_bracket_orthogonality(orders):
    group = FiniteAbelianGroup(orders)
    for chi in group.elements():
        total = sum(bracket(group, chi, g) for g in group.elements())
        if chi == group.identity():
            assert total == group.order
        else:
            assert total == 0


# ---------------------------------------------------------------------------
# invariant generators and their curvature images


def test_generator_validates_image_degree(cp2):
    image = parse_expression("3*x^2", cp2)
    gen = InvariantGeneratorDecl("P1", 2, image)
    assert gen.image == image

    def block(s_degree, text):
        return {"invariant_generators": [{"name": "P", "s_degree": s_degree, "image": text}]}

    # the parser holds the image degree and a positive s_degree
    _, (parsed,), _ = _build_group_block(block(2, "3*x^2"), cp2)
    assert parsed.image == image
    path = r"^group\.invariant_generators\[0\]"
    with pytest.raises(ScenarioError, match=path + r"\.image: .*homogeneous"):
        _build_group_block(block(1, "3*x^2"), cp2)
    with pytest.raises(ScenarioError, match=path + r"\.s_degree: "):
        _build_group_block(block(0, "1"), cp2)


def test_zero_image_is_allowed(cp2):
    gen = InvariantGeneratorDecl("P0", 2, cp2.zero())
    assert gen.image.is_zero()


def test_unit_bump_evaluates_to_one(cp2):
    # the unit key is the jet of a unit bump at the base point
    gens = [InvariantGeneratorDecl("P1", 2, parse_expression("3*x^2", cp2))]
    assert chern_weil_eval(gens, 0, cp2) == {(0,): cp2.one()}
    assert chern_weil_eval(gens, 2, cp2)[(0,)] == cp2.one()
    assert chern_weil_eval([], 2, cp2) == {(): cp2.one()}


def test_single_generator_substitution(cp2):
    gens = [InvariantGeneratorDecl("P1", 2, parse_expression("3*x^2", cp2))]
    assert chern_weil_eval(gens, 1, cp2)[(1,)] == parse_expression("3*x^2", cp2)


def test_square_truncates_past_dimension(cp2):
    gens = [InvariantGeneratorDecl("P1", 2, parse_expression("3*x^2", cp2))]
    assert chern_weil_eval(gens, 2, cp2)[(2,)].is_zero()


def test_chern_weil_eval_keys_come_in_graded_order(cp2):
    gens = [
        InvariantGeneratorDecl("P", 1, parse_expression("2*x", cp2)),
        InvariantGeneratorDecl("Q", 1, parse_expression("x", cp2)),
    ]
    assert list(chern_weil_eval(gens, 2, cp2)) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
    ]


@settings(max_examples=50, deadline=None)
@given(keys=st.integers(0, 4).flatmap(
    lambda n: st.sets(st.tuples(*[st.integers(0, 5)] * n), max_size=30)
))
def test_graded_order_is_degree_then_declaration_precedence(keys):
    # total degree first; within a degree, an earlier generator's higher
    # power first
    expected = sorted(keys, key=lambda key: (sum(key), tuple(-e for e in key)))
    assert graded_order(keys) == expected


def test_chern_weil_eval_is_ring_homomorphism(cp2):
    gens = [
        InvariantGeneratorDecl("P", 1, parse_expression("2*x", cp2)),
        InvariantGeneratorDecl("Q", 1, parse_expression("-3*x", cp2)),
        InvariantGeneratorDecl("R", 2, parse_expression("5*x^2", cp2)),
    ]
    images = chern_weil_eval(gens, 4, cp2)
    for a in images:
        for b in images:
            key = tuple(x + y for x, y in zip(a, b))
            if key in images:
                assert images[key] == images[a] * images[b]


# ---------------------------------------------------------------------------
# bracket exponents on raw exponent tuples


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bracket_exponent_matches_reduced_formula(data):
    orders = data.draw(st.lists(st.integers(1, 12), max_size=3))
    group = FiniteAbelianGroup(orders)
    entry = st.integers(-50, 50)
    characters = data.draw(st.lists(st.tuples(*[entry for _ in orders]), max_size=4))
    g = tuple(data.draw(entry) for _ in orders)
    expected = [bracket_exponent_by_reduction(group, chi, g) for chi in characters]
    assert bracket_exponents(group, characters, g) == expected


# ---------------------------------------------------------------------------
# weight systems


def test_trivial_representation_has_rank_one(cp2):
    system = WeightSystem("torus", [parse_expression("x", cp2)])
    assert character_jet(system, 0) == cp2.one()


def test_u1_weight_on_cp1():
    cp1 = projective_model(x=1)
    system = WeightSystem("torus", [parse_expression("x", cp1)])
    for k in range(-3, 4):
        assert character_jet(system, k) == parse_expression(f"1 + {k}*x" if k >= 0 else f"1 - {-k}*x", cp1)


def test_su2_character_weights(cp2):
    a = parse_expression("x", cp2)
    system = WeightSystem("su2", [a])
    # weights +1, -1: e^a + e^(-a) = 2 + a^2 up to degree 4
    assert character_jet(system, 1) == parse_expression("2 + x^2", cp2)
    # weights 2, 0, -2
    assert character_jet(system, 2) == parse_expression("3 + 4*x^2", cp2)


def test_character_jet_additive_over_weights(cp2):
    system = WeightSystem("torus", [parse_expression("x", cp2)])
    total = character_jet(system, 1) + character_jet(system, 2)
    direct = (
        system.root_class((1,)).exponential() + system.root_class((2,)).exponential()
    )
    assert total == direct


def test_rank_two_torus_weights():
    prod = projective_model(x=1, y=1)
    system = WeightSystem("torus", [parse_expression("x", prod), parse_expression("y", prod)])
    cls = character_jet(system, (1, 2))
    assert cls == parse_expression("(1 + x)*(1 + 2*y)", prod)


def test_weight_system_validation(cp2):
    def block(kind, *lines):
        entries = [
            {"weight": [int(i == j) for j in range(len(lines))], "line_class": line}
            for i, line in enumerate(lines)
        ]
        return {"weight_kind": kind, "weight_system": entries}

    # the parser holds one line class for su2, a known kind and degree-2 line classes
    _, _, system = _build_group_block(block("su2", "x"), cp2)
    assert system.line_classes == (parse_expression("x", cp2),)
    with pytest.raises(ScenarioError, match=r"^group\.weight_system: "):
        _build_group_block(block("su2", "x", "x"), cp2)
    with pytest.raises(ScenarioError, match=r"^group\.weight_kind: "):
        _build_group_block(block("spin", "x"), cp2)
    with pytest.raises(ScenarioError, match=r"^group\.weight_system\[0\]\.line_class: "):
        _build_group_block(block("torus", "1"), cp2)
