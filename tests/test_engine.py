"""The index distribution engine: pairings, moments, distributions."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracindex.characteristic import BundleData, a_hat
from fracindex.cohomology import CohClass, build_model, parse_expression
from fracindex.engine import (
    IndexProblem,
    InternalConsistencyError,
    SymbolData,
    _column,
    _packed_products,
    dirac_problem,
)
from fracindex.groups import (
    FiniteAbelianGroup,
    InvariantGeneratorDecl,
    WeightSystem,
    bracket,
    chern_weil_eval,
)
from fracindex.scalars import Cyclotomic, demote, power_residues
from fracindex.scenarios import builtin_scenario_text, parse_scenario, run

from oracles import (
    a_hat_series_oracle,
    bracket_exponent_by_reduction,
    caught_corruptions,
    cpn_integral,
    cpn_mul,
    evaluate_series_at_x,
    moment_oracle,
    projective_model,
    projective_tangent,
    root_sum_oracle,
    scalar_coefficients,
    todd_class,
)


def cp2_dirac_problem():
    cp2 = projective_model(x=2)
    gens = [
        InvariantGeneratorDecl("P1", 2, parse_expression("3*x^2", cp2)),
        InvariantGeneratorDecl("E", 2, parse_expression("3*x^2", cp2)),
    ]
    return cp2, dirac_problem(cp2, projective_tangent(cp2), gens)


def k3_like_dirac_problem():
    model = build_model(4, [("q", 4)], [], ("q", 1))
    tangent = BundleData("TK", 2, chern=[model.zero(), parse_expression("24*q", model)], model=model)
    return model, dirac_problem(model, tangent)


# ---------------------------------------------------------------------------
# reduced integrands: the rows of the direct route's matrix as root-of-unity
# numerators per gamma


def _row_numerators(problem, gamma, max_degree):
    """`reduced_integrand` at gamma as Fractions over the denominator of
    `_moment_rows`: image monomial index i -> deg(Phi_N) coefficients."""
    den = problem._moment_rows(max_degree)[1]
    rows = problem.reduced_integrand(gamma, max_degree)
    return {i: [Fraction(n, den) for n in row] for i, row in rows.items()}


def _image_monomial(model, i):
    return CohClass(model, {model._monomials[i]: 1})


def _bucket_oracle(problem, gamma, max_degree):
    """The same pairings by class arithmetic: for each distinct monomial e_i
    of the nonzero generator images up to the bound, bracket exponent k ->
    the integral of U_k * (a-hat^2 * e_i), U_k the class sum of the
    components whose exponent by `bracket_exponent_by_reduction` is k."""
    model, group = problem.model, problem.group
    members = {}
    for chi, u_chi in problem.symbol.components.items():
        k = bracket_exponent_by_reduction(group, chi, gamma)
        members[k] = members.get(k, model.zero()) + u_chi
    images = chern_weil_eval(problem.generators, max_degree, model).values()
    out = {}
    for i in dict.fromkeys([i for image in images for i in image.numerators]):
        column = problem.a_hat_squared * _image_monomial(model, i)
        out[i] = {k: (u * column).integrate() for k, u in members.items()}
    return out


def _numerator_oracle(problem, gamma, max_degree):
    """`_bucket_oracle` with each row's sum_k w_k zeta^k reduced modulo
    Phi_N by long division (`root_sum_oracle`), never by `power_residues`."""
    order = problem.group.exponent
    buckets = _bucket_oracle(problem, gamma, max_degree)
    return {i: root_sum_oracle(order, row) for i, row in buckets.items()}


def test_reduced_integrand_trivial_symbol():
    # no generators: the one image monomial is the unit, paired with a-hat^2
    # in bucket 0 at both elements, a rational row
    cp2 = projective_model(x=2)
    group = FiniteAbelianGroup([2])
    tangent = projective_tangent(cp2)
    genus = a_hat(tangent)
    symbol = SymbolData({(0,): cp2.one()})
    problem = IndexProblem(cp2, group, (), symbol, genus * genus)
    for gamma in [(0,), (1,)]:
        assert _row_numerators(problem, gamma, 2) == {0: [(genus * genus).integrate()]}
        assert _row_numerators(problem, gamma, 2) == _numerator_oracle(problem, gamma, 2)
        assert _bucket_oracle(problem, gamma, 2) == {0: {0: (genus * genus).integrate()}}


def test_reduced_integrand_dirac_identity_is_a_hat():
    # the one component is the inverse a-hat class; with the a-hat square
    # each row pairs a-hat with the image monomial, 1 and x^2 on CP^2
    cp2, problem = cp2_dirac_problem()
    genus = a_hat(projective_tangent(cp2))
    rows = _row_numerators(problem, (0,), 2)
    assert sorted(cp2._monomials[i] for i in rows) == [(0,), (2,)]
    assert rows == {i: [(genus * _image_monomial(cp2, i)).integrate()] for i in rows}
    assert rows == _numerator_oracle(problem, (0,), 2)


def test_reduced_integrand_dirac_flips_sign():
    # the inverse a-hat class sits in the bucket of zeta_2^1 = -1: every
    # row at gamma = 1 is minus the identity's
    cp2, problem = cp2_dirac_problem()
    identity = _row_numerators(problem, (0,), 2)
    assert all(list(row) == [1] for row in _bucket_oracle(problem, (1,), 2).values())
    assert _row_numerators(problem, (1,), 2) == {i: [-row[0]] for i, row in identity.items()}
    assert _row_numerators(problem, (1,), 2) == _numerator_oracle(problem, (1,), 2)


def test_reduced_integrand_buckets_components_by_bracket_exponent():
    # at every element of Z/6 x Z/4, each row is deg(Phi_12) = 4 numerators,
    # the oracle's bucket sums times zeta_12^k by long division; the
    # elements reach several buckets per row
    problem = _random_problem([6, 4], 10)
    group = problem.group
    for gamma in group.elements():
        rows = problem.reduced_integrand(gamma, 3)
        assert all(len(row) == 4 and all(type(n) is int for n in row) for row in rows.values())
        assert _row_numerators(problem, gamma, 3) == _numerator_oracle(problem, gamma, 3)
    assert max(len(row) for row in _bucket_oracle(problem, (1, 1), 3).values()) > 2


# ---------------------------------------------------------------------------
# fractional index


def test_cp2_dirac_fractional_index():
    _, problem = cp2_dirac_problem()
    assert problem.fractional_index((0,)) == Fraction(-1, 8)
    assert problem.fractional_index((1,)) == Fraction(1, 8)


def test_k3_like_dirac_fractional_index():
    _, problem = k3_like_dirac_problem()
    assert problem.fractional_index((0,)) == 2
    assert problem.fractional_index((1,)) == -2


def test_point_trivial_symbol():
    pt = projective_model()
    group = FiniteAbelianGroup([])
    problem = IndexProblem(pt, group, (), SymbolData({(): pt.one()}))
    assert problem.fractional_index(()) == 1


def test_unit_bump_pairing_equals_mass():
    _, problem = cp2_dirac_problem()
    problems = [problem, _random_problem([5], 11), _random_problem([6, 4], 12)]
    for problem in problems:
        for gamma in problem.group.elements():
            assert problem.fractional_index(gamma) == problem.moments(gamma).mass()
    # the cyclotomic centers reach genuinely irrational brackets
    assert any(
        isinstance(problem.fractional_index(gamma), Cyclotomic)
        for problem in problems[1:]
        for gamma in problem.group.elements()
    )


def test_high_weight_jet_pairs_to_zero():
    cp2, problem = cp2_dirac_problem()
    # P1^2 has cohomological weight 8 > 4: its image is zero, so it meets
    # no row of the matrix and pairs to zero with every numerator
    image = chern_weil_eval(problem.generators, 2, cp2)[(2, 0)]
    rows = problem.reduced_integrand((0,), 2)
    assert sum(n * rows[i][0] for i, n in image.numerators.items()) == 0
    assert not set(image.numerators) & set(rows)
    assert problem.moments((0,), 2).values[(2, 0)] == 0


@st.composite
def _index_problems(draw):
    """A random problem over the point, CP^1 or CP^3 and one of several
    centers, Z/6 x Z/4 included, with a random rational symbol and an
    unreduced central element."""
    n = draw(st.sampled_from([0, 1, 3]))
    model = projective_model(x=n) if n else projective_model()
    group = FiniteAbelianGroup(draw(st.sampled_from([[], [2], [3], [5], [2, 2], [6, 4]])))
    coefficient = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    components = {}
    for chi in group.elements():
        if draw(st.booleans()):
            components[chi] = CohClass(
                model, {m: draw(coefficient) for m in model.monomials_up_to(model.dimension)}
            )
    square = None
    if model.dimension and draw(st.booleans()):
        square = a_hat(projective_tangent(model)) ** 2
    problem = IndexProblem(model, group, (), SymbolData(components), square)
    gamma = tuple(draw(st.integers(-2 * order, 2 * order)) for order in group.cyclic_orders)
    return problem, gamma


def _assert_matches_oracle(problem, gamma, key, value):
    expected = moment_oracle(problem, gamma, key)
    assert scalar_coefficients(value, problem.group.exponent) == expected
    assert isinstance(value, Fraction) == (not any(expected[1:]))


@settings(max_examples=60, deadline=None)
@given(case=_index_problems())
def test_fractional_index_matches_unit_bump_oracle(case):
    problem, gamma = case
    _assert_matches_oracle(problem, gamma, (), problem.fractional_index(gamma))


# ---------------------------------------------------------------------------
# moment tables


def test_cp2_dirac_moment_table():
    _, problem = cp2_dirac_problem()
    table = problem.moments((0,))
    assert table.values[(0, 0)] == Fraction(-1, 8)
    assert table.values[(1, 0)] == 3
    assert table.values[(0, 1)] == 3
    assert table.values[(2, 0)] == 0
    assert table.values[(1, 1)] == 0
    assert table.values[(0, 2)] == 0


def test_cp2_moment_against_hand_integral():
    # direct list arithmetic: (1 - x^2/8) * 3x^2 integrates to 3 on CP^2
    a_hat_coeffs = evaluate_series_at_x(a_hat_series_oracle(2), 2)
    genus = cpn_mul(cpn_mul(a_hat_coeffs, a_hat_coeffs, 2), a_hat_coeffs, 2)
    image = [Fraction(0), Fraction(0), Fraction(3)]
    assert cpn_integral(cpn_mul(genus, image, 2), 2) == 3
    _, problem = cp2_dirac_problem()
    assert problem.moments((0,)).values[(1, 0)] == 3


def test_moment_table_ordering():
    _, problem = cp2_dirac_problem()
    keys = list(problem.moments((0,)).values)
    # graded, with the first-declared generator's powers first
    assert keys == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_moments_on_point():
    pt = projective_model()
    group = FiniteAbelianGroup([])
    problem = IndexProblem(pt, group, (), SymbolData({(): pt.one()}))
    table = problem.moments(())
    assert table.values == {(): Fraction(1)}


def test_cp1_moments_vanish_past_dimension():
    cp1 = projective_model(x=1)
    gens = [InvariantGeneratorDecl("P", 1, parse_expression("2*x", cp1))]
    group = FiniteAbelianGroup([2])
    symbol = SymbolData({(0,): cp1.one()})
    problem = IndexProblem(cp1, group, gens, symbol)
    table = problem.moments((0,), max_degree=3)
    assert table.values[(1,)] == 2
    assert table.values[(2,)] == 0
    assert table.values[(3,)] == 0


def test_sphere_euler_style_generator():
    sphere = build_model(2, [("v", 2)], [("v^2", "0")], ("v", 1))
    tangent = BundleData("TS", 1, pontryagin=[sphere.zero()], model=sphere)
    gens = [
        InvariantGeneratorDecl("P1", 1, sphere.zero()),
        InvariantGeneratorDecl("E", 1, parse_expression("2*v", sphere)),
    ]
    problem = dirac_problem(sphere, tangent, gens)
    table = problem.moments((0,))
    assert table.mass() == 0
    assert table.values[(1, 0)] == 0
    assert table.values[(0, 1)] == 2


# ---------------------------------------------------------------------------
# full distributions


def test_k3_like_dirac_distribution_masses():
    (result,) = run(parse_scenario(builtin_scenario_text("k3_like_dirac")))
    tables = result.payload.tables
    assert tables[(0,)].mass() == 2
    assert tables[(1,)].mass() == -2
    assert sum(table.mass() for table in tables.values()) == 0


def test_trivial_character_symbol_gives_identical_tables():
    cp2 = projective_model(x=2)
    group = FiniteAbelianGroup([4])
    symbol = SymbolData({(0,): parse_expression("1 + x", cp2)})
    problem = IndexProblem(cp2, group, (), symbol)
    dist = problem.full_distribution()
    tables = list(dist.tables.values())
    for table in tables[1:]:
        assert table.values == tables[0].values


def test_z4_bracket_scaling():
    cp2 = projective_model(x=2)
    group = FiniteAbelianGroup([4])
    tangent = projective_tangent(cp2)
    genus = a_hat(tangent)
    symbol = SymbolData({(1,): parse_expression("x^2", cp2)})
    problem = IndexProblem(cp2, group, (), symbol, genus * genus)
    dist = problem.full_distribution()
    base = (genus * genus * parse_expression("x^2", cp2)).integrate()
    assert base == 1
    zeta = Cyclotomic.root_of_unity(4)
    assert dist.tables[(0,)].mass() == 1
    assert dist.tables[(1,)].mass() == zeta
    assert dist.tables[(2,)].mass() == -1
    assert dist.tables[(3,)].mass() == Cyclotomic.root_of_unity(4, 3)


def test_distribution_linearity():
    cp2 = projective_model(x=2)
    group = FiniteAbelianGroup([2])
    rng = random.Random(61)

    def random_components():
        return {
            (k,): CohClass(cp2, {(d,): Fraction(rng.randint(-3, 3)) for d in range(3)})
            for k in range(2)
        }

    for _ in range(10):
        c1, c2 = random_components(), random_components()
        p1 = IndexProblem(cp2, group, (), SymbolData(c1))
        p2 = IndexProblem(cp2, group, (), SymbolData(c2))
        p12 = IndexProblem(cp2, group, (), SymbolData({k: c1[k] + c2[k] for k in c1}))
        d1, d2, d12 = p1.full_distribution(), p2.full_distribution(), p12.full_distribution()
        for gamma in group.elements():
            for key in d12.tables[gamma].values:
                assert d12.tables[gamma].values[key] == (
                    d1.tables[gamma].values[key] + d2.tables[gamma].values[key]
                )


def test_reconstruction_identity_explicit():
    """Moments at gamma equal the bracket-weighted sum of the identity
    moments of the single-character restrictions."""
    cp2 = projective_model(x=2)
    group = FiniteAbelianGroup([2, 2])
    rng = random.Random(67)
    components = {
        chi: CohClass(cp2, {(d,): Fraction(rng.randint(-4, 4)) for d in range(3)})
        for chi in group.elements()
    }
    symbol = SymbolData(components)
    tangent = projective_tangent(cp2)
    genus = a_hat(tangent)
    problem = IndexProblem(cp2, group, (), symbol, genus * genus)
    for gamma in group.elements():
        direct = problem.moments(gamma)
        for key in direct.values:
            combined = Fraction(0)
            for chi, u_chi in symbol.components.items():
                restricted = IndexProblem(
                    cp2, group, (), SymbolData({chi: u_chi}), genus * genus
                )
                weight = bracket(group, chi, gamma)
                combined = combined + weight * restricted.moments(group.identity()).values[key]
            assert demote(combined) == direct.values[key]


# ---------------------------------------------------------------------------
# single-character (projective) distributions


def test_projective_single_character_matches_full():
    # the projective form: the identity table scaled by the bracket at gamma
    cp2 = projective_model(x=2)
    group = FiniteAbelianGroup([3])
    symbol = SymbolData({(1,): parse_expression("x^2 + 1", cp2)})
    problem = IndexProblem(cp2, group, (), symbol)
    dist = problem.full_distribution()
    base = dist.tables[group.identity()].values
    for gamma, table in dist.tables.items():
        weight = bracket(group, (1,), gamma)
        assert table.values == {key: demote(weight * value) for key, value in base.items()}


def test_projective_bracket_masses_z3():
    pt = projective_model()
    group = FiniteAbelianGroup([3])
    symbol = SymbolData({(1,): pt.one() * Fraction(5, 7)})
    problem = IndexProblem(pt, group, (), symbol)
    dist = problem.full_distribution()
    zeta = Cyclotomic.root_of_unity(3)
    assert dist.tables[(0,)].mass() == Fraction(5, 7)
    assert dist.tables[(1,)].mass() == zeta * Fraction(5, 7)
    assert dist.tables[(2,)].mass() == Cyclotomic.root_of_unity(3, 2) * Fraction(5, 7)
    assert sum(table.mass() for table in dist.tables.values()) == 0


@pytest.mark.parametrize("order", [2, 3, 4, 6])
def test_projective_mass_balance(order):
    cp2 = projective_model(x=2)
    group = FiniteAbelianGroup([order])
    symbol = SymbolData({(1,): parse_expression("1 - x + x^2", cp2)})
    tangent = projective_tangent(cp2)
    genus = a_hat(tangent)
    problem = IndexProblem(cp2, group, (), symbol, genus * genus)
    assert sum(table.mass() for table in problem.full_distribution().tables.values()) == 0


# ---------------------------------------------------------------------------
# character pairings with a trivial center


def hopf_problem():
    cp1 = projective_model(x=1)
    group = FiniteAbelianGroup([])
    u = todd_class(projective_tangent(cp1))  # a-hat square is 1 on a surface
    symbol = SymbolData({(): u})
    return cp1, IndexProblem(cp1, group, (), symbol)


def test_hopf_riemann_roch_values():
    cp1, problem = hopf_problem()
    system = WeightSystem("torus", [parse_expression("x", cp1)])
    assert problem.atiyah_pairing(system, 0) == 1
    assert problem.atiyah_pairing(system, 3) == 4
    assert problem.atiyah_pairing(system, -1) == 0
    assert problem.atiyah_pairing(system, -2) == -1


def test_trivial_center_degeneration():
    """With a trivial center the distribution is one table, and the unit
    bump pairing agrees with the trivial-weight character pairing."""
    cp1, problem = hopf_problem()
    dist = problem.full_distribution()
    assert list(dist.tables) == [()]
    system = WeightSystem("torus", [parse_expression("x", cp1)])
    assert problem.fractional_index(()) == problem.atiyah_pairing(system, 0)
    assert dist.tables[()].mass() == problem.fractional_index(())


# ---------------------------------------------------------------------------
# the two distribution routes against the bracket-weighted oracle


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _random_problem(cyclic_orders, seed):
    """CP^3 with its a-hat square, generators of degrees 2 and 4, and a
    random rational symbol on a random subset of the characters.  A string
    seed fixes the symbol's shape instead, over one cyclic factor:
    "coprime" puts a different prime denominator on every character;
    "cancel" puts u on the trivial character and -u on the one of order
    two, so their bucket is zero wherever both brackets agree, next to a
    random component on character 1 unless that is the one of order two;
    "empty" declares no component."""
    cp3 = projective_model(x=3)
    group = FiniteAbelianGroup(cyclic_orders)
    rng = random.Random(seed)

    def random_class(den=None):
        return CohClass(
            cp3, {(d,): Fraction(rng.randint(-9, 9), den or rng.randint(1, 9)) for d in range(4)}
        )

    components = {}
    if seed == "coprime":
        components = {chi: random_class(p) for chi, p in zip(group.elements(), _PRIMES)}
    elif seed == "cancel":
        u = random_class()
        components = {(1,): random_class(), (0,): u, (cyclic_orders[0] // 2,): u * -1}
    elif seed != "empty":
        for chi in group.elements():
            if rng.random() < 0.8:
                components[chi] = random_class()
    gens = [
        InvariantGeneratorDecl("L", 1, parse_expression("2/3*x", cp3)),
        InvariantGeneratorDecl("Q", 2, parse_expression("-5*x^2", cp3)),
    ]
    genus = a_hat(projective_tangent(cp3))
    return IndexProblem(cp3, group, gens, SymbolData(components), genus * genus)


@pytest.mark.parametrize(
    "cyclic_orders,seed",
    [
        ([5], 1), ([5], 2), ([8], 3), ([2, 2], 4), ([6, 4], 5), ([], 6),
        ([1], 10), ([2], 11), ([3], 12), ([12], 13),
        ([2], "coprime"), ([12], "coprime"),
        ([2], "cancel"), ([12], "cancel"),
        ([2], "empty"), ([12], "empty"),
    ],
)
def test_full_distribution_matches_bracket_oracle(cyclic_orders, seed):
    problem = _random_problem(cyclic_orders, seed)
    distribution = problem.full_distribution()
    keys = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
    assert list(distribution.tables) == problem.group.elements()
    for gamma, table in distribution.tables.items():
        assert sorted(table.values) == sorted(keys)
        for key, value in table.values.items():
            _assert_matches_oracle(problem, gamma, key, value)


def _multi_term_problem(cyclic_orders, images, seed=23):
    """CP^2 x CP^1 with its a-hat square, generators L and Q of s_degrees 1
    and 2 with the given image texts, and random rational components on
    the first three elements of the group."""
    model = projective_model(x=2, y=1)
    group = FiniteAbelianGroup(cyclic_orders)
    rng = random.Random(seed)
    monomials = model.monomials_up_to(model.dimension)
    components = {
        chi: CohClass(model, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for m in monomials})
        for chi in group.elements()[:3]
    }
    gens = [
        InvariantGeneratorDecl(name, degree, parse_expression(text, model))
        for name, degree, text in zip("LQ", (1, 2), images)
    ]
    genus = a_hat(projective_tangent(model))
    return IndexProblem(model, group, gens, SymbolData(components), genus * genus)


_MULTI_TERM_IMAGES = [
    ("x + y", "x^2 - 3*x*y"),
    ("1/2*x + 1/3*y", "1/4*x^2 - 3/5*x*y"),
    ("x + 1/3*y", "7/6*x^2 + y*x"),
]


@pytest.mark.parametrize(
    "cyclic_orders,images",
    [
        pytest.param(orders, images, id=f"cyclic_orders{k}{suffix}")
        for k, orders in enumerate([[2], [5], [6, 4]])
        for images, suffix in zip(_MULTI_TERM_IMAGES, ["", "-fractional", "-mixed"])
    ],
)
def test_multi_term_images_match_bracket_oracle(cyclic_orders, images):
    # on CP^2 x CP^1 the images of L and Q have several monomials, so a
    # key's numerators combine several rows of M and several columns of
    # the recombined route, over the image denominator when it is not 1
    problem = _multi_term_problem(cyclic_orders, images)
    assert max(len(image) for _, image, _ in problem._monomial_images(3)) >= 2
    dens = {den for _, image, den in problem._monomial_images(3) if len(image) >= 2}
    assert (dens == {1}) == (images == _MULTI_TERM_IMAGES[0])
    for gamma, table in problem.full_distribution().tables.items():
        for key, value in table.values.items():
            _assert_matches_oracle(problem, gamma, key, value)


def test_oracle_cases_reach_the_shapes_they_name():
    # pairwise coprime denominators: every character keeps its own prime
    coprime = _random_problem([12], "coprime").symbol.components.values()
    assert sorted(u.denominator for u in coprime) == list(_PRIMES)
    # the cancelling pair shares bucket 0 at gamma = 2 in Z/12 and sums to
    # zero there, so each row is the one of character 1 (bucket 2) alone
    problem = _random_problem([12], "cancel")
    buckets = _bucket_oracle(problem, (2,), 3).values()
    assert all(row[0] == 0 for row in buckets) and any(row[2] for row in buckets)
    rows = _row_numerators(problem, (2,), 3)
    assert rows == _numerator_oracle(problem, (2,), 3)
    alone = SymbolData({(1,): problem.symbol.components[(1,)]})
    alone = IndexProblem(
        problem.model, problem.group, problem.generators, alone, problem.a_hat_squared
    )
    assert rows == _row_numerators(alone, (2,), 3) and any(any(row) for row in rows.values())
    problem = _random_problem([2], "cancel")
    rows = problem.reduced_integrand((0,), 3)
    assert rows and all(row == [0] for row in rows.values())
    assert _row_numerators(problem, (0,), 3) == _numerator_oracle(problem, (0,), 3)
    # no component: every row is deg(Phi_12) zeros
    problem = _random_problem([12], "empty")
    assert not problem.symbol.components
    rows = problem.reduced_integrand((5,), 3)
    assert rows and all(row == [0] * 4 for row in rows.values())
    assert _row_numerators(problem, (5,), 3) == _numerator_oracle(problem, (5,), 3)


@pytest.mark.parametrize("cyclic_orders,character", [([3], (1,)), ([12], (5,)), ([6, 4], (1, 3))])
def test_mms_projective_matches_bracket_oracle(cyclic_orders, character):
    problem = _random_problem(cyclic_orders, 20)
    u = next(iter(problem.symbol.components.values()))
    group = problem.group
    problem = IndexProblem(
        problem.model, group, problem.generators, SymbolData({character: u}),
        problem.a_hat_squared,
    )
    distribution = problem.full_distribution()
    assert list(distribution.tables) == group.elements()
    for gamma, table in distribution.tables.items():
        for key, value in table.values.items():
            _assert_matches_oracle(problem, gamma, key, value)


@pytest.mark.parametrize("cyclic_orders", [[5], [2]])
def test_perturbed_per_character_table_is_caught(monkeypatch, cyclic_orders):
    problem = _random_problem(cyclic_orders, 7)
    original = IndexProblem._character_columns

    def perturbed(self, max_degree):
        columns = original(self, max_degree)
        key = next(iter(columns))
        numerators, den = columns[key]
        # the first character's entry for the first key, plus 1/7
        numerators = [7 * n for n in numerators]
        numerators[0] += den
        columns[key] = (numerators, 7 * den)
        return columns

    monkeypatch.setattr(IndexProblem, "_character_columns", perturbed)
    with pytest.raises(InternalConsistencyError, match="routes disagree"):
        problem.full_distribution()


def test_perturbed_per_character_table_is_caught_in_an_mms_projective_task(monkeypatch):
    original = IndexProblem._character_columns

    def perturbed(self, max_degree):
        # every entry of the single character's column, plus 1/7
        columns = original(self, max_degree)
        for key, (numerators, den) in columns.items():
            columns[key] = ([7 * n + den for n in numerators], 7 * den)
        return columns

    monkeypatch.setattr(IndexProblem, "_character_columns", perturbed)
    scenario = parse_scenario(builtin_scenario_text("gamma4_character_sum"))
    with pytest.raises(InternalConsistencyError, match="routes disagree"):
        run(scenario)


@pytest.mark.parametrize("cyclic_orders", [[2], [5], [6, 4]])
def test_perturbed_direct_matrix_is_caught(monkeypatch, cyclic_orders):
    # only the direct route reads the matrix M of `_moment_rows`
    problem = _random_problem(cyclic_orders, 7)
    assert problem.symbol.components
    original = IndexProblem._moment_rows

    def perturbed(self, max_degree):
        # the first character's entry of the first row, plus 1 over M's denominator
        rows, den = original(self, max_degree)
        first, row = next(iter(rows.items()))
        return {**rows, first: [row[0] + 1, *row[1:]]}, den

    monkeypatch.setattr(IndexProblem, "_moment_rows", perturbed)
    with pytest.raises(InternalConsistencyError, match="routes disagree"):
        problem.full_distribution()


@pytest.mark.parametrize("cyclic_orders", [[2], [5], [6, 4]])
def test_faulty_root_conversion_is_caught(monkeypatch, cyclic_orders):
    # the direct route reads zeta^(k+1) where it should read zeta^k
    import fracindex.engine as engine

    problem = _random_problem(cyclic_orders, 8)
    original = engine.power_residues

    def shifted(order):
        rows = original(order)
        return (*rows[1:], rows[0])

    monkeypatch.setattr(engine, "power_residues", shifted)
    with pytest.raises(InternalConsistencyError, match="routes disagree"):
        problem.full_distribution()


def test_monomial_images_are_computed_once_per_degree_bound():
    problem = _random_problem([2, 2], 9)
    problem.full_distribution()
    images = problem._monomial_images(3)
    problem.full_distribution(3)
    assert problem._monomial_images(3) is images
    assert problem._monomial_images(1) is not images


def test_problems_on_one_model_share_the_monomial_images(monkeypatch):
    import fracindex.engine as engine

    calls = []
    monkeypatch.setattr(
        engine, "chern_weil_eval", lambda *args: calls.append(args[1]) or chern_weil_eval(*args)
    )
    cp2, first = cp2_dirac_problem()
    chern = [parse_expression("3*x", cp2), parse_expression("3*x^2", cp2)]
    tangent = BundleData("T", 3, chern=chern, model=cp2)
    second = dirac_problem(cp2, tangent, first.generators)
    assert first.full_distribution() == second.full_distribution()
    assert calls == [2]
    # equal generator images share the table entry; other images or bounds do not
    image = parse_expression("3*x^2", cp2)
    same = [InvariantGeneratorDecl(g.name, 2, image) for g in first.generators]
    dirac_problem(cp2, tangent, same).full_distribution()
    other = [InvariantGeneratorDecl("Q", 2, parse_expression("x^2", cp2))]
    dirac_problem(cp2, tangent, other).full_distribution()
    second.full_distribution(1)
    assert calls == [2, 2, 1]
    # the model keeps integers only: a class kept on its own model would tie
    # it into a reference cycle that only the garbage collector frees
    for images in cp2._images.values():
        assert all(type(den) is int and not isinstance(num, CohClass) for _, num, den in images)


def test_equal_images_built_in_another_term_order_share_one_entry(monkeypatch):
    import fracindex.engine as engine

    calls = []
    monkeypatch.setattr(
        engine, "chern_weil_eval", lambda *args: calls.append(args[1]) or chern_weil_eval(*args)
    )
    model = build_model(4, [("x", 2), ("y", 2)], [("x^2", "0"), ("y^2", "0")], ("x*y", 1))
    xy, yx = parse_expression("x + y", model), parse_expression("y + x", model)
    assert xy == yx and list(xy.numerators) != list(yx.numerators)
    group = FiniteAbelianGroup([2])
    symbol = SymbolData({(1,): parse_expression("1 + x*y", model)})
    tables = [
        IndexProblem(model, group, [InvariantGeneratorDecl("L", 1, image)], symbol).moments((1,))
        for image in (xy, yx)
    ]
    assert tables[0] == tables[1]
    assert calls == [2] and len(model._images) == 1


def test_corrupted_structure_constant_is_caught():
    # CP^3 over Z/3, a symbol supported on 1 and x, one generator with
    # image x: the recombined route multiplies the image x^3 of L^3 by the
    # constant term of a-hat^2 * u, reading the product-table entry (x^3, 1);
    # the direct route reads (a, x^i) for the terms a of a-hat^2 = 1 + c x^2
    # and (m, b) for the support monomials m, so never (x^3, 1)
    cp3 = projective_model(x=3)
    group = FiniteAbelianGroup([3])
    components = {
        (0,): parse_expression("1 + 2*x", cp3),
        (1,): parse_expression("-3 + 1/2*x", cp3),
        (2,): parse_expression("5/7 - x", cp3),
    }
    gens = [InvariantGeneratorDecl("L", 1, parse_expression("x", cp3))]
    genus = a_hat(projective_tangent(cp3))
    symbol, square = SymbolData(components), genus * genus
    IndexProblem(cp3, group, gens, symbol, square).full_distribution()
    row = cp3._products[cp3._index[(3,)]]
    d, pairs = row[cp3._index[(0,)]]
    row[cp3._index[(0,)]] = (d, tuple((m, 2 * n) for m, n in pairs))
    cp3._images.clear()  # the images are recomputed from the corrupted table
    with pytest.raises(InternalConsistencyError, match="routes disagree"):
        IndexProblem(cp3, group, gens, symbol, square).full_distribution()


@pytest.mark.parametrize("cyclic_orders", [[2], [5], [6, 4]])
def test_faulty_bracket_is_caught(monkeypatch, cyclic_orders):
    # the recombined route weights each bracket group by `bracket`, which
    # the direct route never calls: zeta^(k+1) in place of zeta^k must show,
    # over Z/2 (zeta = -1) as over the cyclotomic centers
    import fracindex.engine as engine

    problem = _random_problem(cyclic_orders, 13)
    monkeypatch.setattr(
        engine,
        "bracket",
        lambda group, chi, gamma: Cyclotomic.root_of_unity(
            group.exponent, bracket_exponent_by_reduction(group, chi, gamma) + 1
        ),
    )
    with pytest.raises(InternalConsistencyError, match="routes disagree"):
        problem.full_distribution()


def _caught_table_corruptions(problem):
    """Double each product-table entry (m1, m2) of the problem's CP^n,
    deg m1 + deg m2 <= 2n, in turn (`caught_corruptions`): (entries, how
    many of them raise InternalConsistencyError)."""
    model = problem.model
    (top,) = model._monomials[model._fundamental]
    index = [model._index[(a,)] for a in range(top + 1)]
    entries = []
    for a in range(top + 1):
        row = model._products.setdefault(index[a], {})
        for b in range(top + 1 - a):
            row.setdefault(index[b], model.normal_form((a + b,)))
            entries.append((row, index[b]))

    def doubled(entry):
        d, pairs = entry
        return d, tuple((m, 2 * n) for m, n in pairs)

    return len(entries), caught_corruptions(problem, entries, doubled)


def test_corrupted_product_table_entries_are_caught():
    # CP^6 over Z/6 x Z/4 with a four-term symbol component on every
    # character (1, x, x^3, x^6), one generator L with image c*x and the
    # a-hat square.  The routes read different entries, so a corruption
    # only one of them reads is caught; exactly 17 of the 28 are
    cp6 = projective_model(x=6)
    group = FiniteAbelianGroup([6, 4])
    rng = random.Random(14)

    def coefficient():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))

    components = {
        chi: CohClass(cp6, {(d,): coefficient() for d in (0, 1, 3, 6)}) for chi in group.elements()
    }
    gens = [InvariantGeneratorDecl("L", 1, CohClass(cp6, {(1,): coefficient()}))]
    genus = a_hat(projective_tangent(cp6))
    problem = IndexProblem(cp6, group, gens, SymbolData(components), genus * genus)
    entries, caught = _caught_table_corruptions(problem)
    assert entries == 28
    assert caught == 17


def _cp16_dirac_problem():
    """The projective Dirac problem on CP^16 with two generators of s_degree
    2 and images c*x^2."""
    cp16 = projective_model(x=16)
    gens = [
        InvariantGeneratorDecl("P1", 2, parse_expression("3*x^2", cp16)),
        InvariantGeneratorDecl("P2", 2, parse_expression("-1/2*x^2", cp16)),
    ]
    return dirac_problem(cp16, projective_tangent(cp16), gens)


def test_chern_weil_eval_multiplies_only_keys_within_the_dimension_on_cp16(monkeypatch):
    # P1^a * P2^b has an image of degree 4(a + b): the 45 keys with a + b <= 8
    # are live, each but the unit one class product from a lower key, and
    # the other 108 of the 153 vanish by degree with no product
    problem = _cp16_dirac_problem()
    products = []
    multiply = CohClass.__mul__

    def counting(self, other):
        if isinstance(other, CohClass):
            products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(CohClass, "__mul__", counting)
    images = chern_weil_eval(problem.generators, 16, problem.model)
    assert len(images) == 153 and len(products) == 44
    assert [key for key, image in images.items() if not image.is_zero()] == [
        key for key in images if sum(key) <= 8
    ]


def test_corrupted_product_table_entries_are_caught_on_cp16():
    # exactly 42 of the 153 corruptions are caught
    entries, caught = _caught_table_corruptions(_cp16_dirac_problem())
    assert entries == 153
    assert caught == 42


def _cp1_power_dirac_problem():
    """The projective Dirac problem on (CP^1)^4 with one generator of
    s_degree 1 and image a + b + c + d."""
    model = projective_model(a=1, b=1, c=1, d=1)
    gens = [InvariantGeneratorDecl("L", 1, parse_expression("a + b + c + d", model))]
    return dirac_problem(model, projective_tangent(model), gens)


@pytest.mark.parametrize("make", [_cp16_dirac_problem, _cp1_power_dirac_problem])
def test_only_basis_monomials_enter_the_index(make):
    # a product above the dimension, or one that reaches a relation with
    # a zero right side (x^17 on CP^16, a^2 * b on (CP^1)^4), is the dead
    # form before any rewriting and never gets an index
    problem = make()
    problem.full_distribution()
    model = problem.model
    powers = {i: power for i, (power, _) in model.relations.items()}
    for mono, i in model._index.items():
        assert model._degrees[i] <= model.dimension
        assert all(mono[g] < power for g, power in powers.items()), mono


def test_only_nonzero_image_keys_reach_the_root_of_unity_conversion(monkeypatch):
    # of the 153 keys P1^a P2^b on CP^16, the 45 with a + b <= 8 have a
    # nonzero image c*x^(2(a+b)); each is made a scalar once per element of
    # Z/2, and the other 108 are the exact 0 without a conversion
    import fracindex.engine as engine

    calls = []
    original = engine.residue_scalar
    monkeypatch.setattr(
        engine, "residue_scalar", lambda *args: calls.append(args[0]) or original(*args)
    )
    distribution = _cp16_dirac_problem().full_distribution()
    assert calls == [2] * 90
    for table in distribution.tables.values():
        assert len(table.values) == 153
        zero = [key for key in table.values if sum(key) > 8]
        assert len(zero) == 108 and all(table.values[key] == 0 for key in zero)


def test_both_routes_pair_once_per_image_monomial(monkeypatch):
    # the 45 nonzero-image keys P1^a P2^b on CP^16 share 9 image monomials
    # x^(2(a+b)), a + b <= 8: the recombined route pairs the one symbol
    # component with those 9, not with the 45 key images, and the direct
    # route pairs a-hat^2 * e_i with the support once for each of the 9,
    # one row of its matrix each, one entry for the one component; the
    # recombined route reduces one column per image monomial, 9, and one in
    # its `_pairings` call, where one per key would make 46
    import fracindex.engine as engine

    problem = _cp16_dirac_problem()
    original = IndexProblem._pairings
    targets = []
    monkeypatch.setattr(
        IndexProblem,
        "_pairings",
        lambda self, integrand, t: targets.append(list(t)) or original(self, integrand, t),
    )
    column, reduced = engine._column, []
    monkeypatch.setattr(engine, "_column", lambda pairs: reduced.append(pairs) or column(pairs))
    columns = problem._character_columns(8)
    assert len(columns) == 45
    assert len(targets) == 1 and len(reduced) == 10
    monomials = sorted(problem.model._monomials[i] for i in targets[0])
    assert monomials == [(2 * d,) for d in range(9)]
    rows, _ = problem._moment_rows(8)
    assert sorted(rows) == sorted(targets[0])
    assert all(len(row) == 1 for row in rows.values()) and len(targets) == 1 + 9


@pytest.mark.parametrize(
    "make,cyclic_orders,arg",
    [
        (_random_problem, [5], 1),
        (_random_problem, [12], "coprime"),
        (_random_problem, [6, 4], 5),
        (_random_problem, [2], "empty"),
        *[(_multi_term_problem, [6, 4], images) for images in _MULTI_TERM_IMAGES],
    ],
    ids=["z5", "coprime", "z6z4", "empty", "integral", "fractional", "mixed"],
)
def test_recombined_columns_match_a_per_key_oracle(make, cyclic_orders, arg):
    # each key's column is the pairings of a-hat^2 * u_chi * image by class
    # arithmetic, one Fraction per component, put over one denominator in
    # lowest terms; the route compare would also accept an unreduced column
    problem = make(cyclic_orders, arg)
    model, square = problem.model, problem.a_hat_squared
    columns = problem._character_columns(3)
    expected = {}
    for key, image, den in problem._monomial_images(3):
        if image:
            image = CohClass(model, {model._monomials[i]: Fraction(n, den) for i, n in image.items()})
            values = [(square * u * image).integrate() for u in problem.symbol.components.values()]
            expected[key] = _column([(v.numerator, v.denominator) for v in values])
    assert columns == expected


def test_full_distribution_builds_no_class_by_the_validating_constructor(monkeypatch):
    # each dual goes through the unit row by the product kernel, not through
    # two CohClass(...) calls and a class product; the unit-row catches stay
    # (test_corrupted_product_table_entries_are_caught*)
    problem = _cp16_dirac_problem()
    built = []
    original = CohClass.__init__
    monkeypatch.setattr(
        CohClass, "__init__", lambda self, *args: built.append(args) or original(self, *args)
    )
    problem.full_distribution()
    assert problem._duals
    assert built == []


@pytest.mark.parametrize(
    "make", [lambda: _random_problem([6, 4], 5), _cp16_dirac_problem], ids=["z6z4", "cp16"]
)
def test_moments_builds_no_class_per_gamma(monkeypatch, make):
    # with the matrix M built, a moment table only combines integers: no
    # class is built, summed or paired at any element
    import fracindex.cohomology as cohomology
    import fracindex.engine as engine

    problem = make()
    max_degree = problem.model.dimension // 2
    problem._moment_rows(max_degree)
    calls = []

    def counted(name, original):
        return lambda *args: calls.append(name) or original(*args)

    # engine imports `_class` by name, so both names are counted
    for owner in (cohomology, engine):
        monkeypatch.setattr(owner, "_class", counted("_class", owner._class))
    monkeypatch.setattr(cohomology, "class_sum", counted("class_sum", cohomology.class_sum))
    monkeypatch.setattr(IndexProblem, "_pairings", counted("_pairings", IndexProblem._pairings))
    for gamma in problem.group.elements():
        problem.moments(gamma)
    assert calls == []


# the direct route once per Galois orbit, the bracket exponents once per problem


@pytest.mark.parametrize(
    "cyclic_orders,orbits",
    [([2], 2), ([5], 2), ([8], 4), ([12], 6), ([2, 2, 3], 8), ([6, 4], 12)],
)
def test_conjugated_tables_equal_the_direct_route(monkeypatch, cyclic_orders, orbits):
    # the tables off each orbit's first element are sigma_a of its table;
    # each must equal the direct route run at that element itself
    problem = _random_problem(cyclic_orders, 21)
    original = IndexProblem.moments
    seen = []
    monkeypatch.setattr(
        IndexProblem, "moments", lambda self, gamma, *rest: seen.append(gamma) or original(self, gamma, *rest)
    )
    distribution = problem.full_distribution()
    assert len(seen) == orbits
    assert list(distribution.tables) == problem.group.elements()
    for gamma, table in distribution.tables.items():
        assert table == original(problem, gamma)


@pytest.mark.parametrize("cyclic_orders", [[6, 4], [12]])
def test_faulty_galois_conjugate_is_caught(monkeypatch, cyclic_orders):
    # zeta -> zeta^(a+1) in place of zeta -> zeta^a must show in the route compare
    import fracindex.engine as engine

    original = engine.galois_conjugate
    monkeypatch.setattr(engine, "galois_conjugate", lambda value, a: original(value, a + 1))
    with pytest.raises(InternalConsistencyError, match="routes disagree"):
        _random_problem(cyclic_orders, 22).full_distribution()


# the recombined route's packed dot products


_PACKING_ORDERS = (1, 2, 3, 4, 12, 105, 385)


def _large_residue_exponents(order):
    """The exponents k whose `power_residues` row has an entry of the largest
    size: 1 up to N = 104, 2 from N = 105, 3 at N = 385."""
    rows = power_residues(order)
    largest = max(max(map(abs, row)) for row in rows)
    return [k for k, row in enumerate(rows) if largest in map(abs, row)]


def _residue_rows(order, exponents):
    """The rows the recombined route dots with its columns at an element of
    this exponent row: row i holds numerator i of zeta_N^k for each k, and
    with no component there are deg Phi_N empty rows."""
    residues = power_residues(order)
    return list(zip(*[residues[k] for k in exponents])) or [()] * len(residues[0])


@st.composite
def _packing_cases(draw):
    """An order N, the rows at a drawn exponent row of 0..5 characters
    (exponents with the largest residue entry drawn often), and 1..16 columns
    of that length: entries up to 10^40 in size, all zero, or signed entries
    whose sizes sum to exactly a power of two."""
    order = draw(st.sampled_from(_PACKING_ORDERS))
    count = draw(st.integers(0, 5))
    exponent = st.one_of(
        st.sampled_from(_large_residue_exponents(order)), st.integers(0, order - 1)
    )
    rows = _residue_rows(order, draw(st.lists(exponent, min_size=count, max_size=count)))
    entries = st.lists(st.integers(-(10**40), 10**40), min_size=count, max_size=count)
    columns = []
    for shape in draw(st.lists(st.sampled_from(["any", "zero", "power"]), min_size=1, max_size=16)):
        if shape == "any":
            columns.append(draw(entries))
        elif shape == "zero" or not count:
            columns.append([0] * count)
        else:  # 2^m cut into count parts, each with a sign
            total = 1 << draw(st.integers(0, 140))
            cuts = sorted(draw(st.lists(st.integers(0, total), min_size=count - 1, max_size=count - 1)))
            parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
            columns.append([draw(st.sampled_from((1, -1))) * part for part in parts])
    return order, rows, columns


@given(_packing_cases())
@settings(max_examples=150, deadline=None)
# 3 * (2^22 - 1) = 12,582,909 needs two bits more than 2^22 - 1 and a sign
# bit: 25 bits, 4-byte slots; the column sum's 22 bits plus 2 would give
# 3-byte slots, and the last slot would overflow into the one above
@example((385, _residue_rows(385, [_large_residue_exponents(385)[0]]), [[0], [2**22 - 1]]))
@example((105, _residue_rows(105, _large_residue_exponents(105)[:2]), [[2**40, -(2**40)], [0, 0]]))
@example((12, _residue_rows(12, []), [[], []]))  # no component
@example((4, _residue_rows(4, [1, 3]), [[2**70, 0]]))  # one column, its sizes sum to 2^70
def test_packed_products_equal_plain_dot_products(case):
    order, rows, columns = case
    plain = [[sum(map(mul, row, column)) for row in rows] for column in columns]
    assert list(map(list, _packed_products(columns, power_residues(order))(rows))) == plain


def test_packed_slot_one_bit_too_narrow_is_caught(monkeypatch):
    # times 185, the bound of `_slot_width` is 25 bits, so slots take 4
    # bytes; one bit less rounds to 3 bytes, which hold only [-2^23, 2^23),
    # and one dot product is 9,529,165 (no entry reaches 2^23): that slot
    # overflows into the one above and the recombined vector is wrong, while
    # the direct route, which does not pack, is right
    import fracindex.engine as engine

    problem = _random_problem([6, 4], 13)
    components = {chi: u * 185 for chi, u in problem.symbol.components.items()}
    problem = IndexProblem(
        problem.model, problem.group, problem.generators, SymbolData(components),
        problem.a_hat_squared,
    )
    original, widths = engine._slot_width, []

    def narrow(*args):
        widths.append(original(*args))
        return widths[-1] - 1

    monkeypatch.setattr(engine, "_slot_width", narrow)
    with pytest.raises(InternalConsistencyError, match="routes disagree"):
        problem.full_distribution()
    assert widths == [25]
    monkeypatch.setattr(engine, "_slot_width", original)
    problem.full_distribution()


def test_center_workload_runs_the_direct_route_once_per_orbit(monkeypatch):
    # center_z6z4: 24 characters over Z/6 x Z/4, whose 24 elements form 12
    # orbits under the units {1, 5, 7, 11} mod 12
    import fracindex.engine as engine
    from test_output_digests import _workloads

    scenario = parse_scenario(json.dumps(_workloads().document("center_z6z4", 0)))
    moments, exponents = IndexProblem.moments, engine.bracket_exponents
    calls = {"moments": 0, "bracket_exponents": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(IndexProblem, "moments", counted("moments", moments))
    monkeypatch.setattr(engine, "bracket_exponents", counted("bracket_exponents", exponents))
    run(scenario)
    # one exponent row per element, shared by both routes
    assert calls == {"moments": 12, "bracket_exponents": 24}


@pytest.mark.parametrize("cyclic_orders", [[2], [5], [12], [6, 4], [2, 2, 3]])
def test_exponent_rows_match_the_reduction_oracle(cyclic_orders):
    # a component on every character, so each row covers the character group
    cp1 = projective_model(x=1)
    group = FiniteAbelianGroup(cyclic_orders)
    characters = group.elements()
    problem = IndexProblem(cp1, group, (), SymbolData({chi: cp1.one() for chi in characters}))
    for gamma in group.elements():
        row = problem._bracket_exponents(gamma)
        assert row == [bracket_exponent_by_reduction(group, chi, gamma) for chi in characters]
