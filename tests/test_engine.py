"""The index distribution engine: pairings, moments, distributions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracindex.characteristic import BundleData, a_hat
from fracindex.cohomology import CohClass, ManifoldModel, build_model, parse_expression, scalar_class
from fracindex.engine import (
    EngineError,
    IndexProblem,
    InternalConsistencyError,
    MomentTable,
    SymbolData,
    dirac_problem,
)
from fracindex.groups import (
    FiniteAbelianGroup,
    InvariantGeneratorDecl,
    WeightSystem,
    bracket,
    bracket_exponent,
    chern_weil_eval,
)
from fracindex.scalars import Cyclotomic
from fracindex.scenarios import builtin_scenario_text, parse_scenario, run

from oracles import (
    a_hat_series_oracle,
    cpn_integral,
    cpn_mul,
    evaluate_series_at_x,
    fractional_index_oracle,
    projective_model,
    projective_tangent,
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
    tangent = BundleData("TK", 2, chern=[model.zero(), parse_expression("24*q", model)])
    return model, dirac_problem(model, tangent)


# ---------------------------------------------------------------------------
# reduced integrands


def test_reduced_integrand_trivial_symbol():
    cp2 = projective_model(x=2)
    group = FiniteAbelianGroup([2])
    tangent = projective_tangent(cp2)
    genus = a_hat(tangent)
    symbol = SymbolData(group, {(0,): cp2.one()})
    problem = IndexProblem(cp2, group, (), symbol, genus * genus)
    assert problem.reduced_integrand((0,)) == {0: cp2.one()}
    assert problem.reduced_integrand((1,)) == {0: cp2.one()}


def test_reduced_integrand_dirac_identity_is_a_hat():
    # the bucket is the inverse a-hat class; with the a-hat square it is a-hat
    cp2, problem = cp2_dirac_problem()
    genus = a_hat(projective_tangent(cp2))
    assert problem.reduced_integrand((0,)) == {0: genus.inverse()}
    assert problem.a_hat_squared * problem.reduced_integrand((0,))[0] == genus


def test_reduced_integrand_dirac_flips_sign():
    # the inverse a-hat class sits in the bucket of zeta_2^1 = -1
    cp2, problem = cp2_dirac_problem()
    genus = a_hat(projective_tangent(cp2))
    assert problem.reduced_integrand((1,)) == {1: genus.inverse()}
    assert problem.a_hat_squared * problem.reduced_integrand((1,))[1] == genus


def test_reduced_integrand_buckets_components_by_bracket_exponent():
    problem = _random_problem([6, 4], 10)
    group = problem.group
    for gamma in group.elements():
        buckets = problem.reduced_integrand(gamma)
        expected = {}
        for chi, u_chi in problem.symbol.components.items():
            k = bracket_exponent(group, chi, gamma)
            expected[k] = expected.get(k, problem.model.zero()) + u_chi
        assert buckets == expected


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
    problem = IndexProblem(pt, group, (), SymbolData(group, {(): pt.one()}))
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
    # P1^2 has cohomological weight 8 > 4
    image = chern_weil_eval(problem.generators, 2, cp2)[(2, 0)]
    for bucket in problem.reduced_integrand((0,)).values():
        assert (bucket * image).integrate() == 0
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
    problem = IndexProblem(model, group, (), SymbolData(group, components), square)
    gamma = tuple(draw(st.integers(-2 * order, 2 * order)) for order in group.cyclic_orders)
    return problem, gamma


@settings(max_examples=60, deadline=None)
@given(case=_index_problems())
def test_fractional_index_matches_unit_bump_oracle(case):
    problem, gamma = case
    assert problem.fractional_index(gamma) == fractional_index_oracle(problem, gamma)


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
    problem = IndexProblem(pt, group, (), SymbolData(group, {(): pt.one()}))
    table = problem.moments(())
    assert table.values == {(): Fraction(1)}


def test_cp1_moments_vanish_past_dimension():
    cp1 = projective_model(x=1)
    gens = [InvariantGeneratorDecl("P", 1, parse_expression("2*x", cp1))]
    group = FiniteAbelianGroup([2])
    symbol = SymbolData(group, {(0,): cp1.one()})
    problem = IndexProblem(cp1, group, gens, symbol)
    table = problem.moments((0,), max_degree=3)
    assert table.values[(1,)] == 2
    assert table.values[(2,)] == 0
    assert table.values[(3,)] == 0


def test_sphere_euler_style_generator():
    sphere = build_model(2, [("v", 2)], [("v^2", "0")], ("v", 1))
    tangent = BundleData("TS", 1, pontryagin=[sphere.zero()])
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
    symbol = SymbolData(group, {(0,): parse_expression("1 + x", cp2)})
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
    symbol = SymbolData(group, {(1,): parse_expression("x^2", cp2)})
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
        p1 = IndexProblem(cp2, group, (), SymbolData(group, c1))
        p2 = IndexProblem(cp2, group, (), SymbolData(group, c2))
        p12 = IndexProblem(cp2, group, (), SymbolData(group, {k: c1[k] + c2[k] for k in c1}))
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
    symbol = SymbolData(group, components)
    tangent = projective_tangent(cp2)
    genus = a_hat(tangent)
    problem = IndexProblem(cp2, group, (), symbol, genus * genus)
    for gamma in group.elements():
        direct = problem.moments(gamma)
        for key in direct.values:
            combined = Fraction(0)
            for chi, u_chi in symbol.components.items():
                restricted = IndexProblem(
                    cp2, group, (), SymbolData(group, {chi: u_chi}), genus * genus
                )
                weight = bracket(group, chi, gamma)
                combined = combined + weight * restricted.moments(group.identity()).values[key]
            from fracindex.scalars import demote

            assert demote(combined) == direct.values[key]


# ---------------------------------------------------------------------------
# single-character (projective) distributions


def test_projective_single_character_matches_full():
    cp2 = projective_model(x=2)
    group = FiniteAbelianGroup([3])
    symbol = SymbolData(group, {(1,): parse_expression("x^2 + 1", cp2)})
    problem = IndexProblem(cp2, group, (), symbol)
    assert problem.mms_projective().tables == problem.full_distribution().tables


def test_projective_bracket_masses_z3():
    pt = projective_model()
    group = FiniteAbelianGroup([3])
    symbol = SymbolData(group, {(1,): scalar_class(pt, Fraction(5, 7))})
    problem = IndexProblem(pt, group, (), symbol)
    dist = problem.mms_projective()
    zeta = Cyclotomic.root_of_unity(3)
    assert dist.tables[(0,)].mass() == Fraction(5, 7)
    assert dist.tables[(1,)].mass() == Fraction(5, 7) * zeta
    assert dist.tables[(2,)].mass() == Fraction(5, 7) * Cyclotomic.root_of_unity(3, 2)
    assert sum(table.mass() for table in dist.tables.values()) == 0


@pytest.mark.parametrize("order", [2, 3, 4, 6])
def test_projective_mass_balance(order):
    cp2 = projective_model(x=2)
    group = FiniteAbelianGroup([order])
    symbol = SymbolData(group, {(1,): parse_expression("1 - x + x^2", cp2)})
    tangent = projective_tangent(cp2)
    genus = a_hat(tangent)
    problem = IndexProblem(cp2, group, (), symbol, genus * genus)
    assert sum(table.mass() for table in problem.mms_projective().tables.values()) == 0


def test_projective_requires_single_component():
    cp2 = projective_model(x=2)
    group = FiniteAbelianGroup([2])
    symbol = SymbolData(group, {(0,): cp2.one(), (1,): cp2.one()})
    problem = IndexProblem(cp2, group, (), symbol)
    with pytest.raises(EngineError, match="single character"):
        problem.mms_projective()


# ---------------------------------------------------------------------------
# character pairings with a trivial center


def hopf_problem():
    cp1 = projective_model(x=1)
    group = FiniteAbelianGroup([])
    u = todd_class(projective_tangent(cp1))  # a-hat square is 1 on a surface
    symbol = SymbolData(group, {(): u})
    return cp1, IndexProblem(cp1, group, (), symbol)


def test_hopf_riemann_roch_values():
    cp1, problem = hopf_problem()
    system = WeightSystem("torus", [parse_expression("x", cp1)])
    assert problem.atiyah_pairing(system, 0) == 1
    assert problem.atiyah_pairing(system, 3) == 4
    assert problem.atiyah_pairing(system, -1) == 0
    assert problem.atiyah_pairing(system, -2) == -1


def test_atiyah_pairing_rejects_nontrivial_center():
    cp2, problem = cp2_dirac_problem()
    system = WeightSystem("torus", [parse_expression("x", cp2)])
    with pytest.raises(EngineError, match="trivial"):
        problem.atiyah_pairing(system, 1)


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
# validation


def test_symbol_reduces_character_exponents():
    cp1 = projective_model(x=1)
    group = FiniteAbelianGroup([2])
    symbol = SymbolData(group, {(3,): cp1.one()})
    assert list(symbol.components) == [(1,)]


def test_problem_rejects_model_mismatch():
    cp1 = projective_model(x=1)
    cp2 = projective_model(x=2)
    group = FiniteAbelianGroup([2])
    symbol = SymbolData(group, {(0,): cp1.one()})
    with pytest.raises(EngineError):
        IndexProblem(cp2, group, (), symbol)


def test_problem_rejects_group_mismatch():
    cp1 = projective_model(x=1)
    symbol = SymbolData(FiniteAbelianGroup([2]), {(0,): cp1.one()})
    with pytest.raises(EngineError):
        IndexProblem(cp1, FiniteAbelianGroup([3]), (), symbol)


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
        components = {(1,): random_class(), (0,): u, (cyclic_orders[0] // 2,): -u}
    elif seed != "empty":
        for chi in group.elements():
            if rng.random() < 0.8:
                components[chi] = random_class()
    gens = [
        InvariantGeneratorDecl("L", 1, parse_expression("2/3*x", cp3)),
        InvariantGeneratorDecl("Q", 2, parse_expression("-5*x^2", cp3)),
    ]
    genus = a_hat(projective_tangent(cp3))
    return IndexProblem(cp3, group, gens, SymbolData(group, components), genus * genus)


def _oracle_moment(problem, gamma, key):
    """sum over characters of bracket(chi, gamma) * int(a_hat^2 u_chi image)
    in Cyclotomic arithmetic."""
    image = problem.model.one()
    for gen, e in zip(problem.generators, key):
        image = image * gen.image**e
    total = Cyclotomic.from_rational(0, problem.group.exponent)
    for chi, u_chi in problem.symbol.components.items():
        value = (problem.a_hat_squared * u_chi * image).integrate()
        total = total + bracket(problem.group, chi, gamma) * value
    return total


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
            assert value == _oracle_moment(problem, gamma, key)
            assert isinstance(value, Fraction) == _oracle_moment(problem, gamma, key).is_rational()


def test_oracle_cases_reach_the_shapes_they_name():
    # pairwise coprime denominators: every character keeps its own prime
    coprime = _random_problem([12], "coprime").symbol.components.values()
    assert sorted(u.denominator for u in coprime) == list(_PRIMES)
    # the cancelling pair shares bucket 0 at gamma = 2 in Z/12 and sums to zero there
    buckets = _random_problem([12], "cancel").reduced_integrand((2,))
    assert buckets[0].is_zero() and not buckets[2].is_zero()
    assert _random_problem([2], "cancel").reduced_integrand((0,))[0].is_zero()
    assert not _random_problem([12], "empty").symbol.components


@pytest.mark.parametrize("cyclic_orders,character", [([3], (1,)), ([12], (5,)), ([6, 4], (1, 3))])
def test_mms_projective_matches_bracket_oracle(cyclic_orders, character):
    problem = _random_problem(cyclic_orders, 20)
    u = next(iter(problem.symbol.components.values()))
    group = problem.group
    problem = IndexProblem(
        problem.model, group, problem.generators, SymbolData(group, {character: u}),
        problem.a_hat_squared,
    )
    distribution = problem.mms_projective()
    assert list(distribution.tables) == group.elements()
    for gamma, table in distribution.tables.items():
        for key, value in table.values.items():
            expected = _oracle_moment(problem, gamma, key)
            assert value == expected
            assert isinstance(value, Fraction) == expected.is_rational()
    assert distribution.tables == problem.full_distribution().tables


def test_perturbed_per_character_table_is_caught(monkeypatch):
    problem = _random_problem([5], 7)
    original = IndexProblem._per_character_tables

    def perturbed(self, max_degree):
        tables = original(self, max_degree)
        chi, table = next(iter(tables.items()))
        values = dict(table.values)
        key = next(iter(values))
        values[key] += Fraction(1, 7)
        tables[chi] = MomentTable(table.gamma, table.generator_names, values)
        return tables

    monkeypatch.setattr(IndexProblem, "_per_character_tables", perturbed)
    with pytest.raises(InternalConsistencyError, match="routes disagree"):
        problem.full_distribution()


def test_faulty_root_conversion_is_caught(monkeypatch):
    import fracindex.engine as engine

    problem = _random_problem([5], 8)
    original = engine.root_of_unity_sum
    monkeypatch.setattr(
        engine,
        "root_of_unity_sum",
        lambda order, weights, *rest: original(order, {k + 1: w for k, w in weights.items()}, *rest),
    )
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
    tangent = BundleData("T", 3, chern=chern)
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


def test_corrupted_structure_constant_is_caught(monkeypatch):
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
    problem = IndexProblem(cp3, group, gens, SymbolData(group, components), genus * genus)
    original = ManifoldModel._product_entry

    def corrupted(self, m1, m2):
        d, pairs = original(self, m1, m2)
        if (m1, m2) == ((3,), (0,)):
            pairs = [(m, 2 * n) for m, n in pairs]
        return d, pairs

    monkeypatch.setattr(ManifoldModel, "_product_entry", corrupted)
    cp3._products.clear()
    with pytest.raises(InternalConsistencyError, match="routes disagree"):
        problem.full_distribution()
