"""The index distribution engine: pairings, moments, distributions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fracindex.characteristic import BundleData, a_hat, projective_tangent_bundle, todd_class
from fracindex.cohomology import (
    CohClass,
    build_model,
    parse_expression,
    point_model,
    projective_space_model,
)
from fracindex.engine import (
    EngineError,
    IndexDistribution,
    IndexProblem,
    InternalConsistencyError,
    MomentTable,
    SymbolData,
    dirac_problem,
    projective_dirac,
)
from fracindex.groups import (
    FiniteAbelianGroup,
    InvariantGeneratorDecl,
    TestJet,
    WeightSystem,
    bracket,
    bracket_exponent,
)
from fracindex.scalars import Cyclotomic

from oracles import a_hat_series_oracle, cpn_integral, cpn_mul, evaluate_series_at_x


def cp2_dirac_problem():
    cp2 = projective_space_model(2)
    gens = [
        InvariantGeneratorDecl("P1", 2, parse_expression("3*x^2", cp2)),
        InvariantGeneratorDecl("E", 2, parse_expression("3*x^2", cp2)),
    ]
    return cp2, dirac_problem(cp2, projective_tangent_bundle(cp2), gens)


def k3_like_dirac_problem():
    model = build_model(4, [("q", 4)], [], ("q", 1))
    tangent = BundleData("TK", 2, chern=[model.zero(), parse_expression("24*q", model)])
    return model, dirac_problem(model, tangent)


# ---------------------------------------------------------------------------
# reduced integrands


def test_reduced_integrand_trivial_symbol():
    cp2 = projective_space_model(2)
    group = FiniteAbelianGroup([2])
    tangent = projective_tangent_bundle(cp2)
    genus = a_hat(tangent)
    symbol = SymbolData(group, {(0,): cp2.one()})
    problem = IndexProblem(cp2, group, (), symbol, genus * genus)
    assert problem.reduced_integrand((0,)) == {0: genus * genus}
    assert problem.reduced_integrand((1,)) == {0: genus * genus}


def test_reduced_integrand_dirac_identity_is_a_hat():
    cp2, problem = cp2_dirac_problem()
    assert problem.reduced_integrand((0,)) == {0: a_hat(projective_tangent_bundle(cp2))}


def test_reduced_integrand_dirac_flips_sign():
    # the a-hat class sits in the bucket of zeta_2^1 = -1
    cp2, problem = cp2_dirac_problem()
    assert problem.reduced_integrand((1,)) == {1: a_hat(projective_tangent_bundle(cp2))}


def test_reduced_integrand_buckets_components_by_bracket_exponent():
    problem = _random_problem([6, 4], 10)
    group, square = problem.group, problem.a_hat_squared
    for gamma in group.elements():
        buckets = problem.reduced_integrand(gamma)
        expected = {}
        for chi, u_chi in problem.symbol.components.items():
            k = bracket_exponent(group, chi, gamma)
            expected[k] = expected.get(k, problem.model.zero()) + square * u_chi
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
    pt = point_model()
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
    assert problem.pair_with_jet((0,), TestJet.monomial(("P1", 2))) == 0


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
    pt = point_model()
    group = FiniteAbelianGroup([])
    problem = IndexProblem(pt, group, (), SymbolData(group, {(): pt.one()}))
    table = problem.moments(())
    assert table.values == {(): Fraction(1)}


def test_cp1_moments_vanish_past_dimension():
    cp1 = projective_space_model(1)
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


def test_dirac_distribution_antisymmetry():
    cp2, _ = cp2_dirac_problem()
    gens = [
        InvariantGeneratorDecl("P1", 2, parse_expression("3*x^2", cp2)),
        InvariantGeneratorDecl("E", 2, parse_expression("3*x^2", cp2)),
    ]
    dist = projective_dirac(cp2, projective_tangent_bundle(cp2), gens)
    plus, minus = dist.table((0,)), dist.table((1,))
    assert plus.mass() == Fraction(-1, 8)
    assert minus.mass() == Fraction(1, 8)
    for key, value in plus.values.items():
        assert minus.values[key] == -value


def test_k3_like_dirac_distribution_masses():
    model, _ = k3_like_dirac_problem()
    tangent = BundleData("TK", 2, chern=[model.zero(), parse_expression("24*q", model)])
    dist = projective_dirac(model, tangent)
    assert dist.mass((0,)) == 2
    assert dist.mass((1,)) == -2
    assert dist.total_mass() == 0


def test_trivial_character_symbol_gives_identical_tables():
    cp2 = projective_space_model(2)
    group = FiniteAbelianGroup([4])
    symbol = SymbolData(group, {(0,): parse_expression("1 + x", cp2)})
    problem = IndexProblem(cp2, group, (), symbol)
    dist = problem.full_distribution()
    tables = list(dist.tables.values())
    for table in tables[1:]:
        assert table.values == tables[0].values


def test_z4_bracket_scaling():
    cp2 = projective_space_model(2)
    group = FiniteAbelianGroup([4])
    tangent = projective_tangent_bundle(cp2)
    genus = a_hat(tangent)
    symbol = SymbolData(group, {(1,): parse_expression("x^2", cp2)})
    problem = IndexProblem(cp2, group, (), symbol, genus * genus)
    dist = problem.full_distribution()
    base = (genus * genus * parse_expression("x^2", cp2)).integrate()
    assert base == 1
    zeta = Cyclotomic.root_of_unity(4)
    assert dist.mass((0,)) == 1
    assert dist.mass((1,)) == zeta
    assert dist.mass((2,)) == -1
    assert dist.mass((3,)) == Cyclotomic.root_of_unity(4, 3)


def test_distribution_linearity():
    cp2 = projective_space_model(2)
    group = FiniteAbelianGroup([2])
    rng = random.Random(61)

    def random_symbol():
        return SymbolData(
            group,
            {
                (k,): CohClass(
                    cp2, {(d,): Fraction(rng.randint(-3, 3)) for d in range(3)}
                )
                for k in range(2)
            },
        )

    for _ in range(10):
        s1, s2 = random_symbol(), random_symbol()
        p1 = IndexProblem(cp2, group, (), s1)
        p2 = IndexProblem(cp2, group, (), s2)
        p12 = IndexProblem(cp2, group, (), s1 + s2)
        d1, d2, d12 = p1.full_distribution(), p2.full_distribution(), p12.full_distribution()
        for gamma in group.elements():
            for key in d12.table(gamma).values:
                assert d12.table(gamma).values[key] == (
                    d1.table(gamma).values[key] + d2.table(gamma).values[key]
                )


def test_reconstruction_identity_explicit():
    """Moments at gamma equal the bracket-weighted sum of the identity
    moments of the single-character restrictions."""
    cp2 = projective_space_model(2)
    group = FiniteAbelianGroup([2, 2])
    rng = random.Random(67)
    components = {
        chi: CohClass(cp2, {(d,): Fraction(rng.randint(-4, 4)) for d in range(3)})
        for chi in group.characters()
    }
    symbol = SymbolData(group, components)
    tangent = projective_tangent_bundle(cp2)
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
    cp2 = projective_space_model(2)
    group = FiniteAbelianGroup([3])
    symbol = SymbolData(group, {(1,): parse_expression("x^2 + 1", cp2)})
    problem = IndexProblem(cp2, group, (), symbol)
    assert problem.mms_projective().tables == problem.full_distribution().tables


def test_projective_bracket_masses_z3():
    pt = point_model()
    group = FiniteAbelianGroup([3])
    symbol = SymbolData(group, {(1,): scalar_times_one(pt, Fraction(5, 7))})
    problem = IndexProblem(pt, group, (), symbol)
    dist = problem.mms_projective()
    zeta = Cyclotomic.root_of_unity(3)
    assert dist.mass((0,)) == Fraction(5, 7)
    assert dist.mass((1,)) == Fraction(5, 7) * zeta
    assert dist.mass((2,)) == Fraction(5, 7) * Cyclotomic.root_of_unity(3, 2)
    assert dist.total_mass() == 0


def scalar_times_one(model, value):
    return CohClass(model, {model.zero_monomial(): value})


@pytest.mark.parametrize("order", [2, 3, 4, 6])
def test_projective_mass_balance(order):
    cp2 = projective_space_model(2)
    group = FiniteAbelianGroup([order])
    symbol = SymbolData(group, {(1,): parse_expression("1 - x + x^2", cp2)})
    tangent = projective_tangent_bundle(cp2)
    genus = a_hat(tangent)
    problem = IndexProblem(cp2, group, (), symbol, genus * genus)
    assert problem.mms_projective().total_mass() == 0


def test_projective_requires_single_component():
    cp2 = projective_space_model(2)
    group = FiniteAbelianGroup([2])
    symbol = SymbolData(group, {(0,): cp2.one(), (1,): cp2.one()})
    problem = IndexProblem(cp2, group, (), symbol)
    with pytest.raises(EngineError, match="single character"):
        problem.mms_projective()


# ---------------------------------------------------------------------------
# character pairings with a trivial center


def hopf_problem():
    cp1 = projective_space_model(1)
    group = FiniteAbelianGroup([])
    u = todd_class(projective_tangent_bundle(cp1))  # a-hat square is 1 on a surface
    symbol = SymbolData(group, {(): u})
    return cp1, IndexProblem(cp1, group, (), symbol)


def test_hopf_riemann_roch_values():
    cp1, problem = hopf_problem()
    system = WeightSystem("torus", [cp1.generator_class("x")])
    assert problem.atiyah_pairing(system, 0) == 1
    assert problem.atiyah_pairing(system, 3) == 4
    assert problem.atiyah_pairing(system, -1) == 0
    assert problem.atiyah_pairing(system, -2) == -1


def test_atiyah_pairing_rejects_nontrivial_center():
    cp2, problem = cp2_dirac_problem()
    system = WeightSystem("torus", [cp2.generator_class("x")])
    with pytest.raises(EngineError, match="trivial"):
        problem.atiyah_pairing(system, 1)


def test_trivial_center_degeneration():
    """With a trivial center the distribution is one table, and the unit
    bump pairing agrees with the trivial-weight character pairing."""
    cp1, problem = hopf_problem()
    dist = problem.full_distribution()
    assert list(dist.tables) == [()]
    system = WeightSystem("torus", [cp1.generator_class("x")])
    assert problem.fractional_index(()) == problem.atiyah_pairing(system, 0)
    assert dist.table(()).mass() == problem.fractional_index(())


# ---------------------------------------------------------------------------
# validation


def test_symbol_reduces_character_exponents():
    cp1 = projective_space_model(1)
    group = FiniteAbelianGroup([2])
    symbol = SymbolData(group, {(3,): cp1.one()})
    assert list(symbol.components) == [(1,)]


def test_problem_rejects_model_mismatch():
    cp1 = projective_space_model(1)
    cp2 = projective_space_model(2)
    group = FiniteAbelianGroup([2])
    symbol = SymbolData(group, {(0,): cp1.one()})
    with pytest.raises(EngineError):
        IndexProblem(cp2, group, (), symbol)


def test_problem_rejects_group_mismatch():
    cp1 = projective_space_model(1)
    symbol = SymbolData(FiniteAbelianGroup([2]), {(0,): cp1.one()})
    with pytest.raises(EngineError):
        IndexProblem(cp1, FiniteAbelianGroup([3]), (), symbol)


def test_total_mass_starts_from_the_first_mass(monkeypatch):
    zeta = Cyclotomic.root_of_unity(4)
    group = FiniteAbelianGroup([4])
    tables = {(k,): MomentTable((k,), (), {(): Cyclotomic.root_of_unity(4, k)}) for k in range(4)}
    assert IndexDistribution(group, tables).total_mass() == 0
    assert IndexDistribution(group, {}).total_mass() == 0

    # a single cyclotomic mass is returned as is, not promoted from a
    # rational zero
    built = []
    original = Cyclotomic.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    single = IndexDistribution(group, {(1,): tables[(1,)]})
    monkeypatch.setattr(Cyclotomic, "__init__", counted)
    assert single.total_mass() == zeta
    assert built == []


# ---------------------------------------------------------------------------
# the two distribution routes against the bracket-weighted oracle


def _random_problem(cyclic_orders, seed):
    """CP^3 with its a-hat square, generators of degrees 2 and 4, and a
    random rational symbol on a random subset of the characters."""
    cp3 = projective_space_model(3)
    group = FiniteAbelianGroup(cyclic_orders)
    rng = random.Random(seed)
    components = {}
    for chi in group.characters():
        if rng.random() < 0.8:
            components[chi] = CohClass(
                cp3, {(d,): Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in range(4)}
            )
    gens = [
        InvariantGeneratorDecl("L", 1, parse_expression("2/3*x", cp3)),
        InvariantGeneratorDecl("Q", 2, parse_expression("-5*x^2", cp3)),
    ]
    genus = a_hat(projective_tangent_bundle(cp3))
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
    [([5], 1), ([5], 2), ([8], 3), ([2, 2], 4), ([6, 4], 5), ([], 6)],
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
        lambda order, weights: original(order, {k + 1: w for k, w in weights.items()}),
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
