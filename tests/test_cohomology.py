"""Cohomology ring models: normal forms, integration, products, parsing."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracindex.cohomology import (
    CohClass,
    ExpressionError,
    ManifoldModel,
    ModelError,
    build_model,
    parse_expression,
    parse_terms,
    evaluate_series,
    scalar_class,
)
from fracindex.characteristic import newton_power_sums
from fracindex.scalars import Cyclotomic

from oracles import (
    cpn_integral,
    cpn_mul,
    declaration,
    exhaustive_normal_forms,
    has_rewrite_cycle,
    oracle_add,
    oracle_integrate,
    oracle_inverse,
    oracle_mul,
    oracle_newton_power_sums,
    oracle_pow,
    oracle_product,
    oracle_reduce,
    parse_terms_oracle,
    projective_model,
)


@pytest.fixture
def cp1():
    return projective_model(x=1)


@pytest.fixture
def cp2():
    return projective_model(x=2)


# ---------------------------------------------------------------------------
# reduction


def test_relation_truncates_cp2(cp2):
    assert parse_expression("x^3", cp2).is_zero()
    assert parse_expression("x^2", cp2) == parse_expression("x", cp2) ** 2


def test_binomial_expansion_reduces(cp2):
    cls = parse_expression("(1+x)^3", cp2)
    assert cls == parse_expression("1 + 3*x + 3*x^2", cp2)


def test_product_monomial_is_irreducible():
    model = projective_model(x=1, y=1)
    cls = parse_expression("x*y", model)
    assert len(cls.terms) == 1
    assert cls.integrate() == 1


def test_degree_above_dimension_vanishes(cp1):
    assert parse_expression("x^2", cp1).is_zero()
    assert (parse_expression("x", cp1) * parse_expression("x", cp1)).is_zero()


def test_nontrivial_relation_rhs():
    # one generator a (deg 2) with a^2 -> 2*b, b (deg 4) irreducible
    model = build_model(
        6,
        [("a", 2), ("b", 4)],
        [("a^2", "2*b")],
        ("a*b", 1),
    )
    assert parse_expression("a^2", model) == parse_expression("2*b", model)
    assert parse_expression("a^3", model) == parse_expression("2*a*b", model)
    assert parse_expression("a^4", model).is_zero()  # degree 8 > 6
    assert parse_expression("a^3", model).integrate() == 2


# ---------------------------------------------------------------------------
# exponential / inverse / integrate


def test_exponential_of_zero(cp2):
    assert cp2.zero().exponential() == 1


def test_exponential_truncates(cp2, cp1):
    x2 = parse_expression("x", cp2)
    assert x2.exponential() == parse_expression("1 + x + 1/2*x^2", cp2)
    x1 = parse_expression("x", cp1)
    assert x1.exponential() == parse_expression("1 + x", cp1)


def test_exponential_rejects_constant_term(cp2):
    with pytest.raises(ValueError):
        parse_expression("1 + x", cp2).exponential()


def test_inverse_geometric(cp2):
    assert cp2.one().inverse() == 1
    assert parse_expression("1 + x", cp2).inverse() == parse_expression("1 - x + x^2", cp2)
    assert parse_expression("1 - 1/8*x^2", cp2).inverse() == parse_expression("1 + 1/8*x^2", cp2)


def test_inverse_requires_unit(cp2):
    with pytest.raises(ValueError):
        parse_expression("x", cp2).inverse()
    with pytest.raises(ValueError):
        cp2.zero().inverse()


def test_inverse_of_scaled_unit(cp2):
    cls = parse_expression("2 + x", cp2)
    assert cls * cls.inverse() == 1


def test_integrate_picks_fundamental(cp2, cp1):
    assert cp2.one().integrate() == 0
    assert parse_expression("x^2", cp2).integrate() == 1
    assert parse_expression("1 + x", cp1).integrate() == 1


def test_orientation_scaling():
    model = build_model(2, [("v", 2)], [("v^2", "0")], ("v", Fraction(-1, 2)))
    assert parse_expression("v", model).integrate() == Fraction(-1, 2)
    assert parse_expression("4*v", model).integrate() == -2


def test_point_model_integration():
    pt = build_model(0, [], [])
    assert scalar_class(pt, Fraction(5, 3)).integrate() == Fraction(5, 3)
    assert pt.one().integrate() == 1


# ---------------------------------------------------------------------------
# product models


def test_product_of_lines_kunneth():
    model = projective_model(x=1, y=1)
    assert model.dimension == 4
    assert model.names == ("x", "y")
    assert parse_expression("x^2", model).is_zero()
    assert parse_expression("y^2", model).is_zero()
    assert parse_expression("x*y", model).integrate() == 1


def test_product_cp1_cp2_fundamental():
    model = projective_model(x=1, y=2)
    assert model.dimension == 6
    assert parse_expression("x*y^2", model).integrate() == 1
    assert parse_expression("y^3", model).is_zero()


def test_kunneth_integral_factorizes():
    m1 = projective_model(x=2)
    m2 = projective_model(y=1)
    prod = projective_model(x=2, y=1)
    rng = random.Random(7)
    for _ in range(20):
        a = CohClass(
            m1,
            {
                (k,): Fraction(rng.randint(-4, 4))
                for k in range(3)
            },
        )
        b = CohClass(m2, {(k,): Fraction(rng.randint(-4, 4)) for k in range(2)})
        lifted = parse_expression(a.to_expression(), prod) * parse_expression(
            b.to_expression(), prod
        )
        assert lifted.integrate() == a.integrate() * b.integrate()


# ---------------------------------------------------------------------------
# ring axioms on random reduced elements


def _random_class(model, rng, coeff_range=4):
    terms = {}
    for mono in model.monomials_up_to(model.dimension):
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            terms[mono] = Fraction(c)
    return CohClass(model, terms)


def test_ring_axioms_random():
    model = projective_model(x=2, y=1)
    rng = random.Random(11)
    for _ in range(25):
        a, b, c = (_random_class(model, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_integrate_is_linear_and_symmetric():
    model = projective_model(x=3)
    rng = random.Random(13)
    for _ in range(20):
        a, b = _random_class(model, rng), _random_class(model, rng)
        assert (a + b).integrate() == a.integrate() + b.integrate()
        assert (a * b).integrate() == (b * a).integrate()


def test_exponential_is_additive_on_nilpotents():
    model = projective_model(x=2, y=2)
    rng = random.Random(17)
    for _ in range(10):
        a = _random_class(model, rng)
        b = _random_class(model, rng)
        a = a - scalar_class(model, a.constant_term())
        b = b - scalar_class(model, b.constant_term())
        assert (a + b).exponential() == a.exponential() * b.exponential()


def test_inverse_times_self_is_one():
    model = projective_model(x=4)
    rng = random.Random(19)
    for _ in range(15):
        a = _random_class(model, rng) + 1 - scalar_class(model, _random_class(model, rng).constant_term())
        a = a + 1  # make the constant term 2 to exercise non-unit leading scalars
        assert a.inverse() * a == 1


def test_cp2_arithmetic_matches_list_oracle(cp2):
    rng = random.Random(23)
    for _ in range(20):
        a = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        b = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        cls_a = CohClass(cp2, {(k,): c for k, c in enumerate(a)})
        cls_b = CohClass(cp2, {(k,): c for k, c in enumerate(b)})
        product = cls_a * cls_b
        expected = cpn_mul(a, b, 2)
        assert [product.terms.get((k,), Fraction(0)) for k in range(3)] == expected
        assert product.integrate() == cpn_integral(expected, 2)


# ---------------------------------------------------------------------------
# cyclotomic coefficients


def test_cyclotomic_scalars_do_not_act_on_classes():
    cp1 = projective_model(x=1)
    cls = parse_expression("1 + x", cp1)
    zeta = Cyclotomic.root_of_unity(4)
    for combine in (
        lambda: cls * zeta,
        lambda: zeta * cls,
        lambda: cls + zeta,
        lambda: zeta - cls,
    ):
        with pytest.raises(TypeError):
            combine()
    # a rational-valued root of unity is still not a rational coefficient
    with pytest.raises(TypeError):
        cls * Cyclotomic.root_of_unity(2)


def test_class_requires_rational_coefficients():
    cp1 = projective_model(x=1)
    with pytest.raises(TypeError, match="rational"):
        CohClass(cp1, {(0,): Cyclotomic.root_of_unity(4)})
    with pytest.raises(TypeError, match="rational"):
        CohClass(cp1, {(1,): 0.5})
    assert CohClass(cp1, {(0,): 2, (1,): Fraction(1, 2)}).terms == {
        (0,): Fraction(2),
        (1,): Fraction(1, 2),
    }


# ---------------------------------------------------------------------------
# validation


def test_validation_rejects_odd_dimension():
    with pytest.raises(ModelError):
        build_model(3, [("x", 2)], [("x^2", "0")], ("x", 1))


def test_validation_rejects_odd_generator_degree():
    with pytest.raises(ModelError):
        build_model(2, [("x", 1)], [("x^3", "0")], ("x", 1))


def test_validation_rejects_degree_mismatch():
    with pytest.raises(ModelError, match="homogeneous"):
        build_model(4, [("x", 2)], [("x^3", "x")], ("x^2", 1))


def test_validation_rejects_reducible_fundamental():
    with pytest.raises(ModelError, match="irreducible"):
        build_model(4, [("x", 2)], [("x^2", "0")], ("x^2", 1))


def test_validation_rejects_fundamental_of_wrong_degree():
    with pytest.raises(ModelError):
        build_model(4, [("x", 2)], [("x^3", "0")], ("x", 1))


def test_validation_rejects_zero_orientation():
    with pytest.raises(ModelError):
        build_model(2, [("x", 2)], [("x^2", "0")], ("x", 0))


def test_validation_rejects_cyclic_relations():
    # a^2 -> b^2 -> a^2 never reaches a normal form; the load-time check
    # must reject it rather than loop
    with pytest.raises(ModelError, match="terminate"):
        build_model(
            4,
            [("a", 2), ("b", 2)],
            [("a^2", "b^2"), ("b^2", "a^2")],
            ("a*b", 1),
        )


def test_validation_rejects_duplicate_relation():
    with pytest.raises(ModelError, match="more than one relation"):
        build_model(
            4,
            [("x", 2)],
            [("x^2", "0"), ("x^3", "0")],
            ("x^2", 1),
        )


def test_confluent_multi_relation_model_loads():
    model = build_model(
        4,
        [("a", 2), ("b", 2)],
        [("a^2", "a*b"), ("b^2", "a*b")],
        ("a*b", 1),
    )
    # a^2 b^2 reduces the same way regardless of which relation fires first
    assert parse_expression("a^2*b^2", model).is_zero()
    assert parse_expression("a^2 + b^2", model).integrate() == 2


@st.composite
def _small_rewrite_systems(draw, rational=False):
    """Up to three generators of degree 2 or 4, pure-power relations with
    random homogeneous right sides (possibly the left side itself or zero),
    and an irreducible fundamental monomial of degree <= 8.  With
    `rational`, right-side coefficients may be proper fractions."""
    count = draw(st.integers(1, 3))
    degrees = [draw(st.sampled_from([2, 4])) for _ in range(count)]
    relations = {}
    for i in range(count):
        if not draw(st.booleans()):
            continue
        power = draw(st.integers(1, 3))
        target = power * degrees[i]
        candidates = [
            m
            for m in itertools.product(*(range(target // d + 1) for d in degrees))
            if sum(e * d for e, d in zip(m, degrees)) == target
        ]
        chosen = draw(st.lists(st.sampled_from(candidates), max_size=3, unique=True))
        rhs = {m: Fraction(draw(st.integers(-2, 2).filter(bool))) for m in chosen}
        if rational:
            rhs = {m: c / draw(st.integers(1, 3)) for m, c in rhs.items()}
        relations[i] = (power, rhs)
    fundamental = tuple(
        draw(st.integers(0, relations[i][0] - 1 if i in relations else 2)) for i in range(count)
    )
    dimension = sum(e * d for e, d in zip(fundamental, degrees))
    assume(dimension <= 8)
    return dimension, degrees, relations, fundamental


@settings(max_examples=300, deadline=None)
@given(_small_rewrite_systems())
def test_critical_pair_validation_matches_exhaustive_oracle(system):
    """A model loads exactly when its rewrite graph has no cycle, and then
    every rewrite order gives one normal form, the model's: termination
    alone makes these pure-power systems confluent."""
    dimension, degrees, relations, fundamental = system
    generators = [(f"g{i}", d) for i, d in enumerate(degrees)]
    try:
        model = ManifoldModel(dimension, generators, relations, fundamental, Fraction(1))
        error = None
    except ModelError as exc:
        error = str(exc)
    assert (error is None) != has_rewrite_cycle(dimension, degrees, relations)
    if error is not None:
        assert "terminate" in error
        return
    # these models have at most 35 monomials of degree <= 8, so a
    # terminating first-hit reduction takes far fewer than 2000 steps; the
    # oracle raises "not confluent" when two rewrite orders disagree
    forms = exhaustive_normal_forms(dimension, degrees, relations, step_cap=2_000)
    for mono, form in forms.items():
        d, pairs = model.normal_form(mono) or (1, ())  # () is the zero form
        assert {model._monomials[i]: Fraction(n, d) for i, n in pairs} == form


@st.composite
def _one_relation_systems(draw):
    """Two or three generators of degree 2 or 4 and one relation g0^k ->
    rational combination of monomials with lower g0 exponent, which fires
    below the dimension: structure constants with denominators."""
    degrees = [draw(st.sampled_from([2, 4])) for _ in range(draw(st.integers(2, 3)))]
    power = draw(st.integers(1, 3))
    target = power * degrees[0]
    candidates = [
        m
        for m in itertools.product(*(range(target // d + 1) for d in degrees))
        if sum(e * d for e, d in zip(m, degrees)) == target and m[0] < power
    ]
    assume(candidates)
    chosen = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3, unique=True))
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4))
    relations = {0: (power, {m: draw(coeff) for m in chosen})}
    fundamental = (draw(st.integers(0, power - 1)),) + tuple(
        draw(st.integers(0, 8 // d)) for d in degrees[1:]
    )
    dimension = sum(e * d for e, d in zip(fundamental, degrees))
    assume(target <= dimension <= 8)
    return dimension, degrees, relations, fundamental


@st.composite
def _models_with_classes(draw):
    """A valid small model (relations may have rational right sides), its
    plain declaration for the oracles, and two random classes given by
    rational coefficients on raw monomials."""
    systems = st.one_of(_small_rewrite_systems(rational=True), _one_relation_systems())
    dimension, degrees, relations, fundamental = draw(systems)
    orientation = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 4)))
    generators = [(f"g{i}", d) for i, d in enumerate(degrees)]
    try:
        model = ManifoldModel(dimension, generators, relations, fundamental, orientation)
    except ModelError:
        assume(False)
    decl = (dimension, degrees, relations, fundamental, orientation)
    monomials = model.monomials_up_to(dimension)
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    classes = [
        draw(st.dictionaries(st.sampled_from(monomials), coeff, max_size=5)) for _ in range(2)
    ]
    return model, decl, classes


def _assert_lowest_terms(cls):
    assert cls.denominator > 0
    assert all(cls.numerators.values())
    assert math.gcd(cls.denominator, *cls.numerators.values()) == 1
    if cls.is_zero():
        assert cls.denominator == 1
    monomials, degrees = cls.model._monomials, cls.model._degrees
    order = sorted(cls.numerators, key=lambda i: (degrees[i], monomials[i]))
    assert list(cls.terms) == [monomials[i] for i in order]


@settings(max_examples=200, deadline=None)
@given(
    _models_with_classes(),
    st.integers(0, 12),
    st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 4)]), min_size=1),
    st.integers(1, 4),
)
def test_integer_class_arithmetic_matches_fraction_oracle(case, n, series, max_k):
    model, decl, (ta, tb) = case
    a, b = CohClass(model, ta), CohClass(model, tb)
    ra, rb = oracle_reduce(decl, ta), oracle_reduce(decl, tb)
    unit = model._monomials[0]
    q = Fraction(3, 2)
    u = a - a.constant_term() + q  # a unit: constant term q
    ru = oracle_add(decl, {m: c for m, c in ra.items() if m != unit}, {unit: q})
    cases = [
        (a, ra),
        (b, rb),
        (a * b, oracle_mul(decl, ra, rb)),
        (a + b, oracle_add(decl, ra, rb)),
        (a * Fraction(-2, 3), {m: c * Fraction(-2, 3) for m, c in ra.items()}),
        (u, ru),
        (u.inverse(), oracle_inverse(decl, ru)),
        (u ** -2, oracle_pow(decl, oracle_inverse(decl, ru), 2)),
    ]
    cases += [(a**k, oracle_pow(decl, ra, k)) for k in range(4)]
    cases.append((a**n, oracle_pow(decl, ra, n)))
    # the series in the nilpotent part of a, its coefficients running out
    # before or after its powers vanish
    rn = {m: c for m, c in ra.items() if m != unit}
    expected: dict = {}
    for k, c in enumerate(series):
        expected = oracle_add(decl, expected, {m: c * v for m, v in oracle_pow(decl, rn, k).items()})
    cases.append((evaluate_series(series, a - a.constant_term()), expected))
    sums = newton_power_sums([a, b], max_k)
    cases += list(zip(sums, oracle_newton_power_sums(decl, [ra, rb], max_k), strict=True))
    for cls, expected in cases:
        assert dict(cls.terms) == expected
        assert cls.integrate() == oracle_integrate(decl, expected)
        _assert_lowest_terms(cls)
    # equality and hashing are structural
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert u * u.inverse() == 1
    assert (a - a).denominator == 1 and (a - a).is_zero()


# CP^n, (CP^1)^k, CP^2 x CP^1 and a model whose relations have nonzero,
# rational right sides; built once, so later examples read table entries
# and indices that earlier ones filled
_ORACLE_MODELS = (
    [projective_model(x=n) for n in range(1, 7)]
    + [projective_model(**{f"x{i}": 1 for i in range(k)}) for k in range(1, 5)]
    + [
        projective_model(x=2, y=1),
        build_model(4, [("x", 2), ("y", 2)], [("x^2", "1/2*x*y"), ("y^2", "1/3*x*y")], ("x*y", 1)),
    ]
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_class_product_and_integral_match_the_relation_oracle(data):
    # raw monomials up to one generator step above the dimension, so
    # reducible and vanishing terms enter both sides
    model = data.draw(st.sampled_from(_ORACLE_MODELS))
    monomials = model.monomials_up_to(model.dimension + 2)
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    ta, tb = [data.draw(st.dictionaries(st.sampled_from(monomials), coeff, max_size=6)) for _ in "ab"]
    product = CohClass(model, ta) * CohClass(model, tb)
    expected = oracle_product(model, ta, tb)
    assert dict(product.terms) == expected
    assert product.integrate() == oracle_integrate(declaration(model), expected)


def test_constant_classes_hash_as_their_fractions(cp2):
    # equal objects hash equal: a class with only a constant term equals
    # its Fraction, so it hashes as that Fraction
    half = scalar_class(cp2, Fraction(1, 2))
    assert cp2.one() == 1 and len({cp2.one(), 1}) == 1
    assert half == Fraction(1, 2) and len({half, Fraction(1, 2)}) == 1
    assert cp2.zero() == 0 and len({cp2.zero(), 0, Fraction(0)}) == 1
    assert len({cp2.one(), projective_model(x=1).one()}) == 2  # equal hashes, unequal classes
    x = parse_expression("x", cp2)
    assert len({x + 1, 1 + x, cp2.one()}) == 2


def test_build_model_leaves_the_product_table_empty():
    # (CP^1)^8 has 256 basis monomials; building it indexes the unit and the
    # fundamental monomial and fills no table entry, and a product fills
    # the entries it reads, not a row of the basis
    names = [f"x{i}" for i in range(8)]
    model = projective_model(**{name: 1 for name in names})
    assert model._products == {} and model._normal_cache == {}
    assert model._monomials == [(0,) * 8, (1,) * 8] and model._fundamental == 1
    x0, x1 = parse_expression("x0", model), parse_expression("x1", model)
    entries = sum(len(row) for row in model._products.values())
    product = x0 * x1
    assert sum(len(row) for row in model._products.values()) == entries + 1
    assert len(model._monomials) == 5  # the unit, x0*...*x7, x0, x1 and x0*x1
    assert product.terms == {(1, 1, 0, 0, 0, 0, 0, 0): 1}


def test_product_merges_structure_constant_denominators():
    # x*x and y*y reduce over denominators 2 and 3, x*y is integral
    model = build_model(
        4, [("x", 2), ("y", 2)], [("x^2", "1/2*x*y"), ("y^2", "1/3*x*y")], ("x*y", 1)
    )
    s = parse_expression("x + y", model)
    square = s * s
    assert square == parse_expression("17/6*x*y", model)
    assert (square.numerators, square.denominator) == ({model._index[(1, 1)]: 17}, 6)
    assert (s * 6) * (s * 6) == parse_expression("102*x*y", model)


def test_validation_work_depends_on_relations_not_on_monomials(monkeypatch):
    # the exhaustive walk would visit C(24, 12) = 2,704,156 raw monomials of
    # (CP^1)^12; validation searches the rewrite graph of the relations with
    # a nonzero right side, none here, and normal-forms nothing: the one
    # call is the parsed class below
    calls = []
    original = ManifoldModel.normal_form

    def counted(self, mono):
        calls.append(mono)
        return original(self, mono)

    monkeypatch.setattr(ManifoldModel, "normal_form", counted)
    names = [f"x{i}" for i in range(1, 13)]
    model = build_model(
        24, [(n, 2) for n in names], [(f"{n}^2", "0") for n in names], ("*".join(names), 1)
    )
    assert len(calls) <= 1
    assert parse_expression("*".join(names), model).integrate() == 1


# ---------------------------------------------------------------------------
# expression parsing


def test_parse_rational_coefficients(cp2):
    cls = parse_expression("1/2*x + 3*x^2 - 1/8", cp2)
    assert cls.terms[(1,)] == Fraction(1, 2)
    assert cls.terms[(2,)] == 3
    assert cls.terms[(0,)] == Fraction(-1, 8)


def test_parse_parentheses_and_unary_minus(cp2):
    assert parse_expression("-(1 - x)^2", cp2) == parse_expression("-1 + 2*x - x^2", cp2)


def test_parse_errors_carry_position(cp2):
    with pytest.raises(ExpressionError, match="position"):
        parse_expression("x + ", cp2)
    with pytest.raises(ExpressionError, match="unknown generator"):
        parse_expression("x + zz", cp2)
    with pytest.raises(ExpressionError, match="position"):
        parse_expression("x ^ 0", cp2)
    with pytest.raises(ExpressionError):
        parse_expression("x $ 2", cp2)
    with pytest.raises(ExpressionError, match="^unexpected character '²' at position 2$"):
        parse_expression("x^²", cp2)
    with pytest.raises(ExpressionError, match="^unexpected character '²' at position 5$"):
        parse_expression("x + 1²", cp2)
    with pytest.raises(ExpressionError, match="nested more than 100 deep at position 100$"):
        parse_expression("(" * 300 + "x" + ")" * 300, cp2)


def test_numbers_are_decimal_digits_of_any_script(cp2):
    assert parse_expression("٣*x", cp2) == parse_expression("3*x", cp2)
    assert parse_expression("x^٢", cp2) == parse_expression("x^2", cp2)


def test_parentheses_parse_up_to_the_nesting_cap(cp2):
    assert parse_expression("(" * 100 + "x" + ")" * 100, cp2) == parse_expression("x", cp2)


@pytest.mark.parametrize(
    "text", ["1" * 5000, "x^" + "1" * 5000, "1/" + "1" * 5000 + "*x", "(1 + x)^" + "2" * 5000]
)
def test_numbers_above_the_int_digit_limit_raise_expression_error(text):
    with pytest.raises(ExpressionError, match="5000 digits at position \\d+ is too long"):
        parse_expression(text, projective_model(x=1))


def test_expression_round_trip(cp2):
    for text in ["0", "1", "x", "1 - 1/8*x^2", "3*x + 2", "-x^2"]:
        cls = parse_expression(text, cp2)
        assert parse_expression(cls.to_expression(), cp2) == cls


def test_to_expression_deterministic(cp2):
    cls = parse_expression("x^2 + x + 1", cp2)
    assert cls.to_expression() == "1 + x + x^2"


def test_huge_powers_truncate_at_the_dimension(cp2):
    e = 99_999_999
    assert parse_expression(f"x^{e}", cp2).is_zero()
    assert parse_expression(f"(1+x)^{e}", cp2) == parse_expression(
        f"1 + {e}*x + {e * (e - 1) // 2}*x^2", cp2
    )
    assert parse_expression(f"(1 - x)^{e} * (x + 1)^{e}", cp2) == parse_expression(
        f"1 - {e}*x^2", cp2
    )


def test_power_of_a_large_constant_is_rejected(cp2):
    assert parse_expression("2^100 * x", cp2).terms == {(1,): Fraction(2**100)}
    with pytest.raises(ExpressionError, match="too large"):
        parse_expression("3^99999999", cp2)
    with pytest.raises(ExpressionError, match="too large"):
        parse_expression("(1/2 + x)^99999999", cp2)


def test_declaration_text_is_bounded_by_dimension_plus_generator_degree():
    # CP^2 relations may reach degree 4 + 2; the usual x^3 -> 0 lies within
    assert parse_expression("x^2", build_model(4, [("x", 2)], [("x^3", "0")], ("x^2", 1))) != 0
    for relation in [("x^4", "0"), ("x^99999999", "0"), ("x^3", "(1+x)^99999999")]:
        with pytest.raises(ExpressionError, match="exceeds the degree bound 6"):
            build_model(4, [("x", 2)], [relation], ("x^2", 1))


def test_a_zero_term_is_no_term_of_a_declaration():
    model = build_model(4, [("x", 2)], [("0 + x^3", "0")], ("0 + x^2", 1))
    assert model.relations == {0: (3, {})} and model.fundamental_monomial == (2,)
    with pytest.raises(ModelError, match=r"relations\[0\]\.lhs: must be a single monomial, got '0'"):
        build_model(4, [("x", 2)], [("0", "0")], ("x^2", 1))


def test_zero_relation_terms_are_not_stored():
    assert projective_model(x=2).relations == {0: (3, {})}


# -- the parser against the Fraction-dict oracle ---------------------------------

_PARSER_GENERATORS = [[("x", 2)], [("x", 2), ("y", 4)], [("a", 2), ("b", 2), ("c", 6)]]
_EXPONENTS = st.one_of(st.integers(1, 12), st.sampled_from([40_000, 99_999_999]))


def _expressions(generators):
    """Nested expressions over the generators, with zeros, fractions, unary
    minus and powers past every degree bound and past the constant guard."""
    atoms = st.one_of(
        st.sampled_from([name for name, _ in generators]),
        st.integers(0, 12).map(str),
        st.tuples(st.integers(0, 12), st.integers(1, 9)).map(lambda p: f"{p[0]}/{p[1]}"),
        st.tuples(st.sampled_from(["0", "1", "2", generators[0][0]]), _EXPONENTS).map(
            lambda t: f"{t[0]}^{t[1]}"
        ),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
            inner.map(lambda e: f"(-{e})"),
            inner.map(lambda e: f"({e})"),
            st.tuples(inner, _EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}"),
        )

    expressions = st.recursive(atoms, extend, max_leaves=10)
    return st.tuples(st.sampled_from(["", "-", "- "]), expressions).map("".join)


def _bounds(generators, cap):
    """(max_degree, truncate): any truncating bound up to the cap, and a
    non-truncating one of at least the largest generator degree, the only
    kind `build_model` passes."""
    top = max(degree for _, degree in generators)
    return st.booleans().flatmap(
        lambda truncate: st.tuples(st.integers(0 if truncate else top, cap), st.just(truncate))
    )


_EXPRESSION_CASES = st.one_of(
    [
        st.tuples(_expressions(g), st.just(g), _bounds(g, 16)).map(lambda c: (*c[:2], *c[2]))
        for g in _PARSER_GENERATORS
    ]
)


def _terms_or_message(parse, text, generators, max_degree, truncate):
    """Nonzero Fraction terms, or the message of the ExpressionError."""
    try:
        terms = parse(text, generators, max_degree, truncate)
    except ExpressionError as exc:
        return str(exc)
    if parse is parse_terms:
        num, den = terms
        assert den > 0 and 0 not in num.values() and math.gcd(den, *num.values()) == 1
        terms = {m: Fraction(c, den) for m, c in num.items()}
    return {m: c for m, c in terms.items() if c}


@settings(max_examples=300, deadline=None)
@given(case=_EXPRESSION_CASES)
def test_parse_terms_matches_the_fraction_oracle(case):
    """Same terms (zero coefficients aside) or the same error message, with
    and without truncation, as the recursive-descent parser over Fraction
    dicts."""
    assert _terms_or_message(parse_terms, *case) == _terms_or_message(parse_terms_oracle, *case)


_TEXT_GENERATORS = [("x", 2), ("y", 4), ("é", 2)]


@settings(max_examples=300, deadline=1000)
@given(
    text=st.text(alphabet="xy0123456789+-*/^() ²٣é_$", max_size=60),
    bound=_bounds(_TEXT_GENERATORS, 12),
)
def test_any_text_parses_or_raises_expression_error(text, bound):
    """Within the deadline; and as the oracle does, except that the oracle
    reads a superscript digit as part of a number."""
    case = (text, _TEXT_GENERATORS, *bound)
    outcome = _terms_or_message(parse_terms, *case)
    if "²" not in text:
        assert outcome == _terms_or_message(parse_terms_oracle, *case)
