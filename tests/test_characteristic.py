"""Characteristic classes: genera, Chern characters, Newton identities."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracindex import characteristic, scenarios

from fracindex.characteristic import (
    BundleData,
    BundleError,
    a_hat,
    a_hat_squared,
    newton_power_sums,
)
from fracindex.cohomology import CohClass, build_model, evaluate_series, parse_expression
from fracindex.engine import dirac_problem

from oracles import (
    a_hat_series_oracle,
    chern_character,
    chern_classes,
    cpn_integral,
    cpn_mul,
    evaluate_series_at_x,
    genus_root_by_root,
    payload_to_json,
    pontryagin_from_chern,
    projective_model,
    projective_tangent,
    todd_class,
)


@pytest.fixture
def cp1():
    return projective_model(x=1)


@pytest.fixture
def cp2():
    return projective_model(x=2)


def k3_like_model():
    """A formal four-manifold with one degree-4 generator q, integral 1,
    and Chern data c_1 = 0, c_2 = 24 q (so p_1 integrates to -48)."""
    model = build_model(4, [("q", 4)], [], ("q", 1))
    chern = [model.zero(), parse_expression("24*q", model)]
    return model, BundleData("TK", 2, chern=chern, model=model)


# ---------------------------------------------------------------------------
# a-hat


def test_a_hat_trivial_bundle(cp2):
    trivial = BundleData("triv", 3, roots=[cp2.zero()] * 3, model=cp2)
    assert a_hat(trivial) == cp2.one()


def test_a_hat_cp1_is_one(cp1):
    assert a_hat(projective_tangent(cp1)) == cp1.one()


def test_a_hat_cp2_value(cp2):
    cls = a_hat(projective_tangent(cp2))
    assert cls == parse_expression("1 - 1/8*x^2", cp2)
    assert cls.integrate() == Fraction(-1, 8)


def test_a_hat_roots_vs_pontryagin_agree(cp2):
    via_roots = a_hat(projective_tangent(cp2))
    p1 = parse_expression("3*x^2", cp2)
    via_pontryagin = a_hat(BundleData("TR", 4, pontryagin=[p1], model=cp2))
    assert via_roots == via_pontryagin


def test_a_hat_from_chern_data_k3():
    model, bundle = k3_like_model()
    cls = a_hat(bundle)
    assert cls == parse_expression("1 + 2*q", model)
    assert cls.integrate() == 2


def test_a_hat_of_empty_characteristic_data_is_one(cp2):
    # no declared Chern or Pontryagin class means every one is zero
    assert a_hat(BundleData("E", 2, chern=[], model=cp2)) == cp2.one()
    assert a_hat(BundleData("F", 4, pontryagin=[], model=cp2)) == cp2.one()
    assert a_hat(BundleData("G", 2, chern=[cp2.zero()], model=cp2)) == cp2.one()


def test_a_hat_requires_data(cp2):
    with pytest.raises(BundleError):
        a_hat(BundleData("nothing", 2, model=cp2))


# ---------------------------------------------------------------------------
# Todd


def test_todd_trivial(cp2):
    assert todd_class(BundleData("triv", 2, roots=[cp2.zero()] * 2, model=cp2)) == cp2.one()


def test_todd_cp1(cp1):
    assert todd_class(projective_tangent(cp1)) == parse_expression("1 + x", cp1)


def test_todd_cp2(cp2):
    cls = todd_class(projective_tangent(cp2))
    assert cls == parse_expression("1 + 3/2*x + x^2", cp2)
    assert cls.integrate() == 1


def test_todd_from_chern_matches_roots(cp2):
    tangent = projective_tangent(cp2)
    chern = [parse_expression("3*x", cp2), parse_expression("3*x^2", cp2)]
    assert chern_classes(tangent, 2) == chern
    via_chern = todd_class(BundleData("TC", 3, chern=chern, model=cp2))
    assert via_chern == todd_class(tangent)


def test_todd_genus_of_k3_like_surface():
    _, bundle = k3_like_model()
    assert todd_class(bundle).integrate() == 2


# ---------------------------------------------------------------------------
# Chern character


def test_chern_character_trivial_rank(cp2):
    assert chern_character(BundleData("triv", 5, roots=[cp2.zero()] * 5, model=cp2)) == cp2.one() * 5


def test_chern_character_line_bundle(cp1):
    root = parse_expression("3*x", cp1)
    assert chern_character(BundleData("L3", 1, roots=[root], model=cp1)) == parse_expression("1 + 3*x", cp1)


def test_chern_character_additive(cp2):
    x = parse_expression("x", cp2)
    a = BundleData("a", 1, roots=[x], model=cp2)
    b = BundleData("b", 1, roots=[x * 2], model=cp2)
    total = BundleData("a+b", 2, roots=a.roots + b.roots, model=cp2)
    assert chern_character(total) == chern_character(a) + chern_character(b)


def test_chern_character_multiplicative_on_lines(cp2):
    x = parse_expression("x", cp2)
    a = BundleData("a", 1, roots=[x], model=cp2)
    b = BundleData("b", 1, roots=[x * 2], model=cp2)
    product = BundleData("ab", 1, roots=[a.roots[0] + b.roots[0]], model=cp2)
    assert chern_character(product) == chern_character(a) * chern_character(b)


def test_chern_character_from_chern_classes(cp2):
    tangent = projective_tangent(cp2)
    # rank bookkeeping: the root presentation has formal rank 3
    via_chern = chern_character(BundleData("TC", 3, chern=chern_classes(tangent, 2), model=cp2))
    assert via_chern == chern_character(tangent)


# ---------------------------------------------------------------------------
# Newton identities


def test_newton_first_power_sum(cp2):
    c1 = parse_expression("3*x", cp2)
    sums = newton_power_sums([c1], 1)
    assert sums[0] == c1


def test_newton_second_power_sum(cp2):
    c1 = parse_expression("3*x", cp2)
    c2 = parse_expression("3*x^2", cp2)
    sums = newton_power_sums([c1, c2], 2)
    assert sums[1] == c1 * c1 + c2 * -2


def test_newton_matches_explicit_roots():
    model = projective_model(x=2, y=2)
    rng = random.Random(3)
    for _ in range(10):
        roots = [
            CohClass(model, {(1, 0): Fraction(rng.randint(-3, 3)), (0, 1): Fraction(rng.randint(-3, 3))})
            for _ in range(3)
        ]
        bundle = BundleData("R", 3, roots=roots, model=model)
        chern = chern_classes(bundle, 3)
        sums = newton_power_sums(chern, 4)
        for k in range(1, 5):
            direct = model.zero()
            for root in roots:
                direct = direct + root**k
            assert sums[k - 1] == direct


def test_pontryagin_from_chern_cp2(cp2):
    c1 = parse_expression("3*x", cp2)
    c2 = parse_expression("3*x^2", cp2)
    p = pontryagin_from_chern([c1, c2], 1)
    assert p[0] == parse_expression("3*x^2", cp2)


def test_pontryagin_from_chern_matches_squared_roots():
    model = projective_model(x=2, y=2)
    rng = random.Random(5)
    for _ in range(8):
        roots = [
            CohClass(model, {(1, 0): Fraction(rng.randint(-2, 2)), (0, 1): Fraction(rng.randint(-2, 2))})
            for _ in range(2)
        ]
        bundle = BundleData("R", 2, roots=roots, model=model)
        p = pontryagin_from_chern(chern_classes(bundle, 2), 2)
        # e_1(r^2) and e_2(r^2) directly
        assert p[0] == roots[0] ** 2 + roots[1] ** 2
        assert p[1] == roots[0] ** 2 * roots[1] ** 2


# ---------------------------------------------------------------------------
# multiplicativity invariants


def test_genus_multiplicative_on_direct_sums():
    model = projective_model(x=2, y=2)
    rng = random.Random(9)
    for _ in range(8):
        def random_root():
            return CohClass(
                model,
                {(1, 0): Fraction(rng.randint(-2, 2)), (0, 1): Fraction(rng.randint(-2, 2))},
            )

        a = BundleData("a", 2, roots=[random_root(), random_root()], model=model)
        b = BundleData("b", 1, roots=[random_root()], model=model)
        ab = BundleData("ab", 3, roots=a.roots + b.roots, model=model)
        assert a_hat(ab) == a_hat(a) * a_hat(b)
        assert todd_class(ab) == todd_class(a) * todd_class(b)


def test_genus_multiplicative_across_products():
    t1 = projective_tangent(projective_model(x=1))
    t2 = projective_tangent(projective_model(y=2))
    tangent = projective_tangent(projective_model(x=1, y=2))
    assert todd_class(tangent).integrate() == (
        todd_class(t1).integrate() * todd_class(t2).integrate()
    )
    assert a_hat(tangent).integrate() == (
        a_hat(t1).integrate() * a_hat(t2).integrate()
    )


def test_todd_genus_cp1_cp1_is_one():
    prod = projective_model(x=1, y=1)
    roots = [parse_expression("x", prod)] * 2 + [parse_expression("y", prod)] * 2
    assert todd_class(BundleData("T", 4, roots=roots, model=prod)).integrate() == 1


# ---------------------------------------------------------------------------
# series evaluation against the list oracle


def test_evaluate_series_matches_oracle(cp2):
    series = a_hat_series_oracle(4)
    x = parse_expression("x", cp2)
    value = evaluate_series(series, x)
    oracle = evaluate_series_at_x(series, 2)
    assert [value.terms.get((k,), Fraction(0)) for k in range(3)] == oracle[:3]


def test_evaluate_series_rejects_unit(cp2):
    with pytest.raises(ValueError):
        evaluate_series([Fraction(1), Fraction(1, 2), Fraction(1, 12)], cp2.one())


def test_a_hat_cp2_against_list_oracle(cp2):
    series = a_hat_series_oracle(2)
    one_root = evaluate_series_at_x(series, 2)
    product = cpn_mul(cpn_mul(one_root, one_root, 2), one_root, 2)
    engine = a_hat(projective_tangent(cp2))
    assert [engine.terms.get((k,), Fraction(0)) for k in range(3)] == product
    assert engine.integrate() == cpn_integral(product, 2)


# ---------------------------------------------------------------------------
# validation and cotangent reduction


def test_bundle_rejects_wrong_root_count(cp2):
    spec = {"name": "bad", "rank": 2, "chern_roots": ["x"]}
    with pytest.raises(scenarios.ScenarioError, match=r"^bundles\[0\]\.chern_roots: .*roots"):
        scenarios._build_bundles([spec], cp2)


def test_bundle_rejects_inhomogeneous_root(cp2):
    spec = {"name": "bad", "rank": 1, "chern_roots": ["1 + x"]}
    with pytest.raises(scenarios.ScenarioError, match=r"^bundles\[0\]\.chern_roots\[0\]: .*homogeneous"):
        scenarios._build_bundles([spec], cp2)


def test_bundle_rejects_chern_root_mismatch(cp2):
    spec = {"name": "bad", "rank": 2, "chern_roots": ["x", "x"], "chern": ["3*x"]}
    with pytest.raises(scenarios.ScenarioError, match=r"^bundles\[0\]\.chern\[0\]: .*disagrees"):
        scenarios._build_bundles([spec], cp2)


def test_bundle_accepts_consistent_chern_and_roots(cp2):
    x = parse_expression("x", cp2)
    bundle = BundleData("ok", 2, roots=(x, x), chern=(x * 2, x * x), model=cp2)
    assert bundle.chern == (x * 2, x * x)


def test_integrate_reads_fundamental_coefficient(cp1, cp2):
    assert cp1.one().integrate() == 0
    assert parse_expression("x^2", cp2).integrate() == 1
    td = todd_class(projective_tangent(cp1))
    assert td.integrate() == 1


def test_point_tangent_bundle():
    pt = build_model(0, [], [])
    tangent = projective_tangent(pt)
    assert tangent.rank == 0
    assert a_hat(tangent) == pt.one()
    assert todd_class(tangent) == pt.one()
    assert chern_character(tangent) == pt.zero()


# ---------------------------------------------------------------------------
# distinct roots with multiplicities against the one-root-at-a-time loop


_ROOT_MODELS = {"cp4": projective_model(x=4), "cp1^3": projective_model(x=1, y=1, z=1)}


@st.composite
def root_multisets(draw):
    """A model and a list of degree-2 roots drawn, with repeats, from a
    small pool of random linear classes (the zero class included)."""
    model = _ROOT_MODELS[draw(st.sampled_from(sorted(_ROOT_MODELS)))]
    width = len(model.generators)
    pool = draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=width, max_size=width), min_size=1, max_size=3)
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=7))
    roots = []
    for i in picks:
        terms = {}
        for g, coeff in enumerate(pool[i]):
            terms[tuple(1 if j == g else 0 for j in range(width))] = Fraction(coeff)
        roots.append(CohClass(model, terms))
    return model, roots


@settings(max_examples=60, deadline=None)
@given(root_multisets())
def test_grouped_roots_match_the_root_by_root_loop(drawn):
    model, roots = drawn
    bundle = BundleData("R", len(roots), roots=roots, model=model)
    assert a_hat(bundle) == genus_root_by_root("a_hat", bundle)
    assert todd_class(bundle) == genus_root_by_root("todd", bundle)
    assert chern_character(bundle) == genus_root_by_root("chern_character", bundle)
    # the parser checks declared Chern classes against the grouped roots
    count = model.dimension // 2
    assert characteristic._elementary_symmetric(model, roots, count) == chern_classes(bundle, count)


def _cp8_dirac_document() -> str:
    """The shape of the CP^16 benchmark workload on CP^8: one tangent
    bundle by Chern roots, the same bundle by Chern classes, and one
    projective_dirac task on each."""
    n = 8
    return json.dumps({
        "name": "dirac_cp8",
        "manifold": {
            "dimension": 2 * n,
            "generators": [["x", 2]],
            "relations": [[f"x^{n + 1}", "0"]],
            "fundamental": [f"x^{n}", "1"],
        },
        "bundles": [
            {"name": "TM", "rank": n + 1, "chern_roots": ["x"] * (n + 1), "tangent": True},
            {"name": "TMc", "rank": n + 1,
             "chern": [f"{math.comb(n + 1, k)}*x^{k}" for k in range(1, n + 1)]},
        ],
        "group": {
            "cyclic_orders": [2],
            "invariant_generators": [
                {"name": "P1", "s_degree": 2, "image": "3/2*x^2"},
                {"name": "P2", "s_degree": 2, "image": "-5*x^2"},
            ],
        },
        "tasks": [
            {"op": "projective_dirac", "tangent": "TM"},
            {"op": "projective_dirac", "tangent": "TMc"},
        ],
    })


def test_genus_work_is_done_once_per_bundle_and_distinct_root(monkeypatch):
    calls = {"evaluate_series": 0, "newton_power_sums": 0}
    for name in calls:
        original = getattr(characteristic, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(characteristic, name, counted)
    scenario = scenarios.parse_scenario(_cp8_dirac_document())
    first, second = scenarios.run(scenario)
    # roots route: one series evaluation for nine equal roots, shared by the
    # eager tangent problem and the first task; Chern route: one Newton call
    assert calls == {"evaluate_series": 1, "newton_power_sums": 1}
    assert payload_to_json(first.payload) == payload_to_json(second.payload)
    bundle = scenario.bundles["TM"]
    assert a_hat(bundle) is a_hat(bundle)


def test_a_hat_square_is_formed_once_per_bundle():
    scenario = scenarios.parse_scenario(_cp8_dirac_document())
    bundle = scenario.bundles["TM"]
    square = a_hat_squared(bundle)
    assert square == a_hat(bundle) * a_hat(bundle)
    # the eager tangent problem and the Dirac problem share the one square
    dirac = dirac_problem(scenario.model, bundle, scenario.generators)
    assert scenario.problem().a_hat_squared is square
    assert dirac.a_hat_squared is square


# ---------------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize("k", range(1, 9))
def test_a_hat_genus_of_even_projective_space(k):
    tangent = projective_tangent(projective_model(x=2 * k))
    by_chern = BundleData("TC", tangent.rank, chern=chern_classes(tangent, 2 * k), model=tangent.model)
    expected = Fraction((-1) ** k * math.comb(2 * k, k), 16**k)
    assert a_hat(tangent).integrate() == expected
    assert a_hat(by_chern).integrate() == expected


@pytest.mark.parametrize("n", range(1, 17))
def test_a_hat_class_by_roots_equals_by_chern_classes(n):
    tangent = projective_tangent(projective_model(x=n))
    by_chern = BundleData("TC", tangent.rank, chern=chern_classes(tangent, n), model=tangent.model)
    assert a_hat(tangent) == a_hat(by_chern)


@pytest.mark.parametrize("n", range(1, 9))
def test_todd_genus_of_projective_space_is_one(n):
    assert todd_class(projective_tangent(projective_model(x=n))).integrate() == 1


@pytest.mark.parametrize("k", range(1, 5))
def test_todd_genus_of_products_of_projective_lines_is_one(k):
    model = projective_model(**{f"x{i}": 1 for i in range(k)})
    assert todd_class(projective_tangent(model)).integrate() == 1


@pytest.mark.parametrize("n", [1, 3, 6])
def test_euler_characteristic_of_line_bundles_on_projective_space(n):
    model = projective_model(x=n)
    td = todd_class(projective_tangent(model))
    x = parse_expression("x", model)
    for j in range(-n - 3, 8):
        ch = chern_character(BundleData(f"O({j})", 1, roots=[x * j], model=model))
        expected = Fraction(math.prod(range(j + 1, j + n + 1)), math.factorial(n))
        assert (ch * td).integrate() == expected
