"""Scenario documents: the built-in expect blocks and malformed-input errors."""

from __future__ import annotations

import gc
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracindex.cohomology import ExpressionError, parse_expression
from fracindex.scalars import Cyclotomic
from fracindex.scenarios import (
    BUILTIN_SCENARIOS,
    MAX_GROUP_EXPONENT,
    MAX_GROUP_ORDER,
    MAX_SU2_LABEL,
    ScenarioError,
    _json_text,
    builtin_scenario_text,
    check_expectations,
    emit,
    parse_scenario,
    run,
)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_scenario_meets_expectations_and_round_trips(name):
    scenario = parse_scenario(builtin_scenario_text(name))
    results = run(scenario)
    assert scenario.expect is not None
    assert check_expectations(scenario, results) == []


def _cp2_document(**overrides) -> str:
    document = {
        "name": "cp2",
        "manifold": {
            "dimension": 4,
            "generators": [["x", 2]],
            "relations": [["x^3", "0"]],
            "fundamental": ["x^2", "1"],
        },
        "group": {"cyclic_orders": [2]},
        "symbol": [{"character": [1], "class": "1 + x^2"}],
        "tasks": [{"op": "fractional_index", "gamma": [1]}],
    }
    document.update(overrides)
    return json.dumps(document)


@pytest.mark.parametrize(
    "overrides,path",
    [
        ({"tasks": [{"op": "fractional_index", "gamma": 5}]}, "tasks[0].gamma"),
        ({"tasks": [1]}, "tasks[0]"),
        ({"group": [2]}, "group"),
    ],
)
def test_malformed_fields_raise_path_qualified_errors(overrides, path):
    with pytest.raises(ScenarioError, match=re.escape(path) + ": expected"):
        parse_scenario(_cp2_document(**overrides))


def _builtin_with(edit, name: str = "cp2_projective_dirac") -> str:
    document = json.loads(builtin_scenario_text(name))
    edit(document)
    return json.dumps(document)


_CP2, _HOPF = "cp2_projective_dirac", "hopf_riemann_roch"

_MALFORMED_BUILTIN_FIELDS = [
    (_CP2, lambda d: d["manifold"].update(dimension="four"), "manifold.dimension"),
    (_CP2, lambda d: d["bundles"][0].update(rank="x"), "bundles[0].rank"),
    (_CP2, lambda d: d["tasks"][2].update(max_degree="x"), "tasks[2].max_degree"),
    (_CP2, lambda d: d["tasks"][2].update(max_degree="2"), "tasks[2].max_degree"),
    (_CP2, lambda d: d["manifold"].update(generators=[["x"]]), "manifold.generators[0]"),
    (_CP2, lambda d: d["manifold"].update(relations=[["x^3"]]), "manifold.relations[0]"),
    (_CP2, lambda d: d["manifold"].update(fundamental=["x^2"]), "manifold.fundamental"),
    (_CP2, lambda d: d.update(symbol=[1]), "symbol[0]"),
    (_CP2, lambda d: d.update(bundles=[1]), "bundles[0]"),
    (_CP2, lambda d: d["group"]["invariant_generators"][0].update(s_degree="two"),
     "group.invariant_generators[0].s_degree"),
    (_CP2, lambda d: d["group"]["invariant_generators"].__setitem__(0, 5),
     "group.invariant_generators[0]"),
    (_CP2, lambda d: d["group"].update(invariant_generators=3), "group.invariant_generators"),
    (_CP2, lambda d: d["symbol"][0].update(character=["a"]), "symbol[0].character"),
    (_CP2, lambda d: d["symbol"][0].update(character=1), "symbol[0].character"),
    (_CP2, lambda d: d["bundles"][0].update(chern_roots=7), "bundles[0].chern_roots"),
    (_CP2, lambda d: d["tasks"][3].update(tangent=["TM"]), "tasks[3].tangent"),
    (_HOPF, lambda d: d["tasks"][0].update({"lambda": "a"}), "tasks[0].lambda"),
    (_HOPF, lambda d: d["group"]["weight_system"].__setitem__(0, 3), "group.weight_system[0]"),
    (_HOPF, lambda d: d["group"]["weight_system"][0].update(weight=["q"]),
     "group.weight_system[0].weight"),
    # integer fields take JSON integers only: no float, bool or digit string
    (_HOPF, lambda d: d["tasks"][1].update({"lambda": 2.5}), "tasks[1].lambda"),
    (_HOPF, lambda d: d["tasks"][2].update({"lambda": True}), "tasks[2].lambda"),
    (_HOPF, lambda d: d["tasks"][3].update({"lambda": "3"}), "tasks[3].lambda"),
    (_CP2, lambda d: d["group"].update(cyclic_orders=[4.9]), "group.cyclic_orders"),
    (_CP2, lambda d: d["tasks"][0].update(gamma=[1.2]), "tasks[0].gamma"),
    (_CP2, lambda d: d["manifold"].update(generators=[["x", 2.0]]),
     "manifold.generators[0].degree"),
    (_CP2, lambda d: d["group"]["invariant_generators"][1].update(s_degree=2.0),
     "group.invariant_generators[1].s_degree"),
    (_CP2, lambda d: d["bundles"][0].update(chern_roots=[["x"]]), "bundles[0].chern_roots[0]"),
    # a bool field takes a JSON bool, and a name or text field a JSON string,
    # never a value read for its truth or rendered with str()
    (_CP2, lambda d: d["bundles"][0].update(tangent="false"), "bundles[0].tangent"),
    (_CP2, lambda d: d["bundles"][0].update(tangent=1), "bundles[0].tangent"),
    (_CP2, lambda d: d["bundles"][0].update(name=["T", "M"]), "bundles[0].name"),
    (_CP2, lambda d: d["manifold"].update(generators=[[["x"], 2]]), "manifold.generators[0].name"),
    (_CP2, lambda d: d["manifold"].update(relations=[[["x^3"], "0"]]), "manifold.relations[0].lhs"),
    (_CP2, lambda d: d["manifold"].update(relations=[["x^3", 0]]), "manifold.relations[0].rhs"),
    (_CP2, lambda d: d["manifold"].update(fundamental=[2, "1"]), "manifold.fundamental[0]"),
    (_CP2, lambda d: d["group"]["invariant_generators"][0].update(name=1),
     "group.invariant_generators[0].name"),
    (_CP2, lambda d: d.update(name=None), "name"),
    (_HOPF, lambda d: d["group"].update(weight_kind=["torus"]), "group.weight_kind"),
]


# ids keep the "<lambda>-<field>" form pytest gives an (edit, path) pair
@pytest.mark.parametrize(
    "name,edit,path",
    [pytest.param(*case, id=f"<lambda>-{case[2]}") for case in _MALFORMED_BUILTIN_FIELDS],
)
def test_malformed_builtin_fields_raise_path_qualified_errors(name, edit, path):
    with pytest.raises(ScenarioError, match=re.escape(path) + ": expected"):
        parse_scenario(_builtin_with(edit, name))


def _cycle_model(d):
    d["manifold"] = {
        "dimension": 4,
        "generators": [["x", 2], ["y", 2]],
        "relations": [["x^2", "y^2"], ["y^2", "x^2"]],
        "fundamental": ["x*y", "1"],
    }
    d["symbol"][0]["class"] = "1"


def _rank_two_weights(d):
    d["group"]["weight_system"] = [
        {"weight": [1, 0], "line_class": "x"},
        {"weight": [0, 1], "line_class": "x"},
    ]


_GAMMA4 = "gamma4_character_sum"

#: One malformed document per check a document can reach: (id, built-in
#: scenario, edit, message fragment).  Each check raises a ScenarioError
#: while the document is parsed or run, so the engine, the model and the
#: group layers may rely on what these checks enforce.
_REJECTED_DOCUMENTS = [
    # document shape
    ("missing_key", _CP2, lambda d: d["manifold"].pop("dimension"),
     "manifold: missing required key 'dimension'"),
    ("manifold_not_object", _CP2, lambda d: d.update(manifold=[4]), "manifold: expected an object"),
    ("expect_length", _CP2, lambda d: d.update(expect=[]), "expect block must list one entry per task"),
    ("unknown_op", _CP2, lambda d: d["tasks"][0].update(op="index"), "unknown task op 'index'"),
    ("class_not_string", _CP2, lambda d: d["symbol"][0].update({"class": 5}),
     "symbol component: expected an expression string"),
    # manifold
    ("odd_dimension", _CP2, lambda d: d["manifold"].update(dimension=3), "dimension must be even"),
    ("odd_generator", _CP2, lambda d: d["manifold"].update(generators=[["x", 3]]),
     "generator 'x' must have even positive degree"),
    ("duplicate_generator", _CP2, lambda d: d["manifold"].update(generators=[["x", 2], ["x", 2]]),
     "duplicate generator name 'x'"),
    ("lhs_two_terms", _CP2, lambda d: d["manifold"].update(relations=[["x^3 + x^2", "0"]]),
     "must be a single monomial"),
    ("lhs_coefficient", _CP2, lambda d: d["manifold"].update(relations=[["2*x^3", "0"]]),
     "must have coefficient 1"),
    ("lhs_not_pure_power", _CP2,
     lambda d: (_cycle_model(d), d["manifold"].update(relations=[["x*y", "0"]])),
     "must be a pure power of one generator"),
    ("two_relations", _CP2, lambda d: d["manifold"].update(relations=[["x^3", "0"], ["x^2", "0"]]),
     "generator 'x' has more than one relation"),
    ("inhomogeneous_relation", _CP2, lambda d: d["manifold"].update(relations=[["x^3", "x"]]),
     "not degree-homogeneous"),
    ("rewrite_cycle", _CP2, _cycle_model, "rewrite system does not terminate"),
    ("no_fundamental", _CP2, lambda d: d["manifold"].pop("fundamental"),
     "fundamental class is required"),
    ("fundamental_coefficient", _CP2,
     lambda d: d["manifold"].update(fundamental=["2*x^2", "1"]),
     "fundamental class must be a single monomial with coefficient 1"),
    ("fundamental_degree", _CP2, lambda d: d["manifold"].update(fundamental=["x", "1"]),
     "fundamental monomial degree must equal the model dimension"),
    ("fundamental_reducible", _CP2, lambda d: d["manifold"].update(relations=[["x^2", "0"]]),
     "fundamental monomial must be irreducible"),
    ("orientation_zero", _CP2, lambda d: d["manifold"].update(fundamental=["x^2", "0"]),
     "orientation value must be nonzero"),
    # expressions
    ("unknown_name", _CP2, lambda d: d["symbol"][0].update({"class": "z"}), "unknown generator 'z'"),
    ("stray_character", _CP2, lambda d: d["symbol"][0].update({"class": "x$"}),
     "unexpected character '$'"),
    ("zero_denominator", _CP2, lambda d: d["symbol"][0].update({"class": "1/0"}),
     "zero denominator"),
    ("exponent_zero", _CP2, lambda d: d["symbol"][0].update({"class": "x^0"}),
     "exponent must be a positive integer"),
    ("exponent_not_number", _CP2, lambda d: d["symbol"][0].update({"class": "x^x"}),
     "expected number"),
    ("denominator_not_number", _CP2, lambda d: d["symbol"][0].update({"class": "1/x"}),
     "expected number"),
    ("constant_power", _CP2, lambda d: d["symbol"][0].update({"class": "2^100000"}),
     "is too large for the constant term 2"),
    ("dangling_operator", _CP2, lambda d: d["symbol"][0].update({"class": "x +"}),
     "unexpected ''"),
    ("trailing_token", _CP2, lambda d: d["symbol"][0].update({"class": "x x"}),
     "unexpected 'x'"),
    ("relation_over_bound", _CP2, lambda d: d["manifold"].update(relations=[["x^3", "x^4"]]),
     "exceeds the degree bound 6"),
    # bundles
    ("bundle_twice", _CP2, lambda d: d["bundles"].append(dict(d["bundles"][0], tangent=False)),
     "bundle 'TM' declared twice"),
    ("two_tangents", _CP2, lambda d: d["bundles"].append(dict(d["bundles"][0], name="T2")),
     "more than one bundle is flagged as tangent data"),
    ("negative_rank", _CP2, lambda d: d["bundles"][0].update(rank=-1), "has negative rank"),
    ("root_count", _CP2, lambda d: d["bundles"][0].update(chern_roots=["x", "x"]),
     "2 roots for rank 3"),
    ("root_degree", _CP2, lambda d: d["bundles"][0].update(chern_roots=["x", "x", "x^2"]),
     "roots must be homogeneous of degree 2"),
    ("chern_degree", _CP2, lambda d: d["bundles"][0].update(chern=["3*x", "x"]),
     "c_2 must be homogeneous of degree 4"),
    ("pontryagin_degree", _CP2,
     lambda d: d["bundles"].append({"name": "E", "rank": 2, "pontryagin": ["x"]}),
     "p_1 must be homogeneous of degree 4"),
    ("roots_disagree", _CP2, lambda d: d["bundles"][0].update(chern=["2*x"]),
     "declared c_1 disagrees with the roots"),
    ("tangent_without_data", _CP2, lambda d: d["bundles"][0].pop("chern_roots"),
     "tangent bundle 'TM' declares none of"),
    # group block
    ("cyclic_order_zero", _CP2, lambda d: d["group"].update(cyclic_orders=[0]),
     "cyclic orders must be positive"),
    ("s_degree_zero", _CP2, lambda d: d["group"]["invariant_generators"][0].update(s_degree=0),
     "s_degree must be positive"),
    ("image_degree", _CP2, lambda d: d["group"]["invariant_generators"][0].update(image="x"),
     "image must be homogeneous of degree 4"),
    ("generator_twice", _CP2, lambda d: d["group"]["invariant_generators"][1].update(name="P1"),
     "invariant generator 'P1' declared twice"),
    ("weight_arity", _HOPF,
     lambda d: d["group"]["weight_system"].append({"weight": [0, 1], "line_class": "x"}),
     "weight system entries must share one arity"),
    ("weight_not_unit", _HOPF, lambda d: d["group"]["weight_system"][0].update(weight=[2]),
     "each weight must be a unit coordinate vector"),
    ("weight_twice", _HOPF,
     lambda d: d["group"]["weight_system"].append({"weight": [1], "line_class": "x"}),
     "weight coordinate 0 declared twice"),
    ("weight_missing_coordinate", _HOPF,
     lambda d: d["group"]["weight_system"][0].update(weight=[0, 1]),
     "weight system must declare every coordinate once"),
    ("weight_kind", _HOPF, lambda d: d["group"].update(weight_kind="spin"),
     "unknown weight-system kind 'spin'"),
    ("line_class_degree", _HOPF, lambda d: d["group"]["weight_system"][0].update(line_class="1"),
     "line classes must be homogeneous of degree 2"),
    ("su2_two_lines", _HOPF, lambda d: (_rank_two_weights(d), d["group"].update(weight_kind="su2")),
     "su2 weight systems take exactly one line class"),
    # symbol
    ("character_range", _CP2, lambda d: d["symbol"][0].update(character=[2]),
     "symbol character (2,) is outside the group's exponent ranges"),
    ("character_twice", _CP2, lambda d: d["symbol"].append(dict(d["symbol"][0])),
     "symbol character (1,) declared twice"),
    # tasks at parse time
    ("gamma_range", _CP2, lambda d: d["tasks"][0].update(gamma=[2]),
     "gamma [2] is outside the group's exponent ranges"),
    ("dirac_without_tangent", _CP2, lambda d: d["bundles"][0].pop("tangent"),
     "task projective_dirac needs tangent data"),
    ("dirac_unknown_bundle", _CP2, lambda d: d["tasks"][3].update(tangent="T2"),
     "task projective_dirac: unknown bundle 'T2'"),
    ("pairing_without_weights", _HOPF, lambda d: d["group"].pop("weight_system"),
     "task atiyah_pairing needs a weight_system declaration"),
    ("pairing_on_nontrivial_group", _HOPF,
     lambda d: (d["group"].update(cyclic_orders=[2]), d["symbol"][0].update(character=[0])),
     "task atiyah_pairing requires a trivial group"),
    ("mms_two_components", _GAMMA4,
     lambda d: d["symbol"].append({"character": [0], "class": "x"}),
     "tasks[0]: task mms_projective requires a symbol concentrated on a single nonzero "
     "character; got 2 components"),
    ("mms_zero_symbol", _GAMMA4, lambda d: d["symbol"][0].update({"class": "0"}),
     "tasks[0]: task mms_projective requires a symbol concentrated on a single nonzero "
     "character; got 0 components"),
    ("su2_negative_label", _HOPF,
     lambda d: d["group"].update(weight_kind="su2") or d["tasks"][0].update({"lambda": -1}),
     "tasks[0].lambda: su2 labels are nonnegative integers, got -1"),
    ("su2_vector_label", _HOPF,
     lambda d: d["group"].update(weight_kind="su2") or d["tasks"][1].update({"lambda": [2]}),
     "tasks[1].lambda: su2 labels are nonnegative integers, got [2]"),
    ("su2_builtin_negative_label", _HOPF, lambda d: d["group"].update(weight_kind="su2"),
     "tasks[4].lambda: su2 labels are nonnegative integers, got -1"),
    # tasks at run time
    ("integer_label_rank_two", _HOPF, _rank_two_weights, "integer label needs rank 1"),
    ("label_arity", _HOPF,
     lambda d: (_rank_two_weights(d), d["tasks"][0].update({"lambda": [1, 2, 3]})),
     "label (1, 2, 3) has arity 3, expected 2"),
]


@pytest.mark.parametrize(
    "name,edit,message", [pytest.param(*case[1:], id=case[0]) for case in _REJECTED_DOCUMENTS]
)
def test_every_check_a_document_reaches_raises_scenario_error(name, edit, message):
    with pytest.raises(ScenarioError, match=re.escape(message)):
        run(parse_scenario(_builtin_with(edit, name)))


def test_a_document_that_is_not_an_object_is_rejected():
    with pytest.raises(ScenarioError, match="scenario document must be a JSON object"):
        parse_scenario("[1]")


def test_tangent_false_is_not_tangent_data():
    def edit(d):
        d["bundles"][0]["tangent"] = False
        del d["tasks"][3], d["expect"][3]

    scenario = parse_scenario(_builtin_with(edit))
    assert scenario.tangent_name is None


@pytest.mark.parametrize("bound", [3, 1000000, -1])
def test_max_degree_is_bounded_by_half_the_dimension(bound):
    document = _builtin_with(lambda d: d["tasks"][2].update(max_degree=bound))
    with pytest.raises(ScenarioError, match=r"tasks\[2\]\.max_degree: -?\d+ is outside 0\.\.2"):
        parse_scenario(document)
    scenario = parse_scenario(builtin_scenario_text("cp2_projective_dirac"))
    with pytest.raises(ScenarioError, match=r"max_degree: -?\d+ is outside 0\.\.2"):
        run(scenario, max_degree=bound)


def test_max_degree_at_the_bound_runs():
    scenario = parse_scenario(builtin_scenario_text("cp2_projective_dirac"))
    expected = emit(run(scenario), "machine")
    assert emit(run(scenario, max_degree=2), "machine") == expected


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d["manifold"].update(relations=[["x^3", "1" * 5000 + "*x^3"]]), "manifold: "),
        (lambda d: d["bundles"][0].update(chern_roots=["1" * 5000 + "*x"] * 3),
         "bundle 'TM' root: "),
        (lambda d: d["bundles"][0].update(chern_roots=["x^" + "1" * 5000] * 3),
         "bundle 'TM' root: "),
        (lambda d: d["bundles"][0].update(rank="RANK"), "parse error: "),
    ],
)
def test_numbers_above_the_int_digit_limit_raise_scenario_errors(edit, message):
    # json.dumps cannot write an integer literal past the limit, so the
    # placeholder "RANK" is replaced in the document text
    text = _builtin_with(edit).replace('"RANK"', "1" * 5000)
    with pytest.raises(ScenarioError, match=re.escape(message) + "number of 5000 digits"):
        parse_scenario(text)


@pytest.mark.parametrize(
    "orientation,expected",
    [(1, 1), (-2, -2), ("3", 3), ("-1", -1), ("3/2", Fraction(3, 2)), ("\u0663/4", Fraction(3, 4))],
)
def test_orientation_is_an_int_or_a_rational_string(orientation, expected):
    scenario = parse_scenario(
        _builtin_with(lambda d: d["manifold"]["fundamental"].__setitem__(1, orientation))
    )
    assert scenario.model.orientation == expected
    assert run(scenario)[0].payload == Fraction(-1, 8) * expected


@pytest.mark.parametrize(
    "orientation,message",
    [
        (0.5, 'expected an int or a "p" or "p/q" string, got 0.5'),
        (1.0, "expected an int"),
        (True, "expected an int"),
        ("0.5", "expected an int"),
        ("1e5000", "expected an int"),
        (" 1", "expected an int"),
        ("1/-2", "expected an int"),
        ("x", "expected an int"),
        ("1/0", "zero denominator in '1/0'"),
        ("1" * 5000, "number of 5000 digits is too long"),
        ("1/" + "7" * 4400, "number of 4400 digits is too long"),
    ],
)
def test_orientation_is_read_strictly(orientation, message):
    document = _builtin_with(lambda d: d["manifold"]["fundamental"].__setitem__(1, orientation))
    with pytest.raises(ScenarioError, match=re.escape("manifold.fundamental[1]: " + message)):
        parse_scenario(document)


def test_projective_dirac_index_on_cp2k_is_the_closed_form():
    # the fractional index of the projective Dirac operator on CP^2k is
    # a-hat[CP^2k] = (-1)^k C(2k, k) / 16^k at gamma = 0; at gamma = 1 it and
    # every other moment change sign
    for k in range(1, 5):
        n = 2 * k

        def cp2k(d):
            d["manifold"].update(
                dimension=2 * n, relations=[[f"x^{n + 1}", "0"]], fundamental=[f"x^{n}", "1"]
            )
            d["bundles"][0].update(rank=n + 1, chern_roots=["x"] * (n + 1))
            d.update(tasks=[{"op": "projective_dirac"}], expect=None)

        (result,) = run(parse_scenario(_builtin_with(cp2k)))
        plus, minus = result.payload.tables[(0,)], result.payload.tables[(1,)]
        assert plus.mass() == Fraction((-1) ** k * math.comb(2 * k, k), 16**k)
        assert len(plus.values) == math.comb(n + 2, 2)
        assert minus.values == {key: -value for key, value in plus.values.items()}


def _distribution_tasks(edit=None):
    """The edit, then the two distribution tasks of the CP^2 built-in."""

    def apply(d):
        if edit is not None:
            edit(d)
        d.update(tasks=[{"op": "projective_dirac"}, {"op": "full_distribution"}], expect=None)

    return apply


def _two_generator_cp2(rhs, orientation):
    """CP^2 with p = x^2 (rhs "p") or p = 2x^2 (rhs "1/2*p") a generator of
    its own: the relation x^2 -> rhs fires at the dimension."""
    return lambda d: d["manifold"].update(
        generators=[["x", 2], ["p", 4]], relations=[["x^2", rhs], ["p^2", "0"]],
        fundamental=["p", orientation],
    )


_VECTOR_LABELS = [[0, 0], [1, 1], [2, 3], [-1, 2], [3, -2]]


def _product_cp1(d):
    """(CP^1)^2 with line classes x and y, symbol 1 and vector labels."""
    d["manifold"].update(
        dimension=4, generators=[["x", 2], ["y", 2]], relations=[["x^2", "0"], ["y^2", "0"]],
        fundamental=["x*y", "1"],
    )
    d["group"]["weight_system"] = [
        {"weight": [1, 0], "line_class": "x"}, {"weight": [0, 1], "line_class": "y"},
    ]
    d["symbol"][0].update({"class": "1"})
    d.update(tasks=[{"op": "atiyah_pairing", "lambda": label} for label in _VECTOR_LABELS],
             expect=None)

#: Documents that reach model, genus and label paths no built-in reaches:
#: (id, built-in, edit, and the payloads expected, or the edit of the same
#: built-in whose payloads must come out the same).
_ROUTE_DOCUMENTS = [
    ("relation_below_dimension", _CP2, _distribution_tasks(_two_generator_cp2("p", "1")),
     _distribution_tasks()),
    ("rational_structure_constant", _CP2, _distribution_tasks(_two_generator_cp2("1/2*p", "2")),
     _distribution_tasks()),
    ("pontryagin_genus", _CP2,
     _distribution_tasks(lambda d: d["bundles"][0].update(pontryagin=["3*x^2"]) or
                         d["bundles"][0].pop("chern_roots")),
     _distribution_tasks()),
    ("su2_label", _HOPF,
     lambda d: d["group"].update(weight_kind="su2")
     or d.update(tasks=[{"op": "atiyah_pairing", "lambda": n} for n in range(4)], expect=None),
     [{"value": str(n + 1)} for n in range(4)]),
    ("torus_vector_label", _HOPF, _product_cp1, [{"value": str(a * b)} for a, b in _VECTOR_LABELS]),
]


@pytest.mark.parametrize(
    "name,edit,reference", [pytest.param(*case[1:], id=case[0]) for case in _ROUTE_DOCUMENTS]
)
def test_documents_reach_the_presentation_genus_and_label_routes(name, edit, reference):
    results = run(parse_scenario(_builtin_with(edit, name)))
    if callable(reference):
        reference = [r.payload_json() for r in run(parse_scenario(_builtin_with(reference, name)))]
    assert [result.payload_json() for result in results] == reference


def test_deeply_nested_parentheses_in_a_class_raise_scenario_error():
    document = _cp2_document(symbol=[{"character": [1], "class": "(" * 300 + "x" + ")" * 300}])
    with pytest.raises(ScenarioError, match=r"symbol.*nested more than 100 deep at position 100"):
        parse_scenario(document)


def test_deeply_nested_json_raises_scenario_error():
    with pytest.raises(ScenarioError, match="nested too deeply"):
        parse_scenario("[" * 100_000 + "]" * 100_000)


def test_rank_zero_bundle_with_empty_roots_and_chern_classes_parses():
    document = _builtin_with(
        lambda d: d["bundles"].append({"name": "E", "rank": 0, "chern_roots": [], "chern": []})
    )
    assert parse_scenario(document).bundles["E"].rank == 0


def test_oversized_power_in_a_class_parses_to_zero():
    document = _cp2_document(symbol=[{"character": [1], "class": "1 + x^99999999"}])
    (result,) = run(parse_scenario(document))
    assert result.payload == 0


@pytest.mark.parametrize("orders", [[1000, 1000, 1000], [2, MAX_GROUP_ORDER], [10, 10, 11]])
def test_group_order_above_the_cap_is_rejected(orders):
    document = _cp2_document(group={"cyclic_orders": orders}, symbol=[], tasks=[])
    with pytest.raises(ScenarioError, match=r"group\.cyclic_orders: group order \d+ exceeds"):
        parse_scenario(document)


def test_group_order_at_the_cap_parses():
    document = _cp2_document(group={"cyclic_orders": [10, 10, 10]}, symbol=[], tasks=[])
    assert parse_scenario(document).group.order == MAX_GROUP_ORDER


@pytest.mark.parametrize("orders", [[MAX_GROUP_EXPONENT + 1], [32, 63], [997, 2]])
def test_group_exponent_above_the_cap_is_rejected(orders):
    document = _cp2_document(group={"cyclic_orders": orders}, symbol=[], tasks=[])
    with pytest.raises(ScenarioError, match=r"group\.cyclic_orders: group exponent \d+ exceeds"):
        parse_scenario(document)


def test_group_exponent_at_the_cap_runs():
    document = _cp2_document(
        group={"cyclic_orders": [8, 125]},
        symbol=[{"character": [1, 0], "class": "1 + x^2"}],
        tasks=[{"op": "fractional_index", "gamma": [1, 0]}],
    )
    (result,) = run(parse_scenario(document))
    assert isinstance(result.payload, Cyclotomic)
    assert result.payload.order == MAX_GROUP_EXPONENT


def _su2_document(label: int) -> str:
    """The Hopf built-in on CP^1 with su2 weights and one label: the
    pairing of 1 + x against highest weight lambda is lambda + 1."""
    return _builtin_with(
        lambda d: d["group"].update(weight_kind="su2")
        or d.update(tasks=[{"op": "atiyah_pairing", "lambda": label}], expect=None),
        _HOPF,
    )


def test_su2_label_at_the_cap_runs():
    (result,) = run(parse_scenario(_su2_document(MAX_SU2_LABEL)))
    assert result.payload == MAX_SU2_LABEL + 1


@pytest.mark.parametrize("label", [MAX_SU2_LABEL + 1, 10**9])
def test_su2_label_above_the_cap_is_rejected(label):
    with pytest.raises(ScenarioError, match=rf"tasks\[0\]\.lambda: su2 label {label} exceeds the cap"):
        parse_scenario(_su2_document(label))


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([1e400, -1e400, 0.1, -0.0, 1e-320]),
    st.text(),
    st.text(st.characters(min_codepoint=0x80)),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=80, deadline=None)
@given(value=_json_values)
def test_json_writer_matches_json_dumps(value):
    # non-ASCII strings, floats including infinities and NaN, empty
    # containers at any depth
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_writer_matches_json_dumps_when_deeply_nested():
    value = {"leaf": "\u00e9\n\"", "empty": [{}, []]}
    for depth in range(60):
        value = [value, {"depth": depth, "x": 1.5}] if depth % 2 else {"k\u03b3": value}
    assert _json_text(value) == json.dumps(value, indent=2)
    assert _json_text((1, (2, []))) == json.dumps((1, (2, [])), indent=2)


def test_parsing_and_emitting_leave_no_reference_cycles():
    # nothing a solve builds should wait for the cyclic garbage collector:
    # the parser's mutually recursive closures and the recursive JSON
    # writer once left cycles behind on every call
    cp2 = parse_scenario(builtin_scenario_text("cp2_projective_dirac")).model
    results = run(parse_scenario(builtin_scenario_text("gamma4_character_sum")))
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            parse_expression("1 + 2*x - 3/4*x^2", cp2)
        assert gc.collect() == 0
        emit(results, "machine")
        assert gc.collect() == 0
        with pytest.raises(ExpressionError):
            parse_expression("1 + (2*x", cp2)
        emit(run(parse_scenario(builtin_scenario_text("cp2_projective_dirac"))), "machine")
        assert gc.collect() == 0
    finally:
        gc.enable()
