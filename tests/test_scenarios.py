"""Scenario documents: the built-in expect blocks and malformed-input errors."""

from __future__ import annotations

import gc
import json
import math
import re
import types
from fractions import Fraction
from pathlib import Path

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

from oracles import payload_to_json


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_scenario_meets_expectations_and_round_trips(name):
    scenario = parse_scenario(builtin_scenario_text(name))
    results = run(scenario)
    assert scenario.expect is not None
    assert check_expectations(scenario, results) == []
    # the records store what the parser and `run` hand them
    assert type(scenario.tasks) is tuple and type(scenario.generators) is tuple
    if scenario.weight_system is not None:
        assert type(scenario.weight_system.line_classes) is tuple
    for result in results:
        assert result.request == scenario.tasks[result.index]
        assert result.request is not scenario.tasks[result.index]


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
#: scenario, edit, start of the message).  Each check raises a ScenarioError
#: while the document is parsed, so running it, the engine, the model and
#: the group layers may rely on what these checks enforce.  Every message
#: but a JSON parse error starts with the path of the field at fault.
_REJECTED_DOCUMENTS = [
    # document shape
    ("missing_key", _CP2, lambda d: d["manifold"].pop("dimension"),
     "manifold.dimension: missing required key"),
    ("manifold_not_object", _CP2, lambda d: d.update(manifold=[4]), "manifold: expected an object"),
    ("expect_length", _CP2, lambda d: d.update(expect=[]),
     "expect: must list one entry per task, 4 in all"),
    ("unknown_op", _CP2, lambda d: d["tasks"][0].update(op="index"),
     "tasks[0].op: unknown task op 'index'"),
    ("missing_op", _CP2, lambda d: d["tasks"][1].pop("op"), "tasks[1].op: missing required key"),
    ("class_not_string", _CP2, lambda d: d["symbol"][0].update({"class": 5}),
     "symbol[0].class: expected an expression string"),
    # json.dumps writes the constants NaN and Infinity, which JSON lacks;
    # the JSON reader refuses them before any key is read
    ("nan_constant", _CP2, lambda d: d["tasks"][0].update(extra=float("nan")),
     "parse error: 'NaN' is not a finite number"),
    ("infinity_constant", _CP2, lambda d: d["tasks"][0].update(extra=-float("inf")),
     "parse error: '-Infinity' is not a finite number"),
    # a key the parser does not read, at each level of the document
    ("unknown_document_key", _CP2, lambda d: d.update(expected=d.pop("expect")),
     "expected: unknown key; the keys read here are name, manifold, bundles, group, symbol, "
     "tasks, expect"),
    ("unknown_manifold_key", _CP2, lambda d: d["manifold"].update(relation=d["manifold"].pop("relations")),
     "manifold.relation: unknown key; the keys read here are dimension, generators, relations, "
     "fundamental"),
    ("unknown_bundle_key", _CP2, lambda d: d["bundles"][0].update(rnak=3),
     "bundles[0].rnak: unknown key; the keys read here are name, rank, chern_roots, chern, "
     "pontryagin, tangent"),
    ("unknown_group_key", _CP2, lambda d: d["group"].update(weight_knd="su2"),
     "group.weight_knd: unknown key; the keys read here are cyclic_orders, invariant_generators, "
     "weight_kind, weight_system"),
    ("unknown_generator_key", _CP2, lambda d: d["group"]["invariant_generators"][1].update(sdegree=2),
     "group.invariant_generators[1].sdegree: unknown key; the keys read here are name, s_degree, "
     "image"),
    ("unknown_weight_key", _HOPF, lambda d: d["group"]["weight_system"][0].update(line_clas="x"),
     "group.weight_system[0].line_clas: unknown key; the keys read here are weight, line_class"),
    ("unknown_symbol_key", _CP2, lambda d: d["symbol"][0].update(characters=[1]),
     "symbol[0].characters: unknown key; the keys read here are character, class"),
    ("unknown_task_key", _CP2, lambda d: d["tasks"][2].update(max_degre=0),
     "tasks[2].max_degre: unknown key; the keys read here are op, gamma, max_degree"),
    ("misspelt_tangent", _CP2, lambda d: d["tasks"][3].update(tangnet="TM"),
     "tasks[3].tangnet: unknown key; the keys read here are op, max_degree, tangent"),
    # a key that is not one name token is quoted, so it names no deeper field
    ("dotted_manifold_key", _CP2, lambda d: d["manifold"].update({"relations.x": []}),
     'manifold["relations.x"]: unknown key; the keys read here are dimension, generators, '
     "relations, fundamental"),
    ("bracketed_bundle_key", _CP2, lambda d: d["bundles"][0].update({"chern[0]": "x"}),
     'bundles[0]["chern[0]"]: unknown key; the keys read here are name, rank, chern_roots, '
     "chern, pontryagin, tangent"),
    ("dotted_document_key", _CP2, lambda d: d.update({"manifold.dimension": 4}),
     '["manifold.dimension"]: unknown key; the keys read here are name, manifold, bundles, '
     "group, symbol, tasks, expect"),
    ("quoted_task_key", _CP2, lambda d: d["tasks"][0].update({'a "b"': 0}),
     'tasks[0]["a \\"b\\""]: unknown key; the keys read here are op, gamma'),
    # manifold
    ("odd_dimension", _CP2, lambda d: d["manifold"].update(dimension=3),
     "manifold.dimension: must be even and nonnegative, got 3"),
    ("odd_generator", _CP2, lambda d: d["manifold"].update(generators=[["x", 3]]),
     "manifold.generators[0].degree: must be even and positive, got 3"),
    ("duplicate_generator", _CP2, lambda d: d["manifold"].update(generators=[["x", 2], ["x", 2]]),
     "manifold.generators[1].name: duplicate generator name 'x'"),
    # a generator no expression can name, and whose to_expression text would not parse back
    *[(f"unreadable_generator_name_{label}", _CP2,
       lambda d, name=name: d["manifold"].update(generators=[["x", 2], [name, 2]]),
       f"manifold.generators[1].name: not a name expressions can read, got {name!r}")
      for label, name in [("empty", ""), ("digit_first", "1y"), ("space", "y z"),
                          ("operator", "+"), ("power", "y^2"), ("superscript", "²")]],
    ("lhs_two_terms", _CP2, lambda d: d["manifold"].update(relations=[["x^3 + x^2", "0"]]),
     "manifold.relations[0].lhs: must be a single monomial"),
    ("lhs_coefficient", _CP2, lambda d: d["manifold"].update(relations=[["2*x^3", "0"]]),
     "manifold.relations[0].lhs: must have coefficient 1"),
    ("lhs_not_pure_power", _CP2,
     lambda d: (_cycle_model(d), d["manifold"].update(relations=[["x*y", "0"]])),
     "manifold.relations[0].lhs: must be a pure power of one generator"),
    ("two_relations", _CP2, lambda d: d["manifold"].update(relations=[["x^3", "0"], ["x^2", "0"]]),
     "manifold.relations[1].lhs: generator 'x' has more than one relation"),
    ("inhomogeneous_relation", _CP2, lambda d: d["manifold"].update(relations=[["x^3", "x"]]),
     "manifold.relations[0].rhs: not degree-homogeneous"),
    ("rewrite_cycle", _CP2, _cycle_model, "manifold.relations: rewrite system does not terminate"),
    ("no_fundamental", _CP2, lambda d: d["manifold"].pop("fundamental"),
     "manifold.fundamental: missing, and required"),
    ("fundamental_coefficient", _CP2,
     lambda d: d["manifold"].update(fundamental=["2*x^2", "1"]),
     "manifold.fundamental[0]: must be a single monomial with coefficient 1"),
    ("fundamental_degree", _CP2, lambda d: d["manifold"].update(fundamental=["x", "1"]),
     "manifold.fundamental[0]: degree 2 must equal the dimension 4"),
    ("fundamental_reducible", _CP2, lambda d: d["manifold"].update(relations=[["x^2", "0"]]),
     "manifold.fundamental[0]: must be irreducible, got 'x^2'"),
    ("orientation_zero", _CP2, lambda d: d["manifold"].update(fundamental=["x^2", "0"]),
     "manifold.fundamental[1]: the orientation must be nonzero"),
    # expressions
    ("unknown_name", _CP2, lambda d: d["symbol"][0].update({"class": "z"}),
     "symbol[0].class: unknown generator 'z'"),
    ("stray_character", _CP2, lambda d: d["symbol"][0].update({"class": "x$"}),
     "symbol[0].class: unexpected character '$'"),
    ("zero_denominator", _CP2, lambda d: d["symbol"][0].update({"class": "1/0"}),
     "symbol[0].class: zero denominator"),
    ("exponent_zero", _CP2, lambda d: d["symbol"][0].update({"class": "x^0"}),
     "symbol[0].class: exponent must be a positive integer"),
    ("exponent_not_number", _CP2, lambda d: d["symbol"][0].update({"class": "x^x"}),
     "symbol[0].class: expected number"),
    ("denominator_not_number", _CP2, lambda d: d["symbol"][0].update({"class": "1/x"}),
     "symbol[0].class: expected number"),
    ("constant_power", _CP2, lambda d: d["symbol"][0].update({"class": "2^100000"}),
     "symbol[0].class: exponent 100000 at position 2 is too large for the constant term 2"),
    ("dangling_operator", _CP2, lambda d: d["symbol"][0].update({"class": "x +"}),
     "symbol[0].class: unexpected ''"),
    ("trailing_token", _CP2, lambda d: d["symbol"][0].update({"class": "x x"}),
     "symbol[0].class: unexpected 'x'"),
    ("relation_over_bound", _CP2, lambda d: d["manifold"].update(relations=[["x^3", "x^4"]]),
     "manifold.relations[0].rhs: term x^4 of degree 8 exceeds the degree bound 6"),
    # bundles
    ("bundle_twice", _CP2, lambda d: d["bundles"].append(dict(d["bundles"][0], tangent=False)),
     "bundles[1].name: bundle 'TM' declared twice"),
    ("two_tangents", _CP2, lambda d: d["bundles"].append(dict(d["bundles"][0], name="T2")),
     "bundles[1].tangent: more than one bundle is flagged as tangent data"),
    ("negative_rank", _CP2, lambda d: d["bundles"][0].update(rank=-1),
     "bundles[0].rank: negative rank -1"),
    ("root_count", _CP2, lambda d: d["bundles"][0].update(chern_roots=["x", "x"]),
     "bundles[0].chern_roots: 2 roots for rank 3"),
    ("root_degree", _CP2, lambda d: d["bundles"][0].update(chern_roots=["x", "x", "x^2"]),
     "bundles[0].chern_roots[2]: must be homogeneous of degree 2"),
    ("chern_degree", _CP2, lambda d: d["bundles"][0].update(chern=["3*x", "x"]),
     "bundles[0].chern[1]: must be homogeneous of degree 4"),
    ("pontryagin_degree", _CP2,
     lambda d: d["bundles"].append({"name": "E", "rank": 2, "pontryagin": ["x"]}),
     "bundles[1].pontryagin[0]: must be homogeneous of degree 4"),
    ("roots_disagree", _CP2, lambda d: d["bundles"][0].update(chern=["2*x"]),
     "bundles[0].chern[0]: declared c_1 disagrees with the roots"),
    ("tangent_without_data", _CP2, lambda d: d["bundles"][0].pop("chern_roots"),
     "bundles[0].tangent: tangent bundle 'TM' declares none of"),
    # group block
    ("cyclic_order_zero", _CP2, lambda d: d["group"].update(cyclic_orders=[0]),
     "group.cyclic_orders[0]: must be positive, got 0"),
    ("s_degree_zero", _CP2, lambda d: d["group"]["invariant_generators"][0].update(s_degree=0),
     "group.invariant_generators[0].s_degree: must be positive, got 0"),
    ("image_degree", _CP2, lambda d: d["group"]["invariant_generators"][0].update(image="x"),
     "group.invariant_generators[0].image: must be homogeneous of degree 4"),
    ("generator_twice", _CP2, lambda d: d["group"]["invariant_generators"][1].update(name="P1"),
     "group.invariant_generators[1].name: invariant generator 'P1' declared twice"),
    ("generator_name_power", _CP2, lambda d: d["group"]["invariant_generators"][0].update(name="E^2"),
     "group.invariant_generators[0].name: not a name expressions can read, got 'E^2'"),
    ("generator_name_empty", _CP2, lambda d: d["group"]["invariant_generators"][0].update(name=""),
     "group.invariant_generators[0].name: not a name expressions can read, got ''"),
    ("weight_arity", _HOPF,
     lambda d: d["group"]["weight_system"].append({"weight": [0, 1], "line_class": "x"}),
     "group.weight_system[1].weight: weight system entries must share one arity"),
    ("weight_not_unit", _HOPF, lambda d: d["group"]["weight_system"][0].update(weight=[2]),
     "group.weight_system[0].weight: each weight must be a unit coordinate vector"),
    ("weight_twice", _HOPF,
     lambda d: d["group"]["weight_system"].append({"weight": [1], "line_class": "x"}),
     "group.weight_system[1].weight: weight coordinate 0 declared twice"),
    ("weight_missing_coordinate", _HOPF,
     lambda d: d["group"]["weight_system"][0].update(weight=[0, 1]),
     "group.weight_system: weight coordinate 0 is not declared"),
    ("weight_kind", _HOPF, lambda d: d["group"].update(weight_kind="spin"),
     "group.weight_kind: expected \"torus\" or \"su2\", got 'spin'"),
    ("weight_kind_without_system", _CP2, lambda d: d["group"].update(weight_kind=5),
     "group.weight_kind: expected \"torus\" or \"su2\", got 5"),
    ("line_class_degree", _HOPF, lambda d: d["group"]["weight_system"][0].update(line_class="1"),
     "group.weight_system[0].line_class: must be homogeneous of degree 2"),
    ("su2_two_lines", _HOPF, lambda d: (_rank_two_weights(d), d["group"].update(weight_kind="su2")),
     "group.weight_system: an su2 system takes exactly one line class, got 2"),
    # symbol
    ("character_range", _CP2, lambda d: d["symbol"][0].update(character=[2]),
     "symbol[0].character: [2] is outside the group's exponent ranges"),
    ("character_twice", _CP2, lambda d: d["symbol"].append(dict(d["symbol"][0])),
     "symbol[1].character: [1] declared twice"),
    # tasks
    ("gamma_range", _CP2, lambda d: d["tasks"][0].update(gamma=[2]),
     "tasks[0].gamma: [2] is outside the group's exponent ranges"),
    ("dirac_without_tangent", _CP2, lambda d: d["bundles"][0].pop("tangent"),
     "tasks[3].tangent: missing, and no bundle is flagged"),
    ("dirac_unknown_bundle", _CP2, lambda d: d["tasks"][3].update(tangent="T2"),
     "tasks[3].tangent: unknown bundle 'T2'"),
    ("dirac_bundle_without_data", _CP2,
     lambda d: d["bundles"].append({"name": "E0", "rank": 1}) or d["tasks"][3].update(tangent="E0"),
     "tasks[3].tangent: tangent bundle 'E0' declares none of"),
    ("pairing_without_weights", _HOPF, lambda d: d["group"].pop("weight_system"),
     "tasks[0]: task atiyah_pairing needs a group.weight_system declaration"),
    ("pairing_on_nontrivial_group", _HOPF,
     lambda d: (d["group"].update(cyclic_orders=[2]), d["symbol"][0].update(character=[0])),
     "tasks[0]: task atiyah_pairing requires a trivial group"),
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
    ("integer_label_rank_two", _HOPF, _rank_two_weights,
     "tasks[0].lambda: integer label needs rank 1, this system has rank 2"),
    ("label_arity", _HOPF,
     lambda d: (_rank_two_weights(d), d["tasks"][0].update({"lambda": [1, 2, 3]})),
     "tasks[0].lambda: label [1, 2, 3] has arity 3, expected 2"),
    ("label_arity_rank_one", _HOPF, lambda d: d["tasks"][0].update({"lambda": [1, 2]}),
     "tasks[0].lambda: label [1, 2] has arity 2, expected 1"),
]

#: The names a message gives the two entries of a declaration pair.
_PAIR_FIELDS = {"manifold.generators": ("name", "degree"), "manifold.relations": ("lhs", "rhs")}
_KEY = r'\[("(?:[^"\\]|\\.)*")\]'  # a quoted key, ["relations.x"]
_PATH = re.compile(rf"(?:[A-Za-z_]\w*|{_KEY})(?:\.\w+|\[\d+\]|{_KEY})*(?=: )")


def _path_resolves(document, message: str) -> bool:
    """Whether the message starts with a path that resolves in the document
    by plain key and index lookups; `name`/`degree` of manifold.generators[i]
    and `lhs`/`rhs` of manifold.relations[i] are its positions 0 and 1, and
    the last key may be absent when the message says it is missing."""
    match = _PATH.match(message)
    if match is None:
        return False
    steps = re.findall(rf"(\w+)|\[(\d+)\]|{_KEY}", match[0])
    value, keys = document, []
    for position, (key, index, quoted) in enumerate(steps):
        key = json.loads(quoted) if quoted else key
        if index:
            if not isinstance(value, list) or int(index) >= len(value):
                return False
            value = value[int(index)]
        elif isinstance(value, list) and key in _PAIR_FIELDS.get(".".join(keys), ()):
            value = value[_PAIR_FIELDS[".".join(keys)].index(key)]
        elif isinstance(value, dict) and key in value:
            value = value[key]
            keys.append(key)
        else:
            return isinstance(value, dict) and position == len(steps) - 1 and "missing" in message
    return True


@pytest.mark.parametrize(
    "name,edit,message", [pytest.param(*case[1:], id=case[0]) for case in _REJECTED_DOCUMENTS]
)
def test_every_check_a_document_reaches_raises_scenario_error(name, edit, message):
    document = json.loads(_builtin_with(edit, name))
    with pytest.raises(ScenarioError) as refusal:
        parse_scenario(json.dumps(document))
    assert str(refusal.value).startswith(message)
    if not message.startswith("parse error"):
        assert _path_resolves(document, message)


def test_a_zero_symbol_component_is_dropped_before_the_single_character_check():
    # "x - x" parses to the zero class, which the parser drops: the
    # document is the built-in's own, and mms_projective accepts it
    text = _builtin_with(lambda d: d["symbol"].append({"character": [2], "class": "x - x"}), _GAMMA4)
    scenario = parse_scenario(text)
    results = run(scenario)
    builtin = run(parse_scenario(builtin_scenario_text(_GAMMA4)))
    assert emit(results, "machine") == emit(builtin, "machine")
    assert check_expectations(scenario, results) == []


def test_check_expectations_raises_scenario_error_on_a_result_too_long_to_write():
    # the check reads the machine text, so a result emit cannot write is
    # emit's ScenarioError naming the task, not the ValueError of str(int)
    text = builtin_scenario_text("cp2_projective_dirac").replace("1 + 1/8*x^2", "2^16000*x^2")
    scenario = parse_scenario(text)
    with pytest.raises(ScenarioError, match=r"task 0 \(fractional_index\): a result has an integer"):
        check_expectations(scenario, run(scenario))


def test_mms_projective_accepts_a_symbol_on_the_trivial_character_alone():
    # the trivial character brackets to 1 with every element of Z/4, so
    # each of the four tables reads the integral of x^2
    scenario = parse_scenario(_builtin_with(lambda d: d["symbol"][0].update(character=[0]), _GAMMA4))
    (result,) = run(scenario)
    assert payload_to_json(result.payload) == {
        "distribution": [{"gamma": [g], "moments": [["1", "1"]]} for g in range(4)]
    }


def _leaves(value, path=()):
    """The path of every scalar and empty container in a JSON value."""
    if isinstance(value, (dict, list)) and value:
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, path + (key,))
    else:
        yield path


_LEAVES = [
    (name, path) for name in sorted(BUILTIN_SCENARIOS) for path in _leaves(BUILTIN_SCENARIOS[name])
]
_REPLACEMENTS = [
    None, True, False, 0, 1, -1, 2, 3, -2, 7, 10**6, -(10**6), 1.5, -0.5, "", "x", "y", "1/0", "0",
    "-1", "x^9", "torus", "su2", "TM", [], {}, [0], [1], [-1], [0, 0], ["x", 2], [[]], {"x": 1},
]


@settings(max_examples=300, deadline=None)
@given(leaf=st.sampled_from(_LEAVES), value=st.sampled_from(_REPLACEMENTS))
def test_a_document_with_one_leaf_replaced_parses_or_names_a_field(leaf, value):
    # a refusal is a ScenarioError that names a field of the mutated
    # document, or a JSON parse error; any other exception fails the test
    name, path = leaf
    document = json.loads(builtin_scenario_text(name))
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        parse_scenario(json.dumps(document))
    except ScenarioError as exc:
        message = str(exc)
        assert message.startswith("parse error") or _path_resolves(document, message), message


@settings(max_examples=120, deadline=None)
@given(
    system=st.one_of(st.tuples(st.just("torus"), st.integers(1, 3)), st.just(("su2", 1))),
    label=st.one_of(st.integers(-3, 3), st.lists(st.integers(-3, 3), max_size=4)),
)
def test_a_label_is_refused_at_parse_or_pairs_to_a_rational(system, label):
    kind, rank = system

    def edit(d):
        d["group"]["weight_kind"] = kind
        d["group"]["weight_system"] = [
            {"weight": [int(i == j) for j in range(rank)], "line_class": "x"} for i in range(rank)
        ]
        d["tasks"] = [{"op": "atiyah_pairing", "lambda": label}]
        del d["expect"]

    try:
        scenario = parse_scenario(_builtin_with(edit, _HOPF))
    except ScenarioError as exc:
        assert str(exc).startswith("tasks[0].lambda: ")
        return
    (result,) = run(scenario)
    assert type(result.payload) is Fraction


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
        (lambda d: d["manifold"].update(relations=[["x^3", "1" * 5000 + "*x^3"]]),
         "manifold.relations[0].rhs: "),
        (lambda d: d["bundles"][0].update(chern_roots=["1" * 5000 + "*x"] * 3),
         "bundles[0].chern_roots[0]: "),
        (lambda d: d["bundles"][0].update(chern_roots=["x^" + "1" * 5000] * 3),
         "bundles[0].chern_roots[0]: "),
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
        reference = run(parse_scenario(_builtin_with(reference, name)))
        reference = [payload_to_json(r.payload) for r in reference]
    assert [payload_to_json(result.payload) for result in results] == reference


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
    # the expression parser keeps its state in locals and a stack of its
    # own, and holds no error it raises in a local, and the JSON writer
    # recurses through a module-level function, so neither builds a
    # closure that could refer back to itself
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
        with pytest.raises(ExpressionError):  # int() refused "", the error is built after
            parse_expression("1 + x^", cp2)
        emit(run(parse_scenario(builtin_scenario_text("cp2_projective_dirac"))), "machine")
        assert gc.collect() == 0
    finally:
        gc.enable()


def _dirac_cp16_results():
    # the benchmark file is read and executed, never imported
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    workloads = types.ModuleType("perfbench_workloads")
    workloads.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), workloads.__dict__)
    return run(parse_scenario(json.dumps(workloads.document("dirac_cp16", 0))))


def test_the_human_format_writes_rational_moments_without_demote(monkeypatch):
    # every moment of the dirac_cp16 benchmark document is a Fraction
    import fracindex.scalars as scalars

    results = _dirac_cp16_results()
    original, calls = scalars.demote, []
    monkeypatch.setattr(scalars, "demote", lambda value: calls.append(value) or original(value))
    emit(results, "human")
    assert calls == []


def test_the_human_format_names_each_key_once_per_emit(monkeypatch):
    # dirac_cp16 has one distribution of two tables on the same 153 keys:
    # both formats name each key once, not once per table
    import fracindex.scenarios as scenarios

    results = _dirac_cp16_results()
    original, calls = scenarios.monomial_name, []
    monkeypatch.setattr(
        scenarios, "monomial_name", lambda names, key: calls.append(key) or original(names, key)
    )
    emit(results, "human")
    assert len(calls) == len(set(calls)) == 153


def _with_tasks(name, tasks):
    document = json.loads(builtin_scenario_text(name))
    document["tasks"] = tasks
    del document["expect"]
    return run(parse_scenario(json.dumps(document)))


def test_the_human_format_writes_cyclotomic_scalars_and_the_label_suffix():
    # a scalar result is suffixed by its task's gamma, or by its lambda on
    # atiyah_pairing; a task with both holds a key its op does not read,
    # which parse refuses, so no label can name a value the op never used
    results = _with_tasks(
        "gamma4_character_sum",
        [
            {"op": "fractional_index", "gamma": [1]},
            {"op": "fractional_index", "gamma": [3]},
            {"op": "moments", "gamma": [2]},
        ],
    ) + _with_tasks(
        "hopf_riemann_roch", [{"op": "atiyah_pairing", "lambda": [2]}, {"op": "atiyah_pairing", "lambda": 1}]
    )
    assert emit(results, "human").splitlines() == [
        "scenario: gamma4_character_sum",
        "[0] fractional_index gamma=(1) = cyclotomic(order=4, [0, 1])",
        "[1] fractional_index gamma=(3) = cyclotomic(order=4, [0, -1])",
        "[2] moments gamma=(2)",
        "  1  -1",
        "scenario: hopf_riemann_roch",
        "[0] atiyah_pairing lambda=[2] = 3",
        "[1] atiyah_pairing lambda=1 = 2",
    ]
    with pytest.raises(ScenarioError, match=r"^tasks\[0\]\.lambda: unknown key"):
        _with_tasks("gamma4_character_sum", [{"op": "fractional_index", "gamma": [1], "lambda": "x"}])


@pytest.mark.parametrize("format", ["Machine", "json", ""])
def test_emit_refuses_a_format_other_than_human_or_machine(format):
    # any other value once printed the human format
    results = run(parse_scenario(builtin_scenario_text("point_trivial")))
    with pytest.raises(ScenarioError, match=r"^format: expected 'human' or 'machine', got "):
        emit(results, format)


def test_an_extra_gamma_on_atiyah_pairing_is_refused_at_parse():
    # atiyah_pairing reads no gamma; an extra int one once reached the human
    # renderer unchecked and raised TypeError there
    with pytest.raises(
        ScenarioError, match=r"^tasks\[0\]\.gamma: unknown key; the keys read here are op, lambda$"
    ):
        _with_tasks("hopf_riemann_roch", [{"op": "atiyah_pairing", "lambda": 0, "gamma": 5}])
