"""Scenario documents: the built-in expect blocks and malformed-input errors."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracindex.scalars import Cyclotomic
from fracindex.scenarios import (
    BUILTIN_SCENARIOS,
    MAX_GROUP_EXPONENT,
    MAX_GROUP_ORDER,
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
]


# ids keep the "<lambda>-<field>" form pytest gives an (edit, path) pair
@pytest.mark.parametrize(
    "name,edit,path",
    [pytest.param(*case, id=f"<lambda>-{case[2]}") for case in _MALFORMED_BUILTIN_FIELDS],
)
def test_malformed_builtin_fields_raise_path_qualified_errors(name, edit, path):
    with pytest.raises(ScenarioError, match=re.escape(path) + ": expected"):
        parse_scenario(_builtin_with(edit, name))


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
