"""Scenario documents: the built-in expect blocks and the text round trip."""

from __future__ import annotations

import json
import re

import pytest

from fracindex.scalars import Cyclotomic
from fracindex.scenarios import (
    BUILTIN_SCENARIOS,
    MAX_GROUP_EXPONENT,
    ScenarioError,
    builtin_scenario_text,
    check_expectations,
    emit,
    parse_scenario,
    run,
    scenario_to_text,
)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_scenario_meets_expectations_and_round_trips(name):
    scenario = parse_scenario(builtin_scenario_text(name))
    results = run(scenario)
    assert scenario.expect is not None
    assert check_expectations(scenario, results) == []

    reparsed = parse_scenario(scenario_to_text(scenario))
    assert emit(run(reparsed), "machine") == emit(results, "machine")


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
