"""Scenario documents: the built-in expect blocks and the text round trip."""

from __future__ import annotations

import pytest

from fracindex.scenarios import (
    BUILTIN_SCENARIOS,
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
