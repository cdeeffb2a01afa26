"""Every public value class is immutable after construction."""

from __future__ import annotations

import pytest

from fracindex.cohomology import parse_expression
from fracindex.groups import WeightSystem
from fracindex.scalars import Cyclotomic, Frozen
from fracindex.scenarios import builtin_scenario_text, parse_scenario, run


@pytest.fixture(scope="module")
def instances() -> dict[str, object]:
    scenario = parse_scenario(builtin_scenario_text("cp2_projective_dirac"))
    problem = scenario.problem()
    distribution = problem.full_distribution()
    model = scenario.model
    return {
        "ManifoldModel": model,
        "CohClass": model.one(),
        "BundleData": scenario.tangent_bundle(),
        "FiniteAbelianGroup": scenario.group,
        "InvariantGeneratorDecl": scenario.generators[0],
        "WeightSystem": WeightSystem("torus", [parse_expression("x", model)]),
        "SymbolData": scenario.symbol,
        "IndexProblem": problem,
        "MomentTable": next(iter(distribution.tables.values())),
        "IndexDistribution": distribution,
        "Cyclotomic": Cyclotomic.root_of_unity(4),
        "Scenario": scenario,
        "TaskResult": run(scenario)[0],
    }


@pytest.mark.parametrize(
    "name",
    [
        "BundleData", "CohClass", "Cyclotomic", "FiniteAbelianGroup", "IndexDistribution",
        "IndexProblem", "InvariantGeneratorDecl", "ManifoldModel", "MomentTable",
        "Scenario", "SymbolData", "TaskResult", "WeightSystem",
    ],
)
def test_value_class_rejects_assignment(instances, name):
    value = instances[name]
    assert type(value).__name__ == name
    assert isinstance(value, Frozen)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        value.label = None
