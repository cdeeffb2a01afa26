"""Every public value class is immutable after construction, and records
take exactly one value per field."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracindex.cohomology import parse_expression
from fracindex.groups import InvariantGeneratorDecl, WeightSystem
from fracindex.scalars import Cyclotomic, Frozen
from fracindex.scenarios import builtin_scenario_text, parse_scenario, run
from test_no_test_only_api import _package_classes


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


#: Every Frozen subclass the package defines: a new one fails below until
#: the fixture holds an instance of it.
FROZEN_CLASSES = sorted(
    cls.__name__ for cls in _package_classes() if issubclass(cls, Frozen) and cls is not Frozen
)


@pytest.mark.parametrize("name", FROZEN_CLASSES)
def test_value_class_rejects_assignment(instances, name):
    assert name in instances, f"the instances fixture has no {name}"
    value = instances[name]
    assert type(value).__name__ == name
    assert isinstance(value, Frozen)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        value.label = None


def test_value_class_rejects_deletion(instances):
    for name, value in instances.items():
        field = type(value).__slots__[0]
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, field)
        getattr(value, field)


def test_record_takes_one_value_per_field(instances):
    image = instances["InvariantGeneratorDecl"].image
    with pytest.raises(TypeError, match="^InvariantGeneratorDecl takes 3 values, got 2$"):
        InvariantGeneratorDecl("P", 1)
    with pytest.raises(TypeError, match="^InvariantGeneratorDecl takes 3 values, got 4$"):
        InvariantGeneratorDecl("P", 1, image, None)
    assert InvariantGeneratorDecl("P", 1, image).image is image


def test_import_loads_neither_dataclasses_nor_inspect():
    """`import dataclasses` loads `inspect`; adding it to `fracindex.scalars`
    raised `peak_rss_mb` on the `product_cp1x8` benchmark workload from
    about 21.27 to 22.24 MiB (+0.95 MiB, +4.5% against a 5% bound) in 5 of
    5 paired runs on Python 3.11.7, with bytecode writing off as here, so
    the records are built by `Frozen`'s own constructor instead."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, fracindex.scenarios; print(*sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert not {"dataclasses", "inspect"} & set(out.stdout.split())
