"""Scenario files: declarative JSON descriptions of a manifold model,
bundles, the finite center with its invariant data, a symbol, and a list
of task requests.  Parsing validates every declared invariant up front;
running produces exact, deterministically ordered results.

The same document shape is used for the built-in scenarios, for user
files, and for the optional "expect" blocks that turn any scenario into a
regression check.

The group exponent, the lcm of `group.cyclic_orders`, is capped at
MAX_GROUP_EXPONENT (1000): every emitted value lives in the cyclotomic
field of that order, whose residue table holds order * phi(order)
integers, so time and memory grow with the square of the exponent.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping, Sequence

from fracindex.characteristic import BundleData, BundleError
from fracindex.cohomology import (
    CohClass,
    ExpressionError,
    ManifoldModel,
    ModelError,
    build_model,
    monomial_name,
    parse_expression,
)
from fracindex.engine import (
    EngineError,
    IndexDistribution,
    IndexProblem,
    MomentTable,
    SymbolData,
    dirac_problem,
)
from fracindex.groups import (
    FiniteAbelianGroup,
    GroupError,
    InvariantGeneratorDecl,
    WeightSystem,
)
from fracindex.scalars import Scalar, rational_to_string, scalar_to_json

TASK_OPS = (
    "fractional_index",
    "moments",
    "full_distribution",
    "mms_projective",
    "projective_dirac",
    "atiyah_pairing",
)


#: The largest accepted group exponent (see the module docstring).
MAX_GROUP_EXPONENT = 1000


class ScenarioError(ValueError):
    """A scenario document failed to parse or violates an invariant."""


class Scenario:
    """A fully validated scenario, ready to run."""

    __slots__ = (
        "name",
        "model",
        "bundles",
        "tangent_name",
        "group",
        "generators",
        "weight_system",
        "symbol",
        "tasks",
        "expect",
    )

    def __init__(
        self,
        name: str,
        model: ManifoldModel,
        bundles: Mapping[str, BundleData],
        tangent_name: str | None,
        group: FiniteAbelianGroup,
        generators: Sequence[InvariantGeneratorDecl],
        weight_system: WeightSystem | None,
        symbol: SymbolData,
        tasks: Sequence[Mapping[str, Any]],
        expect: Sequence[Any] | None,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "bundles", dict(bundles))
        object.__setattr__(self, "tangent_name", tangent_name)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "weight_system", weight_system)
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "tasks", tuple(dict(t) for t in tasks))
        object.__setattr__(self, "expect", list(expect) if expect is not None else None)

    def __setattr__(self, name, value):
        raise AttributeError("Scenario is immutable")

    def tangent_bundle(self) -> BundleData | None:
        return self.bundles.get(self.tangent_name) if self.tangent_name else None

    def problem(self) -> IndexProblem:
        return IndexProblem.with_tangent(
            self.model, self.group, self.generators, self.symbol, self.tangent_bundle()
        )

    def __repr__(self):
        return f"Scenario({self.name!r}, {len(self.tasks)} tasks)"


class TaskResult:
    """One task's exact outcome, with the request and scenario echoed."""

    __slots__ = ("scenario", "index", "request", "payload")

    def __init__(self, scenario: str, index: int, request: Mapping[str, Any], payload) -> None:
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "request", dict(request))
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("TaskResult is immutable")

    def payload_json(self):
        return _payload_to_json(self.payload)

    def __repr__(self):
        return f"TaskResult({self.scenario!r}[{self.index}], {self.request.get('op')})"


def _payload_to_json(payload):
    if isinstance(payload, MomentTable):
        return {
            "gamma": list(payload.gamma),
            "moments": [
                [monomial_name(payload.generator_names, key), scalar_to_json(value)]
                for key, value in payload.values.items()
            ],
        }
    if isinstance(payload, IndexDistribution):
        return {
            "distribution": [
                _payload_to_json(table) for table in payload.tables.values()
            ]
        }
    return {"value": scalar_to_json(payload)}


# ---------------------------------------------------------------------------
# parsing and validation


def _need(mapping: Mapping[str, Any], key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _int_list(value: Any, path: str) -> tuple[int, ...]:
    try:
        if isinstance(value, list):
            return tuple(int(v) for v in value)
    except (TypeError, ValueError):
        pass
    raise ScenarioError(f"{path}: expected a list of ints, got {value!r}")


def _expression(text: Any, model: ManifoldModel, context: str) -> CohClass:
    if not isinstance(text, str):
        raise ScenarioError(f"{context}: expected an expression string, got {text!r}")
    try:
        return parse_expression(text, model)
    except ExpressionError as exc:
        raise ScenarioError(f"{context}: {exc}") from exc


def _build_manifold(spec: Mapping[str, Any]) -> ManifoldModel:
    dimension = _need(spec, "dimension", "manifold")
    generators = [(str(n), int(d)) for n, d in spec.get("generators", [])]
    relations = [(str(a), str(b)) for a, b in spec.get("relations", [])]
    fundamental = spec.get("fundamental")
    if fundamental is not None:
        fundamental = (str(fundamental[0]), Fraction(str(fundamental[1])))
    try:
        return build_model(dimension, generators, relations, fundamental)
    except (ModelError, ExpressionError) as exc:
        raise ScenarioError(f"manifold: {exc}") from exc


def _build_bundles(
    specs: Sequence[Mapping[str, Any]], model: ManifoldModel
) -> tuple[dict[str, BundleData], str | None]:
    bundles: dict[str, BundleData] = {}
    tangent_name = None
    for spec in specs:
        name = str(_need(spec, "name", "bundle"))
        if name in bundles:
            raise ScenarioError(f"bundle {name!r} declared twice")
        rank = int(_need(spec, "rank", f"bundle {name!r}"))
        kwargs: dict[str, Any] = {}
        if "chern_roots" in spec:
            kwargs["roots"] = [
                _expression(t, model, f"bundle {name!r} root") for t in spec["chern_roots"]
            ]
        if "chern" in spec:
            kwargs["chern"] = [
                _expression(t, model, f"bundle {name!r} chern") for t in spec["chern"]
            ]
        if "pontryagin" in spec:
            kwargs["pontryagin"] = [
                _expression(t, model, f"bundle {name!r} pontryagin")
                for t in spec["pontryagin"]
            ]
        try:
            bundles[name] = BundleData(name, rank, model=model, **kwargs)
        except BundleError as exc:
            raise ScenarioError(str(exc)) from exc
        if spec.get("tangent"):
            if tangent_name is not None:
                raise ScenarioError("more than one bundle is flagged as tangent data")
            tangent_name = name
    return bundles, tangent_name


def _build_group_block(
    spec: Mapping[str, Any], model: ManifoldModel
) -> tuple[FiniteAbelianGroup, list[InvariantGeneratorDecl], WeightSystem | None]:
    if not isinstance(spec, dict):
        raise ScenarioError(f"group: expected an object, got {spec!r}")
    orders = _int_list(spec.get("cyclic_orders", []), "group.cyclic_orders")
    try:
        group = FiniteAbelianGroup(orders)
    except GroupError as exc:
        raise ScenarioError(f"group.cyclic_orders: {exc}") from exc
    if group.exponent > MAX_GROUP_EXPONENT:
        raise ScenarioError(
            f"group.cyclic_orders: group exponent {group.exponent} exceeds the cap of "
            f"{MAX_GROUP_EXPONENT}"
        )

    generators = []
    for gen_spec in spec.get("invariant_generators", []):
        name = str(_need(gen_spec, "name", "invariant generator"))
        s_degree = int(_need(gen_spec, "s_degree", f"generator {name!r}"))
        image = _expression(
            _need(gen_spec, "image", f"generator {name!r}"), model, f"generator {name!r} image"
        )
        try:
            generators.append(InvariantGeneratorDecl(name, s_degree, image))
        except GroupError as exc:
            raise ScenarioError(str(exc)) from exc

    system = None
    entries = spec.get("weight_system", [])
    if entries:
        kind = str(spec.get("weight_kind", "torus"))
        rank = len(entries[0].get("weight", []))
        line_classes: list[CohClass | None] = [None] * rank
        for entry in entries:
            weight = [int(w) for w in _need(entry, "weight", "weight system entry")]
            if len(weight) != rank:
                raise ScenarioError("weight system entries must share one arity")
            hot = [i for i, w in enumerate(weight) if w != 0]
            if len(hot) != 1 or weight[hot[0]] != 1:
                raise ScenarioError(
                    "weight system entries declare basis line classes: each weight "
                    "must be a unit coordinate vector"
                )
            if line_classes[hot[0]] is not None:
                raise ScenarioError(f"weight coordinate {hot[0]} declared twice")
            line_classes[hot[0]] = _expression(
                _need(entry, "line_class", "weight system entry"), model, "weight system"
            )
        if any(cls is None for cls in line_classes):
            raise ScenarioError("weight system must declare every coordinate once")
        try:
            system = WeightSystem(kind, line_classes)  # type: ignore[arg-type]
        except GroupError as exc:
            raise ScenarioError(str(exc)) from exc
    return group, generators, system


def _build_symbol(
    specs: Sequence[Mapping[str, Any]], model: ManifoldModel, group: FiniteAbelianGroup
) -> SymbolData:
    components: dict[tuple[int, ...], CohClass] = {}
    for spec in specs:
        character = tuple(int(k) for k in _need(spec, "character", "symbol component"))
        if not group.contains(character):
            raise ScenarioError(
                f"symbol character {character} is outside the group's exponent ranges"
            )
        cls = _expression(_need(spec, "class", "symbol component"), model, "symbol component")
        if character in components:
            raise ScenarioError(f"symbol character {character} declared twice")
        components[character] = cls
    try:
        return SymbolData(group, components)
    except EngineError as exc:
        raise ScenarioError(str(exc)) from exc


def _validate_task(
    task: Any,
    path: str,
    scenario_name: str,
    group: FiniteAbelianGroup,
    bundles: Mapping[str, BundleData],
    tangent_name: str | None,
    weight_system: WeightSystem | None,
) -> None:
    if not isinstance(task, dict):
        raise ScenarioError(f"{path}: expected an object, got {task!r}")
    op = task.get("op")
    if op not in TASK_OPS:
        raise ScenarioError(f"{scenario_name}: unknown task op {op!r}")
    if op in ("fractional_index", "moments"):
        gamma = _need(task, "gamma", f"task {op}")
        if not group.contains(_int_list(gamma, f"{path}.gamma")):
            raise ScenarioError(
                f"task {op}: gamma {gamma} is outside the group's exponent ranges"
            )
    if op == "moments" and "max_degree" in task and int(task["max_degree"]) < 0:
        raise ScenarioError("task moments: max_degree must be nonnegative")
    if op == "projective_dirac":
        name = task.get("tangent", tangent_name)
        if name is None:
            raise ScenarioError(
                "task projective_dirac needs tangent data: flag a bundle with "
                '"tangent": true or name one in the task'
            )
        if name not in bundles:
            raise ScenarioError(f"task projective_dirac: unknown bundle {name!r}")
    if op == "atiyah_pairing":
        if weight_system is None:
            raise ScenarioError("task atiyah_pairing needs a weight_system declaration")
        if not group.is_trivial():
            raise ScenarioError("task atiyah_pairing requires a trivial group")
        if "lambda" not in task:
            raise ScenarioError("task atiyah_pairing: missing key 'lambda'")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(document, dict):
        raise ScenarioError("scenario document must be a JSON object")

    name = str(document.get("name", "unnamed"))
    model = _build_manifold(_need(document, "manifold", name))
    bundles, tangent_name = _build_bundles(document.get("bundles", []), model)
    group, generators, weight_system = _build_group_block(document.get("group", {}), model)
    symbol = _build_symbol(document.get("symbol", []), model, group)

    tasks = document.get("tasks", [])
    if not isinstance(tasks, list):
        raise ScenarioError(f"{name}: tasks must be a list")
    for index, task in enumerate(tasks):
        _validate_task(task, f"tasks[{index}]", name, group, bundles, tangent_name, weight_system)

    expect = document.get("expect")
    if expect is not None:
        if not isinstance(expect, list) or len(expect) != len(tasks):
            raise ScenarioError(f"{name}: expect block must list one entry per task")

    return Scenario(
        name, model, bundles, tangent_name, group, generators, weight_system,
        symbol, tasks, expect,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


# ---------------------------------------------------------------------------
# running


def run(
    scenario: Scenario,
    task_filter: str | None = None,
    max_degree: int | None = None,
) -> list[TaskResult]:
    """Execute the scenario's tasks in order.  `task_filter` selects tasks
    by op name or zero-based index; `max_degree` overrides the moment
    cutoff of every moment-producing task."""
    problem = scenario.problem()
    results: list[TaskResult] = []
    for index, task in enumerate(scenario.tasks):
        if task_filter is not None:
            if task_filter.isdigit():
                if index != int(task_filter):
                    continue
            elif task.get("op") != task_filter:
                continue
        op = task["op"]
        try:
            if op == "fractional_index":
                payload: Any = problem.fractional_index(tuple(task["gamma"]))
            elif op == "moments":
                bound = max_degree if max_degree is not None else task.get("max_degree")
                payload = problem.moments(tuple(task["gamma"]), bound)
            elif op == "full_distribution":
                bound = max_degree if max_degree is not None else task.get("max_degree")
                payload = problem.full_distribution(bound)
            elif op == "mms_projective":
                bound = max_degree if max_degree is not None else task.get("max_degree")
                payload = problem.mms_projective(bound)
            elif op == "projective_dirac":
                bundle = scenario.bundles[task.get("tangent", scenario.tangent_name)]
                bound = max_degree if max_degree is not None else task.get("max_degree")
                payload = dirac_problem(
                    scenario.model, bundle, scenario.generators
                ).full_distribution(bound)
            else:  # atiyah_pairing
                label = task["lambda"]
                if isinstance(label, list):
                    label = tuple(int(w) for w in label)
                else:
                    label = int(label)
                payload = problem.atiyah_pairing(scenario.weight_system, label)
        except (EngineError, GroupError) as exc:
            raise ScenarioError(f"{scenario.name}: task {index} ({op}): {exc}") from exc
        results.append(TaskResult(scenario.name, index, task, payload))
    return results


def check_expectations(scenario: Scenario, results: Sequence[TaskResult]) -> list[str]:
    """Compare results against the scenario's expect block; returns a list
    of human-readable mismatch descriptions (empty when all pass)."""
    if scenario.expect is None:
        return []
    mismatches = []
    for result in results:
        expected = scenario.expect[result.index]
        if expected is None:
            continue
        actual = result.payload_json()
        if actual != expected:
            mismatches.append(
                f"{scenario.name}: task {result.index} ({result.request.get('op')}): "
                f"expected {json.dumps(expected)}, got {json.dumps(actual)}"
            )
    return mismatches


# ---------------------------------------------------------------------------
# output


def emit(results: Sequence[TaskResult], format: str = "human") -> str:
    """Render results: "machine" is a stable JSON document with exact
    scalars; "human" is an aligned plain-text table.  Identical inputs
    produce byte-identical output."""
    if format == "machine":
        by_scenario: dict[str, list[TaskResult]] = {}
        for result in results:
            by_scenario.setdefault(result.scenario, []).append(result)
        document = {
            "scenarios": [
                {
                    "scenario": name,
                    "results": [
                        {"index": r.index, "task": r.request, "result": r.payload_json()}
                        for r in items
                    ],
                }
                for name, items in by_scenario.items()
            ]
        }
        return json.dumps(document, indent=2) + "\n"
    if format != "human":
        raise ValueError(f"unknown output format {format!r}")

    lines: list[str] = []
    current = None
    for result in results:
        if result.scenario != current:
            current = result.scenario
            lines.append(f"scenario: {current}")
        op = result.request.get("op")
        label = f"[{result.index}] {op}"
        payload = result.payload
        if isinstance(payload, MomentTable):
            lines.append(f"{label} gamma={_gamma_str(payload.gamma)}")
            lines.extend(_table_lines(payload))
        elif isinstance(payload, IndexDistribution):
            lines.append(label)
            for gamma, table in payload.tables.items():
                lines.append(f"  gamma={_gamma_str(gamma)}")
                lines.extend(_table_lines(table, indent=4))
        else:
            suffix = ""
            if "gamma" in result.request:
                suffix = f" gamma={_gamma_str(tuple(result.request['gamma']))}"
            if "lambda" in result.request:
                suffix = f" lambda={result.request['lambda']}"
            lines.append(f"{label}{suffix} = {_scalar_str(payload)}")
    return "\n".join(lines) + "\n"


def _gamma_str(gamma: tuple[int, ...]) -> str:
    return "(" + ",".join(str(g) for g in gamma) + ")"


def _scalar_str(value: Scalar) -> str:
    rendered = scalar_to_json(value)
    if isinstance(rendered, str):
        return rendered
    return "cyclotomic(order=%d, [%s])" % (
        rendered["order"],
        ", ".join(rendered["coefficients"]),
    )


def _table_lines(table: MomentTable, indent: int = 2) -> list[str]:
    pad = " " * indent
    names = [monomial_name(table.generator_names, key) for key in table.values]
    width = max((len(n) for n in names), default=1)
    return [
        f"{pad}{name.ljust(width)}  {_scalar_str(value)}"
        for name, value in zip(names, table.values.values())
    ]


# ---------------------------------------------------------------------------
# scenario re-serialization (round-trip support)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Reconstruct a scenario document from the validated object; all
    expressions are rendered in normal form, so parsing the result yields
    an equivalent scenario."""
    model = scenario.model
    manifold: dict[str, Any] = {
        "dimension": model.dimension,
        "generators": [[n, d] for n, d in model.generators],
        "relations": [
            [
                f"{model.generators[i][0]}^{power}",
                CohClass(model, rhs).to_expression(),
            ]
            for i, (power, rhs) in sorted(model.relations.items())
        ],
    }
    if model.dimension > 0 or model.generators:
        manifold["fundamental"] = [
            model.monomial_name(model.fundamental_monomial),
            rational_to_string(model.orientation),
        ]

    bundles = []
    for name, bundle in scenario.bundles.items():
        spec: dict[str, Any] = {"name": name, "rank": bundle.rank}
        if bundle.roots is not None:
            spec["chern_roots"] = [r.to_expression() for r in bundle.roots]
        if bundle.chern is not None:
            spec["chern"] = [c.to_expression() for c in bundle.chern]
        if bundle.pontryagin is not None:
            spec["pontryagin"] = [p.to_expression() for p in bundle.pontryagin]
        if name == scenario.tangent_name:
            spec["tangent"] = True
        bundles.append(spec)

    group: dict[str, Any] = {"cyclic_orders": list(scenario.group.cyclic_orders)}
    if scenario.generators:
        group["invariant_generators"] = [
            {"name": g.name, "s_degree": g.s_degree, "image": g.image.to_expression()}
            for g in scenario.generators
        ]
    if scenario.weight_system is not None:
        system = scenario.weight_system
        group["weight_kind"] = system.kind
        group["weight_system"] = [
            {
                "weight": [1 if j == i else 0 for j in range(system.rank)],
                "line_class": cls.to_expression(),
            }
            for i, cls in enumerate(system.line_classes)
        ]

    document: dict[str, Any] = {"name": scenario.name, "manifold": manifold}
    if bundles:
        document["bundles"] = bundles
    document["group"] = group
    if scenario.symbol.components:
        document["symbol"] = [
            {"character": list(chi), "class": cls.to_expression()}
            for chi, cls in scenario.symbol.components.items()
        ]
    document["tasks"] = [dict(t) for t in scenario.tasks]
    if scenario.expect is not None:
        document["expect"] = scenario.expect
    return document


def scenario_to_text(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


# ---------------------------------------------------------------------------
# built-in scenarios


BUILTIN_SCENARIOS: dict[str, dict] = {
    "point_trivial": {
        "name": "point_trivial",
        "manifold": {"dimension": 0, "generators": [], "relations": []},
        "group": {"cyclic_orders": []},
        "symbol": [{"character": [], "class": "1"}],
        "tasks": [{"op": "fractional_index", "gamma": []}],
        "expect": [{"value": "1"}],
    },
    "cp2_projective_dirac": {
        "name": "cp2_projective_dirac",
        "manifold": {
            "dimension": 4,
            "generators": [["x", 2]],
            "relations": [["x^3", "0"]],
            "fundamental": ["x^2", "1"],
        },
        "bundles": [
            {"name": "TM", "rank": 3, "chern_roots": ["x", "x", "x"], "tangent": True}
        ],
        "group": {
            "cyclic_orders": [2],
            "invariant_generators": [
                {"name": "P1", "s_degree": 2, "image": "3*x^2"},
                {"name": "E", "s_degree": 2, "image": "3*x^2"},
            ],
        },
        "symbol": [{"character": [1], "class": "1 + 1/8*x^2"}],
        "tasks": [
            {"op": "fractional_index", "gamma": [0]},
            {"op": "fractional_index", "gamma": [1]},
            {"op": "moments", "gamma": [0], "max_degree": 2},
            {"op": "projective_dirac"},
        ],
        "expect": [
            {"value": "-1/8"},
            {"value": "1/8"},
            {
                "gamma": [0],
                "moments": [
                    ["1", "-1/8"],
                    ["P1", "3"],
                    ["E", "3"],
                    ["P1^2", "0"],
                    ["P1*E", "0"],
                    ["E^2", "0"],
                ],
            },
            {
                "distribution": [
                    {
                        "gamma": [0],
                        "moments": [
                            ["1", "-1/8"],
                            ["P1", "3"],
                            ["E", "3"],
                            ["P1^2", "0"],
                            ["P1*E", "0"],
                            ["E^2", "0"],
                        ],
                    },
                    {
                        "gamma": [1],
                        "moments": [
                            ["1", "1/8"],
                            ["P1", "-3"],
                            ["E", "-3"],
                            ["P1^2", "0"],
                            ["P1*E", "0"],
                            ["E^2", "0"],
                        ],
                    },
                ]
            },
        ],
    },
    "hopf_riemann_roch": {
        "name": "hopf_riemann_roch",
        "manifold": {
            "dimension": 2,
            "generators": [["x", 2]],
            "relations": [["x^2", "0"]],
            "fundamental": ["x", "1"],
        },
        "group": {
            "cyclic_orders": [],
            "weight_kind": "torus",
            "weight_system": [{"weight": [1], "line_class": "x"}],
        },
        "symbol": [{"character": [], "class": "1 + x"}],
        "tasks": [
            {"op": "atiyah_pairing", "lambda": 0},
            {"op": "atiyah_pairing", "lambda": 1},
            {"op": "atiyah_pairing", "lambda": 2},
            {"op": "atiyah_pairing", "lambda": 3},
            {"op": "atiyah_pairing", "lambda": -1},
            {"op": "atiyah_pairing", "lambda": -2},
        ],
        "expect": [
            {"value": "1"},
            {"value": "2"},
            {"value": "3"},
            {"value": "4"},
            {"value": "0"},
            {"value": "-1"},
        ],
    },
    "gamma4_character_sum": {
        "name": "gamma4_character_sum",
        "manifold": {
            "dimension": 4,
            "generators": [["x", 2]],
            "relations": [["x^3", "0"]],
            "fundamental": ["x^2", "1"],
        },
        "bundles": [
            {"name": "TM", "rank": 3, "chern_roots": ["x", "x", "x"], "tangent": True}
        ],
        "group": {"cyclic_orders": [4]},
        "symbol": [{"character": [1], "class": "x^2"}],
        "tasks": [{"op": "mms_projective"}],
        "expect": [
            {
                "distribution": [
                    {"gamma": [0], "moments": [["1", "1"]]},
                    {
                        "gamma": [1],
                        "moments": [["1", {"order": 4, "coefficients": ["0", "1"]}]],
                    },
                    {"gamma": [2], "moments": [["1", "-1"]]},
                    {
                        "gamma": [3],
                        "moments": [["1", {"order": 4, "coefficients": ["0", "-1"]}]],
                    },
                ]
            }
        ],
    },
    "k3_like_dirac": {
        "name": "k3_like_dirac",
        "manifold": {
            "dimension": 4,
            "generators": [["q", 4]],
            "relations": [],
            "fundamental": ["q", "1"],
        },
        "bundles": [{"name": "TK", "rank": 2, "chern": ["0", "24*q"], "tangent": True}],
        "group": {
            "cyclic_orders": [2],
            "invariant_generators": [{"name": "P1", "s_degree": 2, "image": "-48*q"}],
        },
        "tasks": [{"op": "projective_dirac"}],
        "expect": [
            {
                "distribution": [
                    {"gamma": [0], "moments": [["1", "2"], ["P1", "-48"], ["P1^2", "0"]]},
                    {"gamma": [1], "moments": [["1", "-2"], ["P1", "48"], ["P1^2", "0"]]},
                ]
            }
        ],
    },
}


def builtin_scenario_text(name: str) -> str:
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError(f"unknown built-in scenario {name!r}")
    return json.dumps(BUILTIN_SCENARIOS[name], indent=2) + "\n"
