"""Scenario files: declarative JSON descriptions of a manifold model,
bundles, the finite center with its invariant data, a symbol, and a list
of task requests.  Parsing validates every declared invariant up front,
and is the one place a document value is checked or converted: every
refusal of a document happens at parse, and the layers below store the
parsed values as they are.  Running produces exact, deterministically
ordered results.  `emit` prints them from one writer: the human format is
rendered from the machine text read back, so `--check`, which compares
that text with the expect block, vouches for both formats.

Every ScenarioError a document causes starts with the path of the field at
fault, then ": " and the reason, as in `bundles[0].rank: negative rank -1`.
A path is the document's keys joined by "." with list positions as [i],
and an unknown key that is not one name token quoted, as ["relations.x"];
the two entries of a pair are named, `manifold.generators[i].name` and
`.degree`, `manifold.relations[i].lhs` and `.rhs`.  A path may end in a
key the document lacks only when the reason says it is missing.  Two
refusals name no field: text that is not JSON ("parse error ...") and a
JSON value that is not an object.

The same document shape is used for the built-in scenarios, for user
files, and for the optional "expect" blocks that turn any scenario into a
regression check.  An object holds only the keys the parser reads (a
task those of its op): any other key, a misspelt one included, is
refused, not ignored.  Every integer field takes a JSON integer only: a
float, a bool or a digit string is refused, never truncated or read.
`bundles[i].tangent` takes a JSON bool, so "false" is refused, not read
as true; every name, `group.weight_kind`, relation side and fundamental
monomial takes a JSON string, never a value rendered with str().  The
orientation `manifold.fundamental[1]` is a JSON integer or a string "p" or
"p/q" of digits as expressions read numbers; a float is refused.  A
generator name, `manifold.generators[i].name` or
`group.invariant_generators[i].name`, is one name token of the expression
grammar (`cohomology.is_generator_name`): a letter or "_", then word
characters.  Moment keys are written from invariant generator names, so
"E^2", which would print as a power of "E", and "" are refused.  Bundles
used as tangent data must declare roots, Chern or Pontryagin classes.  A
symbol class that parses to zero is dropped, the rest kept in character
order, and an `mms_projective` task needs a symbol on exactly one
character with a nonzero class, the trivial one included.  An
`atiyah_pairing` label under `group.weight_kind` "torus" is a list of as
many ints as the weight system has coordinates, or an int when it has one.

Four caps keep every document's run bounded:

- The group exponent, the lcm of `group.cyclic_orders`, is capped at
  MAX_GROUP_EXPONENT (1000): every emitted value lives in the cyclotomic
  field of that order, whose residue table holds order * phi(order)
  integers, so time and memory grow with the square of the exponent.
- The group order, the product of `group.cyclic_orders`, is capped at
  MAX_GROUP_ORDER (1000): a full distribution has one table per element,
  and each table sums over every symbol component.
- A task's `max_degree` may not exceed half the manifold dimension: an
  invariant generator has s_degree >= 1, so every moment monomial of
  higher total degree has an image above the dimension and pairs to zero,
  while the number of monomials grows without bound.  Below the cap, a key
  whose weighted degree sum_i s_degree_i * e_i exceeds half the dimension
  has a zero image, decided by degree with no product or engine step and
  written from a cached row.  The output still grows as C(D + g, g) keys
  per table for g generators at bound D, which no cap bounds yet.
- An `atiyah_pairing` label under `group.weight_kind` "su2" is a
  nonnegative integer, capped at MAX_SU2_LABEL (5000): highest weight
  lambda has lambda + 1 weights, each one exponential of the line class,
  so time grows linearly with the label; at the cap, `run` of one pairing
  with line class 1/2*x took 0.39-0.69 s on CP^16 and 0.08-0.10 s on CP^1
  (nine runs each; Intel Xeon, one core, whose speed drifts by up to 2x).

A scenario file must be UTF-8 text; other bytes raise a ScenarioError
naming the file and the offset of the first byte that does not decode.
NaN, Infinity and a float past the double range are refused at parse.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping, Sequence

from fracindex.characteristic import BundleData, _elementary_symmetric
from fracindex.cohomology import (
    CohClass,
    ExpressionError,
    ManifoldModel,
    ModelError,
    build_model,
    is_generator_name,
    monomial_name,
    parse_expression,
)
from fracindex.engine import (
    IndexDistribution,
    IndexProblem,
    MomentTable,
    SymbolData,
    dirac_problem,
)
from fracindex.groups import (
    FiniteAbelianGroup,
    InvariantGeneratorDecl,
    WeightSystem,
)
from fracindex.scalars import Frozen, scalar_to_json

#: The largest accepted group exponent and group order (see the module
#: docstring).
MAX_GROUP_EXPONENT = 1000
MAX_GROUP_ORDER = 1000
MAX_SU2_LABEL = 5000


class ScenarioError(ValueError):
    """A scenario document failed to parse or violates an invariant."""


class Scenario(Frozen):
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

    def tangent_bundle(self) -> BundleData | None:
        return self.bundles.get(self.tangent_name) if self.tangent_name else None

    def problem(self) -> IndexProblem:
        return IndexProblem.with_tangent(
            self.model, self.group, self.generators, self.symbol, self.tangent_bundle()
        )

    def __repr__(self):
        return f"Scenario({self.name!r}, {len(self.tasks)} tasks)"


class TaskResult(Frozen):
    """One task's exact outcome, with the request and scenario echoed."""

    __slots__ = ("scenario", "index", "request", "payload")

    def __repr__(self):
        return f"TaskResult({self.scenario!r}[{self.index}], {self.request.get('op')})"


# ---------------------------------------------------------------------------
# parsing and validation


def _need(mapping: Mapping[str, Any], path: str, convert: Callable | None = None, *args):
    """The value of the required key that ends `path`, passed through
    convert(value, path, *args) when a converter is given."""
    key = path.rpartition(".")[2]
    if key not in mapping:
        raise ScenarioError(f"{path}: missing required key")
    return mapping[key] if convert is None else convert(mapping[key], path, *args)


def _is_int(value: Any) -> bool:
    """A JSON integer: an int, not a bool, and never a float or string
    that int() would truncate or read."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value: Any, path: str) -> int:
    if not _is_int(value):
        raise ScenarioError(f"{path}: expected an int, got {value!r}")
    return value


def _str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected a string, got {value!r}")
    return value


_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?")  # digits as `int()` and expressions read them


def _rational(value: Any, path: str) -> Fraction:
    """A JSON integer, or a string "p" or "p/q" within the int() digit limit."""
    if _is_int(value):
        return Fraction(value)
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ScenarioError(f'{path}: expected an int or a "p" or "p/q" string, got {value!r}')
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ValueError:  # longer than the interpreter's int() digit limit
        digits = max(len(match[1].lstrip("-")), len(match[2] or ""))
        raise ScenarioError(f"{path}: number of {digits} digits is too long") from None
    except ZeroDivisionError:
        raise ScenarioError(f"{path}: zero denominator in {value!r}") from None


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected a list, got {value!r}")
    return value


def _pairs(value: Any, path: str, shape: str) -> list[list]:
    """A list of two-element lists, as in [[name, degree], ...]."""
    for index, item in enumerate(_list(value, path)):
        if not isinstance(item, list) or len(item) != 2:
            raise ScenarioError(f"{path}[{index}]: expected {shape}, got {item!r}")
    return value


def _known(spec: Mapping[str, Any], path: str, keys: Sequence[str]) -> None:
    """Refuse the first key of the object at `path` ("" for the document)
    that the parser does not read: a misspelt key would otherwise be
    ignored, and the value it meant to set left at its default.  A key
    that is not one name token (`is_generator_name`) is quoted, as in
    manifold["relations.x"], so the path names no field that is not there."""
    for key in spec:
        if key not in keys:
            if is_generator_name(key):
                field = f"{path}.{key}" if path else key
            else:
                field = f"{path}[{encode_basestring_ascii(key)}]"
            raise ScenarioError(f"{field}: unknown key; the keys read here are {', '.join(keys)}")


def _objects(value: Any, path: str) -> list[dict]:
    for index, item in enumerate(_list(value, path)):
        if not isinstance(item, dict):
            raise ScenarioError(f"{path}[{index}]: expected an object, got {item!r}")
    return value


def _int_list(value: Any, path: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(map(_is_int, value)):
        raise ScenarioError(f"{path}: expected a list of ints, got {value!r}")
    return tuple(value)


def _expression(text: Any, path: str, model: ManifoldModel) -> CohClass:
    if not isinstance(text, str):
        raise ScenarioError(f"{path}: expected an expression string, got {text!r}")
    try:
        return parse_expression(text, model)
    except ExpressionError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _homogeneous(cls: CohClass, path: str, degree: int) -> CohClass:
    if not cls.is_homogeneous(degree):
        raise ScenarioError(f"{path}: must be homogeneous of degree {degree}")
    return cls


def _build_manifold(spec: Mapping[str, Any]) -> ManifoldModel:
    if not isinstance(spec, dict):
        raise ScenarioError(f"manifold: expected an object, got {spec!r}")
    _known(spec, "manifold", ("dimension", "generators", "relations", "fundamental"))
    dimension = _need(spec, "manifold.dimension", _int)
    path = "manifold.generators"
    generators = [
        (_str(n, f"{path}[{i}].name"), _int(d, f"{path}[{i}].degree"))
        for i, (n, d) in enumerate(_pairs(spec.get("generators", []), path, "[name, degree]"))
    ]
    path = "manifold.relations"
    relations = [
        (_str(a, f"{path}[{i}].lhs"), _str(b, f"{path}[{i}].rhs"))
        for i, (a, b) in enumerate(_pairs(spec.get("relations", []), path, "[lhs, rhs]"))
    ]
    fundamental = spec.get("fundamental")
    if fundamental is not None:
        if not isinstance(fundamental, list) or len(fundamental) != 2:
            raise ScenarioError(
                "manifold.fundamental: expected [monomial, rational orientation], "
                f"got {fundamental!r}"
            )
        monomial, orientation = fundamental
        fundamental = (_str(monomial, "manifold.fundamental[0]"),
                       _rational(orientation, "manifold.fundamental[1]"))
    try:
        return build_model(dimension, generators, relations, fundamental)
    except (ModelError, ExpressionError) as exc:  # each starts with a path in the declaration
        raise ScenarioError(f"manifold.{exc}") from exc


#: The classes a bundle may declare: (key, degree of the first class, degree
#: step from one class to the next).
_BUNDLE_CLASSES = (("chern_roots", 2, 0), ("chern", 2, 2), ("pontryagin", 4, 4))


def _build_bundles(
    specs: Sequence[Mapping[str, Any]], model: ManifoldModel
) -> tuple[dict[str, BundleData], str | None]:
    bundles: dict[str, BundleData] = {}
    tangent_name = None
    parsed: dict[str, CohClass] = {}  # each distinct root or class text, parsed once
    for index, spec in enumerate(_objects(specs, "bundles")):
        path = f"bundles[{index}]"
        _known(spec, path, ("name", "rank", "chern_roots", "chern", "pontryagin", "tangent"))
        name = _need(spec, f"{path}.name", _str)
        if name in bundles:
            raise ScenarioError(f"{path}.name: bundle {name!r} declared twice")
        rank = _need(spec, f"{path}.rank", _int)
        if rank < 0:
            raise ScenarioError(f"{path}.rank: negative rank {rank}")
        data: dict[str, tuple[CohClass, ...]] = {}
        for key, first, step in _BUNDLE_CLASSES:
            if key in spec:
                classes = []
                for j, text in enumerate(_list(spec[key], f"{path}.{key}")):
                    field = f"{path}.{key}[{j}]"
                    if not isinstance(text, str) or text not in parsed:
                        parsed[text] = _expression(text, field, model)
                    classes.append(_homogeneous(parsed[text], field, first + step * j))
                data[key] = tuple(classes)
        roots, chern = data.get("chern_roots"), data.get("chern")
        if roots is not None and len(roots) != rank:
            raise ScenarioError(f"{path}.chern_roots: {len(roots)} roots for rank {rank}")
        if roots is not None and chern is not None:
            elementary = _elementary_symmetric(model, roots, len(chern))
            for j, declared in enumerate(chern):
                if elementary[j] != declared:
                    raise ScenarioError(
                        f"{path}.chern[{j}]: declared c_{j + 1} disagrees with the roots"
                    )
        bundles[name] = BundleData(name, rank, roots, chern, data.get("pontryagin"), model=model)
        tangent = spec.get("tangent", False)
        if not isinstance(tangent, bool):
            raise ScenarioError(f"{path}.tangent: expected a bool, got {tangent!r}")
        if tangent:
            if tangent_name is not None:
                raise ScenarioError(
                    f"{path}.tangent: more than one bundle is flagged as tangent data"
                )
            tangent_name = name
            _check_tangent_data(bundles[name], f"{path}.tangent")
    return bundles, tangent_name


def _check_tangent_data(bundle: BundleData, path: str) -> None:
    """The a-hat genus of tangent data needs roots, Chern or Pontryagin
    classes; `path` is the field that makes the bundle tangent data."""
    if bundle.roots is None and bundle.chern is None and bundle.pontryagin is None:
        raise ScenarioError(
            f"{path}: tangent bundle {bundle.name!r} declares none of "
            "chern_roots, chern, pontryagin"
        )


def _build_group_block(
    spec: Mapping[str, Any], model: ManifoldModel
) -> tuple[FiniteAbelianGroup, tuple[InvariantGeneratorDecl, ...], WeightSystem | None]:
    if not isinstance(spec, dict):
        raise ScenarioError(f"group: expected an object, got {spec!r}")
    _known(spec, "group", ("cyclic_orders", "invariant_generators", "weight_kind", "weight_system"))
    orders = _int_list(spec.get("cyclic_orders", []), "group.cyclic_orders")
    for index, order in enumerate(orders):
        if order < 1:
            raise ScenarioError(f"group.cyclic_orders[{index}]: must be positive, got {order}")
    group = FiniteAbelianGroup(orders)
    if group.exponent > MAX_GROUP_EXPONENT:
        raise ScenarioError(
            f"group.cyclic_orders: group exponent {group.exponent} exceeds the cap of "
            f"{MAX_GROUP_EXPONENT}"
        )
    if group.order > MAX_GROUP_ORDER:
        raise ScenarioError(
            f"group.cyclic_orders: group order {group.order} exceeds the cap of "
            f"{MAX_GROUP_ORDER}"
        )

    generators: list[InvariantGeneratorDecl] = []
    for index, gen_spec in enumerate(
        _objects(spec.get("invariant_generators", []), "group.invariant_generators")
    ):
        path = f"group.invariant_generators[{index}]"
        _known(gen_spec, path, ("name", "s_degree", "image"))
        name = _need(gen_spec, f"{path}.name", _str)
        if not is_generator_name(name):
            raise ScenarioError(f"{path}.name: not a name expressions can read, got {name!r}")
        if any(gen.name == name for gen in generators):
            raise ScenarioError(f"{path}.name: invariant generator {name!r} declared twice")
        s_degree = _need(gen_spec, f"{path}.s_degree", _int)
        if s_degree < 1:
            raise ScenarioError(f"{path}.s_degree: must be positive, got {s_degree}")
        image = _need(gen_spec, f"{path}.image", _expression, model)
        _homogeneous(image, f"{path}.image", 2 * s_degree)
        generators.append(InvariantGeneratorDecl(name, s_degree, image))

    kind = spec.get("weight_kind", "torus")
    if kind not in ("torus", "su2"):
        raise ScenarioError(f'group.weight_kind: expected "torus" or "su2", got {kind!r}')
    path = "group.weight_system"
    entries = _objects(spec.get("weight_system", []), path)
    for i, entry in enumerate(entries):
        _known(entry, f"{path}[{i}]", ("weight", "line_class"))
    if not entries:
        return group, tuple(generators), None
    weights = [_need(entry, f"{path}[{i}].weight", _int_list) for i, entry in enumerate(entries)]
    rank = len(weights[0])
    if kind == "su2" and rank != 1:
        raise ScenarioError(f"{path}: an su2 system takes exactly one line class, got {rank}")
    line_classes: list[CohClass | None] = [None] * rank
    for i, (entry, weight) in enumerate(zip(entries, weights)):
        if len(weight) != rank:
            raise ScenarioError(
                f"{path}[{i}].weight: weight system entries must share one arity, got "
                f"{len(weight)}, expected {rank}"
            )
        hot = [j for j, w in enumerate(weight) if w != 0]
        if len(hot) != 1 or weight[hot[0]] != 1:
            raise ScenarioError(f"{path}[{i}].weight: each weight must be a unit coordinate vector")
        if line_classes[hot[0]] is not None:
            raise ScenarioError(f"{path}[{i}].weight: weight coordinate {hot[0]} declared twice")
        line_class = _need(entry, f"{path}[{i}].line_class", _expression, model)
        line_classes[hot[0]] = _homogeneous(line_class, f"{path}[{i}].line_class", 2)
    missing = [j for j, cls in enumerate(line_classes) if cls is None]
    if missing:
        raise ScenarioError(f"{path}: weight coordinate {missing[0]} is not declared")
    return group, tuple(generators), WeightSystem(kind, tuple(line_classes))


def _build_symbol(
    specs: Sequence[Mapping[str, Any]], model: ManifoldModel, group: FiniteAbelianGroup
) -> SymbolData:
    components: dict[tuple[int, ...], CohClass] = {}
    for index, spec in enumerate(_objects(specs, "symbol")):
        path = f"symbol[{index}]"
        _known(spec, path, ("character", "class"))
        character = _need(spec, f"{path}.character", _int_list)
        if not group.contains(character):
            raise ScenarioError(
                f"{path}.character: {list(character)} is outside the group's exponent ranges"
            )
        if character in components:
            raise ScenarioError(f"{path}.character: {list(character)} declared twice")
        components[character] = _need(spec, f"{path}.class", _expression, model)
    return SymbolData({chi: u for chi, u in sorted(components.items()) if not u.is_zero()})


def _check_gamma(scenario: Scenario, task: dict, path: str) -> None:
    gamma = _need(task, f"{path}.gamma", _int_list)
    if not scenario.group.contains(gamma):
        raise ScenarioError(f"{path}.gamma: {list(gamma)} is outside the group's exponent ranges")


def _check_bound(scenario: Scenario, task: dict, path: str) -> None:
    if "max_degree" in task:
        _check_max_degree(task["max_degree"], f"{path}.max_degree", scenario.model.dimension // 2)


def _check_tangent(scenario: Scenario, task: dict, path: str) -> None:
    """A task's own tangent bundle; the flagged one was checked with the
    bundles."""
    path += ".tangent"
    if "tangent" not in task:
        if scenario.tangent_name is None:
            raise ScenarioError(
                f'{path}: missing, and no bundle is flagged "tangent": true; '
                "task projective_dirac needs tangent data"
            )
        return
    name = task["tangent"]
    if not isinstance(name, str):
        raise ScenarioError(f"{path}: expected a bundle name, got {name!r}")
    if name not in scenario.bundles:
        raise ScenarioError(f"{path}: unknown bundle {name!r}")
    _check_tangent_data(scenario.bundles[name], path)


def _check_single_character(scenario: Scenario, task: dict, path: str) -> None:
    if len(scenario.symbol.components) != 1:
        raise ScenarioError(
            f"{path}: task mms_projective requires a symbol concentrated on a single nonzero "
            f"character; got {len(scenario.symbol.components)} components"
        )


def _check_label(scenario: Scenario, task: dict, path: str) -> None:
    if scenario.weight_system is None:
        raise ScenarioError(f"{path}: task atiyah_pairing needs a group.weight_system declaration")
    if not scenario.group.is_trivial():
        raise ScenarioError(f"{path}: task atiyah_pairing requires a trivial group")
    label = _need(task, f"{path}.lambda")
    (_int_list if isinstance(label, list) else _int)(label, f"{path}.lambda")
    if scenario.weight_system.kind == "torus":
        rank = scenario.weight_system.rank
        if not isinstance(label, list) and rank != 1:
            raise ScenarioError(f"{path}.lambda: integer label needs rank 1, this system has rank {rank}")
        if isinstance(label, list) and len(label) != rank:
            raise ScenarioError(f"{path}.lambda: label {label} has arity {len(label)}, expected {rank}")
        return
    if isinstance(label, list) or label < 0:
        raise ScenarioError(f"{path}.lambda: su2 labels are nonnegative integers, got {label}")
    if label > MAX_SU2_LABEL:
        raise ScenarioError(f"{path}.lambda: su2 label {label} exceeds the cap of {MAX_SU2_LABEL}")


def _projective_dirac(scenario: Scenario, problem: IndexProblem, task: dict, bound):
    bundle = scenario.bundles[task.get("tangent", scenario.tangent_name)]
    return dirac_problem(scenario.model, bundle, scenario.generators).full_distribution(bound)


#: Each task op: the checks its fields pass at parse time, each called as
#: check(scenario, task, path), and its handler, called as
#: handler(scenario, problem, task, bound) with the moment cutoff in force.
#: mms_projective, the projective case, is full_distribution restricted to
#: symbols on a single character, which its check enforces at parse time.
_OPS: dict[str, tuple[tuple[Callable, ...], Callable]] = {
    "fractional_index": ((_check_gamma,), lambda s, p, task, b: p.fractional_index(task["gamma"])),
    "moments": ((_check_gamma, _check_bound), lambda s, p, task, b: p.moments(task["gamma"], b)),
    "full_distribution": ((_check_bound,), lambda s, p, task, b: p.full_distribution(b)),
    "mms_projective": (
        (_check_bound, _check_single_character), lambda s, p, task, b: p.full_distribution(b)
    ),
    "projective_dirac": ((_check_bound, _check_tangent), _projective_dirac),
    "atiyah_pairing": (
        (_check_label,), lambda s, p, task, b: p.atiyah_pairing(s.weight_system, task["lambda"])
    ),
}
#: The task key each check reads: a task holds "op" and its checks' keys.
_KEYS = {_check_gamma: "gamma", _check_bound: "max_degree",
         _check_tangent: "tangent", _check_label: "lambda"}


def _check_max_degree(value: Any, path: str, cap: int) -> None:
    if not 0 <= _int(value, path) <= cap:
        raise ScenarioError(
            f"{path}: {value} is outside 0..{cap} (half the manifold dimension)"
        )


def _json_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int() digit limit
        raise ScenarioError(
            f"parse error: number of {len(digits.lstrip('-'))} digits is too long"
        ) from None


def _json_float(text: str) -> float:
    """A finite JSON float; json.loads also hands NaN and +-Infinity here."""
    if math.isfinite(value := float(text)):
        return value
    raise ScenarioError(f"parse error: {text[:20]!r} is not a finite number")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        document = json.loads(
            text, parse_int=_json_int, parse_float=_json_float, parse_constant=_json_float
        )
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ScenarioError("parse error: the document is nested too deeply") from None
    if not isinstance(document, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _known(document, "", ("name", "manifold", "bundles", "group", "symbol", "tasks", "expect"))

    name = _str(document.get("name", "unnamed"), "name")
    model = _build_manifold(_need(document, "manifold"))
    bundles, tangent_name = _build_bundles(document.get("bundles", []), model)
    group, generators, weight_system = _build_group_block(document.get("group", {}), model)
    symbol = _build_symbol(document.get("symbol", []), model, group)

    tasks = _objects(document.get("tasks", []), "tasks")
    expect = document.get("expect")
    if expect is not None and (not isinstance(expect, list) or len(expect) != len(tasks)):
        raise ScenarioError(f"expect: must list one entry per task, {len(tasks)} in all")

    scenario = Scenario(
        name, model, bundles, tangent_name, group, generators, weight_system,
        symbol, tuple(tasks), expect,
    )
    for index, task in enumerate(scenario.tasks):
        path = f"tasks[{index}]"
        op = _need(task, f"{path}.op")
        if not isinstance(op, str) or op not in _OPS:
            raise ScenarioError(f"{path}.op: unknown task op {op!r}")
        checks, _ = _OPS[op]
        _known(task, path, ("op", *[_KEYS[check] for check in checks if check in _KEYS]))
        for check in checks:
            check(scenario, task, path)
    return scenario


def load_scenario(path: str) -> Scenario:
    """Read a scenario file as UTF-8 text, newlines translated as text mode
    does, and parse it."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(
            f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None
    return parse_scenario(text.replace("\r\n", "\n").replace("\r", "\n"))


# ---------------------------------------------------------------------------
# running


def select_tasks(scenario: Scenario, task_filter: str | None = None) -> list[tuple[int, dict]]:
    """The (index, task) pairs `run` runs for `task_filter`, in order."""
    try:
        tasks = [
            (index, task)
            for index, task in enumerate(scenario.tasks)
            if task_filter is None
            or (index == int(task_filter) if task_filter.isdecimal() else task["op"] == task_filter)
        ]
    except ValueError:  # a decimal past int()'s digit limit names no index int() reads
        tasks = []
    if task_filter is not None and not tasks:
        raise ScenarioError(f"task: no task has op or zero-based index {task_filter!r}")
    return tasks


def run(
    scenario: Scenario,
    task_filter: str | None = None,
    max_degree: int | None = None,
) -> list[TaskResult]:
    """Execute the scenario's tasks in order.  `task_filter` selects tasks
    by op name or zero-based index (a decimal number); `max_degree`
    overrides the moment cutoff of every moment-producing task, within the
    same bounds as a task's own `max_degree`.  An override outside them,
    and a filter that selects no task, are the two ScenarioErrors raised
    here, before any task runs: `parse_scenario` has refused every
    document a task could fail on."""
    if max_degree is not None:
        _check_max_degree(max_degree, "max_degree", scenario.model.dimension // 2)
    tasks = select_tasks(scenario, task_filter)
    problem = scenario.problem()
    results: list[TaskResult] = []
    for index, task in tasks:
        _, handle = _OPS[task["op"]]
        bound = max_degree if max_degree is not None else task.get("max_degree")
        payload = handle(scenario, problem, task, bound)
        results.append(TaskResult(scenario.name, index, dict(task), payload))
    return results


def check_expectations(scenario: Scenario, results: Sequence[TaskResult]) -> list[str]:
    """Compare results against the scenario's expect block; returns a list
    of human-readable mismatch descriptions (empty when all pass).  Each
    expect entry is compared with the "result" object of that result's
    machine text, read back by `json.loads`, so what is checked is what
    `emit` prints; a result with an integer too long to write raises
    `emit`'s ScenarioError."""
    if scenario.expect is None:
        return []
    mismatches = []
    for result in results:
        expected = scenario.expect[result.index]
        if expected is None:
            continue
        actual = json.loads(_json_text(result))["result"]
        if actual != expected:
            mismatches.append(
                f"{scenario.name}: task {result.index} ({result.request.get('op')}): "
                f"expected {json.dumps(expected)}, got {json.dumps(actual)}"
            )
    return mismatches


# ---------------------------------------------------------------------------
# output


def emit(results: Sequence[TaskResult], format: str = "human") -> str:
    """Render results: "machine" is the text json.dumps(..., indent=2)
    gives for {"scenarios": [{"scenario", "results"}]}, each result an
    {"index", "task", "result"} object, written straight by `_json_text`
    (the "result" is {"value"}, a table's {"gamma", "moments"} or
    {"distribution"}); "human" is an aligned plain-text table rendered
    from those objects, read back from one `_json_text` pass, so
    `--check`, which reads the machine text, vouches for both formats.
    Identical inputs produce byte-identical output.  A result with an
    integer longer than the interpreter writes (`sys.get_int_max_str_digits`)
    raises a ScenarioError that names its task; a `format` other than the
    two raises one that starts "format:"."""
    if format == "machine":
        by_scenario: dict[str, list[TaskResult]] = {}
        for result in results:
            by_scenario.setdefault(result.scenario, []).append(result)
        blocks = [{"scenario": name, "results": items} for name, items in by_scenario.items()]
        return _json_text({"scenarios": blocks}) + "\n"
    if format != "human":
        raise ScenarioError(f"format: expected 'human' or 'machine', got {format!r}")
    lines: list[str] = []
    current = None
    for result, item in zip(results, json.loads(_json_text(list(results)))):
        if result.scenario != current:
            current = result.scenario
            lines.append(f"scenario: {current}")
        lines.extend(_result_lines(item))
    return "\n".join(lines) + "\n"


def _result_lines(item: dict) -> list[str]:
    """The human lines of one machine-format result object: a scalar on
    its label's line, after its task's lambda or else its gamma; a header
    and one aligned line per moment for each table."""
    task, result = item["task"], item["result"]
    label = f"[{item['index']}] {task.get('op')}"
    if "value" in result:
        suffix = ""
        if "lambda" in task:
            suffix = f" lambda={task['lambda']}"
        elif "gamma" in task:
            suffix = f" gamma={_gamma_str(task['gamma'])}"
        return [f"{label}{suffix} = {_value_str(result['value'])}"]
    if "moments" in result:
        lines, tables, head, pad = [], [result], label + " ", "  "
    else:
        lines, tables, head, pad = [label], result["distribution"], "  ", "    "
    for table in tables:
        width = max((len(name) for name, _ in table["moments"]), default=1)
        lines.append(f"{head}gamma={_gamma_str(table['gamma'])}")
        lines.extend(f"{pad}{name.ljust(width)}  {_value_str(v)}" for name, v in table["moments"])
    return lines


def _json_text(value) -> str:
    """json.dumps(value, indent=2) for string-keyed JSON, which `indent`
    sends through the pure-Python encoder, by appends to one list: strings
    use json's C quoting, other scalars and empty containers json.dumps; a
    TaskResult is written as its machine-format object."""
    out: list[str] = []
    _write_json(out, value, "", {})
    return "".join(out)


def _write_json(out: list[str], value, indent: str, heads: dict) -> None:
    if type(value) is str:
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict) and value:
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(out, item, inner, heads)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(out, item, inner, heads)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, TaskResult):
        payload = value.payload
        try:
            if not isinstance(payload, (MomentTable, IndexDistribution)):
                payload = {"value": scalar_to_json(payload)}
            item = {"index": value.index, "task": value.request, "result": payload}
            _write_json(out, item, indent, heads)
        except ValueError:  # str(int) past the interpreter's digit limit
            raise ScenarioError(
                f"{value.scenario}: task {value.index} ({value.request.get('op')}): "
                f"a result has an integer of more than {sys.get_int_max_str_digits()} digits"
            ) from None
    elif isinstance(value, MomentTable):
        _write_table(out, value, heads, indent)
    elif isinstance(value, IndexDistribution):
        inner = indent + "    "
        out.append("{\n" + indent + '  "distribution": [')
        for position, table in enumerate(value.tables.values()):
            out.append(("\n" if position == 0 else ",\n") + inner)
            _write_table(out, table, heads, inner)
        out.append(("\n" + indent + "  ]" if value.tables else "]") + "\n" + indent + "}")
    else:
        out.append(json.dumps(value))


def _write_table(out: list[str], table: MomentTable, heads: dict, indent: str) -> None:
    """One table straight to text, one append per row, each row head (comma,
    bracket, quoted key name) and zero row built once per generator names and
    indent in `heads`; any other Fraction's str() (not its slower format())
    in one f-string, a Cyclotomic as `scalar_to_json`'s string or order and
    coefficient strings, which need no escaping."""
    inner, row, cell = indent + "  ", indent + "    ", indent + "      "
    out.append("{\n" + inner + '"gamma": ')
    _write_json(out, list(table.gamma), inner, heads)
    out.append(",\n" + inner + '"moments": [')
    end, between = "\n" + row + "]", '",\n' + cell + '    "'
    names, zeros = heads.setdefault((table.generator_names, indent), ({}, {}))
    for key in table.values.keys() - names.keys():
        name = encode_basestring_ascii(monomial_name(table.generator_names, key))
        names[key] = ",\n" + row + "[\n" + cell + name + ",\n" + cell
        zeros[key] = names[key] + '"0"' + end
    first = len(out)
    for key, value in table.values.items():
        if type(value) is Fraction:
            out.append(f'{names[key]}"{str(value)}"{end}' if value else zeros[key])
        else:
            rendered = scalar_to_json(value)
            if type(rendered) is str:
                text = '"' + rendered + '"'
            else:
                text = (
                    "{\n" + cell + '  "order": ' + str(rendered["order"]) + ",\n" + cell
                    + '  "coefficients": [\n' + cell + '    "' + between.join(rendered["coefficients"])
                    + '"\n' + cell + "  ]\n" + cell + "}"
                )
            out.append(names[key] + text + end)
    if table.values:
        out[first] = out[first][1:]
    out.append(("\n" + inner + "]" if table.values else "]") + "\n" + indent + "}")


def _gamma_str(gamma: list) -> str:
    return "(" + ",".join(str(g) for g in gamma) + ")"


def _value_str(value) -> str:
    """A machine-format scalar: its string, or a Cyclotomic's object."""
    if isinstance(value, str):
        return value
    return f"cyclotomic(order={value['order']}, [{', '.join(value['coefficients'])}])"


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
    return _json_text(BUILTIN_SCENARIOS[name]) + "\n"
