"""No API exists only for its own tests: every function, method and class
of the package is used by the package, the benchmark or the console script,
every arithmetic, equality or hash operator of a package class is called
when the package does its own work, and every field of a package class is
read then or shown by its class's own __repr__.

Definitions are checked by name over the syntax trees: a definition is
used when its name is loaded, read as an attribute or imported in
`src/fracindex/` or `perfbench/*.py`, is a string in `perfbench/*.py` (the
tracer patches attributes by name), or is a `[project.scripts]` entry
point.  Dunders and the names in `fracindex.__all__` are exempt there.

Operators are checked at run time instead, since `a + b` names no
attribute: each of OPERATORS that a package class defines in its own
namespace (so an alias such as `__radd__ = __add__` counts on its own) is
wrapped with a counter, and the built-in scenarios, the benchmark
workloads with their checks, and one document declaring its tangent
bundle by both roots and Chern classes must call every one.  Fields are
checked over the same runs: each `__slots__` entry of a package class is
replaced by a descriptor that counts reads and passes reads and writes to
the slot, and a field no run reads must be an attribute of self that the
class's own __repr__ reads.  The benchmark files are read and executed
here, never imported from or written to.
"""

from __future__ import annotations

import ast
import importlib
import json
import re
import types
from collections import Counter
from pathlib import Path

import fracindex
from fracindex import scenarios

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fracindex"


def _trees(directory: Path) -> list[tuple[Path, ast.Module]]:
    paths = sorted(directory.glob("*.py"))
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _used_names() -> set[str]:
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    used = set(re.findall(r'=\s*"[\w.]+:(\w+)"', scripts))  # name = "module:function"
    for directory in (PACKAGE, ROOT / "perfbench"):
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
                elif directory.name == "perfbench" and isinstance(node, ast.Constant):
                    used.add(str(node.value))
    return used


def _definitions(body, owner: str = ""):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield owner + node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, node.name + ".")


def test_every_definition_is_used_outside_the_tests():
    used = _used_names() | set(fracindex.__all__)
    unused = [
        f"{path.name}: {qualified}"
        for path, tree in _trees(PACKAGE)
        for qualified, name in _definitions(tree.body)
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    ]
    assert not unused, f"defined in src/fracindex/ but used only by tests: {unused}"


OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__neg__", "__pow__", "__eq__", "__hash__",
)


def _package_classes() -> list[type]:
    modules = [
        importlib.import_module(f"fracindex.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"  # it defines no class
    ]
    return [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]


def _counting(counts: Counter, key: str, function):
    def counted(*args):
        counts[key] += 1
        return function(*args)

    return counted


def _load_workloads() -> types.ModuleType:
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _run_checked(text: str) -> None:
    scenario = scenarios.parse_scenario(text)
    results = scenarios.run(scenario)
    scenarios.emit(results, "machine")
    scenarios.emit(results, "human")
    assert scenarios.check_expectations(scenario, results) == []


def _run_the_package() -> None:
    """The runs both guards watch: the built-in scenarios, the benchmark
    workloads with their checks, and one document declaring its tangent
    bundle by both roots and Chern classes, so both genus routes run."""
    for name in scenarios.BUILTIN_SCENARIOS:
        _run_checked(scenarios.builtin_scenario_text(name))
    workloads = _load_workloads()
    for name in workloads.WORKLOADS:
        document = workloads.document(name, 0)
        check = workloads.make_check(name, document)
        assert check(scenarios.run(scenarios.parse_scenario(json.dumps(document)))) == []
    both = json.loads(scenarios.builtin_scenario_text("cp2_projective_dirac"))
    both["bundles"][0]["chern"] = ["3*x", "3*x^2"]
    _run_checked(json.dumps(both))


def test_every_operator_is_reached_outside_the_tests(monkeypatch):
    counts: Counter = Counter()
    wrapped = []
    for cls in _package_classes():
        for name in OPERATORS:
            function = vars(cls).get(name)
            if function is not None:  # __hash__ is None beside an __eq__ alone
                key = f"{cls.__name__}.{name}"
                monkeypatch.setattr(cls, name, _counting(counts, key, function))
                wrapped.append(key)
    assert wrapped
    _run_the_package()
    unreached = [key for key in wrapped if not counts[key]]
    assert not unreached, f"operators of src/fracindex/ that no package run calls: {unreached}"


class _CountedSlot:
    """A slot descriptor that counts reads and passes them and writes to the
    slot it wraps; a setter bound before the wrap writes the slot itself."""

    def __init__(self, slot, counts: Counter, key: str) -> None:
        self.slot, self.counts, self.key = slot, counts, key

    def __get__(self, obj, owner=None):
        if obj is not None:
            self.counts[self.key] += 1
        return self.slot.__get__(obj, owner)

    def __set__(self, obj, value):
        self.slot.__set__(obj, value)


def _repr_fields() -> set[str]:
    """"Class.field" for each attribute of self that a class's own
    __repr__ reads."""
    shown = set()
    for _, tree in _trees(PACKAGE):
        for cls in [node for node in tree.body if isinstance(node, ast.ClassDef)]:
            for function in cls.body:
                if isinstance(function, ast.FunctionDef) and function.name == "__repr__":
                    shown.update(
                        f"{cls.name}.{node.attr}"
                        for node in ast.walk(function)
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    )
    return shown


def test_every_field_is_read_outside_the_tests(monkeypatch):
    counts: Counter = Counter()
    fields = []
    for cls in _package_classes():
        for name in vars(cls).get("__slots__", ()):
            key = f"{cls.__name__}.{name}"
            monkeypatch.setattr(cls, name, _CountedSlot(vars(cls)[name], counts, key))
            fields.append(key)
    assert fields
    _run_the_package()
    unread = [key for key in fields if not counts[key] and key not in _repr_fields()]
    assert not unread, f"fields of src/fracindex/ that no package run reads: {unread}"
