"""No API exists only for its own tests: every function, method and class
of the package is used by the package, the benchmark or the console script.

The check is by name over the syntax trees: a definition is used when its
name is loaded, read as an attribute or imported in `src/fracindex/` or
`perfbench/*.py`, is a string in `perfbench/*.py` (the tracer patches
attributes by name), or is a `[project.scripts]` entry point.  Dunders and
the names in `fracindex.__all__` are exempt.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import fracindex

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
