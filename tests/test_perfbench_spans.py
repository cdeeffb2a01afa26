"""The benchmark's traced names still exist in the package.

`perfbench/spans.py` wraps functions and methods by name; a rename or a
deletion in `fracindex` would break a traced benchmark run without any
other test failing.  The file is read and executed here, never imported
from or written to.
"""

from __future__ import annotations

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    assert spans.TRACED
    for layer, label, owner, attr, _ in spans.TRACED:
        if isinstance(owner, type):
            # Tracer.install reads methods from the defining class itself
            assert attr in vars(owner), f"{layer}.{label}: {owner.__name__}.{attr} is gone"
            target = vars(owner)[attr]
            target = getattr(target, "__func__", target)
        else:
            assert hasattr(owner, attr), f"{layer}.{label}: {owner.__name__}.{attr} is gone"
            target = getattr(owner, attr)
        assert callable(target), f"{layer}.{label} is not callable"
