"""The benchmark's traced names still exist in the package, and every span
pinned to a workload is called when that workload is solved.

`perfbench/spans.py` wraps functions and methods by name; a rename or a
deletion in `fracindex` would break a traced benchmark run without any
other test failing, and so would a code path that stops calling a pinned
function (a Cyclotomic built without `Cyclotomic.__init__`, say).  The
benchmark files are read and executed here, never imported from or
written to.
"""

from __future__ import annotations

import json
import types
from pathlib import Path

from fracindex import scenarios

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    spans = _load("spans")
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


def test_every_pinned_span_is_called_on_its_workload():
    spans, workloads = _load("spans"), _load("workloads")
    texts = [json.dumps(workloads.document(name, 0)) for name in workloads.WORKLOADS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for text in texts:
            tracer.begin_solve()
            try:
                scenarios.emit(scenarios.run(scenarios.parse_scenario(text)), "machine")
            finally:
                tracer.end_solve()
    finally:
        tracer.remove()
    for name, solve in zip(workloads.WORKLOADS, tracer.per_solve()):
        missing = [span for span in spans.must_call(name) if solve[span][0] == 0]
        assert not missing, f"{name} never calls {missing}"
