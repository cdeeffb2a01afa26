"""Machine output stays byte-identical: the SHA-256 of `emit(..., "machine")`
for the benchmark workloads at their first seeds, against the digests the
benchmark records in `perfbench/digests.json`, and for every built-in
scenario, against digests recorded here.

The benchmark files are read and executed here, never imported from or
written to.  A change that is meant to alter machine output re-records
both: `perfbench/record_digests.py` for the workloads, and the table below
from `fracindex run builtin:NAME --format machine | sha256sum`.
"""

from __future__ import annotations

import hashlib
import json
import types
from pathlib import Path

import pytest

from fracindex.scenarios import BUILTIN_SCENARIOS, builtin_scenario_text, emit, parse_scenario, run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = range(4)

BUILTIN_DIGESTS = {
    "cp2_projective_dirac": "0468980c0e177119749c5591e1dcac7ba3f506fba28aecae76c86992fa781c7b",
    "gamma4_character_sum": "1df9e3c0259e9af5445e3ccb6837b469f3c31571f09389bcfe9e59b57c03b010",
    "hopf_riemann_roch": "3817a59e23ce81deae961cb98cce068a7070c1f9c7d4c48b079a69e671b570d5",
    "k3_like_dirac": "9c85e2a3a71cc3f6079bc42a8fa7bb2008094b87f1f1179925ae1073d80d515e",
    "point_trivial": "8f4783293462908d06391abf441f75fb417aca0d2af55c7fee5fe7a51fe4250c",
}


def _digest(text: str) -> str:
    output = emit(run(parse_scenario(text)), "machine")
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


def _workloads() -> types.ModuleType:
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_workload_outputs_match_the_recorded_digests():
    workloads = _workloads()
    recorded = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            text = json.dumps(workloads.document(name, seed))
            assert _digest(text) == recorded[name][seed], f"{name} at seed {seed}"


def test_every_builtin_has_a_recorded_digest():
    assert sorted(BUILTIN_DIGESTS) == sorted(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(BUILTIN_DIGESTS))
def test_builtin_outputs_match_the_recorded_digests(name):
    assert _digest(builtin_scenario_text(name)) == BUILTIN_DIGESTS[name]
