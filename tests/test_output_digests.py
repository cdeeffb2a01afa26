"""Output stays byte-identical: the SHA-256 of `emit(..., "machine")` for
the benchmark workloads at their first seeds, against the digests the
benchmark records in `perfbench/digests.json`, and of both formats for
every built-in scenario, of the machine format for six edge documents over
Z/12, and of the human format for the workloads at their first seed,
against digests recorded here.  The machine
writer also equals an independent rendering: json.dumps(..., indent=2) of
each result's `oracles.payload_to_json`, on the same documents and on drawn
payloads, and the workload outputs pass the benchmark's own checks
(`workloads.make_check`).

The benchmark files are read and executed here, never imported from or
written to.  A change that is meant to alter the output re-records both:
`perfbench/record_digests.py` for the workloads, and the tables below
from `fracindex run builtin:NAME --format machine | sha256sum` (and
`--format human`, and `emit(..., "human")` of each workload document at
seed 0).
"""

from __future__ import annotations

import hashlib
import json
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracindex.engine import IndexDistribution, MomentTable
from fracindex.groups import FiniteAbelianGroup
from fracindex.scalars import Cyclotomic, cyclotomic_polynomial
from fracindex.scenarios import (
    BUILTIN_SCENARIOS,
    TaskResult,
    builtin_scenario_text,
    emit,
    parse_scenario,
    run,
)

from oracles import payload_to_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = range(4)

BUILTIN_DIGESTS = {
    "cp2_projective_dirac": "0468980c0e177119749c5591e1dcac7ba3f506fba28aecae76c86992fa781c7b",
    "gamma4_character_sum": "1df9e3c0259e9af5445e3ccb6837b469f3c31571f09389bcfe9e59b57c03b010",
    "hopf_riemann_roch": "3817a59e23ce81deae961cb98cce068a7070c1f9c7d4c48b079a69e671b570d5",
    "k3_like_dirac": "9c85e2a3a71cc3f6079bc42a8fa7bb2008094b87f1f1179925ae1073d80d515e",
    "point_trivial": "8f4783293462908d06391abf441f75fb417aca0d2af55c7fee5fe7a51fe4250c",
}


HUMAN_DIGESTS = {
    "cp2_projective_dirac": "9aa39021904d9a06307cf0e65bad168c0a747ca2295119adbc635d4add851c32",
    "gamma4_character_sum": "d4016d1427ecd60c0f73553a384661995bec13f40d1399ce7de65727b1952e1a",
    "hopf_riemann_roch": "8d6a37463a82ec4004c3b4ab03ae87aadada04dd4fa1216b86fca9d1f1777bef",
    "k3_like_dirac": "49812052ae1f8b25fbbc30959b85d655d271c4450b332010c751f8459a6ff41a",
    "point_trivial": "c4416bfffc207faf5a513393369b95dbef58f03ab9f28b581efba179d9c50c30",
}


# emit(..., "human") of each benchmark workload document at seed 0
WORKLOAD_HUMAN_DIGESTS = {
    "dirac_cp16": "ad25fe70fdf1974875091f50da241527ad124bc84974a7262b3dd85e78d41816",
    "product_cp1x8": "b1dadcf6427bd15520d41cebaa6b3bd2628ca554b734cafac92435220670f581",
    "center_z6z4": "0ed0c4925fe63dc8cf7417b493deebbd1a8ca834d8138826466d65077377d412",
}


def _digest(text: str, format: str = "machine") -> str:
    output = emit(run(parse_scenario(text)), format)
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


def _machine_oracle(results) -> str:
    """The machine format by json.dumps of each result's `payload_to_json`."""
    by_scenario: dict[str, list] = {}
    for result in results:
        by_scenario.setdefault(result.scenario, []).append(
            {"index": result.index, "task": result.request, "result": payload_to_json(result.payload)}
        )
    blocks = [{"scenario": name, "results": items} for name, items in by_scenario.items()]
    return json.dumps({"scenarios": blocks}, indent=2) + "\n"


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


def test_workload_human_outputs_match_the_recorded_digests():
    workloads = _workloads()
    assert sorted(WORKLOAD_HUMAN_DIGESTS) == sorted(workloads.WORKLOADS)
    for name, digest in WORKLOAD_HUMAN_DIGESTS.items():
        assert _digest(json.dumps(workloads.document(name, 0)), "human") == digest, name


def test_workload_outputs_pass_the_benchmark_checks():
    # the checks a benchmark run applies besides the digests: a run that
    # fails them is refused, so they must hold on every recorded seed
    workloads = _workloads()
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            doc = workloads.document(name, seed)
            results = run(parse_scenario(json.dumps(doc)))
            assert workloads.make_check(name, doc)(results) == [], f"{name} at seed {seed}"


def test_every_builtin_has_a_recorded_digest():
    assert sorted(BUILTIN_DIGESTS) == sorted(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(BUILTIN_DIGESTS))
def test_builtin_outputs_match_the_recorded_digests(name):
    assert _digest(builtin_scenario_text(name)) == BUILTIN_DIGESTS[name]


def test_every_builtin_has_a_recorded_human_digest():
    assert sorted(HUMAN_DIGESTS) == sorted(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(HUMAN_DIGESTS))
def test_builtin_human_outputs_match_the_recorded_digests(name):
    assert _digest(builtin_scenario_text(name), "human") == HUMAN_DIGESTS[name]


# edge documents over Z/12 (CP^2 with its tangent roots, generators L and Q,
# four components and one full_distribution), each with one part taken
# away or degenerate; `emit(..., "machine")` digests
_EDGE_BASE = {
    "name": "z12_edge",
    "manifold": {
        "dimension": 4,
        "generators": [["x", 2]],
        "relations": [["x^3", "0"]],
        "fundamental": ["x^2", "1"],
    },
    "bundles": [{"name": "TM", "rank": 3, "chern_roots": ["x", "x", "x"], "tangent": True}],
    "group": {
        "cyclic_orders": [12],
        "invariant_generators": [
            {"name": "L", "s_degree": 1, "image": "2/3*x"},
            {"name": "Q", "s_degree": 2, "image": "-5*x^2"},
        ],
    },
    "symbol": [
        {"character": [1], "class": "1/2 - 3*x + 7/5*x^2"},
        {"character": [5], "class": "-4 + 1/3*x"},
        {"character": [6], "class": "2*x - 9/4*x^2"},
        {"character": [11], "class": "5/6 + x^2"},
    ],
    "tasks": [{"op": "full_distribution"}],
}

EDGE_DIGESTS = {
    "no_component": "46db3250f33244f0964efb37dc110f1d5cb7cc6a695a1d89008caacfbbc0202c",
    "zero_class": "279cc2604e04bfe0ce1e497b09eb3088f2a0e45e215bd0cc244f0130f430ef21",
    "zero_image": "34d30d29871174a51cc4325494ce3f9a3c7527d7230d83c53dc433f396eb57c5",
    "no_generators": "c6bf942eb6973c1e3e53be039a103fcc38da82445afa2f62babc1e8827509aa2",
    "max_degree_0": "e29bd803fb5d059605033f43c10b218aac2df860244618fb1c5085e12ba45ff3",
    "trivial_group": "1da77a9905d538c37ddba17731506c58d58d5524fab7a78d1e24100d0789d84b",
}


def _edge_document(name: str) -> dict:
    document = json.loads(json.dumps(_EDGE_BASE))
    document["name"] = f"z12_{name}"
    group, symbol = document["group"], document["symbol"]
    if name == "no_component":
        document["symbol"] = []
    elif name == "zero_class":  # parsed to zero and dropped
        symbol[1]["class"] = "x - x"
    elif name == "zero_image":  # every key with Q has the zero image
        group["invariant_generators"][1]["image"] = "0"
    elif name == "no_generators":
        group["invariant_generators"] = []
    elif name == "max_degree_0":
        document["tasks"] = [{"op": "full_distribution", "max_degree": 0}]
    else:  # the first component on the trivial group
        group["cyclic_orders"] = []
        document["symbol"] = [{"character": [], "class": symbol[0]["class"]}]
    return document


@pytest.mark.parametrize("name", sorted(EDGE_DIGESTS))
def test_edge_document_outputs_match_the_recorded_digests(name):
    assert _digest(json.dumps(_edge_document(name))) == EDGE_DIGESTS[name]


def test_machine_output_matches_the_json_dumps_oracle():
    workloads = _workloads()
    texts = [builtin_scenario_text(name) for name in sorted(BUILTIN_SCENARIOS)]
    texts += [
        json.dumps(workloads.document(name, seed)) for name in workloads.WORKLOADS for seed in SEEDS
    ]
    for text in texts:
        results = run(parse_scenario(text))
        assert emit(results, "machine") == _machine_oracle(results)


_SCALARS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-3), Fraction(7), Fraction(-5, 12)]),
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 30)),
    st.sampled_from([3, 4, 12]).flatmap(
        lambda order: st.builds(
            Cyclotomic,
            st.just(order),
            st.lists(st.integers(-5, 5), max_size=len(cyclotomic_polynomial(order)) - 1),
            st.integers(1, 6),
        )
    ),
)


@st.composite
def _results(draw):
    """TaskResults of two interleaved scenarios with drawn payloads: moment
    tables (empty ones and generator-free keys included), distributions
    and scalars.  Tables take one of two drawn generator-name tuples of one
    length and keys from a few drawn exponent tuples, at the top level and
    inside distributions, so one key meets other names at one indent and
    the same names at another."""
    size = draw(st.integers(0, 3))
    pool = st.sampled_from(["P1", "E", "x_2", "\u03b1"])
    two = [tuple(draw(st.lists(pool, min_size=size, max_size=size, unique=True))) for _ in range(2)]
    exponents = st.tuples(*[st.integers(0, 3)] * size)
    keys = st.sampled_from(draw(st.lists(exponents, min_size=1, max_size=3)))
    tables = st.builds(
        MomentTable,
        st.lists(st.integers(0, 5), max_size=2).map(tuple),
        st.sampled_from(two),
        st.dictionaries(keys, _SCALARS, max_size=6),
    )
    group = FiniteAbelianGroup([2])
    payloads = st.one_of(
        tables,
        st.builds(
            IndexDistribution,
            st.dictionaries(st.sampled_from(group.elements()), tables, max_size=2),
        ),
        _SCALARS,
    )
    drawn = draw(st.lists(st.tuples(st.sampled_from(["a", "b\u00e9"]), payloads), max_size=6))
    return [
        TaskResult(scenario, index, {"op": "moments", "gamma": [index]}, payload)
        for index, (scenario, payload) in enumerate(drawn)
    ]


def _moments(index, payload):
    return TaskResult("a", index, {"op": "moments", "gamma": [index]}, payload)


# the key (1,) named E and P1 at one indent, and P1 at another
_SHARED_KEYS = [
    _moments(0, MomentTable((0,), ("P1",), {(1,): Fraction(1)})),
    _moments(1, MomentTable((1,), ("E",), {(1,): Fraction(2)})),
    _moments(
        2,
        IndexDistribution({(0,): MomentTable((0,), ("P1",), {(1,): Fraction(3)})}),
    ),
]


@settings(max_examples=150, deadline=None)
@given(_results())
@example(_SHARED_KEYS)
def test_machine_writer_matches_the_json_dumps_oracle_on_drawn_payloads(results):
    assert emit(results, "machine") == _machine_oracle(results)
