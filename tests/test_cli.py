"""The fracindex command."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import fracindex
from fracindex import scenarios
from fracindex.cli import main
from fracindex.scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    builtin_scenario_text,
    emit,
    parse_scenario,
    run,
)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_scenarios_pass_check(name, capsys):
    assert main(["run", f"builtin:{name}", "--check"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"scenario: {name}\n")
    assert err == ""


def test_machine_format_matches_emit(capsys):
    assert main(["run", "builtin:gamma4_character_sum", "--format", "machine"]) == 0
    expected = emit(run(parse_scenario(builtin_scenario_text("gamma4_character_sum"))), "machine")
    assert capsys.readouterr().out == expected


def test_task_selects_by_op_and_by_index(capsys):
    scenario = parse_scenario(builtin_scenario_text("cp2_projective_dirac"))
    assert main(["run", "builtin:cp2_projective_dirac", "--task", "fractional_index",
                 "--format", "machine", "--check"]) == 0
    assert capsys.readouterr().out == emit(run(scenario, "fractional_index"), "machine")
    assert main(["run", "builtin:cp2_projective_dirac", "--task", "2", "--max-degree", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "scenario: cp2_projective_dirac", "[2] moments gamma=(0)", "  1   -1/8", "  P1  3", "  E   3",
    ]


@pytest.mark.parametrize(
    "task,status,out",
    [("²", 2, ""), ("٠", 0, "scenario: point_trivial\n[0] fractional_index gamma=() = 1\n")],
    ids=["superscript_two", "arabic_indic_zero"],
)
def test_task_index_is_a_decimal_number(task, status, out, capsys):
    # "²" passes str.isdigit but int() cannot read it: it selects like an
    # unknown op name, which matches no task and is refused
    assert main(["run", "builtin:point_trivial", "--task", task]) == status
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "args",
    [
        ["--task", "7"],
        ["--task", "moments_typo", "--format", "machine"],
        ["--task", "7", "--check"],
        ["--task", "moments_typo", "--check"],
        ["--task", "1" * 5000],
    ],
    ids=["index", "op_machine", "index_check", "op_check", "index_past_the_int_digit_limit"],
)
def test_task_that_selects_nothing_exits_2(args, capsys):
    # running no task would print an empty result and, under --check,
    # pass having compared nothing
    assert main(["run", "builtin:cp2_projective_dirac", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    task = args[1]
    assert err == f"fracindex: task: no task has op or zero-based index {task!r}\n"


@pytest.mark.parametrize("bound", ["3", "-1"])
def test_max_degree_above_half_the_dimension_exits_2(bound, capsys):
    assert main(["run", "builtin:cp2_projective_dirac", "--max-degree", bound]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"fracindex: max_degree: {bound} is outside 0..2 (half the manifold dimension)\n"


@pytest.mark.parametrize("bound", ["1", "2"])
def test_check_with_max_degree_is_refused(bound, capsys):
    # the expect blocks hold each task's moments at its own cutoff, so a
    # lower --max-degree would report every moment task as a mismatch
    assert main(["run", "builtin:cp2_projective_dirac", "--max-degree", bound, "--check"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fracindex: --check ") and "--max-degree" in err
    assert main(["run", "builtin:cp2_projective_dirac", "--max-degree", bound]) == 0


def test_expectation_mismatch_exits_1(tmp_path, capsys):
    document = json.loads(builtin_scenario_text("point_trivial"))
    document["expect"] = [{"value": "2"}]
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(document))
    assert main(["run", str(path)]) == 0
    assert main(["run", str(path), "--check"]) == 1
    assert "expected" in capsys.readouterr().err


def test_check_without_an_expect_block_exits_2(tmp_path, capsys):
    # with no block to compare, --check once printed the results and passed
    document = json.loads(builtin_scenario_text("point_trivial"))
    del document["expect"]
    path = tmp_path / "unchecked.json"
    path.write_text(json.dumps(document))
    assert main(["run", str(path), "--check"]) == 2
    assert capsys.readouterr() == ("", "fracindex: expect: missing, and --check needs it\n")
    assert main(["run", str(path)]) == 0


def test_check_with_every_expect_entry_null_exits_2(tmp_path, capsys):
    # a block of nulls compares nothing, so --check once passed it
    document = json.loads(builtin_scenario_text("point_trivial"))
    document["expect"] = [None] * len(document["tasks"])
    path = tmp_path / "all_null.json"
    path.write_text(json.dumps(document))
    assert main(["run", str(path), "--check"]) == 2
    assert capsys.readouterr() == (
        "", "fracindex: expect: every entry is null, so --check has nothing to compare\n"
    )
    assert main(["run", str(path)]) == 0


@pytest.mark.parametrize("format", ["human", "machine"])
def test_check_fails_on_a_fault_in_the_table_writer(format, monkeypatch, capsys):
    # --check compares the expect block with the printed machine text: a
    # table writer that drops every minus sign fails it, though every
    # computed value is right and the scalar results are written elsewhere;
    # the human format is read back from that text, so it prints the fault
    original = scenarios._write_table

    def unsigned(out, table, heads, indent):
        start = len(out)
        original(out, table, heads, indent)
        out[start:] = [piece.replace('"-', '"') for piece in out[start:]]

    monkeypatch.setattr(scenarios, "_write_table", unsigned)
    assert main(["run", "builtin:cp2_projective_dirac", "--format", format, "--check"]) == 1
    out, err = capsys.readouterr()
    assert out.count("-1/8") == 1  # task 0's scalar; both tables lost theirs
    assert [line.split(":")[1] for line in err.splitlines()] == [
        " task 2 (moments)", " task 3 (projective_dirac)"
    ]


@pytest.mark.parametrize(
    "target,message",
    [
        ("builtin:no_such_scenario", "unknown built-in scenario"),
        ("{missing}", "No such file"),
        ("{bad}", "parse error"),
        ("{binary}", "binary.json: not UTF-8 text: byte 0xff at offset 0"),
    ],
)
def test_unreadable_scenario_exits_2(target, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    (tmp_path / "binary.json").write_bytes(b"\xff{}")
    target = target.replace("{missing}", str(tmp_path / "missing.json")).replace("{bad}", str(bad))
    target = target.replace("{binary}", str(tmp_path / "binary.json"))
    assert main(["run", target]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fracindex: ") and message in err


@pytest.mark.parametrize(
    "name,old,new,message",
    [
        ("cp2_projective_dirac", '"name": "E"', '"name": "P1"', "group.invariant_generators[1].name: "),
        ("hopf_riemann_roch", '"lambda": 2', '"lambda": 2.5', "tasks[2].lambda: expected an int"),
        ("cp2_projective_dirac", '"rank": 3', '"rank": ' + "3" * 5000, "parse error: number of 5000"),
        ("cp2_projective_dirac", '"chern_roots": [\n' + '        "x",\n' * 2 + '        "x"\n      ],\n',
         "", "bundles[0].tangent: tangent bundle 'TM' declares none of chern_roots, chern, pontryagin"),
        ("cp2_projective_dirac", '"x^2",\n      "1"\n', '"x^2",\n      "1e5000"\n',
         'manifold.fundamental[1]: expected an int or a "p" or "p/q" string'),
        ("cp2_projective_dirac", '"x^2",\n      "1"\n', '"x^2",\n      0.5\n',
         'manifold.fundamental[1]: expected an int or a "p" or "p/q" string, got 0.5'),
        ("cp2_projective_dirac", '"op": "fractional_index",', '"op": "fractional_index", "e": NaN,',
         "parse error: 'NaN' is not a finite number"),
        ("cp2_projective_dirac", '"op": "fractional_index",', '"op": "fractional_index", "e": 1e400,',
         "parse error: '1e400' is not a finite number"),
    ],
    ids=["duplicate-generator-name", "float-lambda", "huge-integer-literal",
         "tangent-without-data", "exponent-orientation", "float-orientation",
         "nan-task-key", "overflowing-float-task-key"],
)
def test_invalid_scenario_exits_2(name, old, new, message, tmp_path, capsys):
    path = tmp_path / "invalid.json"
    path.write_text(builtin_scenario_text(name).replace(old, new))
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fracindex: ") and message in err


@pytest.mark.parametrize("format", ["human", "machine"])
def test_result_too_long_to_write_exits_2(format, tmp_path, capsys):
    # 2^16000 parses, but its 4,817 digits pass the interpreter's str(int) limit
    path = tmp_path / "huge.json"
    path.write_text(builtin_scenario_text("cp2_projective_dirac").replace("1 + 1/8*x^2", "2^16000*x^2"))
    assert main(["run", str(path), "--format", format]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "fracindex: cp2_projective_dirac: task 0 (fractional_index): a result has an integer of more than"
    )
    with pytest.raises(ScenarioError, match=r"task 0 \(fractional_index\)"):
        emit(run(parse_scenario(path.read_text())), format)


def test_task_tangent_bundle_without_data_exits_2(tmp_path, capsys):
    # a bundle that is not flagged as tangent data may declare no classes,
    # but a projective_dirac task that names it needs its a-hat genus
    document = json.loads(builtin_scenario_text("cp2_projective_dirac"))
    document["bundles"].append({"name": "E0", "rank": 1})
    document["tasks"][3]["tangent"] = "E0"
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(document))
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "fracindex: tasks[3].tangent: tangent bundle 'E0' declares none of chern_roots, chern, "
        "pontryagin\n"
    )
    document["tasks"][3].pop("tangent")
    path.write_text(json.dumps(document))
    assert main(["run", str(path), "--check"]) == 0


def test_module_entry_point_exit_status(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fracindex.__file__)))
    ok = subprocess.run(
        [sys.executable, "-m", "fracindex.cli", "run", "builtin:point_trivial", "--check"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert ok.returncode == 0
    assert ok.stdout == "scenario: point_trivial\n[0] fractional_index gamma=() = 1\n"
    missing = subprocess.run(
        [sys.executable, "-m", "fracindex.cli", "run", str(tmp_path / "none.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert missing.returncode == 2
