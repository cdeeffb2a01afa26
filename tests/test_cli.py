"""The fracindex command."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import fracindex
from fracindex.cli import main
from fracindex.scenarios import BUILTIN_SCENARIOS, builtin_scenario_text, emit, parse_scenario, run


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


@pytest.mark.parametrize(
    "target,message",
    [
        ("builtin:no_such_scenario", "unknown built-in scenario"),
        ("{missing}", "No such file"),
        ("{bad}", "parse error"),
    ],
)
def test_unreadable_scenario_exits_2(target, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    target = target.replace("{missing}", str(tmp_path / "missing.json")).replace("{bad}", str(bad))
    assert main(["run", target]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fracindex: ") and message in err


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
