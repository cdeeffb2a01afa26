"""The fracindex command.

    fracindex run <file.json | builtin:NAME> [--task T] [--max-degree D]
                  [--format human|machine] [--check]

Runs the tasks of one scenario document and writes the results to
standard output.  --task T runs only the tasks whose op is T, or the one
task at zero-based index T; a T that selects no task is refused (exit 2,
nothing run).  --max-degree D overrides the moment cutoff of every
moment-producing task; D must lie in 0..dimension // 2.  With --check,
the document's expect block is compared against the results and each
mismatch is written to standard error; a document without an expect
block, or whose every expect entry is null, where nothing would be
compared, is refused (exit 2, nothing run).
The expect block holds each task's result at the task's own cutoff, so
--check and --max-degree are refused together (exit 2, nothing run)
rather than compared at a cutoff the block was not recorded at.

Exit status: 0 on success, 1 when --check finds a mismatch, 2 when the
scenario cannot be read, parsed or written (a result too long to write
included), when --task selects no task, when --max-degree is out of range,
when --check is combined with --max-degree, or when --check meets a
document without an expect block or with every expect entry null.  Every
other refusal of a document happens at parse, and prints one line to
standard error, `fracindex: <path>: <reason>`, where <path> names the
field at fault (see `fracindex.scenarios`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from fracindex.scenarios import (
    ScenarioError,
    builtin_scenario_text,
    check_expectations,
    emit,
    load_scenario,
    parse_scenario,
    run,
)

BUILTIN_PREFIX = "builtin:"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fracindex")
    commands = parser.add_subparsers(dest="command", required=True)
    run_cmd = commands.add_parser("run", help="run the tasks of one scenario")
    run_cmd.add_argument("scenario", help=f"a scenario JSON file, or {BUILTIN_PREFIX}NAME")
    run_cmd.add_argument("--task", help="run only the tasks with this op, or the task at this index")
    run_cmd.add_argument(
        "--max-degree", type=int, help="moment cutoff for every moment-producing task"
    )
    run_cmd.add_argument("--format", choices=("human", "machine"), default="human")
    run_cmd.add_argument(
        "--check", action="store_true", help="compare the results with the expect block"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.check and args.max_degree is not None:
        print(
            "fracindex: --check compares with results recorded at each task's own cutoff "
            "and cannot be combined with --max-degree",
            file=sys.stderr,
        )
        return 2
    try:
        if args.scenario.startswith(BUILTIN_PREFIX):
            scenario = parse_scenario(builtin_scenario_text(args.scenario[len(BUILTIN_PREFIX) :]))
        else:
            scenario = load_scenario(args.scenario)
        if args.check and scenario.expect is None:
            raise ScenarioError("expect: missing, and --check needs it")
        if args.check and all(entry is None for entry in scenario.expect):
            raise ScenarioError("expect: every entry is null, so --check has nothing to compare")
        results = run(scenario, args.task, args.max_degree)
        text = emit(results, args.format)
    except (ScenarioError, OSError) as exc:
        print(f"fracindex: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    if args.check:
        mismatches = check_expectations(scenario, results)
        for line in mismatches:
            print(line, file=sys.stderr)
        if mismatches:
            return 1
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
