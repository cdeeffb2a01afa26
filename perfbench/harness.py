"""The benchmark run: correctness gate, seeded workload, timed solve loop,
end-to-end metrics, and (with tracing) per-layer metrics.

One solve is what a user of the library does with one scenario document:
`scenarios.parse_scenario`, `scenarios.run`, `scenarios.emit(..., "machine")`.
The loop is closed and single-threaded: the next solve starts when the
previous one and its checks are done, until `--seconds` have passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from fractions import Fraction
from pathlib import Path

import fracindex
from fracindex import scenarios

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
OUT = ROOT / ".perfbench_out"

END_TO_END = (
    ("solve_s.p50", "s"),
    ("solve_s.tail", "s"),
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

# The host this benchmark was tuned on (2 vCPUs of an Intel Xeon guest)
# runs pure-Python code at speeds up to 2x apart, changing every few
# seconds to minutes as other guests load it; raw wall-clock medians of
# identical 30-second runs differed by up to 1.5x.  So each solve is
# bracketed by runs of a fixed standard-library reference loop, and its
# times are multiplied by (NOMINAL_REFERENCE_S / reference time) **
# ELASTICITY.  Solve times on that host rise less than the reference
# time does; of the exponents tried on 20 runs of each workload, 0.9 gave
# the steadiest run medians (perfbench/README.md has the figures).  A
# reported second is thus a second at the speed where the reference loop
# takes NOMINAL_REFERENCE_S, about its uncontended time there.  No change
# to fracindex moves the reference loop.
NOMINAL_REFERENCE_S = 0.0075
ELASTICITY = 0.9


def reference_loop() -> float:
    """Time one run of the fixed reference loop, in seconds."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 3000):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
    }


def solve(text: str):
    """One solve; returns (parse seconds, solve seconds, results, output)."""
    t0 = time.perf_counter()
    scenario = scenarios.parse_scenario(text)
    t1 = time.perf_counter()
    results = scenarios.run(scenario)
    output = scenarios.emit(results, "machine")
    t2 = time.perf_counter()
    return t1 - t0, t2 - t0, results, output


def digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


def builtin_gate() -> tuple[int, list[str]]:
    """Run every built-in scenario against its expect block; returns the
    number of scenarios that failed and the mismatches found."""
    failed, problems = 0, []
    for name in scenarios.BUILTIN_SCENARIOS:
        try:
            scenario = scenarios.parse_scenario(scenarios.builtin_scenario_text(name))
            mismatches = scenarios.check_expectations(scenario, scenarios.run(scenario))
        except Exception as exc:  # a gate failure is reported, not raised
            mismatches = [f"built-in {name}: {exc!r}"]
        failed += bool(mismatches)
        problems += mismatches
    return failed, problems


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above its
    nearest-rank value, and that value; the maximum for ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    p = 100 * (n - 10) // n
    return p, ordered[max(1, math.ceil(p * n / 100)) - 1]


class Loop:
    """Solves one document repeatedly and checks each output: its digest
    against the recorded one (when recorded) and against the other solves
    of the run, and the workload's own check."""

    def __init__(self, text: str, expected_digest: str | None, check) -> None:
        self.text = text
        self.expected_digest = expected_digest
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def once(self, tracer=None):
        """One checked solve; returns (parse s, solve s), or None if it raised.
        A solve whose output fails a check is timed and counted as failed."""
        self.attempted += 1
        if tracer is not None:
            tracer.begin_solve()
        try:
            parse_s, solve_s, results, output = solve(self.text)
        except Exception as exc:  # a raising solve counts as failed
            self.failed += 1
            self._note([f"solve raised {exc!r}"])
            return None
        finally:
            if tracer is not None:
                tracer.end_solve()
        found = digest(output)
        self.digests.add(found)
        problems = self.check(results)
        if self.expected_digest is not None and found != self.expected_digest:
            problems.append(f"output digest {found} != recorded {self.expected_digest}")
        if len(self.digests) > 1:
            problems.append("solves of one document gave different outputs")
        if problems:
            self.failed += 1
            self._note(problems)
        return parse_s, solve_s

    def _note(self, problems: list[str]) -> None:
        self.problems += [p for p in problems if p not in self.problems]

    def timed(self, seconds: float, tracer=None) -> dict:
        """Solve until `seconds` have passed, timing the reference loop
        between solves; see NOMINAL_REFERENCE_S."""
        raw_parse, raw_solve, scales, every_scale = [], [], [], []
        gc.collect()
        start = time.perf_counter()
        deadline = start + seconds
        before = reference_loop()
        while time.perf_counter() < deadline:
            sample = self.once(tracer)
            after = reference_loop()
            every_scale.append((2 * NOMINAL_REFERENCE_S / (before + after)) ** ELASTICITY)
            if sample is not None:
                raw_parse.append(sample[0])
                raw_solve.append(sample[1])
                scales.append(every_scale[-1])
            before = after
        return {
            "elapsed_s": time.perf_counter() - start,
            "raw_parse_s": raw_parse,
            "raw_solve_s": raw_solve,
            "scale": scales,
            "scale_per_attempt": every_scale,
        }


def summary(samples: dict) -> dict:
    """End-to-end figures of one timed loop, rescaled as NOMINAL_REFERENCE_S
    describes; the raw wall-clock figures are kept alongside."""
    scales = samples["scale"] or [1.0]  # no sample when every solve raised
    raw_solve = samples["raw_solve_s"] or [0.0]
    raw_parse = samples["raw_parse_s"] or [0.0]
    durations = [d * k for d, k in zip(raw_solve, scales)]
    percentile, tail_value = tail(durations)
    return {
        "solve_s.p50": statistics.median(durations),
        "solve_s.tail": tail_value,
        "setup_s": statistics.median(d * k for d, k in zip(raw_parse, scales)),
        "solves_per_s": len(samples["raw_solve_s"]) / (sum(durations) or 1.0),
        "tail_percentile": percentile,
        "samples": len(samples["raw_solve_s"]),
        "raw_solve_s.p50": statistics.median(raw_solve),
        "raw_setup_s": statistics.median(raw_parse),
        "median_scale": statistics.median(scales),
        **samples,
    }


def declared_metrics(key: str) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json lists under `key`."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[key]]


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(DIGESTS, encoding="utf-8") as handle:
        table = json.load(handle)[workload]
    return table[seed] if 0 <= seed < len(table) else None


def _untraced(loop: Loop, seconds: float, record: dict) -> tuple[dict, list[str]]:
    stats = summary(loop.timed(seconds))
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["stats"] = stats
    line = (
        f"solves: {stats['samples']} in {stats['elapsed_s']:.2f} s; "
        + "; ".join(f"{name}={stats[name]:.5g} {unit}" for name, unit in END_TO_END)
        + f"; the tail is p{stats['tail_percentile']}; raw wall-clock solve p50 "
        f"{stats['raw_solve_s.p50']:.5g} s, setup {stats['raw_setup_s']:.5g} s; "
        f"median rescaling factor {stats['median_scale']:.4f}"
    )
    return {name: (stats[name], unit) for name, unit in END_TO_END}, [line]


def _traced(loop: Loop, seconds: float, record: dict, problems: list[str]) -> tuple[dict, list[str]]:
    untraced = summary(loop.timed(seconds / 2))
    plain = set(loop.digests)
    loop.digests.clear()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = summary(loop.timed(seconds / 2, tracer))
    finally:
        tracer.remove()
    if loop.digests != plain:
        problems.append("traced solves produced different outputs from untraced ones")
    overhead = traced["solve_s.p50"] - untraced["solve_s.p50"]
    values = tracer.metrics(overhead, traced["scale_per_attempt"])
    silent = [n for n in spans.must_call(record["workload"]) if values[f"{n}.calls"] < 1]
    if silent:
        problems.append(f"traced functions with no call: {', '.join(silent)}")
    record["stats"] = {"untraced": untraced, "traced": traced}
    record["untraced_digests"] = sorted(plain)
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"{record['workload']}-spans.bin"))
    line = (
        f"traced solves: {traced['samples']}, p50 {traced['solve_s.p50']:.4f} s; "
        f"untraced solves: {untraced['samples']}, p50 {untraced['solve_s.p50']:.4f} s; "
        f"tracing overhead {overhead:.4f} s per solve; {len(tracer.end)} spans"
    )
    return {name: (values[name], unit) for name, unit, _ in spans.per_layer_specs()}, [line]


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict, list[str]]:
    """One benchmark run; returns the printed result, the detailed record
    written to .perfbench_out, and the report lines."""
    env = environment()
    lines = [
        f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(traced)}",
        "environment: nproc={nproc} cpu_count={cpu_count} python={python} cpu={cpu_model!r}".format(**env),
    ]
    gate_failed, problems = builtin_gate()
    lines.append(
        f"correctness gate: {len(scenarios.BUILTIN_SCENARIOS)} built-in scenarios, "
        f"{gate_failed} failed"
    )
    doc = workloads.document(workload, seed)
    if workloads.shape(doc) != workloads.shape(workloads.document(workload, 0)):
        problems.append(f"seed {seed} changes the document shape of {workload}")
    expected = recorded_digest(workload, seed)
    if expected is None:
        lines.append(f"digest: none recorded for seed {seed}; solves checked for agreement only")
    else:
        lines.append(f"digest: {expected[:16]}... recorded for seed {seed}")

    loop = Loop(json.dumps(doc), expected, workloads.make_check(workload, doc))
    loop.attempted += len(scenarios.BUILTIN_SCENARIOS)
    loop.failed += gate_failed
    loop.once()  # warm-up: lazy module caches fill before timing

    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced), "environment": env}
    if traced:
        metrics, more = _traced(loop, seconds, record, problems)
    else:
        metrics, more = _untraced(loop, seconds, record)
    lines += more
    if [(n, u) for n, (_, u) in metrics.items()] != declared_metrics("per_layer" if traced else "end_to_end"):
        problems.append("printed metrics differ from BENCHMARK.json")

    problems += loop.problems
    lines += [f"problem: {p}" for p in problems]
    record.update(
        attempted=loop.attempted,
        failed=loop.failed,
        problems=problems,
        digests=sorted(loop.digests),
        metrics={name: value for name, (value, _) in metrics.items()},
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{int(traced)}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    result = {
        "correct": not problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record, lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if Path(fracindex.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"perfbench: fracindex imported from {fracindex.__file__}, not {ROOT / 'src'}")
    result, _, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0
