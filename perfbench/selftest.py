"""Self-test of the benchmark.  From the root of a checkout:

    python3 perfbench/selftest.py

For every workload it makes a short run with tracing off and one with
tracing on, and asserts that each run is correct, that its metric names
are those in BENCHMARK.json, that every traced function records a call on
the workload named for it in spans.TRACED, and that traced solves give the
same outputs as untraced ones.  Last, it copies BENCHMARK.json and
perfbench/ alone into .perfbench_out/bare and asserts that the benchmark
exits nonzero there without printing a result.
"""

import json
import shutil
import subprocess
import sys

from run import ROOT, use_checkout_source

SECONDS = 2.0


def check_workload(harness, spans, workload: str) -> None:
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        result, record, _ = harness.run(workload, 0, SECONDS, traced)
        assert result["correct"], (workload, traced, record["problems"])
        assert result["failed"] == 0 and result["attempted"] > 0, result
        printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
        assert printed == harness.declared_metrics(key), (workload, key)
        if traced:
            for name in spans.must_call(workload):
                assert result["metrics"][f"{name}.calls"]["value"] >= 1, (workload, name)
            assert record["digests"] == record["untraced_digests"], workload
            assert len(record["digests"]) == 1, workload
    print(f"selftest: {workload} ok")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    command = [sys.executable, "perfbench/run.py", "--workload", "dirac_cp16",
               "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    assert done.returncode != 0, done.returncode
    assert not last.startswith("{"), last
    shutil.rmtree(bare)
    print("selftest: bare directory refused")


if __name__ == "__main__":
    use_checkout_source()
    import harness
    import spans
    import workloads

    for name in workloads.WORKLOADS:
        check_workload(harness, spans, name)
    check_bare_directory()
    print(json.dumps({"selftest": "ok"}))
