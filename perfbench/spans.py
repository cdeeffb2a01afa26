"""Spans around the public functions of each fracindex layer, recorded
from outside the package.

`Tracer.install` replaces each traced function with a wrapper in every
place it can be looked up: the class that defines a method (under each of
its aliases, such as `__radd__ = __add__`) and every `fracindex` module
that holds the function, including modules that imported it by name
(`engine` imports `bracket` and `demote` that way).  `Tracer.remove` puts
the originals back.

Between `begin_solve` and `end_solve`, each wrapped call appends one span
(name, start, end, parent span, solve id) to flat in-memory arrays;
outside a solve the wrappers only forward the call.  Spans are turned
into per-layer figures and written out only after the run; the few
counters taken at the same boundaries are summed per solve.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array

import fracindex.characteristic as characteristic
import fracindex.cohomology as cohomology
import fracindex.engine as engine
import fracindex.groups as groups
import fracindex.scalars as scalars
import fracindex.scenarios as scenarios

ALL = "*"

# (layer, function label, owner, attribute, workload that must call it):
# the owner is a module for a function and a class for a method.
# characteristic.todd_class is left out: no scenario task reaches it, so it
# would read 0 on every workload.  groups.chern_weil_eval is reached only
# by fractional_index, which runs on product_cp1x8.
TRACED = (
    ("scenarios", "parse_scenario", scenarios, "parse_scenario", ALL),
    ("scenarios", "run", scenarios, "run", ALL),
    ("scenarios", "emit", scenarios, "emit", ALL),
    ("cohomology", "model_build", cohomology.ManifoldModel, "__init__", "product_cp1x8"),
    ("cohomology", "normal_form", cohomology.ManifoldModel, "normal_form", "product_cp1x8"),
    ("cohomology", "parse_expression", cohomology, "parse_expression", "product_cp1x8"),
    ("cohomology", "mul", cohomology.CohClass, "__mul__", "dirac_cp16"),
    ("cohomology", "add", cohomology.CohClass, "__add__", "dirac_cp16"),
    ("cohomology", "integrate", cohomology.CohClass, "integrate", "dirac_cp16"),
    ("cohomology", "inverse", cohomology.CohClass, "inverse", "dirac_cp16"),
    ("engine", "moments", engine.IndexProblem, "moments", "dirac_cp16"),
    ("engine", "reduced_integrand", engine.IndexProblem, "reduced_integrand", "dirac_cp16"),
    ("engine", "full_distribution", engine.IndexProblem, "full_distribution", "dirac_cp16"),
    ("engine", "with_tangent", engine.IndexProblem, "with_tangent", "dirac_cp16"),
    ("engine", "dirac_problem", engine, "dirac_problem", "dirac_cp16"),
    ("characteristic", "a_hat", characteristic, "a_hat", "dirac_cp16"),
    ("characteristic", "newton_power_sums", characteristic, "newton_power_sums", "dirac_cp16"),
    ("characteristic", "evaluate_series", characteristic, "evaluate_series", "dirac_cp16"),
    ("scalars", "cyclotomic_init", scalars.Cyclotomic, "__init__", "center_z6z4"),
    ("scalars", "cyclotomic_mul", scalars.Cyclotomic, "__mul__", "center_z6z4"),
    ("scalars", "cyclotomic_add", scalars.Cyclotomic, "__add__", "center_z6z4"),
    ("scalars", "demote", scalars, "demote", "center_z6z4"),
    ("groups", "bracket", groups, "bracket", "center_z6z4"),
    ("groups", "chern_weil_eval", groups, "chern_weil_eval", "product_cp1x8"),
)

SPAN_NAMES = tuple(f"{layer}.{label}" for layer, label, *_ in TRACED)

# Per-layer metrics beyond calls and self time: (name, unit, better).
DERIVED = (
    ("scenarios.emit.bytes", "bytes", "lower"),
    ("cohomology.normal_form.miss_ratio", "ratio", "lower"),
    ("scalars.cyclotomic.rational_ratio", "ratio", "lower"),
    ("engine.crosscheck.compares", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name in SPAN_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    return specs + list(DERIVED)


def must_call(workload: str) -> list[str]:
    """The span names a traced run of the workload must record."""
    return [
        f"{layer}.{label}"
        for layer, label, _, _, where in TRACED
        if where in (ALL, workload)
    ]


class Tracer:
    """Records spans for the solves between `begin_solve` and `end_solve`
    while installed."""

    def __init__(self) -> None:
        self.name = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.solve = array("i")
        self.counters: list[dict[str, int]] = []
        self._stack = [-1]
        self._solve_id = -1
        self._undo: list[tuple[object, str, object]] = []
        self._count: dict[str, int] = {}
        self._normal_form_args: set = set()

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "scenarios.emit": self._after_emit,
            "cohomology.normal_form": self._after_normal_form,
            "scalars.cyclotomic_init": self._after_cyclotomic_init,
            "engine.full_distribution": self._after_full_distribution,
        }
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "fracindex" or name.startswith("fracindex.")
        ]
        for name_id, (layer, label, owner, attr, _) in enumerate(TRACED):
            hook = hooks.get(f"{layer}.{label}")
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, classmethod(self._wrap(raw.__func__, name_id, hook)))
                    continue
                wrapper = self._wrap(raw, name_id, hook)
                for alias, value in list(vars(owner).items()):
                    if value is raw:
                        self._patch(owner, alias, wrapper)
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name_id, hook)
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name_id: int, after):
        names, starts, ends = self.name.append, self.start.append, self.end
        parents, solves, stack = self.parent.append, self.solve.append, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            solve = tracer._solve_id
            if solve < 0:
                return fn(*args, **kwargs)
            index = len(ends)
            names(name_id)
            parents(stack[-1])
            solves(solve)
            ends.append(0)
            stack.append(index)
            starts(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at the same boundaries ------------------------------------

    def _after_emit(self, args, result) -> None:
        self._count["emit_bytes"] += len(result.encode("utf-8"))

    def _after_normal_form(self, args, result) -> None:
        self._normal_form_args.add((id(args[0]), args[1]))

    def _after_cyclotomic_init(self, args, result) -> None:
        if args[0].is_rational():
            self._count["cyclotomic_rational"] += 1

    def _after_full_distribution(self, args, result) -> None:
        # full_distribution compares every value it returns against the
        # recombined route exactly once before returning it
        self._count["crosscheck_compares"] += sum(
            len(table.values) for table in result.tables.values()
        )

    # -- solves -----------------------------------------------------------------

    def begin_solve(self) -> None:
        self._count = {"emit_bytes": 0, "cyclotomic_rational": 0, "crosscheck_compares": 0}
        self._normal_form_args = set()
        self._solve_id = len(self.counters)

    def end_solve(self) -> None:
        self._solve_id = -1
        self._count["normal_form_distinct"] = len(self._normal_form_args)
        self._normal_form_args = set()
        self.counters.append(self._count)

    # -- results ----------------------------------------------------------------

    def per_solve(self) -> list[dict[str, tuple[int, int]]]:
        """For each solve, span name -> (calls, self time in ns).  A span's
        self time is its duration minus the durations of its children."""
        count = len(self.end)
        start, end, parent = self.start, self.end, self.parent
        child = array("q", bytes(8 * count))
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = [{name: [0, 0] for name in SPAN_NAMES} for _ in self.counters]
        for i, (n, s) in enumerate(zip(self.name, self.solve)):
            entry = out[s][SPAN_NAMES[n]]
            entry[0] += 1
            entry[1] += end[i] - start[i] - child[i]
        return [{k: (v[0], v[1]) for k, v in solve.items()} for solve in out]

    def metrics(self, overhead_s: float, scales: list[float]) -> dict[str, float]:
        """Every per-layer metric: per-solve medians over the traced solves.
        Self times are multiplied by each solve's rescaling factor."""
        solves = self.per_solve()
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = statistics.median_low(s[name][0] for s in solves)
            out[f"{name}.self_s"] = statistics.median(
                s[name][1] * k / 1e9 for s, k in zip(solves, scales)
            )
        nf_calls = [s["cohomology.normal_form"][0] for s in solves]
        cyc_calls = [s["scalars.cyclotomic_init"][0] for s in solves]
        out["scenarios.emit.bytes"] = statistics.median_low(c["emit_bytes"] for c in self.counters)
        out["cohomology.normal_form.miss_ratio"] = statistics.median(
            c["normal_form_distinct"] / n if n else 0.0 for c, n in zip(self.counters, nf_calls)
        )
        out["scalars.cyclotomic.rational_ratio"] = statistics.median(
            c["cyclotomic_rational"] / n if n else 0.0 for c, n in zip(self.counters, cyc_calls)
        )
        out["engine.crosscheck.compares"] = statistics.median_low(
            c["crosscheck_compares"] for c in self.counters
        )
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: str) -> None:
        """Write the spans: a one-line JSON header, then the five columns as
        consecutive arrays in the header's byte order."""
        columns = (self.name, self.start, self.end, self.parent, self.solve)
        header = {
            "names": list(SPAN_NAMES),
            "columns": [
                [label, column.typecode]
                for label, column in zip(("name", "start_ns", "end_ns", "parent", "solve"), columns)
            ],
            "spans": len(self.end),
            "byteorder": sys.byteorder,
            "counters": self.counters,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in columns:
                column.tofile(handle)
