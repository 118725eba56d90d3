"""Spans around the gmkp functions the CLI, the pipeline and the heuristics call.

The tracer swaps module attributes for timing wrappers.  Each caller looks
the function up on its module at call time (``subset_select.build_problem``,
``assign.swap_optimal``, ...), so the wrapper sees every call without any
change to the program.  Spans are kept in memory as
``(op, layer, start, end, parent)`` and written out when the run ends.
"""

from __future__ import annotations

import builtins
import json
from collections import Counter
from time import perf_counter

# (module, attribute, layer) of every function a span is recorded around.
TIMED = (
    ("cli", "load_instance", "cli.load_instance"),
    ("cli", "normalize", "cli.normalize"),
    ("cli", "result_to_json", "cli.write"),
    ("lp_greedy", "greedy_lp", "lp_greedy.greedy_lp"),
    ("subset_select", "build_problem", "subset_select.build_problem"),
    ("subset_select", "solve_exact", "subset_select.solve_exact"),
    ("subset_select", "_greatest_weight_counts", "subset_select.weight_dp_fill"),
    ("assign", "greedy_assign", "assign.greedy_assign"),
    ("assign", "swap_optimal", "assign.swap_optimal"),
    ("pipeline", "run_algorithm", "pipeline.run_algorithm"),
    ("pipeline", "metrics", "model.metrics"),
    ("heuristics", "binary_search_feasible", "heuristics.binary_search_feasible"),
    ("heuristics", "capacity_sweep", "heuristics.capacity_sweep"),
    ("heuristics", "pareto_frontier", "heuristics.pareto_frontier"),
    ("gen", "generate_instance", "gen.generate_instance"),
)

# Layers reported with their total ms and call count.
TIMED_METRICS = (
    "cli.load_instance", "cli.normalize", "cli.write", "lp_greedy.greedy_lp",
    "subset_select.build_problem", "subset_select.weight_dp", "subset_select.bnb",
    "assign.greedy_assign", "assign.swap_optimal", "model.metrics",
    "heuristics.binary_search_feasible", "heuristics.capacity_sweep",
    "heuristics.pareto_frontier", "gen.generate_instance",
)

# Counters recorded by the wrappers themselves, with their units.
COUNTERS = {
    "subset_select.rows": "count",
    "subset_select.bnb.budget_exceeded": "count",
    "assign.swap_optimal.items_moved": "count",
    "assign.swap_optimal.phi_drop": "count",
    "assign.swap_optimal.overload_drop": "weight",
    "heuristics.feasible.probes": "count",
    "heuristics.feasible.hits": "count",
}


def phi(loads, capacities, c_max) -> int:
    """The swap-opt potential sum((load - c + c_max)^2)."""
    return sum((load - c + c_max) ** 2 for load, c in zip(loads, capacities))


def layer_times(spans: list, first: int = 0) -> tuple[Counter, Counter, Counter]:
    """Total ms, self ms and calls per layer over ``spans[first:]``.

    A span's id is its index in ``spans``; self time is its duration minus
    its child spans.  ``solve_exact`` counts as ``subset_select.weight_dp``
    when the weight DP ran inside it, and as ``subset_select.bnb`` otherwise.
    """
    child_ms = Counter()
    dp_parents = set()
    for op, layer, start, end, parent in spans[first:]:
        if parent is not None:
            child_ms[parent] += (end - start) * 1000.0
            if layer == "subset_select.weight_dp_fill":
                dp_parents.add(parent)
    total, own, calls = Counter(), Counter(), Counter()
    for sid in range(first, len(spans)):
        op, layer, start, end, parent = spans[sid]
        if layer == "subset_select.solve_exact":
            layer = "subset_select.weight_dp" if sid in dp_parents else "subset_select.bnb"
        dur = (end - start) * 1000.0
        total[layer] += dur
        own[layer] += dur - child_ms[sid]
        calls[layer] += 1
    return total, own, calls


class Tracer:
    def __init__(self, gmkp_modules: dict):
        self.modules = gmkp_modules
        self.spans: list = []  # [op, layer, start, end, parent]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._saved: list = []

    # ------------------------------------------------------------- spans

    def begin(self, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.op, layer, perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = perf_counter()
        self._stack.pop()

    # ----------------------------------------------------------- patching

    def install(self) -> None:
        for mod_name, attr, layer in TIMED:
            module = self.modules[mod_name]
            self._swap(module, attr, self._wrap(getattr(module, attr), layer))
        # cli writes its outputs through ``open``; a module attribute of that
        # name shadows the builtin for cli's own calls only.
        self._swap(self.modules["cli"], "open", self._open)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, had, old = self._saved.pop()
            if had:
                setattr(module, attr, old)
            else:
                delattr(module, attr)

    def _swap(self, module, attr, new) -> None:
        had = attr in vars(module)
        self._saved.append((module, attr, had, vars(module).get(attr)))
        setattr(module, attr, new)

    def _wrap(self, fn, layer: str):
        after = {
            "subset_select.build_problem": self._after_build,
            "assign.swap_optimal": self._after_swap,
            "pipeline.run_algorithm": self._after_run,
            "heuristics.binary_search_feasible": self._after_feasible,
        }.get(layer)
        budget_error = self.modules["model"].BudgetExceededError

        def traced(*args, **kwargs):
            sid = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                if layer == "subset_select.solve_exact":
                    self.counts["subset_select.bnb.budget_exceeded"] += 1
                raise
            finally:
                self.end(sid)
            if after is not None:
                counter_sid = self.begin("trace.counters")
                after(sid, args, result)
                self.end(counter_sid)
            return result

        return traced

    def _open(self, file, mode="r", *args, **kwargs):
        if "w" not in mode:
            return builtins.open(file, mode, *args, **kwargs)
        sid = self.begin("cli.write")
        try:
            fh = builtins.open(file, mode, *args, **kwargs)
        except BaseException:
            self.end(sid)
            raise
        return _SpanFile(fh, lambda: self.end(sid))

    # ----------------------------------------------------------- counters

    def _after_build(self, sid, args, problem) -> None:
        self.counts["subset_select.rows"] += len(problem.rows)

    def _after_swap(self, sid, args, result) -> None:
        instance, before = args[0], args[1]
        caps, c_max = instance.capacities, instance.c_max
        self.counts["assign.swap_optimal.items_moved"] += sum(
            a != b for a, b in zip(before.placement, result.placement)
        )
        self.counts["assign.swap_optimal.phi_drop"] += phi(before.loads, caps, c_max) - phi(
            result.loads, caps, c_max
        )
        self.counts["assign.swap_optimal.overload_drop"] += max(
            load - c for load, c in zip(before.loads, caps)
        ) - max(load - c for load, c in zip(result.loads, caps))

    def _after_run(self, sid, args, result) -> None:
        parent = self.spans[sid][4]
        if parent is not None and self.spans[parent][1] == "heuristics.binary_search_feasible":
            self.counts["heuristics.feasible.hits"] += result.metrics.max_exceeded <= 0

    def _after_feasible(self, sid, args, result) -> None:
        self.counts["heuristics.feasible.probes"] += result.probes

    # ------------------------------------------------------------ summary

    def summary(self, first_span: int = 0) -> dict:
        """Per-layer totals over the spans recorded since ``first_span``."""
        total, own, calls = layer_times(self.spans, first_span)
        out = {}
        for layer in TIMED_METRICS:
            out[f"{layer}.ms"] = (total[layer], "ms")
            out[f"{layer}.calls"] = (calls[layer], "count")
        out["pipeline.run_algorithm.calls"] = (calls["pipeline.run_algorithm"], "count")
        out["pipeline.run_algorithm.self_ms"] = (own["pipeline.run_algorithm"], "ms")
        out["trace.spans"] = (len(self.spans) - first_span, "count")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, layer, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "layer": layer, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class _SpanFile:
    """A file opened for writing whose span ends when its ``with`` block exits."""

    def __init__(self, fh, on_close):
        self._fh = fh
        self._on_close = on_close

    def __enter__(self):
        return self._fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self._fh.__exit__(*exc)
        finally:
            self._on_close()
