"""Benchmark of the gmkp command line on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` there.  Set-up writes seeded instance files under ``bench/.work/``;
the run then calls ``gmkp.cli.main(argv)`` on them in whole rounds, every
round the same list of ops, until ``--seconds`` have passed.  Each op's
output is checked by ``checks.py`` (first round in full, later rounds for
equality with the first).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The traced run alternates untraced and traced rounds, takes
per-layer figures from the traced ones and the tracing overhead from the
pair, and writes its spans to ``bench/.work/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

START = perf_counter()  # set-up time includes the imports, numpy's among them

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"

import checks  # noqa: E402  (after START: numpy's import counts as set-up)

# Node budget passed to every solve and feasible op.  Every seeded op of
# every workload finishes far inside it; the fixed F1 and F2 ops exhaust it.
NODE_BUDGET = 50_000
# The LHS design points come from this seed, so every --seed runs the same
# mix of sizes; --seed drives the generator draws of each instance.
DESIGN_SEED = 7
# ``gmkp generate --count 20 --seed 7`` holds the instances of faults F1 and F2.
FAULT_COUNT, FAULT_SEED = 20, 7
SETUP_REPEATS = 5
CAPACITY = 100

SOLVE_VARIANTS = ("lp", "kp", "2mkp", "3mkp", "mkpprime")
BNB_VARIANTS = ("lp", "kp", "2mkp")


@dataclass(frozen=True)
class Workload:
    scheme: str
    count: int
    # Sub-box of the generator's unit cube, per LHS dimension: knapsack
    # count, weight spread, minimum weight, weight mode, load ratio,
    # concentration.  ``gen.materialize`` maps the scaled point.
    box: tuple
    # (index in the seed-7 corpus, reward scheme, variant) of the fault op.
    fault: tuple | None


WORKLOADS = {
    "solve-swapopt": Workload(
        scheme="R0", count=20,
        box=((0, 0.25), (0, 1), (0, 1), (0, 1), (0, 0.25), (0, 1)),
        fault=(7, "R0", "3mkp"),  # F1: m=77, 3mkp falls off the weight DP
    ),
    "select-bnb": Workload(
        scheme="R3", count=60,
        box=((0, 0.1), (0, 1), (0, 1), (0, 1), (0, 0.1), (0.7, 1)),
        fault=(12, "R1", "kp"),  # F2: k=131, kp B&B needs over 200k nodes
    ),
    "feasible-sweep": Workload(
        scheme="R0", count=24,
        box=((0, 0.12), (0, 1), (0, 1), (0, 1), (0, 0.25), (0, 1)),
        fault=None,
    ),
}


@dataclass
class Op:
    kind: str  # solve | feasible | sweep
    instance: Path
    variant: str
    argv: list
    out: Path
    swap_opt: bool
    expect_failure: bool = False
    durations: list = field(default_factory=list)


# ------------------------------------------------------------------ set-up


def import_program() -> dict:
    """Import gmkp from the checkout's ``src/``; fail when it is not there."""
    if not (SRC / "gmkp" / "__init__.py").is_file():
        sys.exit(f"bench: no gmkp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"gmkp.{name}") for name in (
        "model", "gen", "lp_greedy", "subset_select", "assign", "pipeline",
        "heuristics", "cli")}
    if Path(mods["cli"].__file__).resolve().parents[1] != SRC:
        sys.exit(f"bench: gmkp was imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def write_instance(mods: dict, inst, path: Path) -> None:
    cli = mods["cli"]
    cli.dump_json(cli.instance_to_json(cli.canonical_item_order(inst)), path)


def make_corpus(mods: dict, wl: Workload, seed: int, dest: Path) -> list[Path]:
    gen = mods["gen"]
    paths = []
    for idx, point in enumerate(gen.latin_hypercube(wl.count, DESIGN_SEED)):
        unit = [lo + (hi - lo) * float(u) for u, (lo, hi) in zip(point, wl.box)]
        inst_seed = seed * 1_000_003 + idx
        inst = gen.generate_instance(gen.materialize(unit, capacity=CAPACITY, seed=inst_seed))
        if wl.scheme != "R0":
            inst = gen.apply_reward_scheme(inst, gen.RewardScheme(wl.scheme, seed=inst_seed))
        path = dest / f"inst_{idx:02d}.json"
        write_instance(mods, inst, path)
        paths.append(path)
    return paths


def make_fault_instance(mods: dict, index: int, scheme: str, dest: Path) -> Path:
    """Instance ``index`` exactly as ``gmkp generate --count 20 --seed 7`` writes it."""
    gen = mods["gen"]
    point = gen.latin_hypercube(FAULT_COUNT, FAULT_SEED)[index]
    params = gen.materialize(point, capacity=CAPACITY, seed=FAULT_SEED * 1_000_003 + index)
    inst = gen.generate_instance(params)
    if scheme != "R0":
        inst = gen.apply_reward_scheme(inst, gen.RewardScheme(scheme, seed=FAULT_SEED))
    path = dest / f"fault_{FAULT_SEED}_{index}_{scheme}.json"
    write_instance(mods, inst, path)
    return path


def build_ops(mods: dict, name: str, seed: int, work: Path) -> list[Op]:
    wl = WORKLOADS[name]
    inst_dir, out_dir = work / "instances", work / "out"
    for d in (inst_dir, out_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    budget = ["--node-budget", str(NODE_BUDGET)]
    ops = []

    def solve(path, variant, swap_opt, expect_failure=False):
        out = out_dir / f"{path.stem}.{variant}.json"
        argv = ["solve", str(path), "--algo", variant, *budget, "--out", str(out)]
        if swap_opt:
            argv.append("--swap-opt")
        ops.append(Op("solve", path, variant, argv, out, swap_opt, expect_failure))

    for path in make_corpus(mods, wl, seed, inst_dir):
        if name == "solve-swapopt":
            for v in SOLVE_VARIANTS:
                solve(path, v, swap_opt=True)
        elif name == "select-bnb":
            for v in BNB_VARIANTS:
                solve(path, v, swap_opt=False)
        else:
            out = out_dir / f"{path.stem}.feasible.json"
            ops.append(Op("feasible", path, "3mkp", ["feasible", str(path), "--algo", "3mkp",
                                                      *budget, "--out", str(out)], out, True))
            out = out_dir / f"{path.stem}.sweep.csv"
            ops.append(Op("sweep", path, "2mkp", ["sweep", str(path), "--algo", "2mkp",
                                                   "--out", str(out)], out, True))
    if wl.fault is not None:
        index, scheme, variant = wl.fault
        path = make_fault_instance(mods, index, scheme, inst_dir)
        solve(path, variant, swap_opt=(name == "solve-swapopt"), expect_failure=True)
    return ops


# -------------------------------------------------------------- measuring


def read_output(op: Op):
    """The op's output with run-dependent fields removed."""
    text = op.out.read_text(encoding="utf-8")
    if op.kind == "sweep":
        return list(csv.DictReader(io.StringIO(text)))
    doc = json.loads(text)
    doc.pop("timings_ms", None)
    return doc


class Run:
    """Whole rounds of one workload's ops, with the outputs of each checked."""

    def __init__(self, mods: dict, ops: list[Op]):
        self.main = mods["cli"].main
        self.ops = ops
        self.first_outputs: list = [None] * len(ops)
        self.codes: list = [None] * len(ops)
        self.problems: list[str] = []
        self.round_stats: list[tuple[float, int, int]] = []  # (seconds, completed, solves)

    def round(self, tracer=None, number: int = 0) -> None:
        sink = io.StringIO()
        elapsed = 0.0
        completed = solves = 0
        for index, op in enumerate(self.ops):
            op.out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.op = f"{number}:{index}"
                root = tracer.begin("cli.op")
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = perf_counter()
                try:
                    code = self.main(op.argv)
                except Exception as exc:  # a traceback breaks the exit-code contract
                    code = f"raised {type(exc).__name__}: {exc}"
                dt = perf_counter() - start
            if tracer is not None:
                tracer.end(root)
            sink.seek(0)
            sink.truncate()
            elapsed += dt
            if self.codes[index] is None:
                self.codes[index] = code
            elif code != self.codes[index]:
                self.problems.append(f"{op.argv}: exit {code}, earlier rounds {self.codes[index]}")
            if code != 0:
                if code != 3:
                    self.problems.append(f"{op.argv}: exit {code}")
                continue
            op.durations.append(dt)
            completed += 1
            output = read_output(op)
            if self.first_outputs[index] is None:
                self.first_outputs[index] = output
            elif output != self.first_outputs[index]:
                self.problems.append(f"{op.argv}: output differs from the first round")
            if op.kind == "solve":
                solves += 1
            elif op.kind == "feasible":
                solves += output["probes"]
            else:
                solves += len(output)
        self.round_stats.append((elapsed, completed, solves))

    def check(self) -> tuple[int, int]:
        """Check the first round's outputs; return (reward_sum, overload_slack)."""
        docs, kp_opts = {}, {}
        by_instance: dict = {}
        reward_sum = slack = 0
        for op, out in zip(self.ops, self.first_outputs):
            if out is None:
                if not op.expect_failure:
                    self.problems.append(f"{op.argv}: failed on a seeded instance")
                continue
            if op.instance not in docs:
                doc = json.loads(op.instance.read_text(encoding="utf-8"))
                inst = docs[op.instance] = checks.Instance(doc)
                kp_opts[op.instance] = checks.kp_optimum(inst.weights, inst.rewards,
                                                         inst.total_capacity)
            inst, kp_opt = docs[op.instance], kp_opts[op.instance]
            cap = checks.overload_cap(op.variant, inst.c_max)
            if op.kind == "solve":
                found = checks.check_solve(inst, out, op.variant, op.swap_opt)
                if op.variant == "kp":
                    found += checks.check_kp(out, kp_opt)
                by_instance.setdefault(op.instance, {})[op.variant] = out["reward"]
                reward_sum += out["reward"]
                slack += cap - out["max_exceeded"]
            elif op.kind == "feasible":
                found = checks.check_feasible(inst, out, op.variant, kp_opt)
                reward_sum += out["reward"]
                slack += cap - out["max_exceeded"]
            else:
                found = checks.check_sweep(inst, op.variant, out)
                if not found:
                    reward_sum += sum(int(row["reward"]) for row in out)
                    slack += sum(cap - int(row["max_exceeded"]) for row in out)
            self.problems += [f"{op.argv}: {p}" for p in found]
        for path, rewards in by_instance.items():
            self.problems += [f"{path.name}: {p}" for p in checks.check_reward_order(rewards)]
        return reward_sum, slack

    def rates(self, rounds) -> tuple[float, float]:
        """Median over rounds of completed ops and of solves per second."""
        stats = [self.round_stats[r] for r in rounds]
        return (statistics.median(c / s for s, c, _ in stats),
                statistics.median(v / s for s, _, v in stats))


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mods = import_program()
    import_s = perf_counter() - START

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(mods)
    work = WORK / f"{args.workload}-{args.seed}"
    setup_times, gen_ms, gen_calls = [], [], 0
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            first = len(tracer.spans)
            tracer.op = "setup"
            tracer.install()
        start = perf_counter()
        ops = build_ops(mods, args.workload, args.seed, work)
        setup_times.append(perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
            layers = tracer.summary(first)
            gen_ms.append(layers["gen.generate_instance.ms"][0])
            gen_calls = layers["gen.generate_instance.calls"][0]

    run = Run(mods, ops)
    traced_rounds, layer_rounds, count_rounds = [], [], []
    start = perf_counter()
    number = 0
    while True:
        traced = tracer is not None and number % 2 == 1
        if traced:
            first, counts_before = len(tracer.spans), dict(tracer.counts)
            tracer.install()
        try:
            run.round(tracer if traced else None, number)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_rounds.append(number)
            layer_rounds.append(tracer.summary(first))
            count_rounds.append({k: tracer.counts[k] - counts_before.get(k, 0) for k in tracer.counts})
        if number == 0:
            reward_sum, slack = run.check()
        number += 1
        if perf_counter() - start >= args.seconds and (tracer is None or number % 2 == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = number * len(ops)
    failed = attempted - sum(len(op.durations) for op in ops)
    metrics = {}
    if tracer is None:
        ops_per_s, solves_per_s = run.rates(range(number))
        durations = [d for op in ops for d in op.durations]
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_ms_p50": (statistics.median(durations) * 1000.0 if durations else 0.0, "ms"),
            "solves_per_s": (solves_per_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "reward_sum": (reward_sum, "reward"),
            "overload_slack": (slack, "weight"),
        }
    else:
        from tracing import COUNTERS

        for name in layer_rounds[0]:
            metrics[name] = (statistics.median(r[name][0] for r in layer_rounds),
                             layer_rounds[0][name][1])
        for name, unit in COUNTERS.items():
            metrics[name] = (statistics.median(r.get(name, 0) for r in count_rounds), unit)
        metrics["gen.generate_instance.ms"] = (statistics.median(gen_ms), "ms")
        metrics["gen.generate_instance.calls"] = (gen_calls, "count")
        plain, _ = run.rates(range(0, number, 2))
        with_trace, _ = run.rates(traced_rounds)
        metrics["trace.ops_per_s"] = (with_trace, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (1.0 - with_trace / plain), "%")
        tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    shutil.rmtree(work)

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
