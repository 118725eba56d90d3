"""Command-line front end: generation, solving, heuristics, benchmarks.

File formats:
  instance JSON  {"schema": "gmkp/1", "capacities": [...],
                  "groups": [{"reward": int, "items": [weight, ...]}, ...],
                  "meta": {...}}
  result JSON    {"schema": "gmkp-result/1", ...}
  sweep CSV      schema,factor,reward,max_exceeded,dominated
                 (dominated reads error:budget:<msg> on a failed row)
  bench CSV      schema,instance,algo,reward,max_exceeded,time_ms
                 (time_ms reads error:input:<msg> or error:budget:<msg> on a
                 failed row)

Items live inside their group, in the file as in ``Instance``, so a malformed
partition is unrepresentable.
Exit codes: 0 success, 2 input error, 3 search budget exceeded, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Collection, Optional, Sequence

from . import gen, heuristics, oracle, pipeline, subset_select
from .model import (
    BudgetExceededError,
    GmkpError,
    InconsistentSolutionError,
    Instance,
    validate,
)

INSTANCE_SCHEMA = "gmkp/1"
RESULT_SCHEMA = "gmkp-result/1"
SWEEP_SCHEMA = "gmkp-sweep/1"
BENCH_SCHEMA = "gmkp-bench/1"
SUMMARY_SCHEMA = "gmkp-bench-summary/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

SINGLE_ALGOS = ("lp", "kp", "2mkp", "3mkp", "mkpd", "mkpprime", "100mkp")
ALGO_CHOICES = SINGLE_ALGOS + ("best",)


class CliInputError(Exception):
    pass


# ---------------------------------------------------------------- instances


def instance_to_json(instance: Instance) -> dict:
    """Serialize with items nested in their groups."""
    return {
        "schema": INSTANCE_SCHEMA,
        "capacities": list(instance.capacities),
        "groups": [
            {"reward": p, "items": list(items)}
            for p, items in zip(instance.rewards, instance.group_items)
        ],
        "meta": {"id": instance.meta},
    }


def _ints(values, what: str) -> list[int]:
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise CliInputError(f"{what} must be a list of integers")
    return values


def instance_from_json(doc) -> Instance:
    """Parse the nested form into an ``Instance``."""
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != INSTANCE_SCHEMA:
        raise CliInputError(f"unsupported instance schema {schema!r}")
    entries, meta = doc.get("groups"), doc.get("meta", {})
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise CliInputError('"groups" must be a list of objects')
    if not isinstance(meta, dict):
        raise CliInputError('"meta" must be an object')
    group_items = [_ints(entry.get("items"), "group items") for entry in entries]
    return Instance(
        capacities=_ints(doc.get("capacities"), "capacities"),
        group_items=group_items,
        rewards=_ints([e.get("reward") for e in entries], "group rewards"),
        meta=str(meta.get("id", "")),
    )


def canonical_item_order(instance: Instance) -> Instance:
    """``instance`` itself: every ``Instance`` numbers its items group-major.

    Kept only for the benchmark: ``bench/run.py`` is its only caller.
    """
    return instance


# Kept only for the benchmark: ``bench/tracing.py`` times ``cli.normalize``.
normalize = canonical_item_order


def load_instance(path) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError covers bad JSON and bad UTF-8; RecursionError too deep a nesting
    except (OSError, ValueError, RecursionError) as exc:
        raise CliInputError(f"cannot read instance {path}: {exc}") from exc
    inst = instance_from_json(doc)
    problems = validate(inst)
    if problems:
        raise CliInputError(f"invalid instance {path}: " + "; ".join(problems))
    return inst


def json_text(doc, indent: str = "\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` for a document with string keys.

    The stdlib's indenting encoder is pure Python, and its nested closures
    leave a reference cycle on every call.  Here only scalars and empty
    containers go through ``json.dumps``, whose C encoder makes none.
    """
    if type(doc) is int:
        return int.__repr__(doc)
    inner = indent + "  "
    if isinstance(doc, dict) and doc:
        body = ("," + inner).join(
            json.dumps(key) + ": " + json_text(value, inner) for key, value in sorted(doc.items())
        )
        return "{" + inner + body + indent + "}"
    if isinstance(doc, (list, tuple)) and doc:
        return "[" + inner + ("," + inner).join(json_text(v, inner) for v in doc) + indent + "]"
    return json.dumps(doc)


def dump_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(doc) + "\n")


def result_to_json(result: pipeline.SolveResult, instance: Instance) -> dict:
    # ``metrics`` has checked that the placed items are exactly the chosen groups' items
    starts = list(accumulate(map(len, instance.group_items), initial=0))
    placement = result.assignment.placement
    assignment = [[l, pos, i] for l in result.selection.indices()
                  for pos, i in enumerate(placement[starts[l]:starts[l + 1]])]
    return {
        "schema": RESULT_SCHEMA,
        "algorithm": result.algorithm,
        "selection": list(result.selection.indices()),
        "assignment": assignment,
        "loads": list(result.assignment.loads),
        "reward": result.metrics.reward,
        "max_exceeded": result.metrics.max_exceeded,
        "timings_ms": result.timings_ms,
        "swap_opt": result.swap_opt_applied,
    }


# ------------------------------------------------------------------- algos


def _fractions(text: str, option: str) -> list[Fraction]:
    """The positive fractions of a comma-separated ``option`` value."""
    try:
        values = [Fraction(part) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliInputError(f"bad {option} {text!r}: {exc}") from exc
    if not values or any(v <= 0 for v in values):
        raise CliInputError(f"{option} needs positive values, got {text!r}")
    return values


def resolve_algo(
    instance: Instance, algo: str, d_set_text: Optional[str]
) -> tuple[str, Optional[Collection[Fraction]]]:
    """The pipeline variant and threshold set named by ``--algo`` and ``--d-set``.

    ``100mkp`` is ``mkpd`` with thresholds c/2 .. c/c.  ``mkpd`` takes its
    thresholds from ``--d-set`` (fractions or ``canonical``), and no other
    algorithm takes any.  ``best`` is passed through for ``run_named_algo``.
    """
    if algo != "mkpd":
        if d_set_text is not None:
            raise CliInputError(f"--d-set goes only with --algo mkpd, not {algo}")
        if algo == "100mkp":
            return "mkpd", subset_select.hundred_mkp_d_set(instance.c_max)
        return algo, None
    if d_set_text is None:
        raise CliInputError("--algo mkpd requires --d-set")
    if d_set_text.strip() == "canonical":
        return "mkpd", subset_select.canonical_D(instance)
    return "mkpd", _fractions(d_set_text, "--d-set")


def run_named_algo(
    instance: Instance,
    algo: str,
    swap_opt: bool,
    total_capacity: Optional[int] = None,
    d_set_text: Optional[str] = None,
    node_budget: Optional[int] = None,
) -> pipeline.SolveResult:
    variant, d_set = resolve_algo(instance, algo, d_set_text)
    if total_capacity is not None and total_capacity < 0:
        raise CliInputError(f"--total-capacity must be non-negative, got {total_capacity}")
    if variant == "best":
        if total_capacity is not None:
            raise CliInputError("--total-capacity does not go with --algo best")
        return pipeline.run_best(instance, swap_opt=swap_opt, node_budget=node_budget)
    return pipeline.run_algorithm(instance, variant, swap_opt=swap_opt, d_set=d_set,
                                  total_capacity=total_capacity, node_budget=node_budget)


# -------------------------------------------------------------- subcommands


def _emit(doc: dict, out: Optional[str]) -> None:
    """Write a JSON document to ``out``, or to standard output without one."""
    if out:
        dump_json(doc, out)
    else:
        print(json_text(doc))


def cmd_generate(args) -> int:
    try:
        all_params = [
            gen.materialize(point, capacity=args.capacity, seed=args.seed * 1_000_003 + idx)
            for idx, point in enumerate(gen.latin_hypercube(args.count, args.seed))
        ]
    except ValueError as exc:  # count, capacity or seed out of the generator's range
        raise CliInputError(f"cannot generate: {exc}") from exc
    out_dir = Path(args.out_dir if args.out_dir is not None
                   else os.environ.get("GMKP_OUT_DIR", "instances"))
    out_dir.mkdir(parents=True, exist_ok=True)
    scheme = gen.RewardScheme(args.reward_scheme, seed=args.seed)
    manifest = {"schema": "gmkp-manifest/1", "seed": args.seed, "count": args.count,
                "reward_scheme": args.reward_scheme, "rng": gen.RNG_NAME, "instances": []}
    for idx, params in enumerate(all_params):
        inst = gen.generate_instance(params)
        if args.reward_scheme != "R0":
            inst = gen.apply_reward_scheme(inst, scheme)
        name = f"inst_{args.seed}_{idx}.json"
        dump_json(instance_to_json(inst), out_dir / name)
        manifest["instances"].append(
            {
                "file": name,
                "m": params.m,
                "w_split": params.w_split,
                "w_min": params.w_min,
                "w_mode": params.w_mode,
                "r_load": str(params.r_load),
                "r_conc": str(params.r_conc),
                "capacity": params.capacity,
                "seed": params.seed,
            }
        )
    dump_json(manifest, out_dir / f"manifest_{args.seed}.json")
    print(f"wrote {args.count} instances to {out_dir}")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    result = run_named_algo(inst, args.algo, swap_opt=args.swap_opt, d_set_text=args.d_set,
                            total_capacity=args.total_capacity, node_budget=args.node_budget)
    _emit(result_to_json(result, inst), args.out)
    return EXIT_OK


def cmd_feasible(args) -> int:
    inst = load_instance(args.instance)
    variant, d_set = resolve_algo(inst, args.algo, args.d_set)
    search = heuristics.binary_search_feasible(
        inst, variant, swap_opt=not args.no_swap_opt, d_set=d_set, node_budget=args.node_budget
    )
    doc = result_to_json(search.result, inst)
    doc["probes"] = search.probes
    doc["aborted_early"] = False  # kept in the result format; the search always closes
    _emit(doc, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    inst = load_instance(args.instance)
    variant, d_set = resolve_algo(inst, args.algo, args.d_set)
    factors = (
        _fractions(args.factors, "--factors")
        if args.factors is not None
        else list(heuristics.DEFAULT_SWEEP_FACTORS)
    )
    entries = heuristics.capacity_sweep(
        inst, variant, factors=factors, swap_opt=not args.no_swap_opt, d_set=d_set,
        node_budget=args.node_budget,
    )
    frontier = heuristics.pareto_frontier([e.result for e in entries if e.result])
    frontier_ids = {id(r) for r in frontier}
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema", "factor", "reward", "max_exceeded", "dominated"])
        for e in entries:
            if e.result is None:
                writer.writerow([SWEEP_SCHEMA, str(e.factor), "", "", f"error:budget:{e.error}"])
            else:
                writer.writerow(
                    [
                        SWEEP_SCHEMA,
                        str(e.factor),
                        e.result.metrics.reward,
                        e.result.metrics.max_exceeded,
                        0 if id(e.result) in frontier_ids else 1,
                    ]
                )
    print(f"wrote {len(entries)} sweep rows to {args.out}")
    failures = sum(e.result is None for e in entries)
    if failures:
        print(f"error: {failures} of {len(entries)} sweep rows failed", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_exact(args) -> int:
    inst = load_instance(args.instance)
    value, selection, assignment = oracle.exact_gmkp(inst, node_budget=args.node_budget)
    _emit(
        {
            "schema": RESULT_SCHEMA,
            "algorithm": "exact",
            "optimal_reward": value,
            "selection": list(selection.indices()),
            "loads": list(assignment.loads),
            "max_exceeded": assignment.max_exceeded(inst),
        },
        args.out,
    )
    return EXIT_OK


def _bench_one(path: Path, algo: str, swap_opt: bool, node_budget) -> list:
    """One bench row; an input or budget failure becomes a labelled error row."""
    try:
        inst = load_instance(path)
        t0 = time.perf_counter()
        result = run_named_algo(inst, algo, swap_opt=swap_opt, node_budget=node_budget)
        dt = (time.perf_counter() - t0) * 1000.0
        return [BENCH_SCHEMA, path.name, algo, result.metrics.reward,
                result.metrics.max_exceeded, f"{dt:.3f}"]
    except CliInputError as exc:
        return [BENCH_SCHEMA, path.name, algo, "", "", f"error:input:{exc}"]
    except BudgetExceededError as exc:
        return [BENCH_SCHEMA, path.name, algo, "", "", f"error:budget:{exc}"]


def _percentile(sorted_values: Sequence[float], p: float) -> float:
    if not sorted_values:
        return float("nan")
    idx = min(len(sorted_values) - 1, max(0, int(round(p / 100 * (len(sorted_values) - 1)))))
    return sorted_values[idx]


def cmd_bench(args) -> int:
    in_dir = Path(args.instances)
    paths = sorted(p for p in in_dir.glob("inst_*.json"))
    if not paths:
        raise CliInputError(f"no inst_*.json files in {in_dir}")
    algos = [a.strip() for a in args.algos.split(",")]
    for a in algos:
        if a not in ALGO_CHOICES:
            raise CliInputError(f"unknown algorithm {a!r}")
        if a == "mkpd":
            raise CliInputError("bench takes no --d-set, so it cannot run mkpd")
    rows = [_bench_one(p, a, args.swap_opt, args.node_budget) for p in paths for a in algos]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema", "instance", "algo", "reward", "max_exceeded", "time_ms"])
        writer.writerows(rows)

    summary_path = args.summary or (os.path.splitext(args.out)[0] + "_summary.csv")
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema", "algo", "p50", "p75", "p90", "p95", "p99"])
        for a in algos:
            times = sorted(
                float(r[5]) for r in rows if r[2] == a and not r[5].startswith("error:")
            )
            writer.writerow(
                [SUMMARY_SCHEMA, a]
                + [f"{_percentile(times, p):.3f}" for p in (50, 75, 90, 95, 99)]
            )
    print(f"wrote {len(rows)} bench rows to {args.out}; summary in {summary_path}")
    failures = [r[5].split(":")[1] for r in rows if r[5].startswith("error:")]
    if failures:
        print(f"error: {len(failures)} of {len(rows)} bench rows failed", file=sys.stderr)
        return EXIT_BUDGET if "budget" in failures else EXIT_INPUT
    return EXIT_OK


# -------------------------------------------------------------------- main


def _node_budget(text: str) -> int:
    """The ``--node-budget`` value: an int of at least 0."""
    try:
        value = int(text)
    except ValueError:  # argparse's own wording for a bad int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gmkp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate random instances")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--capacity", type=int, default=100)
    p.add_argument("--reward-scheme", choices=("R0", "R1", "R2", "R3"), default="R0")
    p.add_argument("--out-dir", default=None, help="default: $GMKP_OUT_DIR, else instances")
    p.set_defaults(func=cmd_generate)

    def add_algo_args(p, algos, default):
        p.add_argument("instance")
        p.add_argument("--algo", choices=algos, default=default)
        p.add_argument("--d-set", default=None,
                       help="thresholds for --algo mkpd only: comma-separated "
                            "fractions (e.g. 100/2,100/3) or 'canonical'")
        p.add_argument("--node-budget", type=_node_budget, default=None)

    p = sub.add_parser("solve", help="run one algorithm on one instance")
    add_algo_args(p, ALGO_CHOICES, "3mkp")
    p.add_argument("--out", default=None)
    p.add_argument("--total-capacity", type=int, default=None)
    p.add_argument("--swap-opt", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("feasible", help="binary-search a capacity-feasible solution")
    add_algo_args(p, SINGLE_ALGOS, "3mkp")
    p.add_argument("--out", default=None)
    p.add_argument("--no-swap-opt", action="store_true")
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("sweep", help="capacity sweep with Pareto frontier CSV")
    add_algo_args(p, SINGLE_ALGOS, "2mkp")
    p.add_argument("--factors", default=None, help="comma-separated factors, default 0.75..1.25")
    p.add_argument("--no-swap-opt", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("exact", help="exact optimum for a small instance")
    p.add_argument("instance")
    p.add_argument("--node-budget", type=_node_budget, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("bench", help="run a directory of instances against algorithms")
    p.add_argument("--instances", required=True)
    p.add_argument("--algos", default="lp,kp,2mkp,3mkp")
    p.add_argument("--swap-opt", action="store_true")
    p.add_argument("--node-budget", type=_node_budget, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


# Built once: main runs many times in one process under tests and benchmarks.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InconsistentSolutionError, AssertionError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GmkpError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
