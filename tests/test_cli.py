"""Command-line interface: subcommands, formats, exit codes."""

import csv
import gc
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gmkp
from gmkp import assign, gen, pipeline, subset_select
from gmkp.cli import (
    ALGO_CHOICES,
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    dump_json,
    instance_from_json,
    instance_to_json,
    json_text,
    main,
    resolve_algo,
)
from gmkp.model import InconsistentSolutionError, Selection, validate
from conftest import make, random_small_instance


def write_instance(path, instance):
    path.write_text(json.dumps(instance_to_json(instance)))


def write_doc(path, groups):
    path.write_text(json.dumps({"schema": "gmkp/1", "capacities": [10, 10], "groups": groups}))


def run_cli(*argv, timeout=None):
    """``python -m gmkp.cli argv`` in a child process, importing this checkout's gmkp."""
    src = str(Path(gmkp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "gmkp.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=timeout)


SAMPLE = make([10, 10], [6, 4, 5, 3], [(0, 1), (2,), (3,)], [10, 5, 3])
# Rewards that differ from group weights send selection to branch-and-bound.
NOISY_GROUPS = [{"reward": 9, "items": [6, 3]}, {"reward": 9, "items": [5, 4]},
                {"reward": 40, "items": [7]}]


@pytest.fixture
def noisy(tmp_path):
    path = tmp_path / "inst_noisy.json"
    write_doc(path, NOISY_GROUPS)
    return path


@pytest.fixture
def sample(tmp_path):
    path = tmp_path / "inst.json"
    write_instance(path, SAMPLE)
    return SAMPLE, path


class TestSerialization:
    def test_round_trip_canonical_instance(self):
        inst = make([10, 10], [6, 4, 5], [(0, 1), (2,)], [10, 5])
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_generated_instance_round_trips(self):
        for idx, point in enumerate(gen.latin_hypercube(4, 3)):
            params = gen.materialize(point, seed=3 * 1_000_003 + idx)
            inst = gen.generate_instance(params)
            assert instance_from_json(instance_to_json(inst)) == inst

    def test_serialized_text_round_trips_bit_exactly(self, tmp_path):
        inst = make([7, 9], [3, 3, 4], [(0,), (1, 2)], [3, 7])
        doc = instance_to_json(inst)
        text = json.dumps(doc, indent=2, sort_keys=True)
        again = json.dumps(
            instance_to_json(instance_from_json(json.loads(text))),
            indent=2,
            sort_keys=True,
        )
        assert text == again

    def test_json_text_equals_stdlib_indented_dump(self, sample, tmp_path):
        rng = random.Random(22)
        scalars = [0, -7, 10**30, 1.5, -0.0, float("nan"), float("inf"), float("-inf"),
                   1e-300, True, False, None, "", "x", "\u00e9\u2603\n\"\\"]

        def draw(depth):
            pick = rng.random()
            if depth > 3 or pick < 0.5:
                return rng.choice(scalars + [rng.randint(-999, 999), rng.random()])
            if pick < 0.7:
                return [draw(depth + 1) for _ in range(rng.randint(0, 4))]
            if pick < 0.8:
                return tuple(draw(depth + 1) for _ in range(rng.randint(0, 3)))
            keys = ["a", "b", "", "\u00e9", "\u2603", "k1", "K", "z\n"]
            return {rng.choice(keys): draw(depth + 1) for _ in range(rng.randint(0, 4))}

        inst, path = sample
        out = tmp_path / "r.json"
        assert main(["solve", str(path), "--algo", "2mkp", "--out", str(out)]) == EXIT_OK
        docs = [instance_to_json(inst), json.loads(out.read_text())]
        docs += [draw(0) for _ in range(2000)]
        for doc in docs:
            assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True), doc
        dump_json(docs[0], out)
        assert out.read_text() == json.dumps(docs[0], indent=2, sort_keys=True) + "\n"

    def test_bad_schema_rejected(self):
        with pytest.raises(Exception):
            instance_from_json({"schema": "gmkp/99", "capacities": [], "groups": []})


class TestGenerate:
    def test_writes_instances_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main(
            ["generate", "--count", "3", "--seed", "9", "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        files = sorted(p.name for p in out.glob("*.json"))
        assert files == [
            "inst_9_0.json",
            "inst_9_1.json",
            "inst_9_2.json",
            "manifest_9.json",
        ]
        manifest = json.loads((out / "manifest_9.json").read_text())
        assert manifest["schema"] == "gmkp-manifest/1"
        assert len(manifest["instances"]) == 3
        doc = json.loads((out / "inst_9_0.json").read_text())
        assert doc["schema"] == "gmkp/1"

    def test_regeneration_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--count", "2", "--seed", "4", "--out-dir", str(a)])
        main(["generate", "--count", "2", "--seed", "4", "--out-dir", str(b)])
        for name in ("inst_4_0.json", "inst_4_1.json", "manifest_4.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_importing_the_cli_leaves_numpy_unloaded(self):
        # only the generator draws with numpy, so it imports numpy when it draws
        src = str(Path(gmkp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, gmkp.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr

    def test_small_capacity_writes_valid_instances(self, tmp_path, capsys):
        # the weight spread stays below the capacity, so every design point
        # has a valid minimum weight; a capacity below 2 has none
        out = tmp_path / "gen"
        argv = ["generate", "--count", "3", "--seed", "7", "--out-dir", str(out)]
        assert main([*argv, "--capacity", "50"]) == EXIT_OK
        files = sorted(out.glob("inst_*.json"))
        assert len(files) == 3
        for path in files:
            assert validate(instance_from_json(json.loads(path.read_text()))) == []
        assert main([*argv, "--capacity", "1"]) == EXIT_INPUT
        assert "capacity 1 " in capsys.readouterr().err

    def test_out_dir_variable_read_at_each_call(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GMKP_OUT_DIR", raising=False)
        assert main(["generate", "--count", "1", "--seed", "3"]) == EXIT_OK
        assert (tmp_path / "instances" / "inst_3_0.json").is_file()
        monkeypatch.setenv("GMKP_OUT_DIR", str(tmp_path / "env"))
        assert main(["generate", "--count", "1", "--seed", "3"]) == EXIT_OK
        assert (tmp_path / "env" / "inst_3_0.json").is_file()


class TestSolve:
    def test_solve_writes_result(self, sample, tmp_path):
        _, path = sample
        out = tmp_path / "r.json"
        code = main(["solve", str(path), "--algo", "3mkp", "--swap-opt", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema"] == "gmkp-result/1"
        assert doc["algorithm"] == "3mkp"
        assert doc["swap_opt"] is True
        assert isinstance(doc["reward"], int) and isinstance(doc["max_exceeded"], int)
        assert set(doc["timings_ms"]) == {"selection", "assignment", "swap_opt"}
        # assignment triples reference real items of selected groups
        inst, _ = sample
        for l, pos, i in doc["assignment"]:
            assert l in doc["selection"]
            assert 0 <= pos < len(inst.group_items[l]) and 0 <= i < inst.m

    @pytest.mark.parametrize("to_file", [False, True])
    def test_solve_leaves_no_reference_cycles(self, noisy, tmp_path, capsys, to_file):
        # branch-and-bound selection, then the result written as JSON
        argv = ["solve", str(noisy), "--algo", "2mkp", "--swap-opt"]
        if to_file:
            argv += ["--out", str(tmp_path / "r.json")]
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == EXIT_OK
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.json")])
        assert code == EXIT_INPUT

    def test_corrupt_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == EXIT_INPUT

    def test_invalid_instance_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema": "gmkp/1",
                    "capacities": [5, -2],
                    "groups": [{"reward": 1, "items": [3]}],
                }
            )
        )
        assert main(["solve", str(bad)]) == EXIT_INPUT

    def test_mkpd_without_d_set_is_input_error(self, sample, capsys):
        _, path = sample
        assert main(["solve", str(path), "--algo", "mkpd"]) == EXIT_INPUT

    def test_mkpd_with_d_set(self, sample, tmp_path):
        _, path = sample
        out = tmp_path / "r.json"
        code = main(
            ["solve", str(path), "--algo", "mkpd", "--d-set", "10/2,10/3", "--out", str(out)]
        )
        assert code == EXIT_OK

    def test_d_set_canonical_keyword(self, sample, tmp_path):
        _, path = sample
        out = tmp_path / "r.json"
        code = main(
            ["solve", str(path), "--algo", "mkpd", "--d-set", "canonical", "--out", str(out)]
        )
        assert code == EXIT_OK

    def test_d_set_canonical_without_groups(self, tmp_path):
        # no items, so no thresholds: mkpd has no cut rows and answers as kp
        path = tmp_path / "empty.json"
        write_doc(path, [])
        docs = []
        for algo in (["kp"], ["mkpd", "--d-set", "canonical"]):
            out = tmp_path / f"{algo[0]}.json"
            assert main(["solve", str(path), "--algo", *algo, "--out", str(out)]) == EXIT_OK
            doc = json.loads(out.read_text())
            docs.append({key: doc[key] for key in ("selection", "assignment", "loads", "reward")})
        assert docs[0] == docs[1]

    def test_canonical_set_and_sorted_list_agree(self, tmp_path, monkeypatch):
        # `canonical` passes canonical_D's set through, which build_problem
        # sorts and the bound looks c_max/2 up in; the sorted list it replaced
        # gives the same bound and the same output
        canonical_D = subset_select.canonical_D
        rng = random.Random(71)
        bounds = set()
        for trial in range(8):
            inst = random_small_instance(rng)
            variant, d_set = resolve_algo(inst, "mkpd", "canonical")
            listed = sorted(d_set, reverse=True)
            assert d_set == canonical_D(inst)
            bound = pipeline.beta_bound_for(inst, variant, d_set)
            assert bound == pipeline.beta_bound_for(inst, variant, listed)
            bounds.add(bound)
            path, docs = tmp_path / f"inst{trial}.json", []
            write_instance(path, inst)
            for found in (canonical_D, lambda inst: sorted(canonical_D(inst), reverse=True)):
                monkeypatch.setattr(subset_select, "canonical_D", found)
                out = tmp_path / "r.json"
                argv = ["solve", str(path), "--algo", "mkpd", "--d-set", "canonical"]
                assert main([*argv, "--out", str(out)]) == EXIT_OK
                docs.append(json.loads(out.read_text()))
                del docs[-1]["timings_ms"]
            monkeypatch.undo()
            assert docs[0] == docs[1]
        assert len(bounds) > 1

    def test_hundred_mkp_alias(self, sample, tmp_path):
        _, path = sample
        out = tmp_path / "r.json"
        assert main(["solve", str(path), "--algo", "100mkp", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["algorithm"] == "mkpd"

    def test_broken_swap_opt_bound_exits_4(self, sample, monkeypatch, capsys):
        def ping_pong(placed, placement, weights, over, lo, hi):
            j = placed[0]
            return ((j, 1 - placement[j]),)  # back and forth between the two knapsacks

        monkeypatch.setattr(assign, "_first_jump", ping_pong)
        assert main(["solve", str(sample[1]), "--algo", "3mkp", "--swap-opt"]) == EXIT_INTERNAL
        assert "swap-optimal move bound exceeded" in capsys.readouterr().err

    def test_large_m_weight_problem_takes_the_core(self, tmp_path):
        # instance 7 of ``gmkp generate --count 20 --seed 7``: m = 77, and the
        # 3mkp state space is over the weight DP's limit
        point = gen.latin_hypercube(20, 7)[7]
        inst = gen.generate_instance(gen.materialize(point, capacity=100, seed=7 * 1_000_003 + 7))
        rows = subset_select.build_problem(inst, "3mkp").rows
        assert prod(rhs + 1 for _, rhs in rows) > subset_select._WEIGHT_DP_LIMIT
        path, out = tmp_path / "inst_7_7.json", tmp_path / "r.json"
        write_instance(path, inst)
        argv = ["solve", str(path), "--algo", "3mkp", "--swap-opt", "--node-budget", "50000"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["reward"] == 7700 and doc["max_exceeded"] <= 100 // 3

    @pytest.mark.parametrize(
        "command, algo, broken",
        [("solve", "2mkp", "2mkp"), ("feasible", "2mkp", "2mkp"), ("sweep", "2mkp", "2mkp"),
         ("solve", "best", "3mkp")],
        ids=["solve", "feasible", "sweep", "best-loser"],
    )
    def test_overload_over_the_proven_bound_exits_4(self, command, algo, broken, sample,
                                                    tmp_path, monkeypatch, capsys):
        # every run of best ties, and lp, first in order, wins: 3mkp loses
        assert pipeline.run_best(sample[0]).algorithm != broken
        # a bound of -2 * c_max for ``broken``: every placement breaks it
        bound = pipeline.beta_bound_for
        monkeypatch.setattr(pipeline, "beta_bound_for", lambda inst, variant, d_set: (
            Fraction(-2) if variant == broken else bound(inst, variant, d_set)))
        argv = [command, str(sample[1]), "--algo", algo, "--out", str(tmp_path / "r")]
        assert main(argv) == EXIT_INTERNAL
        assert "exceeds its proven bound" in capsys.readouterr().err

    def test_overload_unchecked_above_the_total_capacity(self, sample, tmp_path, monkeypatch):
        # the bound holds for aggregate budgets up to the total capacity only
        monkeypatch.setattr(pipeline, "beta_bound_for", lambda *args: Fraction(-2))
        argv = ["solve", str(sample[1]), "--algo", "2mkp", "--out", str(tmp_path / "r.json")]
        assert main([*argv, "--total-capacity", "21"]) == EXIT_OK
        assert main([*argv, "--total-capacity", "20"]) == EXIT_INTERNAL
        sweep = ["sweep", str(sample[1]), "--factors", "21/20", "--out", str(tmp_path / "s.csv")]
        assert main(sweep) == EXIT_OK

    def test_selection_breaking_its_row_exits_4(self, tmp_path, monkeypatch, capsys):
        # all three groups weigh 24 > 20, the kp row's rhs; placed, they
        # overload one knapsack by 6, within kp's proven bound of 10
        path = tmp_path / "i.json"
        write_instance(path, make([10, 10], [8, 8, 8], [(0,), (1,), (2,)], [8, 8, 8]))
        monkeypatch.setattr(subset_select, "solve_exact",
                            lambda problem, node_budget=None: Selection((True,) * problem.k))
        assert main(["solve", str(path), "--algo", "kp", "--out", str(tmp_path / "r")]) \
            == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "kp selection breaks a row of its problem" in err and "Traceback" not in err

    def test_best_algo(self, sample, tmp_path):
        _, path = sample
        out = tmp_path / "r.json"
        assert main(["solve", str(path), "--algo", "best", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["algorithm"] in ("lp", "kp", "2mkp", "3mkp")


class TestFeasible:
    def test_feasible_result(self, sample, tmp_path):
        _, path = sample
        out = tmp_path / "f.json"
        code = main(["feasible", str(path), "--algo", "2mkp", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["max_exceeded"] <= 0
        assert doc["probes"] >= 1 and doc["aborted_early"] is False

    def test_budget_failure_exits_3(self, noisy, tmp_path, capsys):
        out = tmp_path / "f.json"
        argv = ["feasible", str(noisy), "--algo", "kp", "--node-budget", "0", "--out", str(out)]
        assert main(argv) == EXIT_BUDGET
        assert not out.exists()


class TestSweep:
    def test_eleven_rows_with_schema(self, sample, tmp_path):
        _, path = sample
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(path), "--algo", "2mkp", "--out", str(out)])
        assert code == EXIT_OK
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert all(r["schema"] == "gmkp-sweep/1" for r in rows)
        assert all(r["dominated"] in ("0", "1") for r in rows)

    def test_custom_factors(self, sample, tmp_path):
        _, path = sample
        out = tmp_path / "sweep.csv"
        main(["sweep", str(path), "--factors", "1/2,1", "--out", str(out)])
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["factor"] for r in rows] == ["1/2", "1"]

    def test_budget_failure_writes_rows_then_exits_3(self, noisy, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", str(noisy), "--node-budget", "0", "--out", str(out)]
        assert main(argv) == EXIT_BUDGET
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert all(r["dominated"].startswith("error:budget:node budget") for r in rows)
        assert "11 of 11 sweep rows failed" in capsys.readouterr().err

    def test_internal_error_exits_4(self, sample, tmp_path, monkeypatch, capsys):
        def planted(instance, assignment):
            raise InconsistentSolutionError("planted")

        monkeypatch.setattr(assign, "swap_optimal", planted)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(sample[1]), "--out", str(out)]) == EXIT_INTERNAL


class TestExact:
    def test_exact_optimum(self, sample, tmp_path):
        inst, path = sample
        out = tmp_path / "e.json"
        code = main(["exact", str(path), "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["optimal_reward"] == 18  # all groups fit: 10+5+3
        assert doc["max_exceeded"] <= 0

    def test_budget_exit_code(self, tmp_path, capsys):
        # many identical heavy items force a deep packing search
        inst = make(
            [17, 19, 23],
            [11, 11, 11, 9, 9, 7],
            [tuple(range(6))],
            [58],
        )
        path = tmp_path / "hard.json"
        write_instance(path, inst)
        assert main(["exact", str(path), "--node-budget", "2"]) == EXIT_BUDGET

    def test_budget_bounds_the_subset_search(self, tmp_path):
        # seed-7 instance 14 (k = 80): without one budget for the whole
        # search, tens of thousands of packings each fit in 1000 nodes
        idx = 14
        point = gen.latin_hypercube(20, 7)[idx]
        inst = gen.generate_instance(gen.materialize(point, seed=7 * 1_000_003 + idx))
        path = tmp_path / "inst.json"
        write_instance(path, inst)
        proc = run_cli("exact", path, "--node-budget", "1000", timeout=60)
        assert proc.returncode == EXIT_BUDGET, proc.stderr

    def test_deep_search_stops_on_its_budget(self, tmp_path):
        # seed-7 instance 4 (k = 1516): 1000 subset nodes reach deeper than
        # the interpreter's recursion limit
        idx = 4
        point = gen.latin_hypercube(20, 7)[idx]
        inst = gen.generate_instance(gen.materialize(point, seed=7 * 1_000_003 + idx))
        path = tmp_path / "inst.json"
        write_instance(path, inst)
        proc = run_cli("exact", path, "--node-budget", "1000", timeout=60)
        assert proc.returncode == EXIT_BUDGET, proc.stderr
        assert "Traceback" not in proc.stderr


class TestBench:
    def test_serial_and_concurrent_identical(self, tmp_path):
        gen_dir = tmp_path / "gen"
        main(["generate", "--count", "2", "--seed", "11", "--out-dir", str(gen_dir)])
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code = main(["bench", "--instances", str(gen_dir), "--algos", "lp,kp", "--out", str(out1)])
        assert code == EXIT_OK
        main(["bench", "--instances", str(gen_dir), "--algos", "lp,kp", "--out", str(out2)])

        def stable(path):
            with path.open() as fh:
                rows = list(csv.DictReader(fh))
            return [
                (r["schema"], r["instance"], r["algo"], r["reward"], r["max_exceeded"])
                for r in rows
            ]

        assert stable(out1) == stable(out2)
        with (tmp_path / "a_summary.csv").open() as fh:
            summary = list(csv.DictReader(fh))
        assert [r["algo"] for r in summary] == ["lp", "kp"]
        assert all(r["schema"] == "gmkp-bench-summary/1" for r in summary)

    def test_failed_rows_set_the_exit_code(self, noisy, tmp_path, capsys):
        out = tmp_path / "b.csv"
        argv = ["bench", "--instances", str(noisy.parent), "--node-budget", "0", "--out", str(out)]
        assert main(argv + ["--algos", "kp"]) == EXIT_BUDGET
        with out.open() as fh:
            assert next(csv.DictReader(fh))["time_ms"].startswith("error:budget:")
        (noisy.parent / "inst_zbad.json").write_text("{not json")
        assert main(argv + ["--algos", "lp"]) == EXIT_INPUT
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["time_ms"] != "" and not rows[0]["time_ms"].startswith("error:")
        assert rows[1]["time_ms"].startswith("error:input:")

    def test_mkpd_rejected_before_any_row(self, noisy, tmp_path, capsys):
        # bench takes no --d-set, which mkpd needs
        out = tmp_path / "b.csv"
        argv = ["bench", "--instances", str(noisy.parent), "--algos", "lp,mkpd", "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        assert not out.exists()

    def test_empty_dir_is_input_error(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert (
            main(["bench", "--instances", str(empty), "--out", str(tmp_path / "o.csv")])
            == EXIT_INPUT
        )


def argv_names(root):
    """Write the files the argv cases name under ``root``; map each placeholder to its path."""
    inst, noisy = root / "inst.json", root / "inst_noisy.json"
    write_instance(inst, SAMPLE)
    write_doc(noisy, NOISY_GROUPS)
    no_groups, text_weight = root / "no_groups.json", root / "text_weight.json"
    no_groups.write_text(json.dumps({"schema": "gmkp/1", "capacities": [10, 10]}))
    write_doc(text_weight, [{"reward": 5, "items": ["a"]}])
    # nested deeper than the JSON decoder's recursion limit
    nested = "[" * 200_000 + "]" * 200_000
    deep, deep_meta = root / "deep.json", root / "deep_meta.json"
    deep.write_text(nested)
    deep_meta.write_text('{"schema": "gmkp/1", "capacities": [10, 10], '
                         f'"groups": [{{"reward": 3, "items": [3]}}], "meta": {{"id": {nested}}}}}')
    return {"inst": inst, "noisy": noisy, "out": root / "o.csv", "no_groups": no_groups,
            "text_weight": text_weight, "gen": root / "gen", "dir": root,
            "missing": root / "missing", "deep": deep, "deep_meta": deep_meta}


INPUT_ERROR_ARGVS = [
    ["sweep", "{inst}", "--factors", "1,abc", "--out", "{out}"],
    ["sweep", "{inst}", "--factors", "0,1", "--out", "{out}"],
    ["sweep", "{inst}", "--factors", "", "--out", "{out}"],
    ["solve", "{no_groups}"],
    ["solve", "{text_weight}"],
    ["feasible", "{inst}", "--algo", "mkpd"],
    ["sweep", "{inst}", "--algo", "mkpd", "--out", "{out}"],
    ["sweep", "{inst}", "--algo", "best", "--out", "{out}"],
    ["solve", "{inst}", "--algo", "kp", "--d-set", "5"],
    ["solve", "{inst}", "--algo", "mkpd", "--d-set", "0,5"],
    ["solve", "{inst}", "--algo", "best", "--total-capacity", "5"],
    ["solve", "{inst}", "--algo", "lp", "--total-capacity", "-5"],
    ["solve", "{inst}", "--algo", "kp", "--total-capacity", "-5"],
    ["generate", "--count", "0", "--out-dir", "{gen}"],
    ["generate", "--count", "-1", "--out-dir", "{gen}"],
    ["generate", "--capacity", "0", "--out-dir", "{gen}"],
    ["solve", "{inst}", "--out", "{missing}/x.json"],
    ["sweep", "{inst}", "--out", "{missing}/x.csv"],
    ["bench", "--instances", "{dir}", "--algos", "lp", "--out", "{missing}/b.csv"],
    ["generate", "--count", "1", "--out-dir", "{inst}"],
    ["solve", "{inst}", "--algo", "kp", "--node-budget", "-5"],
    ["feasible", "{inst}", "--node-budget", "-1"],
    ["sweep", "{inst}", "--node-budget", "-1", "--out", "{out}"],
    ["exact", "{inst}", "--node-budget", "-1"],
    ["bench", "--instances", "{dir}", "--algos", "lp", "--node-budget", "-1",
     "--out", "{out}"],
    ["bench", "--instances", "{dir}", "--algos", "mkpd", "--out", "{out}"],
    ["solve", "{deep}"],
    ["solve", "{deep_meta}"],
]


@pytest.mark.parametrize(
    "argv",
    INPUT_ERROR_ARGVS,
    ids=["factor-text", "factor-zero", "sweep-empty-factors", "no-groups", "text-weight",
         "feasible-mkpd", "sweep-mkpd", "sweep-best", "kp-d-set", "zero-threshold",
         "best-total-capacity",
         "lp-negative-capacity", "kp-negative-capacity",
         "count-zero", "count-negative", "capacity-zero",
         "solve-out-missing-dir", "sweep-out-missing-dir", "bench-out-missing-dir",
         "out-dir-is-a-file", "solve-negative-budget", "feasible-negative-budget",
         "sweep-negative-budget", "exact-negative-budget", "bench-negative-budget", "bench-mkpd",
         "deep-nesting", "deep-meta"],
)
def test_input_error_exits_2_without_traceback(argv, tmp_path):
    names = argv_names(tmp_path)
    proc = run_cli(*(a.format(**names) for a in argv))
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "gen").exists()


NUMBERS = st.integers(-3, 200).map(str)
JUNK = NUMBERS | st.sampled_from(["", "abc", "-", "1/0", "{missing}/x", "{no_groups}", "{deep}"])
SWITCH = None  # a flag that takes no value
ALGO_FLAGS = {"--algo": list(ALGO_CHOICES), "--d-set": ["canonical", "10/2,10/3", "0,1"],
              "--node-budget": [], "--out": ["r.json", "{out}"]}
FLAGS = {  # each subcommand's flags with their typical values; [] stands for numbers
    "generate": {"--count": [], "--seed": [], "--capacity": [], "--reward-scheme": ["R0", "R3"],
                 "--out-dir": ["gen", "{inst}"]},
    "solve": {**ALGO_FLAGS, "--total-capacity": [], "--swap-opt": SWITCH},
    "feasible": {**ALGO_FLAGS, "--no-swap-opt": SWITCH},
    "sweep": {**ALGO_FLAGS, "--factors": ["1", "1/2,1", "3/4,5/4"], "--no-swap-opt": SWITCH},
    "exact": {"--node-budget": [], "--out": ["r.json"]},
    "bench": {"--instances": ["{dir}", "."], "--algos": ["lp", "lp,kp", "best", "3mkp,mkpprime"],
              "--swap-opt": SWITCH, "--node-budget": [], "--out": ["b.csv"],
              "--summary": ["s.csv"]},
}
FOREIGN = ["--help", "--bogus", "-z", "--count", "--factors", "--instances"]


@st.composite
def argvs(draw):
    """A case of ``INPUT_ERROR_ARGVS`` or a subcommand and its input, plus up to four options.

    An option is mostly one of the subcommand's flags; its value is typical, junk or missing.
    """
    if draw(st.booleans()):
        argv = list(draw(st.sampled_from(INPUT_ERROR_ARGVS)))
    else:
        argv = [draw(st.sampled_from([*FLAGS, "nope"]))]
        if argv[0] == "bench":
            argv += ["--instances", "{dir}"]
        elif argv[0] != "generate":
            argv.append(draw(st.sampled_from(["{inst}", "{noisy}"])))
        if argv[0] in ("sweep", "bench"):  # their one required option
            argv += ["--out", "o.csv"]
    flags = FLAGS.get(argv[0], {})
    for _ in range(draw(st.integers(0, 4))):
        if flags and draw(st.integers(0, 5)) < 5:
            flag = draw(st.sampled_from(sorted(flags)))
            typical = flags[flag]
        else:
            flag, typical = draw(st.sampled_from(FOREIGN)), []
        option = [flag]
        if typical is not SWITCH and draw(st.integers(0, 9)) < 9:  # no value once in ten
            usual = st.sampled_from(typical) if typical else NUMBERS
            option.append(draw(usual if draw(st.integers(0, 3)) < 3 else JUNK))
        argv += option
    if len(argv) > 1 and draw(st.integers(0, 5)) == 5:
        del argv[draw(st.integers(1, len(argv) - 1))]
    # at most 3 instances per generate: their count and the default 10 are slow
    argv = ["3" if prev == "--count" and a.isdigit() and int(a) > 3 else a
            for prev, a in zip([None, *argv], argv)]
    if "generate" in argv and "--count" not in argv:
        argv += ["--count", "1"]
    return argv


@given(argv=argvs())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_argv_keeps_the_exit_code_contract(argv, tmp_path, monkeypatch, capsys):
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        # a relative output path, or generate's default directory, lands in ``work``
        monkeypatch.chdir(work)
        names = argv_names(Path(work))
        try:
            code = main([a.format(**names) for a in argv])
        except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
            assert exc.code in (0, 2), argv
        else:
            # 4 flags a broken internal invariant, which no argv may reach
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_BUDGET), argv
        monkeypatch.chdir(tmp_path)
    capsys.readouterr()


ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=10,
)


@st.composite
def instance_shaped(draw):
    """A valid instance document, half the time with one value replaced by any JSON."""
    caps = draw(st.lists(st.integers(1, 30), min_size=2, max_size=4))
    items = st.lists(st.integers(1, min(caps)), min_size=1, max_size=3)
    groups = [{"reward": draw(st.integers(1, 40)), "items": draw(items)}
              for _ in range(draw(st.integers(0, 4)))]
    doc = {"schema": "gmkp/1", "capacities": caps, "groups": groups, "meta": {"id": "fuzz"}}
    slots = ([(doc, key) for key in doc] + [(caps, i) for i in range(len(caps))]
             + [(g, key) for g in groups for key in g]
             + [(g["items"], i) for g in groups for i in range(len(g["items"]))])
    if draw(st.booleans()):
        parent, key = draw(st.sampled_from(slots))
        parent[key] = draw(st.integers(-2, 30) | ANY_JSON)
    return doc


@given(doc=ANY_JSON | instance_shaped(), command=st.sampled_from(["solve", "feasible", "sweep",
                                                                 "exact"]))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_document_keeps_the_exit_code_contract(doc, command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path), "--out", str(tmp_path / "out"), "--node-budget", "2000"]
    # 4 flags a broken internal invariant, which no document may reach
    assert main(argv) in (EXIT_OK, EXIT_INPUT, EXIT_BUDGET)
    capsys.readouterr()
