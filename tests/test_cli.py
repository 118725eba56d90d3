"""Command-line interface: subcommands, formats, exit codes."""

import csv
import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gmkp
from gmkp import assign, gen
from gmkp.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    canonical_item_order,
    dump_json,
    instance_from_json,
    instance_to_json,
    json_text,
    main,
)
from gmkp.model import InconsistentSolutionError, Instance


def make(caps, weights, groups, rewards):
    return Instance(tuple(caps), tuple(weights), tuple(groups), tuple(rewards))


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


@pytest.fixture
def noisy(tmp_path):
    """Rewards that differ from group weights send selection to branch-and-bound."""
    path = tmp_path / "inst_noisy.json"
    write_doc(path, [{"reward": 9, "items": [6, 3]}, {"reward": 9, "items": [5, 4]},
                     {"reward": 40, "items": [7]}])
    return path


@pytest.fixture
def sample(tmp_path):
    inst = make([10, 10], [6, 4, 5, 3], [(0, 1), (2,), (3,)], [10, 5, 3])
    path = tmp_path / "inst.json"
    write_instance(path, inst)
    return inst, path


class TestSerialization:
    def test_round_trip_canonical_instance(self):
        inst = make([10, 10], [6, 4, 5], [(0, 1), (2,)], [10, 5])
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_canonical_item_order(self):
        scrambled = make([10, 10], [5, 6, 4], [(1, 2), (0,)], [10, 5])
        canon = canonical_item_order(scrambled)
        assert canon.item_weights == (6, 4, 5)
        assert canon.groups == ((0, 1), (2,))
        assert instance_from_json(instance_to_json(canon)) == canon
        # semantics preserved
        assert canon.group_weights() == scrambled.group_weights()
        assert canon.rewards == scrambled.rewards

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
            assert 0 <= pos < len(inst.groups[l]) and 0 <= i < inst.m

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

    def test_hundred_mkp_alias(self, sample, tmp_path):
        _, path = sample
        out = tmp_path / "r.json"
        assert main(["solve", str(path), "--algo", "100mkp", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["algorithm"] == "mkpd"

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
        write_instance(path, canonical_item_order(inst))
        proc = run_cli("exact", path, "--node-budget", "1000", timeout=60)
        assert proc.returncode == EXIT_BUDGET, proc.stderr

    def test_deep_search_stops_on_its_budget(self, tmp_path):
        # seed-7 instance 4 (k = 1516): 1000 subset nodes reach deeper than
        # the interpreter's recursion limit
        idx = 4
        point = gen.latin_hypercube(20, 7)[idx]
        inst = gen.generate_instance(gen.materialize(point, seed=7 * 1_000_003 + idx))
        path = tmp_path / "inst.json"
        write_instance(path, canonical_item_order(inst))
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
        assert main(argv + ["--algos", "lp,mkpd"]) == EXIT_INPUT
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["time_ms"] != "" and not rows[0]["time_ms"].startswith("error:")
        assert rows[1]["time_ms"].startswith("error:input:")

    def test_empty_dir_is_input_error(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert (
            main(["bench", "--instances", str(empty), "--out", str(tmp_path / "o.csv")])
            == EXIT_INPUT
        )


@pytest.mark.parametrize(
    "argv",
    [
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
        ["exact", "{inst}", "--node-budget", "-1"],
        ["bench", "--instances", "{dir}", "--algos", "lp", "--node-budget", "-1",
         "--out", "{out}"],
    ],
    ids=["factor-text", "factor-zero", "sweep-empty-factors", "no-groups", "text-weight",
         "feasible-mkpd", "sweep-mkpd", "sweep-best", "kp-d-set", "zero-threshold",
         "best-total-capacity",
         "lp-negative-capacity", "kp-negative-capacity",
         "count-zero", "count-negative", "capacity-zero",
         "solve-out-missing-dir", "sweep-out-missing-dir", "bench-out-missing-dir",
         "out-dir-is-a-file", "solve-negative-budget", "feasible-negative-budget",
         "exact-negative-budget", "bench-negative-budget"],
)
def test_input_error_exits_2_without_traceback(argv, sample, noisy, tmp_path):
    no_groups, text_weight = tmp_path / "no_groups.json", tmp_path / "text_weight.json"
    no_groups.write_text(json.dumps({"schema": "gmkp/1", "capacities": [10, 10]}))
    write_doc(text_weight, [{"reward": 5, "items": ["a"]}])
    names = {"inst": sample[1], "out": tmp_path / "o.csv", "no_groups": no_groups,
             "text_weight": text_weight, "gen": tmp_path / "gen", "dir": noisy.parent,
             "missing": tmp_path / "missing"}
    proc = run_cli(*(a.format(**names) for a in argv))
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "gen").exists()
