"""Verifier reports, bench records, and the command-line surface."""

import csv
import io
import json

import pytest

import findlarger.cli as cli_mod
import findlarger.verify as verify_mod
from findlarger import LevelAncestorIndex, OneLevelFL, Tree, parse_parent_array, validate_sequence
from findlarger.bench import CSV_HEADER, BenchRecord, ScanFL, make_queries, run_bench
from findlarger.cli import main
from findlarger.gen import random_parent_array, random_walk_values
from findlarger.oracle import naive_fl
from findlarger.verify import check_sequence, check_tree

from test_core import readers, reference_build

WALK = random_walk_values(300, seed=11)


def refuse_to_run(*args, **kwargs):
    raise AssertionError("called before the request was checked")


class TestCheckSequence:
    def test_clean_pass_exhaustive(self):
        report = check_sequence(WALK, kappa=4)
        assert report["pass"] is True
        assert report["mismatch_count"] == 0
        assert report["total_queries"] == 302 * (max(WALK) - min(WALK) + 3)

    def test_clean_pass_random_mode(self):
        report = check_sequence(WALK, kappa=5, mode="random", queries=4000, seed=2)
        assert report["pass"] is True and report["total_queries"] == 4000

    def test_corrupted_structure_is_caught_with_replayable_queries(self):
        s = OneLevelFL([1, 0, 1, 2, 1, 2], 5)
        # the true entry is 3; position 5 holds the same value, so only
        # the oracle, not the query's own check, tells them apart
        assert s.ladder_data[1] == 3
        s.ladder_data[1] = 5
        report = check_sequence([1, 0, 1, 2, 1, 2], structure=s)
        assert report["pass"] is False
        assert 0 < report["mismatch_count"] <= 10
        m = report["mismatches"][0]
        assert set(m) == {"kind", "x", "y", "expected", "got", "kappa"}
        # the report alone reproduces the failure
        assert s.query(m["x"], m["y"]) == m["got"] != m["expected"]
        assert naive_fl([1, 0, 1, 2, 1, 2], m["x"], m["y"]) == m["expected"]

    def test_mismatch_list_capped_at_10(self):
        s = OneLevelFL(list(range(64)), 5)
        for i in range(len(s.ladder_data)):
            s.ladder_data[i] = s.bottom  # every ladder claims no answer
        report = check_sequence(list(range(64)), structure=s)
        assert report["mismatch_count"] > 10
        assert len(report["mismatches"]) == 10

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            check_sequence(WALK, mode="fuzz")

    @pytest.mark.parametrize("queries", [0, -3])
    def test_random_mode_needs_a_query(self, queries):
        # a run that asks nothing must not report a pass
        with pytest.raises(ValueError, match="at least 1 query"):
            check_sequence(WALK, mode="random", queries=queries)

    @pytest.mark.parametrize("mode, queries", [("fuzz", 10), ("random", 0)])
    def test_refuses_before_building(self, monkeypatch, mode, queries):
        monkeypatch.setattr(verify_mod, "OneLevelFL", refuse_to_run)
        with pytest.raises(ValueError):
            check_sequence(WALK, mode=mode, queries=queries)

    def test_seed_replays_the_same_random_queries(self):
        s = OneLevelFL(WALK, 5)
        for i in range(len(s.ladder_data)):
            s.ladder_data[i] = s.bottom
        report = check_sequence(WALK, mode="random", queries=500, seed=3, structure=s)
        # x is drawn before y for each query; these are the draws of Random(3)
        assert report["mismatch_count"] == 122
        assert report["mismatches"][0] == {
            "kind": "fl", "x": 120, "y": -3, "expected": 194, "got": 300, "kappa": 5
        }


class TestCheckTree:
    TREE = parse_parent_array("9\n-1 0 1 1 0 3 4 6 6")

    def test_clean_pass(self):
        report = check_tree(self.TREE)
        assert report["pass"] is True
        assert report["total_queries"] == sum(
            d + 1 for d in LevelAncestorIndex(self.TREE).depth
        )

    def test_corrupted_tour_is_caught(self):
        idx = LevelAncestorIndex(self.TREE)
        # tour stop 2 (node 2) has the ladder [1, 0]; node 4 is at depth 1 too
        assert idx.ladder_data[0] == 1
        idx.ladder_data[0] = 4
        report = check_tree(self.TREE, index=idx)
        assert report["pass"] is False
        m = report["mismatches"][0]
        assert set(m) == {"kind", "v", "d", "expected", "got", "kappa"}

    @staticmethod
    def broken_index():
        tree = Tree.from_parents(random_parent_array(50, seed=3))
        idx = LevelAncestorIndex(tree)
        depth = idx.depth
        first_at = {}
        for v in range(len(depth)):
            first_at.setdefault(depth[v], v)
        ladder_data = idx.ladder_data
        for i in range(len(ladder_data)):
            # every proper ancestor claimed is the lowest-numbered node at its depth
            ladder_data[i] = first_at[depth[ladder_data[i]]]
        return tree, idx

    def test_mismatch_list_capped_at_10(self):
        tree, idx = self.broken_index()
        report = check_tree(tree, index=idx)
        # the pairs whose true ancestor is a proper one and not the
        # lowest-numbered node at its depth, counted from naive_la
        assert report["mismatch_count"] == 81
        assert len(report["mismatches"]) == 10

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            check_tree(self.TREE, mode="fuzz")

    @pytest.mark.parametrize("queries", [0, -3])
    def test_random_mode_needs_a_query(self, queries):
        with pytest.raises(ValueError, match="at least 1 query"):
            check_tree(self.TREE, mode="random", queries=queries)

    @pytest.mark.parametrize("mode, queries", [("fuzz", 10), ("random", 0)])
    def test_refuses_before_building(self, monkeypatch, mode, queries):
        monkeypatch.setattr(verify_mod, "LevelAncestorIndex", refuse_to_run)
        with pytest.raises(ValueError):
            check_tree(self.TREE, mode=mode, queries=queries)

    def test_seed_replays_the_same_random_queries(self):
        tree, idx = self.broken_index()
        report = check_tree(tree, mode="random", queries=500, seed=3, index=idx)
        # v is drawn before d for each query; these are the draws of Random(3)
        assert report["mismatch_count"] == 128
        assert report["mismatches"][0] == {
            "kind": "la", "v": 40, "d": 4, "expected": 12, "got": 6, "kappa": 5
        }


class TestBench:
    def test_csv_header_is_pinned(self):
        assert CSV_HEADER == "structure_name,n,kappa,build_ns,mean_query_ns,p99_batch_mean_ns,entries,bytes,seed"
        assert BenchRecord("onelevel", 8, 5, 1, 2.0, 3.0, 4, 5, 6).csv_row() == (
            "onelevel,8,5,1,2.0,3.0,4,5,6"
        )

    def test_make_queries_nontrivial_and_deterministic(self):
        xs, ys = make_queries(WALK, 500, seed=3)
        assert (xs, ys) == make_queries(WALK, 500, seed=3)
        assert (xs, ys) == make_queries(validate_sequence(WALK), 500, seed=3)
        assert all(type(v) is int for v in xs + ys)
        assert len(xs) == 500
        for x, y in zip(xs, ys):
            assert WALK[x] < y <= max(WALK)

    def test_make_queries_constant_sequence(self):
        xs, ys = make_queries([4, 4, 4], 50, seed=0)
        assert len(xs) == 50  # degenerate input still yields a stream

    def test_scanfl_matches_oracle(self):
        s = ScanFL(WALK)
        for x in range(-1, 302, 7):
            for y in range(min(WALK) - 1, max(WALK) + 2):
                assert s.query(x, y) == naive_fl(WALK, x, y)

    def test_run_bench_records_and_agreement(self):
        records, mismatches = run_bench(
            WALK, ("onelevel", "doubling", "naive"), kappa=5, queries=600, seed=1
        )
        assert mismatches == []
        assert [r.structure_name for r in records] == ["onelevel", "doubling", "naive"]
        for r in records:
            assert r.n == 300 and r.kappa == 5 and r.seed == 1
            assert r.build_ns > 0 and r.mean_query_ns > 0
            assert r.p99_batch_mean_ns >= 0 and r.entries > 0 and r.bytes > 0

    def test_run_bench_rejects_unknown_structure(self):
        with pytest.raises(ValueError):
            run_bench(WALK, ("quantum",), queries=10)

    @pytest.mark.parametrize(
        "structures, queries", [(("onelevel",), 0), (("onelevel",), -3), ((), 10)]
    )
    def test_run_bench_refuses_before_building(self, monkeypatch, structures, queries):
        import findlarger.bench as bench_mod

        def build(seq, kappa):
            raise AssertionError("built before the arguments were checked")

        monkeypatch.setitem(bench_mod.STRUCTURES, "onelevel", build)
        with pytest.raises(ValueError):
            run_bench(WALK, structures, queries=queries)


class TestCli:
    def test_gen_verify_sequence_roundtrip(self, tmp_path, capsys):
        seq_file = tmp_path / "walk.txt"
        assert main(["gen", "--format", "seq", "--n", "200", "--seed", "5", "--out", str(seq_file)]) == 0
        report_file = tmp_path / "report.json"
        code = main(
            ["verify", str(seq_file), "--format", "seq", "--kappa", "3", "--out", str(report_file)]
        )
        assert code == 0
        report = json.loads(report_file.read_text())
        assert report["pass"] is True
        assert report["input"] == str(seq_file)
        assert report["format"] == "seq"
        assert report["kappa"] == 3

    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen", "--n", "64", "--seed", "12", "--out", str(a)])
        main(["gen", "--n", "64", "--seed", "12", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_gen_and_verify_trees_both_formats(self, tmp_path):
        for fmt in ("parent", "parens"):
            f = tmp_path / f"tree.{fmt}"
            assert main(["gen", "--format", fmt, "--n", "80", "--seed", "2", "--out", str(f)]) == 0
            assert main(["verify", str(f), "--format", fmt, "--out", str(tmp_path / "r.json")]) == 0

    def test_verify_random_mode(self, tmp_path, capsys):
        f = tmp_path / "w.txt"
        main(["gen", "--n", "500", "--seed", "1", "--out", str(f)])
        assert main(["verify", str(f), "--mode", "random", "--queries", "2000"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_queries"] == 2000

    def test_verify_exit_1_on_mismatch(self, monkeypatch, tmp_path):
        import findlarger.cli as cli_mod

        f = tmp_path / "w.txt"
        main(["gen", "--n", "30", "--seed", "1", "--out", str(f)])
        fake = {"pass": False, "mismatch_count": 1, "mismatches": [{}]}
        monkeypatch.setattr(cli_mod, "check_sequence", lambda *a, **k: dict(fake))
        assert main(["verify", str(f), "--out", str(tmp_path / "r.json")]) == 1

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--n", "2048", "--queries", "1000",
             "--structures", "onelevel,doubling,naive", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["structure_name"] for r in rows] == ["onelevel", "doubling", "naive"]
        assert out.read_text().splitlines()[0] == CSV_HEADER
        for r in rows:
            assert int(r["n"]) == 2048
            assert int(r["build_ns"]) > 0
            assert float(r["mean_query_ns"]) > 0

    def test_bench_reads_input_file(self, tmp_path):
        f = tmp_path / "w.txt"
        main(["gen", "--n", "512", "--seed", "3", "--out", str(f)])
        out = tmp_path / "bench.csv"
        assert main(["bench", str(f), "--queries", "500", "--structures", "onelevel", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1]
        assert row.startswith("onelevel,512,")

    def test_inspect_dump(self, tmp_path, capsys):
        f = tmp_path / "tiny.txt"
        f.write_text("6\n1 0 1 2 1 2\n")
        assert main(["inspect", str(f), "--kappa", "5"]) == 0
        out = capsys.readouterr().out
        # the jumps land on ladders 0 5 5 5 5 5, each stored as the own
        # offset of the base
        assert "JumpOffset: 1 2 2 2 2 2" in out
        # 0 falls to 1 and 2 rises from it, so all three read 1's ladder;
        # 3 falls to 4, whose ladder reaches the top, and the empty ladder
        # of 5 after it shares its offset
        assert "OwnOffset: 1 1 1 2 2 2" in out
        assert "Valley: 0 1 1 1 4 4 5" in out
        assert "Weight: 1 3 0 0 2 0" in out
        assert "Ladder[0 1 2]: 2 3\n" in out
        assert "Ladder[3 4 5]: 5\n" in out
        assert out.count("Ladder[") == 2
        assert "RunStart" not in out
        assert "kappa_prime: 4" in out
        assert "total_ladder_entries: 3" in out
        assert "interior_ladder_entries: 1" in out

    def test_inspect_groups_ladders_across_blocks(self, tmp_path, capsys):
        # 5000 steps cross a block edge, where the stored own deltas restart
        # from a new base: the dump shows the offsets they stand for, and
        # groups the positions by the ladder they read, the end of their
        # descent or the start of their run
        values = random_walk_values(5000, seed=5)
        f = tmp_path / "walk.txt"
        f.write_text(f"{len(values)}\n" + " ".join(map(str, values)) + "\n")
        assert main(["inspect", str(f), "--kappa", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        own, ladder_data, _ = reference_build(values, 5)
        assert f"OwnOffset: {' '.join(map(str, own))}" in lines
        rows = [line.split(": ") for line in lines if line.startswith("Ladder[")]
        groups = {}
        for x, z in enumerate(readers(values)):
            groups.setdefault(z, []).append(x)
        assert [head for head, _ in rows] == [f"Ladder[{' '.join(map(str, xs))}]" for _, xs in sorted(groups.items())]
        assert " ".join(entries for _, entries in rows).split() == list(map(str, ladder_data))

    def test_inspect_refuses_large_input(self, tmp_path):
        f = tmp_path / "big.txt"
        f.write_text(" ".join("0" for _ in range(10_001)))
        assert main(["inspect", str(f)]) == 2

    def test_exit_2_on_missing_file(self):
        assert main(["verify", "/nonexistent/input.txt"]) == 2

    def test_exit_2_on_bad_data(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 5 9")
        assert main(["verify", str(f)]) == 2  # not 1-difference
        f.write_text("x y")
        assert main(["inspect", str(f)]) == 2

    def test_exit_2_on_unknown_structure(self, tmp_path):
        assert main(["bench", "--n", "64", "--queries", "10", "--structures", "warp"]) == 2

    def test_exit_2_on_no_structure(self, capsys):
        # exit 1 is kept for answers that disagree; nothing benchmarked is a usage error
        assert main(["bench", "--n", "100", "--queries", "10", "--structures", ""]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("queries", ["0", "-3"])
    def test_exit_2_on_too_few_bench_queries(self, capsys, queries):
        assert main(["bench", "--n", "100", "--queries", queries]) == 2
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--queries", "0"], ["--structures", ""], ["--structures", "warp"]])
    def test_bench_refuses_before_generating_or_reading(self, monkeypatch, argv):
        monkeypatch.setattr(cli_mod, "random_walk_values", refuse_to_run)
        monkeypatch.setattr(cli_mod, "_read_text", refuse_to_run)
        assert main(["bench", *argv]) == 2
        assert main(["bench", "-", *argv]) == 2

    @pytest.mark.parametrize("fmt", ["seq", "parent"])
    def test_verify_refuses_before_reading(self, monkeypatch, fmt):
        monkeypatch.setattr(cli_mod, "_read_text", refuse_to_run)
        assert main(["verify", "-", "--format", fmt, "--mode", "random", "--queries", "0"]) == 2

    def test_exit_2_on_random_verify_without_queries(self, tmp_path, capsys):
        f = tmp_path / "w.txt"
        main(["gen", "--n", "50", "--seed", "1", "--out", str(f)])
        assert main(["verify", str(f), "--mode", "random", "--queries", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_exit_2_on_bad_kappa(self, tmp_path):
        f = tmp_path / "w.txt"
        main(["gen", "--n", "20", "--seed", "0", "--out", str(f)])
        assert main(["verify", str(f), "--kappa", "2"]) == 2
