"""CLI and match-harness tests (everything through main([...]))."""

from __future__ import annotations

import dataclasses
import json

import pytest

from gamelab.cli import main
from gamelab.engine import MODIFIED, GameConfig, MoveLog
from gamelab.match import (
    ExperimentSpec,
    load_graph,
    make_breaker,
    make_maker,
    mixed_corpus,
    play_game,
    run_match,
)
from gamelab.graph import cycle


class TestCorpusAndRegistry:
    def test_corpus_is_big_and_varied(self):
        corpus = mixed_corpus()
        assert len(corpus) >= 20
        names = [name for name, _ in corpus]
        assert len(set(names)) == len(names)
        degrees = {g.max_degree for _, g in corpus}
        assert len(degrees) >= 4
        assert all(g.m >= 1 for _, g in corpus)

    def test_every_policy_id_constructs(self):
        for policy in ("paper", "random", "greedy"):
            assert make_maker(policy, seed=0) is not None
        for policy in ("box", "random", "greedy", "skip"):
            assert make_breaker(policy, seed=0) is not None
        with pytest.raises(ValueError):
            make_maker("minimax", seed=0)
        with pytest.raises(ValueError):
            make_breaker("oracle", seed=0)

    def test_load_graph_accepts_spec_and_file(self, tmp_path):
        spec_g = load_graph("cycle:6")
        assert (spec_g.n, spec_g.m) == (6, 6)
        f = tmp_path / "g.txt"
        assert main(["gen", "cycle:6", "--out", str(f)]) == 0
        file_g = load_graph(str(f))
        assert set(file_g.edges) == set(spec_g.edges)


class TestRunMatch:
    def test_pigeonhole_palette_never_loses(self):
        spec = ExperimentSpec(
            graph="cycle:5", maker="random", breaker="random",
            k=3, trials=30, seed=4,
        )
        rep = run_match(spec)
        assert rep.maker_wins == 30
        assert rep.breaker_wins == 0
        assert rep.wilson_low > 0.8
        assert rep.total_moves == 30 * 5

    def test_box_breaker_sweeps_long_cycle(self):
        spec = ExperimentSpec(
            graph="cycle:25", maker="random", breaker="box",
            k=2, b=2, trials=40, seed=9,
        )
        rep = run_match(spec)
        assert rep.breaker_wins == 40
        assert rep.maker_wins == 0

    def test_same_seed_same_report_bytes(self):
        spec = ExperimentSpec(
            graph="gnp:8:0.4:7", maker="paper", breaker="greedy",
            k=9, mode="modified", trials=12, seed=21,
        )
        assert run_match(spec).to_json() == run_match(spec).to_json()

    def test_different_seeds_differ(self):
        reports = set()
        for seed in range(6):
            spec = ExperimentSpec(
                graph="cycle:7", maker="random", breaker="random",
                k=2, trials=8, seed=seed,
            )
            rep = run_match(spec)
            reports.add((rep.maker_wins, rep.total_moves, rep.total_rounds))
        assert len(reports) > 1

    def test_logs_written_and_replayable(self, tmp_path):
        logs = tmp_path / "logs"
        spec = ExperimentSpec(
            graph="cycle:25", maker="random", breaker="box",
            k=2, b=2, trials=3, seed=1, logs_dir=str(logs),
        )
        run_match(spec)
        files = sorted(logs.glob("trial_*.jsonl"))
        assert len(files) == 3
        from gamelab.engine import MoveLog

        g = cycle(25)
        log = MoveLog.from_jsonl(files[0].read_text(), g)
        assert len(log) >= 1

    def test_forced_nonproper_counted_in_modified_mode(self):
        spec = ExperimentSpec(
            graph="complete:4", maker="random", breaker="random",
            k=2, mode="modified", trials=40, seed=2,
        )
        rep = run_match(spec)
        # Two colors cannot properly cover K4 (chi' = 3), so every game is
        # a Breaker win and the modified process must force non-proper
        # moves to finish the board.
        assert rep.maker_wins == 0
        assert rep.forced_nonproper > 0
        assert rep.total_moves == 40 * 6  # every edge gets colored


class TestSubcommands:
    def test_solve_reports_winner(self, tmp_path, capsys):
        assert main(["solve", "--graph", "star:4", "--k", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["winner"] == "maker"
        assert doc["nodes"] > 0

    def test_solve_budget_exceeded_fails(self, capsys):
        rc = main(["solve", "--graph", "cycle:7", "--k", "3", "--budget", "10"])
        assert rc == 1
        assert "budget" in capsys.readouterr().err

    def test_chi_value_and_exit_code(self, capsys):
        assert main(["chi", "--graph", "cycle:5", "--variant", "classic"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 3
        assert doc["winners"]["2"] == "breaker_won"
        assert not doc["partial"]

    def test_chi_partial_exits_nonzero(self, capsys):
        rc = main(["chi", "--graph", "complete:4", "--budget", "5"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["partial"] and doc["value"] is None

    def test_boxgame_budget_exceeded_fails(self, capsys):
        rc = main(["boxgame", "--sizes", "3,3,3", "--b", "2", "--solve", "--budget", "1"])
        assert rc == 1
        assert capsys.readouterr().err == "budget exceeded after 2 nodes\n"

    def test_boxgame_criterion_vs_minimax(self, capsys):
        rc = main(["boxgame", "--sizes", "3,3,3,3", "--b", "2", "--solve"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agree"] is True

    def test_goodset_certificate(self, capsys):
        rc = main(["goodset", "--graph", "cycle:10", "--b", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 2
        assert doc["satisfied"] is True
        assert all(d >= 4 for _, _, d in doc["pair_distances"])

    def test_goodset_without_bias_reports_no_condition(self, capsys):
        rc = main(["goodset", "--graph", "cycle:10", "--b", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["satisfied"] is None

    def test_play_then_telemetry_round_trip(self, tmp_path):
        g_file = tmp_path / "g.txt"
        assert main(["gen", "random_regular:12:4:7", "--out", str(g_file)]) == 0
        rc = main([
            "play", "--graph", str(g_file), "--maker", "paper",
            "--breaker", "random", "--k", "7", "--mode", "modified",
            "--trials", "2", "--seed", "3",
            "--logs", str(tmp_path / "logs"), "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 0
        rc = main([
            "telemetry", "--log", str(tmp_path / "logs" / "trial_0001.jsonl"),
            "--graph", str(g_file), "--k", "7", "--mode", "modified",
            "--out-csv", str(tmp_path / "t.csv"),
            "--out-json", str(tmp_path / "t.json"),
        ])
        assert rc == 0
        csv_lines = (tmp_path / "t.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 12 + 1
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["game"]["maker_moves"] + doc["game"]["breaker_moves"] <= 24

    def test_policy_graph_mismatch_is_a_clean_error(self, capsys):
        rc = main([
            "play", "--graph", "star:4", "--maker", "random",
            "--breaker", "box", "--k", "4",
        ])
        assert rc == 2
        assert "good set" in capsys.readouterr().err

    def test_unparseable_maker_fraction_is_a_clean_error(self, capsys):
        rc = main([
            "play", "--graph", "cycle:5", "--k", "3",
            "--maker", "paper", "--mode", "modified", "--lambda", "huh",
        ])
        assert rc == 2


class TestReproducibility:
    def test_report_files_byte_identical(self, tmp_path):
        args = [
            "play", "--graph", "cycle:25", "--maker", "greedy",
            "--breaker", "box", "--k", "2", "--b", "2",
            "--trials", "25", "--seed", "11",
        ]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAMELAB_SEED", "12345")
        rc = main([
            "play", "--graph", "cycle:5", "--k", "3", "--seed", "7",
            "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["spec"]["seed"] == 12345


class TestBadInput:
    """Untrusted input fails with one ``error:`` line and exit status 2."""

    GOOD = '{"r":1,"p":"B","e":null,"c":null,"skip":true}\n'

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",  # not an object
            '{"p":"M","e":[0,1],"c":1}',  # no round
            '{"r":"2","p":"M","e":[0,1],"c":1}',  # round not an integer
            '{"r":2,"p":"X","e":[0,1],"c":1}',  # neither Maker nor Breaker
            '{"r":2,"e":[0,1],"c":1}',  # no player
            '{"r":2,"p":"M","e":[0,1,2],"c":1}',  # three endpoints
            '{"r":2,"p":"M","e":5,"c":1}',  # edge not a pair
            '{"r":2,"p":"M","e":[0,1],"c":"red"}',  # color not an integer
            '{"r":2,"p":"M","e":[0,1],"c":1,"ann":"note"}',  # ann not an object
            '{"r":2,"p":"M","e":null,"c":null}',  # coloring without an edge
            '{"r":2,"p":"M","e":[0,2],"c":1}',  # no such edge in C_5
            pytest.param("[" * 100_000, id="nested-too-deep"),
        ],
    )
    def test_malformed_log_line(self, tmp_path, capsys, line):
        log = tmp_path / "bad.jsonl"
        log.write_text(self.GOOD + line + "\n")
        rc = main(["telemetry", "--log", str(log), "--graph", "cycle:5", "--k", "3"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: log line 2: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_maker_record_with_bad_vertex_annotation(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text(self.GOOD + '{"r":2,"p":"M","e":[0,1],"c":1,"ann":{"v":"x"}}\n')
        rc = main(["telemetry", "--log", str(log), "--graph", "cycle:5", "--k", "3"])
        assert rc == 2
        assert capsys.readouterr().err == "error: log missing annotations\n"

    @pytest.mark.parametrize("which", ["missing log", "log is a directory", "graph is a directory"])
    def test_unreadable_file(self, tmp_path, capsys, which):
        log = tmp_path / "ok.jsonl"
        log.write_text(self.GOOD)
        graph = "cycle:5"
        if which == "missing log":
            log = tmp_path / "absent.jsonl"
        elif which == "log is a directory":
            log = tmp_path
        else:
            graph = str(tmp_path)
        rc = main(["telemetry", "--log", str(log), "--graph", graph, "--k", "3"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_log_with_shifted_rounds(self, tmp_path, capsys):
        g = cycle(8)
        cfg = GameConfig.skip_variant(k=3, mode=MODIFIED)
        s = play_game(g, cfg, make_maker("paper", 0), make_breaker("greedy", 0))
        shifted = MoveLog([dataclasses.replace(rec, round=rec.round + 7) for rec in s.log])
        log = tmp_path / "shifted.jsonl"
        log.write_text(shifted.to_jsonl(g))
        rc = main(["telemetry", "--log", str(log), "--graph", "cycle:8", "--k", "3"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: log record 0: expected round 1, record says 8\n"
        )

    @pytest.mark.parametrize("only", ["12", "0", "1,12"])
    def test_unknown_acceptance_criterion(self, capsys, only):
        rc = main(["accept", "--only", only])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: unknown criterion ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["boxgame", "--sizes", ","], ["accept", "--only", ","]])
    def test_empty_number_list(self, capsys, argv):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: need at least one ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["cycle:100001", "gnp:1415:0.0:1", "tree:30:100000000"])
    def test_generator_over_size_cap(self, capsys, spec):
        rc = main(["gen", spec])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and " exceed" in err and err.count("\n") == 1

    def test_negative_tree_index(self, capsys):
        # rejected before the trees of order 16 are walked
        assert main(["gen", "tree:16:-1"]) == 2
        assert capsys.readouterr().err == "error: tree index -1 is negative\n"

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["solve", "--graph", "cycle:5", "--k", "3"], "solve"),
            (["chi", "--graph", "cycle:5"], "solve"),
            (["boxgame", "--sizes", "2,2", "--solve"], "box-game solver"),
            # these two run no search: the graph has no edges, and no --solve
            (["chi", "--graph", "gnp:3:0.0:1"], "solve"),
            (["boxgame", "--sizes", "2,2"], "box-game solver"),
        ],
    )
    def test_negative_budget(self, capsys, argv, what):
        rc = main(argv + ["--budget", "-5"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {what} budget must be non-negative, got -5\n"
