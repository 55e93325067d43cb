"""CLI and match-harness tests (everything through main([...]))."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import gamelab
from gamelab.cli import build_parser, main
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
from gamelab.graph import cycle, write_edge_list


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


    @pytest.mark.parametrize("name", ["spider", "caterpillar", "petersen"])
    def test_gen_prints_the_corpus_graphs(self, capsys, name):
        assert main(["gen", name]) == 0
        assert capsys.readouterr().out == write_edge_list(dict(mixed_corpus())[name]) + "\n"

    def test_petersen_is_the_petersen_graph(self):
        g = load_graph("petersen")
        assert (g.n, g.m) == (10, 15)
        assert nx.is_isomorphic(nx.Graph(g.edges), nx.petersen_graph())


class TestReadme:
    """Every ``gamelab`` command in README.md's shell blocks parses."""

    @staticmethod
    def commands() -> list[str]:
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
        lines = re.sub(r"\s*\\\n\s*", " ", "\n".join(blocks)).splitlines()
        return [line.split(" #")[0].strip() for line in lines if line.startswith("gamelab ")]

    def test_readme_commands_parse(self, capsys):
        commands = self.commands()
        assert len(commands) >= 10
        for command in commands:
            try:
                build_parser().parse_args(shlex.split(command)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}\n{capsys.readouterr().err}")


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
        rc = main(["solve", "--graph", "complete:5", "--k", "6", "--budget", "10"])
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


def test_closed_stdout_is_not_an_error():
    """``gamelab gen petersen | head -3``: the reader has gone before the
    edge list is written, which is not bad input, so no ``error:`` line and
    not status 2, but the status of a process stopped by SIGPIPE.  Output
    is block-buffered, as in a shell pipeline, so it is written at a flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(gamelab.__file__).parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gamelab.cli", "gen", "petersen"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


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
        assert capsys.readouterr().err == "error: log record 1: missing annotations\n"

    def test_maker_record_annotated_off_its_edge(self, tmp_path, capsys):
        g = cycle(8)
        cfg = GameConfig.skip_variant(k=3, mode=MODIFIED)
        s = play_game(g, cfg, make_maker("paper", 0), make_breaker("greedy", 0))
        rec = s.log[2]
        assert (g.edges[rec.edge], rec.ann["v"]) == ((0, 7), 0)
        records = list(s.log)
        records[2] = rec._replace(ann={**rec.ann, "v": 1})
        log = tmp_path / "moved.jsonl"
        log.write_text(MoveLog(records).to_jsonl(g))
        rc = main(["telemetry", "--log", str(log), "--graph", "cycle:8", "--k", "3"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: log record 2: annotated vertex 1 is not on edge (0, 7)\n"
        )

    @pytest.mark.parametrize(
        "ann, err",
        [
            ('{"v":0,"redirected":"false"}', "'redirected' must be a boolean, got 'false'"),
            ('{"v":0,"redirected":1}', "'redirected' must be a boolean, got 1"),
            ('{"v":0,"forced_nonproper":null}', "'forced_nonproper' must be a boolean, got None"),
        ],
        ids=["string", "integer", "null"],
    )
    def test_maker_record_with_non_boolean_flag(self, tmp_path, capsys, ann, err):
        log = tmp_path / "bad.jsonl"
        log.write_text(self.GOOD + '{"r":2,"p":"M","e":[0,1],"c":1,"ann":%s}\n' % ann)
        rc = main(["telemetry", "--log", str(log), "--graph", "cycle:5", "--k", "3"])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: log record 1: {err}\n")

    @pytest.mark.parametrize(
        "skip, shown", [('"false"', "'false'"), ("1", "1")], ids=["string", "integer"]
    )
    def test_breaker_record_with_non_boolean_skip(self, tmp_path, capsys, skip, shown):
        log = tmp_path / "bad.jsonl"
        log.write_text(self.GOOD + '{"r":1,"p":"B","e":[0,1],"c":1,"skip":%s}\n' % skip)
        rc = main(["telemetry", "--log", str(log), "--graph", "cycle:5", "--k", "3"])
        assert rc == 2
        err = f"error: log line 2: 'skip' must be a boolean, got {shown}\n"
        assert capsys.readouterr() == ("", err)

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
        shifted = MoveLog([rec._replace(round=rec.round + 7) for rec in s.log])
        log = tmp_path / "shifted.jsonl"
        log.write_text(shifted.to_jsonl(g))
        rc = main(["telemetry", "--log", str(log), "--graph", "cycle:8", "--k", "3"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: log record 0: expected round 1, record says 8\n"
        )

    def test_end_of_turn_record_with_a_coloring(self, tmp_path, capsys):
        # read as an end of turn, edge 0 would never be colored in the report
        log = tmp_path / "bad.jsonl"
        log.write_text('{"r":1,"p":"B","e":[0,1],"c":1,"skip":true}\n')
        rc = main(["telemetry", "--log", str(log), "--graph", "cycle:5", "--k", "3"])
        assert rc == 2
        err = "error: log line 1: an end-of-turn record must have null 'e' and 'c'\n"
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("cycle:5:7", "cycle takes 1 field, got 2"),
            ("random_regular:64:16:1:9", "random_regular takes 3 fields, got 4"),
            ("gnp:10:0.3", "gnp takes 3 fields, got 2"),
            ("petersen:1", "petersen takes 0 fields, got 1"),
        ],
    )
    def test_generator_spec_with_wrong_field_count(self, capsys, spec, message):
        assert main(["gen", spec]) == 2
        assert capsys.readouterr() == ("", f"error: bad generator spec {spec!r}: {message}\n")

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

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["accept", "--only", "x"], "--only: 'x' is not an integer"),
            (["accept", "--only", "1,x"], "--only: 'x' is not an integer"),
            (["boxgame", "--sizes", "a"], "--sizes: 'a' is not an integer"),
            (["boxgame", "--sizes", "2,2.5"], "--sizes: '2.5' is not an integer"),
        ],
    )
    def test_integer_list_item_names_its_argument(self, capsys, argv, err):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_env_seed_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("GAMELAB_SEED", "abc")
        assert main(["play", "--graph", "cycle:5", "--k", "3"]) == 2
        assert capsys.readouterr() == ("", "error: GAMELAB_SEED: 'abc' is not an integer\n")

    @pytest.mark.parametrize("spec", ["cycle:100001", "gnp:1415:0.0:1", "tree:30:100000000"])
    def test_generator_over_size_cap(self, capsys, spec):
        rc = main(["gen", spec])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and " exceed" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["play", "--maker", "paper", "--lambda", "1/0"], "lambda '1/0'"),
            (["play", "--maker", "paper", "--c", "1/0"], "c '1/0'"),
            (["telemetry", "--log", "LOG", "--lambda", "1/0"], "lambda '1/0'"),
            (["telemetry", "--log", "LOG", "--c", "1/0"], "c '1/0'"),
        ],
        ids=["play-lambda", "play-c", "telemetry-lambda", "telemetry-c"],
    )
    def test_zero_denominator(self, tmp_path, capsys, argv, err):
        log = tmp_path / "ok.jsonl"
        log.write_text(self.GOOD)
        argv = [str(log) if a == "LOG" else a for a in argv]
        rc = main(argv + ["--graph", "cycle:5", "--k", "3"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {err} has a zero denominator\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["play", "--maker", "paper", "--lambda", "x"], "lambda 'x'"),
            (["play", "--maker", "paper", "--c", "1/x"], "c '1/x'"),
            (["telemetry", "--log", "LOG", "--lambda", "x"], "lambda 'x'"),
            (["telemetry", "--log", "LOG", "--c", ""], "c ''"),
        ],
        ids=["play-lambda", "play-c", "telemetry-lambda", "telemetry-c"],
    )
    def test_fraction_names_its_argument(self, tmp_path, capsys, argv, err):
        log = tmp_path / "ok.jsonl"
        log.write_text(self.GOOD)
        argv = [str(log) if a == "LOG" else a for a in argv]
        assert main(argv + ["--graph", "cycle:5", "--k", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: {err} is not a fraction\n")

    @pytest.mark.parametrize("b", ["0", "-4"])
    def test_goodset_bias_below_one(self, capsys, b):
        rc = main(["goodset", "--graph", "cycle:5", "--b", b])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: bias b must be at least 1\n")

    def test_negative_tree_index(self, capsys):
        # rejected before the trees of order 16 are walked
        assert main(["gen", "tree:16:-1"]) == 2
        assert capsys.readouterr().err == "error: tree index -1 is negative\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--graph", "complete_bipartite:40:40", "--k", "45"],
            ["chi", "--graph", "complete_bipartite:60:60"],
            ["boxgame", "--sizes", "3000,3000,3000", "--b", "1", "--solve"],
        ],
        ids=["solve", "chi", "boxgame"],
    )
    def test_search_too_deep(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: search too deep for the Python stack\n")

    @pytest.mark.parametrize("command", ["solve", "play"])
    def test_palette_above_cap(self, capsys, command):
        assert main([command, "--graph", "cycle:5", "--k", "100000000000"]) == 2
        assert capsys.readouterr() == ("", "error: palette size k must be at most 200000\n")

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
