"""Tests of the benchmark harness: checks, tracer arithmetic, declarations,
and the output contract of ``run.py``."""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _gamelab_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "gamelab" or n.startswith("gamelab.")}


@pytest.fixture
def gl():
    """A private import of the package; the shared one is restored afterwards,
    so wrappers installed here never leak into other tests."""
    saved = _gamelab_modules()
    try:
        yield harness.import_gamelab()
    finally:
        for name in _gamelab_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def test_checker_counts_each_wrong_output(gl):
    checks = harness.Checks()
    M, B = harness.MAKER_WON, harness.BREAKER_WON
    expected = {2: B, 3: M}
    good = gl.exact.ChiIndexResult(3, dict(expected), False, 10)
    harness.check_winner_map(checks, "right map", good, expected)
    wrong = gl.exact.ChiIndexResult(2, {2: M, 3: M}, False, 10)
    harness.check_winner_map(checks, "wrong map", wrong, expected)
    assert (checks.attempted, checks.failed) == (2, 1)

    flipped = gl.exact.VerifyResult(False, gl.engine.MoveLog(), 5)
    harness.check_verification(checks, "wrong soundness", flipped, True, lambda log: M)
    assert (checks.attempted, checks.failed) == (3, 2)

    g = gl.graph.generate("cycle:8")
    cfg = gl.engine.GameConfig.skip_variant(k=3, mode=gl.engine.MODIFIED)
    collector = gl.telemetry.TraceCollector(g, cfg)
    s = gl.cli.play_game(g, cfg, gl.maker.DangerRedirectMaker(seed=3),
                         gl.breaker.GreedyBlockingBreaker(), collector)
    live = collector.finish(s)
    replayed = gl.telemetry.analyze(s.log, g, cfg)
    harness.check_paper_game(checks, "equal reports", s.game_over(), live, replayed)
    assert checks.failed == 2
    tampered = dataclasses.replace(replayed, maker_moves=replayed.maker_moves + 1)
    harness.check_paper_game(checks, "mismatched report", s.game_over(), live, tampered)
    assert (checks.attempted, checks.failed) == (5, 3)
    assert [w.split(":")[0] for w in checks.failures] == ["wrong map", "wrong soundness", "mismatched report"]


def test_refutation_must_replay_to_a_maker_win(gl):
    checks = harness.Checks()
    refuted = gl.exact.VerifyResult(False, gl.engine.MoveLog(), 5)
    harness.check_verification(checks, "replays", refuted, False, lambda log: harness.MAKER_WON)
    harness.check_verification(checks, "does not replay", refuted, False, lambda log: harness.BREAKER_WON)
    assert (checks.attempted, checks.failed) == (2, 1)


def test_tracer_self_time_and_spans():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()
        return dataclasses.make_dataclass("R", ["nodes"])(7)

    outer = tracer.wrap("outer", body, span=True, nodes=True)
    with tracer.span("pass"):
        outer()
    o, i = tracer.stats["outer"], tracer.stats["inner"]
    assert (i.calls, i.self_s, i.total_s) == (2, 2.0, 2.0)
    assert (o.calls, o.total_s, o.self_s, o.nodes) == (1, 5.0, 3.0, 7)
    (pass_id, no_parent, pass_name, *_), (_, parent, name, start, end) = tracer.spans
    assert (no_parent, pass_name, parent, name, end - start) == (None, "pass", pass_id, "outer", 5.0)
    tracer.reset()
    assert tracer.stats["outer"].calls == 0 and not tracer.spans


def test_times_are_scaled_by_the_adjacent_reference():
    # ratios 2, 2, 3: a slower moment (larger reference time) is cancelled
    assert harness.in_reference_seconds([2.0, 4.0, 9.0], [1.0, 2.0, 3.0]) == 2 * harness.REF_S
    assert harness.reference() == 400  # the unit of time: its work must not change


def test_tracer_reaches_names_where_callers_look_them_up(gl):
    tracer = Tracer()
    harness.install_tracer(tracer, gl)
    spec = gl.cli.ExperimentSpec(graph="cycle:25", maker="random", breaker="box", k=2, b=2, trials=3, seed=1)
    assert gl.cli.run_match(spec).breaker_wins == 3
    calls = {name: st.calls for name, st in tracer.stats.items()}
    # play_game is called from cli, find_good_set from breaker, bob_strategy through boxgame
    assert calls["cli.play_game"] == calls["goodset.find_good_set"] == calls["breaker.for_game"] == 3
    assert calls["boxgame.bob_strategy"] == calls["breaker.snapshot"] > 0
    assert calls["engine.clone"] == calls["exact.solve"] == 0


def test_layer_table_covers_every_declared_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    per_layer = [m["name"] for m in bench["per_layer"]]
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    listed = [m for row in layers["rows"] for m in row["metrics"]]
    assert sorted(listed) == sorted(per_layer)
    assert set(harness.WORKLOADS) == workloads
    for row in layers["rows"]:
        assert set(row["moves"]) <= end_to_end | set(per_layer)
        assert set(row["on"]) | set(row["unchanged_on"]) <= workloads
        assert not set(row["on"]) & set(row["unchanged_on"])


def _run(tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )


def _checkout(tmp_path: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_contract_on_two_seeds(tmp_path, trace):
    root = _checkout(tmp_path, with_src=True)
    bench = json.loads((root / "BENCHMARK.json").read_text())
    section = bench["per_layer" if trace == "1" else "end_to_end"]
    for seed in ("0", "7"):
        proc = _run(root, "--workload", "box-match", "--seed", seed, "--seconds", "0.1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.splitlines()[-1])
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 500
        assert {n: e["unit"] for n, e in doc["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    assert (root / "perfbench" / "traces" / "box-match.json").exists() == (trace == "1")


def test_fails_without_the_program(tmp_path):
    proc = _run(_checkout(tmp_path, with_src=False), "--workload", "box-match", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
