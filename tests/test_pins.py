"""Pinned behaviour: exact values, search sizes and seeded report digests.

Every number here was measured on the code before the duplicate turn,
search, budget and crossing paths were merged into one routine each; the
box-game numbers before both box-game searches were put on one child
expansion.  A refactor that keeps behaviour must keep all of them: node
counts fix the search order, digests fix every RNG draw and every move of
seeded play.
The solver's node counts were re-measured when it learned the trivial
bound: a safe board (no edge can ever be blocked) is a Maker win and a
one-move block is a Breaker win, settled without expanding the node.  The
values stayed; the trees shrank (cycle:7 skip 1581 -> 13, cycle:9 classic
3757 -> 11, K_3,3 28494 -> 6810, star:4 with b = 2 88 -> 4).  The verifier
has no such cuts, so its counts and the counterexample did not move.
They were re-measured again when the table key learned the graph's
automorphisms: positions that differ by an automorphism share an entry.
The values stayed; K_3,3 fell 6810 -> 354, and the other three trees,
settled by cuts before any repeat, kept their counts.  The verifier has
no table key, so its counts did not move.
They were re-measured a third time when the solver learned to expand one
edge per orbit of the colored position's stabilizer: an edge symmetric to
one already searched has the same children up to symmetry.  The values
stayed; cycle:7 skip fell 13 -> 8, cycle:9 classic 11 -> 3 and K_3,3
354 -> 257, and star:4, each of whose solves a cut settles at the root,
kept its count.  The verifier has no such pruning, so its counts did not
move.
The greedy-Breaker log digests were taken before the greedy Breaker
kept its edge availability up to date from the engine's trail.
The whole module runs in about ten seconds, most of it criterion 9's report.
"""

from __future__ import annotations

import hashlib

import pytest

from gamelab import acceptance
from gamelab._util import BudgetExceeded, derive_seed
from gamelab.boxgame import ALICE, BOB, solve_boxgame
from gamelab.breaker import BoxReductionBreaker, GreedyBlockingBreaker
from gamelab.cli import ExperimentSpec, run_match
from gamelab.engine import BREAKER, MAKER, MODIFIED, GameConfig
from gamelab.exact import game_chromatic_index, verify_strategy
from gamelab.graph import generate
from gamelab.maker import DangerRedirectMaker, MakerConfig, UniformRandomMaker
from gamelab.match import play_game
from helpers import verify_bob_strategy


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "spec, variant, b, value, nodes",
    [
        ("cycle:7", GameConfig.skip_variant, 1, 3, 8),
        ("cycle:9", GameConfig.classic, 1, 3, 3),
        ("complete_bipartite:3:3", GameConfig.skip_variant, 1, 4, 257),
        ("star:4", GameConfig.classic, 2, 4, 4),
    ],
)
def test_game_chromatic_index_value_and_nodes(spec, variant, b, value, nodes):
    res = game_chromatic_index(generate(spec), b, variant(k=1))
    assert (res.value, res.nodes) == (value, nodes)


def test_verify_strategy_nodes_and_counterexample():
    classic = GameConfig.classic(k=4, b=2)
    res = verify_strategy(
        generate("cycle:8"), 3, GameConfig.classic(k=3), UniformRandomMaker(seed=2), MAKER
    )
    assert (res.sound, res.nodes) == (True, 3899)
    res = verify_strategy(
        generate("complete_bipartite:5:5"), 4, classic, BoxReductionBreaker(), BREAKER
    )
    assert (res.sound, res.nodes) == (True, 17613)
    g = generate("random_regular:16:4:3")
    res = verify_strategy(g, 4, classic, BoxReductionBreaker(), BREAKER)
    assert (res.sound, res.nodes) == (False, 47872)
    assert sha256(res.counterexample.to_jsonl(g)) == (
        "dcc4d21abe94ead6bf1aa10943fa3645b271545bc68aa70393cd792632d545c9"
    )


def test_verify_paper_maker_nodes():
    # the benchmark's first certify rung: every draw and move of the paper
    # Maker on 104,570 verifier nodes
    maker = DangerRedirectMaker(seed=derive_seed(0, "certify", "paper", 0))
    res = verify_strategy(generate("cycle:8"), 3, GameConfig.skip_variant(k=3), maker, MAKER)
    assert (res.sound, res.nodes) == (True, 104570)


@pytest.mark.parametrize(
    "spec, nodes, digest",
    [
        ("complete:4", 210, "53342cea0da5099faf909b54396bbf667ae79bc2e5f361c6bd8ef077ee97cecf"),
        (
            "complete_bipartite:3:3",
            338,
            "b0606dc72f65f42dbffc1061db4dbd5396634b4580c8348afc4fb3ef7c0e29b6",
        ),
    ],
)
def test_verify_paper_maker_counterexample(spec, nodes, digest):
    g = generate(spec)
    res = verify_strategy(g, 4, GameConfig.skip_variant(k=4), DangerRedirectMaker(seed=3), MAKER)
    assert (res.sound, res.nodes) == (False, nodes)
    assert sha256(res.counterexample.to_jsonl(g)) == digest


MATCH_DIGESTS = {
    ("paper", "box"): "c1859158b19cd43be8fb14b7365a7e137013d32e879c061932254263819ecbdb",
    ("paper", "random"): "007271a2ec5715d7ce9cceef6cec6124f5d0172564b16f77aa6b3fe9eeb3f712",
    ("paper", "greedy"): "be613f26803e29091e271b8f6d27cf2eec4878bc8ff7260d368b7fd7d8403774",
    ("paper", "skip"): "5a858cae874923b5c5169193f44be58cddcfa9cfee629978759bea451dac8b3a",
    ("random", "box"): "82fde4d2c286fadab0f12128090846bb1538a4842a45cdfc3223620fcc77e8a6",
    ("random", "random"): "59783e532b6204afac7f85d3df4cad5c3698051895ae72ecf1979e4b9301142f",
    ("random", "greedy"): "5f2ae0ba5f722298c03543ce143c0010d73a0b0415cf5c55b2d52346c59b11d2",
    ("random", "skip"): "49e11170d761c98142a2242e84495e3c9435f5daebd8b621dd9474a7aba4aead",
    ("greedy", "box"): "adbe25228d300863978bbdd865f799477ae319e1c60e4660bd42c268c7c94445",
    ("greedy", "random"): "623ee9dc87c96aedef68142c529764ecab9d971700e85bb4a1488a9b16372e02",
    ("greedy", "greedy"): "22cf684ce916cd936e686a78f9ba795a55f00e4c985c014be41a8745917b0830",
    ("greedy", "skip"): "4e32d6ea61a40947c0b5f6d626b9891d30e3898776a8fa7362e8ef4aee0dda3f",
}


@pytest.mark.parametrize("maker, breaker", sorted(MATCH_DIGESTS))
def test_match_report_digest(maker, breaker):
    spec = ExperimentSpec(
        graph="gnp:10:0.4:7", maker=maker, breaker=breaker,
        k=5, b=2, mode=MODIFIED, trials=8, seed=0,
    )
    assert sha256(run_match(spec).to_json()) == MATCH_DIGESTS[maker, breaker]


# Whole move logs of the paper Maker against the greedy Breaker on the
# criterion-9 graph, so that any changed greedy-Breaker move shows; the
# match reports above hold aggregates only.
GREEDY_LOG_DIGESTS = {
    (32, 0): "7d793e9fde517cf41df7b5f9804e7d9860a21f8d4ddeaad1ba80acd6fab913d6",
    (32, 1): "4f869e4fa7cdd0ec73b09c16be49341e04e8ae4be6cb402e5bf5c026ec6f9d16",
    (30, 0): "143fedf52bb9fb43c578fa4089e5d6880aaf430fc85ad32464171fcb2a452358",
    (30, 1): "721587fa7242d18014ee8fac9f2887b23a2c77d57f60cf659732b760c986c9d5",
}


@pytest.mark.parametrize("k, game", sorted(GREEDY_LOG_DIGESTS))
def test_paper_maker_vs_greedy_breaker_log_digest(k, game):
    g = generate("random_regular:64:16:1")
    cfg = GameConfig.skip_variant(k=k, mode=MODIFIED)
    maker = DangerRedirectMaker(MakerConfig(), seed=derive_seed(0, "greedy-log", k, game))
    s = play_game(g, cfg, maker, GreedyBlockingBreaker())
    assert sha256(s.log.to_jsonl(g)) == GREEDY_LOG_DIGESTS[k, game]


def test_criterion_7_report_digest():
    assert sha256(acceptance._reduction_medium_report()) == (
        "e38249a86809bac6ab356848a72ebd26d6a8c9a83b16a68dddb6511ab6ce3c5d"
    )


def test_criterion_9_report_digest():
    # criterion 11 only compares two reruns in one process; this pins the
    # report itself (about 6 s)
    assert sha256(acceptance._paper_maker_report()) == (
        "a72574c2f3561d65de95638c3fe92917538ec513478a2717ef9db221c59f5406"
    )


@pytest.mark.parametrize("sizes, b, nodes", [([4, 4, 4, 4], 3, 252), ([3, 3, 3, 3], 2, 118)])
def test_solve_boxgame_nodes(sizes, b, nodes):
    assert solve_boxgame(sizes, b, budget=nodes) is True
    with pytest.raises(BudgetExceeded) as info:
        solve_boxgame(sizes, b, budget=nodes - 1)
    assert info.value.nodes == nodes


@pytest.mark.parametrize(
    "sizes, b, first, result",
    [
        ([3, 3, 3], 2, ALICE, (True, 7)),
        ([3, 3, 3, 3], 2, ALICE, (True, 9)),
        ([2, 2, 3], 1, BOB, (False, 11)),
    ],
)
def test_verify_bob_strategy_result(sizes, b, first, result):
    assert verify_bob_strategy(sizes, b, first=first) == result
