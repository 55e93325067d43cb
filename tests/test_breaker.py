"""Breaker policies: box-game reduction, greedy blocker, baselines."""

from __future__ import annotations

import random

import pytest

from gamelab import graph as G
from gamelab._util import StrategyError
from gamelab.breaker import (
    BoxReductionBreaker,
    BoxReductionMemory,
    GreedyBlockingBreaker,
    SkipBreaker,
    UniformRandomBreaker,
)
from gamelab.engine import (
    BREAKER,
    BREAKER_WON,
    MAKER,
    MAKER_WON,
    GameConfig,
    GameState,
    new_game,
)
from gamelab.goodset import find_good_set
from gamelab.maker import GreedyMaker, UniformRandomMaker


def map_edge_to_box(g: G.Graph, F, e: int) -> int:
    """Oracle for ``box_of_edge``: index of the member of F nearest to
    edge e (lowest index on ties), one BFS per member."""
    best, best_d = -1, None
    for j, f in enumerate(F):
        d = G.edge_distance(g, f, e)
        if best_d is None or d < best_d:
            best, best_d = j, d
    return best


def run_breaker_turn(s: GameState, strategy) -> None:
    while not s.game_over() and s.turn == BREAKER:
        if s.breaker_moves_this_turn >= s.cfg.b:
            s.end_breaker_turn()
            return
        mv = strategy.micro_move(s)
        if mv is None:
            s.end_breaker_turn()
            return
        e, c, ann = mv
        s.apply_move(BREAKER, e, c, ann)


def play(g: G.Graph, cfg: GameConfig, maker, breaker) -> GameState:
    s = new_game(g, cfg)
    while not s.game_over():
        if s.turn == MAKER:
            e, c, ann = maker.move(s)
            s.apply_move(MAKER, e, c, ann)
        else:
            run_breaker_turn(s, breaker)
    return s


class TestMapping:
    def test_cycle_mapping(self):
        g = G.cycle(10)
        F = [0, 5]
        assert map_edge_to_box(g, F, 0) == 0
        assert map_edge_to_box(g, F, 5) == 1
        assert map_edge_to_box(g, F, 1) == 0  # distance 0 beats distance 3
        assert map_edge_to_box(g, F, 3) == 1  # distance 2 vs distance 1
        assert map_edge_to_box(g, F, 8) == 0

    def test_tie_breaks_low(self):
        g = G.star(3)
        assert map_edge_to_box(g, [0, 1], 2) == 0  # distance 0 to both

    def test_memory_mapping_totality(self):
        g = G.cycle(25)
        cert = find_good_set(g)
        F = cert.edges
        mem = BoxReductionMemory.for_game(g, cert, b=2)
        assert len(mem.box_of_edge) == g.m
        for e in range(g.m):
            assert mem.box_of_edge[e] == map_edge_to_box(g, F, e)

    def test_gamma_disjoint_and_sized(self):
        g = G.cycle(25)
        mem = BoxReductionMemory.for_game(g, find_good_set(g), b=2)
        seen: set[int] = set()
        for gam in mem.gamma:
            assert len(gam) == 2 * g.max_degree - 2
            assert not (set(gam) & seen)
            seen |= set(gam)

    def test_empty_good_set_rejected(self):
        g = G.star(5)  # no good set exists
        br = BoxReductionBreaker()
        s = new_game(g, GameConfig.skip_variant(k=5, b=2))
        with pytest.raises(StrategyError):
            br.micro_move(s)


class TestBoxBreakerEndgames:
    def test_c10_b3_blocks_in_round_one(self):
        g = G.cycle(10)
        s = play(
            g,
            GameConfig.skip_variant(k=2, b=3),
            UniformRandomMaker(seed=1),
            BoxReductionBreaker(),
        )
        assert s.winner() == BREAKER_WON
        assert s.round == 1
        boxes = [rec.ann["box"] for rec in s.log if rec.ann and "box" in rec.ann]
        assert boxes == [0, 0]

    def test_c25_b2_blocks_immediately(self):
        g = G.cycle(25)
        for maker in (UniformRandomMaker(seed=3), GreedyMaker()):
            s = play(g, GameConfig.skip_variant(k=2, b=2), maker, BoxReductionBreaker())
            assert s.winner() == BREAKER_WON
            assert len([r for r in s.log if r.player == MAKER]) == 0

    def test_c25_b2_maker_first_still_loses(self):
        g = G.cycle(25)
        for seed in range(10):
            s = play(
                g,
                GameConfig.classic(k=2, b=2),
                UniformRandomMaker(seed=seed),
                BoxReductionBreaker(),
            )
            assert s.winner() == BREAKER_WON
            # the killed box was never touched by Maker
            killed = [r.ann["box"] for r in s.log if r.ann and "box" in r.ann][-1]
            mem = BoxReductionMemory.for_game(g, find_good_set(g), 2)
            for rec in s.log:
                if rec.player == MAKER and rec.edge is not None:
                    assert mem.box_of_edge[rec.edge] != killed

    def test_freshness_invariant_from_logs(self):
        g = G.cycle(25)
        cert = find_good_set(g)
        F = cert.edges
        mem = BoxReductionMemory.for_game(g, cert, b=2)
        gamma_of = {e: i for i, gam in enumerate(mem.gamma) for e in gam}
        for seed in range(20):
            s = play(
                g,
                GameConfig.classic(k=2, b=2),
                UniformRandomMaker(seed=seed),
                BoxReductionBreaker(),
            )
            touched = [False] * len(F)
            used: list[set[int]] = [set() for _ in F]
            for rec in s.log:
                if rec.edge is None:
                    continue
                if rec.player == MAKER:
                    touched[mem.box_of_edge[rec.edge]] = True
                i = gamma_of.get(rec.edge)
                if i is None:
                    continue
                if rec.player == BREAKER and not touched[i]:
                    assert rec.color not in used[i], "stale color on untouched box"
                used[i].add(rec.color)

    def test_box_claim_correspondence(self):
        # remaining[i] of an untouched box equals k minus its claim count
        g = G.cycle(25)
        cert = find_good_set(g)
        F = cert.edges
        br = BoxReductionBreaker()
        cfg = GameConfig.classic(k=2, b=2)
        maker = UniformRandomMaker(seed=11)
        s = new_game(g, cfg)
        mem = BoxReductionMemory.for_game(g, cert, 2)
        claims = [0] * len(F)
        while not s.game_over():
            if s.turn == MAKER:
                e, c, ann = maker.move(s)
                s.apply_move(MAKER, e, c, ann)
            else:
                while not s.game_over() and s.turn == BREAKER:
                    if s.breaker_moves_this_turn >= cfg.b:
                        s.end_breaker_turn()
                        break
                    mv = br.micro_move(s)
                    if mv is None:
                        s.end_breaker_turn()
                        break
                    e, c, ann = mv
                    s.apply_move(BREAKER, e, c, ann)
                    if ann and "box" in ann and not ann.get("reduction_break"):
                        claims[ann["box"]] += 1
                    snap = mem.snapshot(s)
                    for i in range(len(F)):
                        if not snap.touched[i]:
                            assert snap.remaining[i] == cfg.k - claims[i]

    def test_auto_goodset_binding(self):
        g = G.cycle(10)
        br = BoxReductionBreaker()
        s = play(g, GameConfig.skip_variant(k=2, b=3), UniformRandomMaker(seed=2), br)
        assert s.winner() == BREAKER_WON
        assert br.memory is not None and br.memory.F == (0, 5)

    def test_binding_runs_one_bfs_per_member(self, monkeypatch):
        # the good set's own distances serve the box mapping: no second BFS
        g = G.cycle(25)
        calls = []
        bfs = G.Graph.vertex_distances

        def counted(self, sources):
            calls.append(sources)
            return bfs(self, sources)

        monkeypatch.setattr(G.Graph, "vertex_distances", counted)
        br = BoxReductionBreaker()
        mv = br.micro_move(new_game(g, GameConfig.skip_variant(k=2, b=2)))
        assert mv is not None
        assert len(br.memory.F) == 5
        assert len(calls) == 5


class TestGreedyBlocking:
    def test_triangle_two_move_block(self):
        g = G.cycle(3)
        s = new_game(g, GameConfig.skip_variant(k=2, b=2))
        br = GreedyBlockingBreaker()
        run_breaker_turn(s, br)
        assert s.winner() == BREAKER_WON
        assert s.breaker_moves_this_turn == 2 or len(s.log) >= 2

    def test_preserves_unique_minimum(self):
        g = G.Graph(6, [(0, 1), (1, 2), (3, 4)])
        s = new_game(g, GameConfig.skip_variant(k=2, b=2))
        s.apply_move(BREAKER, 1, 1)
        # uncolored: edge 0 with A = {2} (unique minimum, lowest index) and
        # the far edge 2 with A = {1,2}; nothing adjacent can shrink edge 0
        mv = GreedyBlockingBreaker().micro_move(s)
        assert mv == (2, 1, None)  # don't burn the unique minimum edge

    def test_reduces_minimum_when_possible(self):
        g = G.path(4)
        s = new_game(g, GameConfig.skip_variant(k=2, b=2))
        br = GreedyBlockingBreaker()
        mv1 = br.micro_move(s)
        assert mv1 is not None
        s.apply_move(BREAKER, mv1[0], mv1[1], None)
        mv2 = br.micro_move(s)
        assert mv2 is not None
        s.apply_move(BREAKER, mv2[0], mv2[1], None)
        assert s.winner() == BREAKER_WON  # some edge ran out of colors

    def test_no_legal_move_returns_none(self):
        g = G.star(2)
        s = new_game(g, GameConfig.skip_variant(k=2, b=1))
        s.apply_move(BREAKER, 0, 1)
        s.end_breaker_turn()
        s.apply_move(MAKER, 1, 2)
        assert s.game_over()  # nothing left: strategy never consulted


class TestBaselines:
    def test_random_breaker_respects_bias(self):
        g = G.complete(5)
        cfg = GameConfig.skip_variant(k=9, b=2)
        s = new_game(g, cfg)
        br = UniformRandomBreaker(seed=4)
        mk = UniformRandomMaker(seed=5)
        while not s.game_over():
            if s.turn == MAKER:
                e, c, ann = mk.move(s)
                s.apply_move(MAKER, e, c, ann)
            else:
                run_breaker_turn(s, br)
        per_round: dict[int, int] = {}
        for rec in s.log:
            if rec.player == BREAKER and rec.edge is not None:
                per_round[rec.round] = per_round.get(rec.round, 0) + 1
        assert per_round and all(v <= 2 for v in per_round.values())

    def test_skip_breaker_on_star_loses(self):
        g = G.star(4)
        s = play(
            g,
            GameConfig.skip_variant(k=4, b=1),
            UniformRandomMaker(seed=6),
            SkipBreaker(),
        )
        assert s.winner() == MAKER_WON

    def test_random_breaker_seeded_deterministic(self):
        g = G.complete(4)
        s = new_game(g, GameConfig.skip_variant(k=5, b=2))
        a = UniformRandomBreaker(seed=9).micro_move(s)
        b = UniformRandomBreaker(seed=9).micro_move(s)
        assert a == b

    def test_clones_are_independent(self):
        br = UniformRandomBreaker(seed=1)
        dup = br.clone()
        g = G.complete(4)
        s = new_game(g, GameConfig.skip_variant(k=5, b=2))
        assert br.micro_move(s) == dup.micro_move(s)
