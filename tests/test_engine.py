"""Referee rules: move legality, incremental bookkeeping, winners, replay."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamelab import graph as G
from gamelab.engine import (
    BREAKER,
    BREAKER_WON,
    MAKER,
    MAKER_WON,
    MODIFIED,
    ONGOING,
    STRICT,
    GameConfig,
    GameState,
    IllegalMove,
    MoveLog,
    new_game,
    replay,
)


def recompute_tables(s: GameState):
    """Oracle: derive load/used/uncolored-neighbor tables from the raw coloring."""
    g = s.g
    load = [0] * g.n
    umask = [0] * g.n
    unb = [set(g.adj[v]) for v in range(g.n)]
    for e, c in enumerate(s.color):
        if c:
            u, v = g.edges[e]
            load[u] += 1
            load[v] += 1
            umask[u] |= 1 << (c - 1)
            umask[v] |= 1 << (c - 1)
            unb[u].discard(v)
            unb[v].discard(u)
    return load, umask, unb


def assert_tables_consistent(s: GameState):
    load, umask, unb = recompute_tables(s)
    assert s.load == load
    assert s.umask == umask
    assert [s.uncolored_neighbors(v) for v in range(s.g.n)] == [sorted(x) for x in unb]
    assert s.uncolored == sum(1 for c in s.color if c == 0)
    for v in range(s.g.n):
        assert s.load[v] == s.g.degree(v) - len(s.uncolored_neighbors(v))
    if s.cfg.mode == STRICT:
        # proper coloring, so colors at a vertex are pairwise distinct
        for v in range(s.g.n):
            assert bin(s.umask[v]).count("1") == s.load[v]
    for e in range(s.g.m):
        if s.color[e] == 0:
            u, v = s.g.edges[e]
            expect = set(range(1, s.cfg.k + 1)) - s.used_colors(u) - s.used_colors(v)
            assert s.available_colors(e) == expect


def random_playout(g: G.Graph, cfg: GameConfig, seed: int, check_every_move: bool = False) -> GameState:
    rng = random.Random(seed)
    s = new_game(g, cfg)
    while not s.game_over():
        if s.turn == MAKER:
            pairs = [
                (e, c)
                for e in range(g.m)
                if s.color[e] == 0
                for c in sorted(s.available_colors(e))
            ]
            if pairs:
                e, c = pairs[rng.randrange(len(pairs))]
                s.apply_move(MAKER, e, c)
            else:
                assert cfg.mode == MODIFIED
                e = rng.choice([e for e in range(g.m) if s.color[e] == 0])
                s.apply_move(MAKER, e, rng.randrange(cfg.k) + 1)
        else:
            has_move = s.breaker_has_legal_move()
            must_end = s.breaker_moves_this_turn >= cfg.b or not has_move
            may_end = (
                s.breaker_moves_this_turn >= 1 or cfg.breaker_may_skip or not has_move
            )
            if must_end or (may_end and rng.random() < 0.4):
                s.end_breaker_turn()
            else:
                pairs = [
                    (e, c)
                    for e in range(g.m)
                    if s.color[e] == 0
                    for c in sorted(s.available_colors(e))
                ]
                e, c = pairs[rng.randrange(len(pairs))]
                s.apply_move(BREAKER, e, c)
        if check_every_move:
            assert_tables_consistent(s)
    return s


FUZZ_GRAPHS = [
    G.path(4),
    G.cycle(5),
    G.star(4),
    G.complete(4),
    G.complete_bipartite(2, 3),
]

FUZZ_CONFIGS = [
    GameConfig.skip_variant(k=3),
    GameConfig.skip_variant(k=5, b=2),
    GameConfig.classic(k=3),
    GameConfig.classic(k=4, b=3),
    GameConfig.skip_variant(k=2, b=2, mode=MODIFIED),
    GameConfig.classic(k=3, mode=MODIFIED),
]


class TestBasics:
    def test_initial_availability_star(self):
        s = new_game(G.star(3), GameConfig.skip_variant(k=3))
        assert all(s.available_colors(e) == {1, 2, 3} for e in range(3))
        assert s.load == [0, 0, 0, 0]

    def test_first_player_breaker_round_one(self):
        s = new_game(G.cycle(5), GameConfig.skip_variant(k=2))
        assert s.turn == BREAKER and s.round == 1
        s.end_breaker_turn()
        assert s.turn == MAKER and s.round == 2

    def test_classic_starts_with_maker(self):
        s = new_game(G.cycle(5), GameConfig.classic(k=2))
        assert s.turn == MAKER and s.round == 1

    def test_maker_move_updates_center_load(self):
        s = new_game(G.star(3), GameConfig.classic(k=3))
        s.apply_move(MAKER, 0, 1)
        assert s.load[0] == 1 and s.turn == BREAKER

    def test_available_colors_of_colored_edge(self):
        s = new_game(G.path(3), GameConfig.classic(k=2))
        s.apply_move(MAKER, 0, 1)
        with pytest.raises(IllegalMove):
            s.available_colors(0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GameConfig(k=0)
        with pytest.raises(ValueError):
            GameConfig(k=1, b=0)
        with pytest.raises(ValueError):
            GameConfig(k=1, mode="lenient")


class TestRuleErrors:
    def test_wrong_turn(self):
        s = new_game(G.path(3), GameConfig.skip_variant(k=2))
        with pytest.raises(IllegalMove):
            s.apply_move(MAKER, 0, 1)  # round 1 belongs to breaker

    def test_already_colored(self):
        s = new_game(G.path(4), GameConfig.classic(k=3))
        s.apply_move(MAKER, 0, 1)
        s.apply_move(BREAKER, 1, 2)
        s.end_breaker_turn()
        with pytest.raises(IllegalMove):
            s.apply_move(MAKER, 0, 2)

    def test_blocked_color_rejected_for_both_in_strict(self):
        s = new_game(G.path(3), GameConfig.classic(k=2))
        s.apply_move(MAKER, 0, 1)
        with pytest.raises(IllegalMove):
            s.apply_move(BREAKER, 1, 1)
        s.apply_move(BREAKER, 1, 2)
        assert s.winner() == MAKER_WON

    def test_bias_exceeded(self):
        s = new_game(G.star(4), GameConfig.skip_variant(k=7, b=1))
        s.apply_move(BREAKER, 0, 1)
        with pytest.raises(IllegalMove):
            s.apply_move(BREAKER, 1, 2)

    def test_color_out_of_palette(self):
        s = new_game(G.path(3), GameConfig.classic(k=2))
        with pytest.raises(IllegalMove):
            s.apply_move(MAKER, 0, 3)

    def test_illegal_sitout_without_skip(self):
        s = new_game(G.path(4), GameConfig.classic(k=3))
        s.apply_move(MAKER, 0, 1)
        with pytest.raises(IllegalMove):
            s.end_breaker_turn()

    def test_early_end_after_one_move_is_legal_without_skip(self):
        s = new_game(G.star(4), GameConfig.classic(k=7, b=3))
        s.apply_move(MAKER, 0, 1)
        s.apply_move(BREAKER, 1, 2)
        s.end_breaker_turn()
        assert s.turn == MAKER and s.round == 2

    def test_moves_after_game_over_rejected(self):
        s = new_game(G.star(2), GameConfig.classic(k=2))
        s.apply_move(MAKER, 0, 1)
        s.apply_move(BREAKER, 1, 2)
        assert s.winner() == MAKER_WON
        with pytest.raises(IllegalMove):
            s.end_breaker_turn()


class TestWinner:
    def test_triangle_block(self):
        s = new_game(G.cycle(3), GameConfig.skip_variant(k=2, b=2))
        s.apply_move(BREAKER, 0, 1)
        assert s.winner() == ONGOING
        s.apply_move(BREAKER, 1, 2)
        assert s.winner() == BREAKER_WON
        assert s.game_over()

    def test_full_coloring_wins_for_maker(self):
        s = new_game(G.path(3), GameConfig.classic(k=3))
        s.apply_move(MAKER, 0, 1)
        s.apply_move(BREAKER, 1, 2)
        assert s.winner() == MAKER_WON

    def test_modified_mode_plays_through_block(self):
        s = new_game(G.cycle(3), GameConfig.skip_variant(k=2, b=2, mode=MODIFIED))
        s.apply_move(BREAKER, 0, 1)
        s.apply_move(BREAKER, 1, 2)
        assert s.winner() == BREAKER_WON  # already decided ...
        assert not s.game_over()  # ... but the process continues
        s.end_breaker_turn()
        s.apply_move(MAKER, 2, 1)  # forced non-proper placement
        assert s.forced_count == 1
        assert s.game_over() and s.winner() == BREAKER_WON

    def test_modified_mode_unforced_run_is_maker_win(self):
        s = new_game(G.path(3), GameConfig.classic(k=3, mode=MODIFIED))
        s.apply_move(MAKER, 0, 1)
        s.apply_move(BREAKER, 1, 2)
        assert s.forced_count == 0
        assert s.winner() == MAKER_WON

    def test_strict_maker_cannot_play_nonproper(self):
        s = new_game(G.path(4), GameConfig.classic(k=2))
        s.apply_move(MAKER, 0, 1)
        s.apply_move(BREAKER, 2, 1)
        s.end_breaker_turn()
        assert s.winner() == ONGOING
        with pytest.raises(IllegalMove):
            s.apply_move(MAKER, 1, 1)  # colour 1 used at both endpoints
        s.apply_move(MAKER, 1, 2)
        assert s.winner() == MAKER_WON


class TestFuzzInvariants:
    def test_bookkeeping_after_every_move(self):
        for gi, g in enumerate(FUZZ_GRAPHS):
            for ci, cfg in enumerate(FUZZ_CONFIGS):
                for trial in range(8):
                    random_playout(g, cfg, seed=1000 * gi + 100 * ci + trial, check_every_move=True)

    def test_bookkeeping_at_game_end_bulk(self):
        # ten thousand random legal games, final-state recomputation each time
        count = 0
        for gi, g in enumerate(FUZZ_GRAPHS):
            for ci, cfg in enumerate(FUZZ_CONFIGS):
                for trial in range(334):
                    s = random_playout(g, cfg, seed=7_000_000 + 10_000 * gi + 1_000 * ci + trial)
                    assert_tables_consistent(s)
                    w = s.winner()
                    if s.cfg.mode == STRICT and w == BREAKER_WON:
                        assert any(
                            s.color[e] == 0 and s.avail_mask(e) == 0 for e in range(g.m)
                        )
                    if w == MAKER_WON:
                        assert s.uncolored == 0 and s.forced_count == 0
                    count += 1
        assert count >= 10_000

    def test_pigeonhole_palette_never_blocks(self):
        for gi, g in enumerate([G.cycle(5), G.complete(4), G.star(4), G.path(6)]):
            k = 2 * g.max_degree - 1
            for variant in (GameConfig.skip_variant(k=k, b=2), GameConfig.classic(k=k)):
                for trial in range(30):
                    s = random_playout(g, variant, seed=31_337 + 97 * gi + trial)
                    assert s.winner() == MAKER_WON

    def test_replay_reproduces_state_and_log(self):
        for gi, g in enumerate(FUZZ_GRAPHS):
            for ci, cfg in enumerate(FUZZ_CONFIGS):
                for trial in range(5):
                    s = random_playout(g, cfg, seed=555_000 + 10_000 * gi + 1_000 * ci + trial)
                    r = replay(g, cfg, s.log)
                    assert r.snapshot() == s.snapshot()
                    assert r.log == s.log

    def test_jsonl_round_trip(self):
        g = G.cycle(5)
        cfg = GameConfig.skip_variant(k=3, b=2)
        s = random_playout(g, cfg, seed=42)
        text = s.log.to_jsonl(g)
        back = MoveLog.from_jsonl(text, g)
        assert back == s.log
        assert replay(g, cfg, back).snapshot() == s.snapshot()
        # serialization is stable byte-for-byte
        assert back.to_jsonl(g) == text


class TestReplayValidation:
    def test_replay_rejects_corrupt_round(self):
        g = G.path(3)
        cfg = GameConfig.classic(k=3)
        s = random_playout(g, cfg, seed=3)
        bad = MoveLog([rec for rec in s.log])
        first = bad.records[0]
        bad.records[0] = type(first)(first.round + 5, first.player, first.edge, first.color, first.skip, first.ann)
        with pytest.raises(IllegalMove):
            replay(g, cfg, bad)

    def test_replay_rejects_wrong_player(self):
        g = G.path(4)
        cfg = GameConfig.skip_variant(k=3)
        s = new_game(g, cfg)
        s.end_breaker_turn()
        s.apply_move(MAKER, 0, 1)
        log = s.log.copy()
        rec = log.records[-1]
        log.records[-1] = type(rec)(rec.round, BREAKER, rec.edge, rec.color, rec.skip, rec.ann)
        with pytest.raises(IllegalMove):
            replay(g, cfg, log)


def legal_transitions(s: GameState) -> list:
    """Every legal transition: (edge, color) colorings, None for an end of
    Breaker's turn.  In modified mode Maker may take any color, so forced
    non-proper moves are drawn too."""
    cfg = s.cfg
    uncolored = [e for e in range(s.g.m) if s.color[e] == 0]
    if s.turn == MAKER:
        if cfg.mode == MODIFIED:
            return [(e, c) for e in uncolored for c in range(1, cfg.k + 1)]
        return [(e, c) for e in uncolored for c in sorted(s.available_colors(e))]
    moves = []
    if s.breaker_moves_this_turn < cfg.b:
        moves = [(e, c) for e in uncolored for c in sorted(s.available_colors(e))]
    if s.may_end_breaker_turn():
        moves.append(None)
    return moves


class TestUndo:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_undo_restores_every_depth(self, data):
        g = data.draw(st.sampled_from(FUZZ_GRAPHS), label="graph")
        variant = data.draw(st.sampled_from([GameConfig.skip_variant, GameConfig.classic]))
        cfg = variant(
            k=data.draw(st.integers(2, 5), label="k"),
            b=data.draw(st.integers(1, 3), label="b"),
            mode=data.draw(st.sampled_from([STRICT, MODIFIED]), label="mode"),
        )
        keep_log = data.draw(st.booleans(), label="keep_log")
        s = GameState(g, cfg, log=keep_log)
        saved = []
        while not s.game_over():
            saved.append((s.snapshot(), list(s.log) if keep_log else None))
            mv = data.draw(st.sampled_from(legal_transitions(s)))
            if mv is None:
                s.end_breaker_turn()
            else:
                s.apply_move(s.turn, *mv)
        if keep_log:
            assert replay(g, cfg, s.log).snapshot() == s.snapshot()
        else:
            assert s.log is None
        for snap, log in reversed(saved):
            s.undo()
            assert s.snapshot() == snap
            assert (list(s.log) if keep_log else s.log) == log
            assert_tables_consistent(s)
        assert s.trail == []
        assert s.snapshot() == new_game(g, cfg).snapshot()
