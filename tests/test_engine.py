"""Referee rules: move legality, incremental bookkeeping, winners, replay."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamelab import graph as G
from gamelab.breaker import GreedyBlockingBreaker, SkipBreaker
from gamelab.engine import (
    BREAKER,
    BREAKER_WON,
    MAKER,
    MAKER_WON,
    MODIFIED,
    ONGOING,
    STRICT,
    VARIANTS,
    GameConfig,
    GameState,
    IllegalMove,
    MoveLog,
    MoveRecord,
    apply_record,
    new_game,
    replay,
)
from gamelab.exact import verify_strategy
from gamelab.maker import DangerRedirectMaker
from gamelab.match import play_game


def used_colors(s: GameState, v: int) -> set[int]:
    return {i + 1 for i in range(s.cfg.k) if s.umask[v] >> i & 1}


def snapshot(s: GameState) -> tuple:
    """Comparable digest of every rule-relevant state component."""
    return (
        tuple(s.color),
        s.uncolored,
        s.round,
        s.turn,
        s.breaker_moves_this_turn,
        tuple(s.load),
        tuple(s.umask),
        s.blocked_seen,
        s.forced_count,
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
            expect = set(range(1, s.cfg.k + 1)) - used_colors(s, u) - used_colors(s, v)
            assert s.available_colors(e) == expect


def has_blocked_edge(s: GameState) -> bool:
    """Oracle: a scan of every uncolored edge for an empty palette."""
    return any(s.color[e] == 0 and s.avail_mask(e) == 0 for e in range(s.g.m))


def random_playout(g: G.Graph, cfg: GameConfig, seed: int, check_every_move: bool = False) -> GameState:
    """A random legal game; with ``check_every_move`` the tables and
    ``blocked_seen`` are checked against a scan after every transition."""
    rng = random.Random(seed)
    s = new_game(g, cfg)
    blocked = False
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
                s.breaker_moves_this_turn >= 1 or cfg.variant == "skip" or not has_move
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
            # modified play goes on past a block, so the flag is sticky
            blocked = blocked or has_blocked_edge(s)
            assert s.blocked_seen == blocked
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

    def test_variant_is_named(self):
        assert VARIANTS == ("skip", "classic")
        assert GameConfig.skip_variant(k=3) == GameConfig(3, 1, "skip", STRICT)
        assert GameConfig.classic(k=3, b=2, mode=MODIFIED) == GameConfig(3, 2, "classic", MODIFIED)
        with pytest.raises(ValueError, match="unknown variant 'x'"):
            GameConfig(k=3, variant="x")

    def test_palette_size_capped(self):
        # no admissible graph has 2 * Delta - 1 above the cap, so no game
        # needs a larger palette; a huge k would only build a huge bitmask
        cap = 2 * G.MAX_EDGE_LIST_VERTICES
        assert GameConfig(k=cap).k == cap
        for k in (cap + 1, 100_000_000_000):
            with pytest.raises(ValueError, match=f"palette size k must be at most {cap}"):
                GameConfig(k=k)


class TestMoveRecord:
    def test_fields_cannot_be_assigned(self):
        rec = MoveRecord(1, MAKER, 0, 2)
        assert (rec.skip, rec.ann) == (False, None)
        for field in ("round", "player", "edge", "color", "skip", "ann"):
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
        with pytest.raises(AttributeError):
            rec.note = "x"
        assert rec == MoveRecord(1, MAKER, 0, 2, False, None)


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

    @pytest.mark.parametrize("mode", [STRICT, MODIFIED])
    def test_blocked_seen_where_the_screen_skips_scans(self, mode):
        """Palettes with Delta < k <= 2*Delta - 1, where ``_commit`` skips the
        scan at an endpoint with at most k - Delta colors.  Some game blocks
        an edge at a vertex with one color more than that, so a screen one
        color looser would miss a block."""
        tight = 0
        for gi, g in enumerate([G.complete(5), G.star(5), G.complete_bipartite(3, 3), G.cycle(6)]):
            delta = g.max_degree
            for k in range(delta + 1, 2 * delta):
                for trial in range(12):
                    cfg = GameConfig(k, 1 + trial % 2, VARIANTS[trial % 3 % 2], mode)
                    s = random_playout(g, cfg, seed=500 * gi + 20 * k + trial, check_every_move=True)
                    r = new_game(g, cfg)
                    for rec in s.log:
                        apply_record(r, rec)
                        tight += any(
                            r.umask[w].bit_count() == k - delta + 1
                            and any(r.color[f] == 0 and r.avail_mask(f) == 0 for f in g.incident[w])
                            for w in range(g.n)
                        )
        assert tight > 0

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
                        assert has_blocked_edge(s)
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
                    assert snapshot(r) == snapshot(s)
                    assert r.log == s.log

    def test_annotated_jsonl_round_trip(self):
        # the paper Maker's annotations (forced colorings included) and
        # Breaker's end-of-turn records come back as equal records
        g = G.cycle(8)
        s = play_game(
            g, GameConfig.skip_variant(k=2, mode=MODIFIED),
            DangerRedirectMaker(seed=0), GreedyBlockingBreaker(),
        )
        assert any(r.skip for r in s.log)
        assert any(r.ann and r.ann.get("forced_nonproper") for r in s.log)
        assert MoveLog.from_jsonl(s.log.to_jsonl(g), g) == s.log

    def test_jsonl_round_trip(self):
        g = G.cycle(5)
        cfg = GameConfig.skip_variant(k=3, b=2)
        s = random_playout(g, cfg, seed=42)
        text = s.log.to_jsonl(g)
        back = MoveLog.from_jsonl(text, g)
        assert back == s.log == list(s.log)
        assert snapshot(replay(g, cfg, back)) == snapshot(s)
        # serialization is stable byte-for-byte
        assert back.to_jsonl(g) == text
        # copies stay logs, and a copy's edits leave the original alone
        c4 = G.cycle(4)
        refuted = verify_strategy(c4, 2, GameConfig.skip_variant(k=1), SkipBreaker(), BREAKER)
        for log, h in ((back.copy(), g), (s.clone().log, g), (refuted.counterexample, c4)):
            assert type(log) is MoveLog and MoveLog.from_jsonl(log.to_jsonl(h), h) == log
        dup = back.copy()
        dup[0] = dup[0]._replace(round=9)
        dup.pop()
        later = s.clone()
        later.undo()
        assert dup != back and len(later.log) == len(s.log) - 1
        assert back.to_jsonl(g) == s.log.to_jsonl(g) == text

    @pytest.mark.parametrize(
        "skip, shown",
        [('"false"', "'false'"), ("1", "1"), ("null", "None")],
        ids=["string", "integer", "null"],
    )
    def test_non_boolean_skip_rejected(self, skip, shown):
        # bool() would read each of these as an end of turn and drop the coloring
        line = '{"r":1,"p":"B","e":[0,1],"c":1,"skip":%s}' % skip
        with pytest.raises(ValueError) as exc:
            MoveLog.from_jsonl(line, G.cycle(5))
        assert str(exc.value) == f"log line 1: 'skip' must be a boolean, got {shown}"

    @pytest.mark.parametrize("e, c", [("[0,1]", "1"), ("[0,1]", "null"), ("null", "1")])
    def test_end_of_turn_with_a_coloring_rejected(self, e, c):
        # read as an end of turn, the coloring would be dropped unseen
        line = '{"r":1,"p":"B","e":%s,"c":%s,"skip":true}' % (e, c)
        with pytest.raises(ValueError) as exc:
            MoveLog.from_jsonl(line, G.cycle(5))
        assert str(exc.value) == "log line 1: an end-of-turn record must have null 'e' and 'c'"

    def test_boolean_or_absent_skip_accepted(self):
        g = G.cycle(5)
        lines = [
            '{"r":1,"p":"B","e":null,"c":null,"skip":true}',
            '{"r":1,"p":"M","e":[0,1],"c":1,"skip":false}',
            '{"r":2,"p":"M","e":[1,2],"c":2}',
        ]
        assert MoveLog.from_jsonl("\n".join(lines), g) == [
            MoveRecord(1, BREAKER, None, None, True),
            MoveRecord(1, MAKER, 0, 1),
            MoveRecord(2, MAKER, 1, 2),
        ]


class TestReplayValidation:
    def test_replay_rejects_corrupt_round(self):
        g = G.path(3)
        cfg = GameConfig.classic(k=3)
        s = random_playout(g, cfg, seed=3)
        bad = MoveLog(s.log)
        first = bad[0]
        bad[0] = type(first)(first.round + 5, first.player, first.edge, first.color, first.skip, first.ann)
        with pytest.raises(IllegalMove):
            replay(g, cfg, bad)

    @pytest.mark.parametrize("edge, color", [(0, 1), (0, None), (None, 1)])
    def test_end_of_turn_with_a_coloring_rejected(self, edge, color):
        s = new_game(G.cycle(5), GameConfig.skip_variant(k=3))
        with pytest.raises(IllegalMove, match="^end-of-turn record carries an edge or a color$"):
            apply_record(s, MoveRecord(1, BREAKER, edge, color, True))
        assert s.turn == BREAKER and not s.trail and not s.log

    def test_replay_rejects_wrong_player(self):
        g = G.path(4)
        cfg = GameConfig.skip_variant(k=3)
        s = new_game(g, cfg)
        s.end_breaker_turn()
        s.apply_move(MAKER, 0, 1)
        log = s.log.copy()
        rec = log[-1]
        log[-1] = type(rec)(rec.round, BREAKER, rec.edge, rec.color, rec.skip, rec.ann)
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
            saved.append((snapshot(s), list(s.log) if keep_log else None))
            mv = data.draw(st.sampled_from(legal_transitions(s)))
            if mv is None:
                s.end_breaker_turn()
            else:
                s.apply_move(s.turn, *mv)
        if keep_log:
            assert snapshot(replay(g, cfg, s.log)) == snapshot(s)
        else:
            assert s.log is None
        for snap, log in reversed(saved):
            s.undo()
            assert snapshot(s) == snap
            assert (list(s.log) if keep_log else s.log) == log
            assert_tables_consistent(s)
        assert s.trail == []
        assert snapshot(s) == snapshot(new_game(g, cfg))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_each_transition_pushes_one_fresh_entry(self, data):
        """The trail contract that incremental strategy state relies on:
        each transition, checked or not, pushes one new tuple whose first
        field is the colored edge (None for an end of turn); undo pops one."""
        g = data.draw(st.sampled_from(FUZZ_GRAPHS), label="graph")
        variant = data.draw(st.sampled_from([GameConfig.skip_variant, GameConfig.classic]))
        cfg = variant(
            k=data.draw(st.integers(2, 5), label="k"),
            b=data.draw(st.integers(1, 3), label="b"),
            mode=data.draw(st.sampled_from([STRICT, MODIFIED]), label="mode"),
        )
        s = GameState(g, cfg, log=data.draw(st.booleans(), label="keep_log"))
        pushed = []  # every entry ever pushed, alive, so none can come back
        for _ in range(60):
            if s.game_over():
                break
            before = list(s.trail)
            if before and data.draw(st.integers(0, 3), label="undo") == 0:
                s.undo()
                assert len(s.trail) == len(before) - 1
                assert all(a is b for a, b in zip(s.trail, before))
                continue
            mv = data.draw(st.sampled_from(legal_transitions(s)), label="move")
            checked = data.draw(st.booleans(), label="checked")
            if mv is None:
                s.end_breaker_turn() if checked else s._close_turn()
            elif checked:
                s.apply_move(s.turn, *mv)
            else:
                s._commit(*mv)
            assert len(s.trail) == len(before) + 1
            assert all(a is b for a, b in zip(s.trail, before))
            top = s.trail[-1]
            assert type(top) is tuple
            assert top[0] == (None if mv is None else mv[0])
            assert all(top is not old for old in pushed)
            pushed.append(top)
