"""Exact solver tests.

The reference oracle here is a deliberately dumb full-enumeration minimax
over engine states: every legal move, every color, no symmetry reduction,
no ordering, no table.  The solver (with and without memoization) must
agree with it on every small instance.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamelab.engine import (
    BREAKER,
    BREAKER_WON,
    MAKER,
    MAKER_WON,
    ONGOING,
    GameConfig,
    GameState,
    new_game,
    replay,
)
from gamelab.exact import (
    ChiIndexResult,
    _canonical_key,
    game_chromatic_index,
    solve,
    verify_strategy,
)
from gamelab.breaker import BoxReductionBreaker, SkipBreaker
from gamelab.maker import DangerRedirectMaker, GreedyMaker, UniformRandomMaker
from gamelab.graph import Graph, complete, complete_bipartite, cycle, generate, gnp, path, star
from gamelab._util import BudgetExceeded

SKIP = GameConfig.skip_variant
CLASSIC = GameConfig.classic


def oracle_value(g: Graph, cfg: GameConfig) -> str:
    """Full-enumeration minimax: no memo, no symmetry, no move ordering."""

    def rec(state) -> bool:
        w = state.winner()
        if w != ONGOING:
            return w == MAKER_WON
        if state.turn == MAKER:
            for e in range(g.m):
                if state.color[e]:
                    continue
                for c in sorted(state.available_colors(e)):
                    child = state.clone()
                    child.apply_move(MAKER, e, c)
                    if rec(child):
                        return True
            return False
        for e in range(g.m):
            if state.color[e]:
                continue
            for c in sorted(state.available_colors(e)):
                child = state.clone()
                child.apply_move(BREAKER, e, c)
                if child.breaker_moves_this_turn == cfg.b and not child.game_over():
                    child.end_breaker_turn()
                if not rec(child):
                    return False
        if (
            state.breaker_moves_this_turn >= 1
            or cfg.breaker_may_skip
            or not state.breaker_has_legal_move()
        ):
            child = state.clone()
            child.end_breaker_turn()
            if not rec(child):
                return False
        return True

    return MAKER if rec(new_game(g, cfg)) else BREAKER


ORACLE_CASES = [
    (path(3), 1, 1),
    (path(3), 2, 1),
    (path(4), 2, 1),
    (path(4), 3, 1),
    (path(4), 2, 2),
    (cycle(3), 2, 1),
    (cycle(3), 3, 1),
    (cycle(4), 2, 1),
    (cycle(4), 3, 1),
    (cycle(4), 3, 2),
    (star(3), 3, 1),
    (star(3), 4, 1),
    (star(3), 2, 2),
]


class TestOracleAgreement:
    @pytest.mark.parametrize("g,k,b", ORACLE_CASES)
    @pytest.mark.parametrize("make_cfg", [SKIP, CLASSIC])
    def test_matches_plain_enumeration(self, g, k, b, make_cfg):
        cfg = make_cfg(k=1, b=b)
        expect = oracle_value(g, GameConfig(k=k, b=b, first_player=cfg.first_player, breaker_may_skip=cfg.breaker_may_skip))
        assert solve(g, k, cfg).winner == expect
        assert solve(g, k, cfg, memoize=False).winner == expect

    @pytest.mark.parametrize("make_cfg", [SKIP, CLASSIC])
    def test_memoized_equals_unmemoized_wide(self, make_cfg):
        for g in (path(5), cycle(5), star(4), complete(4)):
            delta = g.max_degree
            for k in range(delta, 2 * delta):
                cfg = make_cfg(k=1)
                a = solve(g, k, cfg).winner
                b = solve(g, k, cfg, memoize=False).winner
                assert a == b, (g, k)


class TestPinnedValues:
    @pytest.mark.parametrize("make_cfg", [SKIP, CLASSIC])
    def test_small_stars_need_n_colors(self, make_cfg):
        for n in (2, 3, 4):
            res = game_chromatic_index(star(n), 1, make_cfg(k=1))
            assert res.value == n
            assert not res.partial

    @pytest.mark.parametrize("make_cfg", [SKIP, CLASSIC])
    def test_claw_with_three_colors_is_maker_win(self, make_cfg):
        assert solve(star(3), 3, make_cfg(k=1)).winner == MAKER

    def test_five_cycle_two_vs_three_colors(self):
        assert solve(cycle(5), 2, SKIP(k=1)).winner == BREAKER
        assert solve(cycle(5), 3, SKIP(k=1)).winner == MAKER

    def test_ten_cycle_bias_three_two_colors(self):
        assert solve(cycle(10), 2, SKIP(k=1, b=3)).winner == BREAKER

    def test_k4_needs_full_trivial_range(self):
        res = game_chromatic_index(complete(4), 1, SKIP(k=1))
        assert res.winners == {3: BREAKER_WON, 4: BREAKER_WON, 5: MAKER_WON}
        assert res.value == 5

    def test_modified_mode_rejected(self):
        cfg = GameConfig.skip_variant(k=2, mode="modified")
        with pytest.raises(ValueError):
            solve(path(3), 2, cfg)


def _random_prefix(g: Graph, cfg: GameConfig, seed: int) -> list[tuple]:
    """A random legal move-sequence prefix, as (player, edge, color) items.

    Breaker turn boundaries are encoded as (BREAKER, None, None).
    """
    rng = random.Random(seed)
    s = new_game(g, cfg)
    seq: list[tuple] = []
    plies = rng.randrange(0, 2 * g.m)
    while plies and not s.game_over():
        plies -= 1
        if s.turn == MAKER:
            moves = [
                (e, c)
                for e in range(g.m)
                if s.color[e] == 0
                for c in s.available_colors(e)
            ]
            e, c = rng.choice(moves)
            s.apply_move(MAKER, e, c)
            seq.append((MAKER, e, c))
            continue
        moves = [
            (e, c)
            for e in range(g.m)
            if s.color[e] == 0
            for c in s.available_colors(e)
        ]
        may_end = (
            s.breaker_moves_this_turn >= 1
            or cfg.breaker_may_skip
            or not moves
        )
        if s.breaker_moves_this_turn == cfg.b or not moves or (may_end and rng.random() < 0.4):
            s.end_breaker_turn()
            seq.append((BREAKER, None, None))
        else:
            e, c = rng.choice(moves)
            s.apply_move(BREAKER, e, c)
            seq.append((BREAKER, e, c))
    return seq


def _replay_prefix(g: Graph, cfg: GameConfig, seq, perm: dict[int, int]):
    s = new_game(g, cfg)
    for player, e, c in seq:
        if e is None:
            s.end_breaker_turn()
        else:
            s.apply_move(player, e, perm[c])
    return s


class TestCanonicalKey:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_palette_permutation_collapses(self, seed):
        """Recoloring a whole line under a palette bijection keeps the key."""
        rng = random.Random(seed)
        g = rng.choice([path(4), cycle(4), cycle(5), star(4)])
        k = rng.randrange(g.max_degree, 2 * g.max_degree)
        cfg = GameConfig.skip_variant(k=k, b=rng.choice([1, 2]))
        seq = _random_prefix(g, cfg, seed)
        colors = list(range(1, k + 1))
        shuffled = colors[:]
        rng.shuffle(shuffled)
        perm = dict(zip(colors, shuffled))
        ident = {c: c for c in colors}
        s1 = _replay_prefix(g, cfg, seq, ident)
        s2 = _replay_prefix(g, cfg, seq, perm)
        assert _canonical_key(s1) == _canonical_key(s2)

    def test_phase_distinguishes_turn_and_spent_moves(self):
        g = path(4)
        cfg = GameConfig.skip_variant(k=3, b=2)
        s = new_game(g, cfg)
        k0 = _canonical_key(s)
        s.apply_move(BREAKER, 0, 1)
        k1 = _canonical_key(s)
        s.end_breaker_turn()
        k2 = _canonical_key(s)
        assert k0 != k1 and k1 != k2
        assert k1[3] == 1 and k2[3] == 0

    def test_key_is_coloring_orbit(self):
        g = path(4)
        cfg = GameConfig.skip_variant(k=3)
        a = new_game(g, cfg)
        a.apply_move(BREAKER, 0, 2)
        b = new_game(g, cfg)
        b.apply_move(BREAKER, 0, 3)
        c = new_game(g, cfg)
        c.apply_move(BREAKER, 1, 1)
        assert _canonical_key(a) == _canonical_key(b)
        assert _canonical_key(a) != _canonical_key(c)


class TestChiIndex:
    def test_odd_cycle_seven(self):
        res = game_chromatic_index(cycle(7), 1, SKIP(k=1))
        assert res.value == 3
        assert res.winners[2] == BREAKER_WON
        assert res.winners[3] == MAKER_WON

    @pytest.mark.parametrize("make_cfg", [SKIP, CLASSIC])
    def test_path_map_cross_checked_without_table(self, make_cfg):
        g = path(4)
        with_table = game_chromatic_index(g, 1, make_cfg(k=1))
        without = game_chromatic_index(g, 1, make_cfg(k=1), memoize=False)
        assert with_table.value == without.value
        assert with_table.winners == without.winners

    def test_map_covers_whole_trivial_range(self):
        res = game_chromatic_index(cycle(6), 1, SKIP(k=1))
        assert sorted(res.winners) == [2, 3]
        assert res.winners[3] == MAKER_WON

    def test_edgeless_graph(self):
        res = game_chromatic_index(Graph(3, []), 1, SKIP(k=1))
        assert res.value == 0 and res.winners == {} and not res.partial

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_top_of_range_is_always_maker(self, seed):
        g = gnp(5, 0.5, seed)
        if g.m == 0:
            return
        k = 2 * g.max_degree - 1
        assert solve(g, k, SKIP(k=1)).winner == MAKER

    def test_partial_map_on_tiny_budget(self):
        res = game_chromatic_index(cycle(5), 1, SKIP(k=1), budget=5)
        assert res.partial
        assert res.value is None
        assert res.winners == {}


class TestBudget:
    def test_solve_budget_exceeded(self):
        with pytest.raises(BudgetExceeded) as ei:
            solve(cycle(7), 3, SKIP(k=1), budget=50)
        assert ei.value.nodes > 50

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="^solve budget must be non-negative, got -1$"):
            solve(cycle(5), 3, SKIP(k=1), budget=-1)
        with pytest.raises(ValueError, match="^verify_strategy budget must be non-negative"):
            verify_strategy(cycle(5), 3, SKIP(k=1), SkipBreaker(), BREAKER, budget=-1)

    def test_verify_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            verify_strategy(
                cycle(5), 3, SKIP(k=1), SkipBreaker(), BREAKER, budget=3
            )


class TestVerifyStrategy:
    def test_box_breaker_sound_on_ten_cycle(self):
        res = verify_strategy(
            cycle(10), 2, SKIP(k=1, b=3), BoxReductionBreaker(), BREAKER
        )
        assert res.sound and res.counterexample is None

    def test_box_breaker_sound_even_when_maker_opens(self):
        res = verify_strategy(
            cycle(10), 2, CLASSIC(k=1, b=3), BoxReductionBreaker(), BREAKER
        )
        assert res.sound

    def test_box_breaker_binds_once_per_verification(self, monkeypatch):
        # the box Breaker is its own clone, so every branch shares one binding
        import gamelab.breaker

        calls = []
        find_good_set = gamelab.breaker.find_good_set

        def counted(g):
            calls.append(g)
            return find_good_set(g)

        monkeypatch.setattr(gamelab.breaker, "find_good_set", counted)
        res = verify_strategy(
            complete_bipartite(5, 5), 4, CLASSIC(k=1, b=2), BoxReductionBreaker(), BREAKER
        )
        assert res.sound
        assert len(calls) == 1

    def test_skip_breaker_vacuously_sound_where_no_full_coloring_exists(self):
        # C5 has no proper 2-edge-coloring at all, so even a breaker who
        # never moves wins every line: Maker runs out of proper moves.
        res = verify_strategy(cycle(5), 2, SKIP(k=1), SkipBreaker(), BREAKER)
        assert res.sound

    @pytest.mark.parametrize(
        "g,k", [(cycle(4), 2), (cycle(5), 3)], ids=["C4-k2", "C5-k3"]
    )
    def test_skip_breaker_loses_where_maker_can_finish(self, g, k):
        res = verify_strategy(g, k, SKIP(k=1), SkipBreaker(), BREAKER)
        assert not res.sound
        end = replay(g, GameConfig.skip_variant(k=k), res.counterexample)
        assert end.winner() == MAKER_WON

    def test_random_maker_has_counterexample_in_breaker_win_position(self):
        assert solve(cycle(5), 2, SKIP(k=1)).winner == BREAKER
        res = verify_strategy(
            cycle(5), 2, SKIP(k=1), UniformRandomMaker(seed=11), MAKER
        )
        assert not res.sound
        end = replay(cycle(5), GameConfig.skip_variant(k=2), res.counterexample)
        assert end.winner() == BREAKER_WON

    @pytest.mark.parametrize(
        "strategy", [GreedyMaker(), DangerRedirectMaker(seed=5)], ids=["greedy", "paper"]
    )
    def test_makers_sound_where_blocking_is_impossible(self, strategy):
        # On K_{1,4} with k=4 at most three colors surround the center
        # while an uncolored edge remains, so no maker can ever be blocked.
        res = verify_strategy(star(4), 4, SKIP(k=1), strategy, MAKER)
        assert res.sound

    def test_caller_strategy_not_mutated(self):
        strat = UniformRandomMaker(seed=3)
        first = verify_strategy(cycle(4), 2, SKIP(k=1), strat, MAKER)
        second = verify_strategy(cycle(4), 2, SKIP(k=1), strat, MAKER)
        assert first.sound == second.sound
        if first.counterexample is not None:
            assert first.counterexample == second.counterexample

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            verify_strategy(cycle(4), 2, SKIP(k=1), SkipBreaker(), "referee")

    def test_modified_mode_rejected(self):
        cfg = GameConfig.skip_variant(k=2, mode="modified")
        with pytest.raises(ValueError):
            verify_strategy(cycle(4), 2, cfg, SkipBreaker(), BREAKER)


class TestMakeUnmake:
    """The solver and the verifier play and take back moves on one state."""

    @pytest.fixture
    def no_clone(self, monkeypatch):
        def refuse(state):
            raise AssertionError("GameState.clone called during a search")

        monkeypatch.setattr(GameState, "clone", refuse)

    def test_solver_never_clones(self, no_clone):
        assert game_chromatic_index(cycle(7), 1, SKIP(k=1)).value == 3
        assert game_chromatic_index(complete_bipartite(3, 3), 1, SKIP(k=1)).value == 4

    def test_verifier_never_clones(self, no_clone):
        res = verify_strategy(cycle(8), 3, SKIP(k=3), DangerRedirectMaker(seed=0), MAKER)
        assert res.sound
        g = generate("random_regular:16:4:3")
        cfg = CLASSIC(k=4, b=2)
        res = verify_strategy(g, 4, cfg, BoxReductionBreaker(), BREAKER)
        assert not res.sound
        assert replay(g, cfg, res.counterexample).winner() == MAKER_WON

    @pytest.mark.parametrize(
        "spec, variant, nodes",
        [
            ("cycle:11", SKIP, 133_933),
            ("complete:5", SKIP, 68_314),
            ("complete_bipartite:3:3", SKIP, 28_494),
            ("cycle:11", CLASSIC, 26_930),
        ],
        ids=["C11-skip", "K5", "K33", "C11-classic"],
    )
    def test_ladder_node_counts(self, spec, variant, nodes):
        # the search order is unchanged, so each rung searches the same tree
        assert game_chromatic_index(generate(spec), 1, variant(k=1)).nodes == nodes
