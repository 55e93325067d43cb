"""Maker policies: thresholds, danger sets, draw distribution, baselines."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamelab import graph as G
from gamelab._util import DrawTape, StrategyError
from gamelab.breaker import (
    BoxReductionBreaker,
    GreedyBlockingBreaker,
    SkipBreaker,
    UniformRandomBreaker,
)
from gamelab.engine import (
    BREAKER,
    MAKER,
    MODIFIED,
    STRICT,
    GameConfig,
    GameState,
)
from gamelab.maker import (
    DangerRedirectMaker,
    GreedyMaker,
    MakerConfig,
    MakerMemory,
    UniformRandomMaker,
    compute_danger_set,
    last_breaker_turn,
    record_crossings,
)


def run_breaker_turn_random(s: GameState, rng: random.Random) -> None:
    """Legal random Breaker turn: some colorings, then end."""
    while s.turn == BREAKER and not s.game_over():
        has_move = s.breaker_has_legal_move()
        must_end = s.breaker_moves_this_turn >= s.cfg.b or not has_move
        may_end = s.breaker_moves_this_turn >= 1 or s.cfg.variant == "skip" or not has_move
        if must_end or (may_end and rng.random() < 0.3):
            s.end_breaker_turn()
            return
        pairs = [
            (e, c)
            for e in range(s.g.m)
            if s.color[e] == 0
            for c in sorted(s.available_colors(e))
        ]
        e, c = pairs[rng.randrange(len(pairs))]
        s.apply_move(BREAKER, e, c)


def play_full_game(g: G.Graph, cfg: GameConfig, maker, seed: int) -> GameState:
    rng = random.Random(seed)
    s = GameState(g, cfg)
    while not s.game_over():
        if s.turn == MAKER:
            e, c, ann = maker.move(s)
            s.apply_move(MAKER, e, c, ann)
        else:
            run_breaker_turn_random(s, rng)
    return s


class TestMakerConfig:
    def test_defaults(self):
        cfg = MakerConfig()
        assert cfg.lam == Fraction(1, 10)
        assert cfg.c == Fraction(1, 1000)
        assert cfg.q == Fraction(3, 50)

    def test_validation(self):
        with pytest.raises(ValueError):
            MakerConfig(lam=Fraction(0))
        with pytest.raises(ValueError):
            MakerConfig(lam=Fraction(1, 10), c=Fraction(1, 50))  # c > lam/6
        with pytest.raises(ValueError):
            MakerConfig(lam=Fraction(1, 10), c=Fraction(0))

    def test_float_inputs_become_exact(self):
        cfg = MakerConfig(lam=0.1, c=0.001)
        assert cfg.lam == Fraction(1, 10) and cfg.c == Fraction(1, 1000)

    def test_thresholds(self):
        cfg = MakerConfig()
        assert cfg.threshold(1, 16, 1) == Fraction(8, 5)
        assert cfg.thresholds(16, 1) == (2, 4, 5)
        # integer-valued threshold: ceil must not overshoot
        assert cfg.thresholds(10, 1)[0] == 1
        assert cfg.threshold(1, 10, 1) == 1

    def test_threshold_order(self):
        cfg = MakerConfig()
        t = [cfg.threshold(j, 33, 2) for j in (1, 2, 3)]
        assert t[0] < t[1] < t[2]

    def test_default_palette(self):
        cfg = MakerConfig()
        assert cfg.default_palette(16, 1) == 31
        assert cfg.default_palette(1, 1) == 1  # clamped to Delta
        assert cfg.default_palette(2, 3) == 3
        with pytest.raises(ValueError):
            cfg.default_palette(0, 1)


class TestDangerSet:
    def make_state(self) -> tuple[GameState, MakerMemory]:
        # complete graph on 5 vertices, k = 6 = 2*Delta - 2, overlap cap 2
        g = G.complete(5)
        s = GameState(g, GameConfig.classic(k=6, b=3))
        s.apply_move(MAKER, g.index_of(0, 1), 1)
        s.apply_move(BREAKER, g.index_of(0, 2), 2)
        s.apply_move(BREAKER, g.index_of(1, 2), 3)
        s.end_breaker_turn()
        mem = MakerMemory(
            t1_round={0: 1, 1: 1, 3: 1, 4: 2},
            t2_round={0: 1},
        )
        return s, mem

    def test_conditions(self):
        s, mem = self.make_state()
        d = compute_danger_set(s, mem, 0)
        # Gamma'(0) = {3, 4}; both have deg 4 + 4 >= 6, no used colors yet,
        # and t1 rounds 1 and 2 vs t1(0) = 1 -> only vertex 3 qualifies
        assert d == frozenset({3})
        assert mem.danger[0] == d

    def test_uncrossed_neighbor_excluded(self):
        s, mem = self.make_state()
        del mem.t1_round[3]
        assert compute_danger_set(s, mem, 0) == frozenset()

    def test_tie_includes_both_ways(self):
        s, mem = self.make_state()
        mem.t2_round[1] = 1
        assert 3 in compute_danger_set(s, mem, 0)
        assert 3 in compute_danger_set(s, mem, 1)  # 3 in Gamma'(1), tie at t1

    def test_refreeze_rejected(self):
        s, mem = self.make_state()
        compute_danger_set(s, mem, 0)
        with pytest.raises(StrategyError):
            compute_danger_set(s, mem, 0)

    def test_before_crossing_rejected(self):
        s, mem = self.make_state()
        with pytest.raises(StrategyError):
            compute_danger_set(s, mem, 4)

    def test_degree_sum_condition(self):
        # star center: leaves have degree 1, so deg(u)+deg(v) = n+1-? < k fails
        g = G.star(4)
        s = GameState(g, GameConfig.classic(k=7, b=1))
        mem = MakerMemory(t1_round={0: 1, 1: 1, 2: 1, 3: 1, 4: 1}, t2_round={0: 1})
        assert compute_danger_set(s, mem, 0) == frozenset()  # 4 + 1 < 7

    def test_overlap_condition(self):
        # K6 with k = 8: overlap cap is 2, make vertices 0 and 5 share 3 colors
        g = G.complete(6)
        s = GameState(g, GameConfig.classic(k=8, b=5))
        s.apply_move(MAKER, g.index_of(0, 1), 1)
        for e, c in [((0, 2), 2), ((0, 3), 3), ((4, 5), 1), ((1, 5), 2), ((2, 5), 3)]:
            s.apply_move(BREAKER, g.index_of(*e), c)
        s.end_breaker_turn()
        mem = MakerMemory(t1_round={0: 1, 4: 1, 5: 1}, t2_round={0: 1})
        assert (s.umask[0] & s.umask[5]).bit_count() == 3
        d = compute_danger_set(s, mem, 0)
        assert 5 not in d  # shared colors exceed the cap
        assert 4 in d


class TestAnchorDistribution:
    def test_step1_frequencies(self):
        # fixed state: Breaker just colored edges 1 and 2; Maker's own f0 is 0
        g = G.star(6)
        cfg = GameConfig.skip_variant(k=11, b=2)
        s = GameState(g, cfg)
        s.apply_move(BREAKER, 1, 1)
        s.apply_move(BREAKER, 2, 2)
        s.end_breaker_turn()
        assert last_breaker_turn(s.log) == [1, 2]
        hits = {0: 0, 1: 0, 2: 0}
        trials = 10_000
        for i in range(trials):
            mk = DangerRedirectMaker(seed=i)
            mk.memory.f0 = 0
            _, _, ann = mk.move(s)
            hits[ann["f"]] += 1
        assert 0.48 <= hits[0] / trials <= 0.52
        assert 0.23 <= hits[1] / trials <= 0.27
        assert 0.23 <= hits[2] / trials <= 0.27

    def test_skipped_breaker_turn_uses_uncolored_anchor(self):
        g = G.path(5)
        s = GameState(g, GameConfig.skip_variant(k=5))
        s.end_breaker_turn()  # Breaker sits out round 1
        assert last_breaker_turn(s.log) == []
        for i in range(50):
            mk = DangerRedirectMaker(seed=i)
            e, c, ann = mk.move(s)
            assert s.color[e] == 0
            assert c in s.available_colors(e)


class TestRedirect:
    def make_state(self):
        # complete(5): after e(0,1)=1 by Maker and e(0,2)=2 by Breaker,
        # load(0) = 2 meets T2 = 2 for lam = 1/4, b = 1, Delta = 4
        g = G.complete(5)
        cfg = GameConfig.classic(k=6, b=1)
        s = GameState(g, cfg)
        s.apply_move(MAKER, g.index_of(0, 1), 1)
        s.apply_move(BREAKER, g.index_of(0, 2), 2)
        s.end_breaker_turn()
        return g, s

    def test_redirect_always_fires_at_q_one(self):
        g, s = self.make_state()
        mcfg = MakerConfig(lam=Fraction(1, 4), c=Fraction(1, 24))  # q = 1
        assert mcfg.q == 1
        danger = frozenset({3, 4})
        seen_v0 = 0
        for i in range(400):
            mk = DangerRedirectMaker(cfg=mcfg, seed=i)
            mk.memory = MakerMemory(
                f0=g.index_of(0, 1),
                t1_round={0: 1, 1: 1, 2: 1, 3: 1, 4: 1},
                t2_round={0: 1},
                danger={0: danger},
            )
            e, c, ann = mk.move(s)
            if ann["v"] == 0:
                seen_v0 += 1
                assert ann["redirected"]
                assert ann["u"] in danger
                assert g.edges[e] == (0, ann["u"])
            else:
                assert not ann["redirected"]
        assert seen_v0 >= 100

    def test_no_redirect_below_t2(self):
        g, s = self.make_state()
        # same state but T2 = 4 > load(0): redirect must never fire
        mcfg = MakerConfig(lam=Fraction(1, 2), c=Fraction(1, 12))  # q = 1, T2 = 4
        for i in range(200):
            mk = DangerRedirectMaker(cfg=mcfg, seed=i)
            mk.memory = MakerMemory(
                f0=g.index_of(0, 1),
                t1_round={0: 1, 1: 1, 2: 1, 3: 1, 4: 1},
                t2_round={0: 1},
                danger={0: frozenset({3, 4})},
            )
            _, _, ann = mk.move(s)
            assert not ann["redirected"]


def loads_per_round(g: G.Graph, log, upto: int) -> list[list[int]]:
    """loads[r][v] = load of v after round r, recomputed from the log."""
    out = [[0] * g.n]
    cur = [0] * g.n
    rnd = 1
    for rec in log:
        while rec.round > rnd:
            out.append(list(cur))
            rnd += 1
        if rec.edge is not None:
            u, v = g.edges[rec.edge]
            cur[u] += 1
            cur[v] += 1
    while len(out) <= upto:
        out.append(list(cur))
    return out


class TestCrossingBookkeeping:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_recorded_rounds_match_log(self, seed):
        g = G.complete(6)
        cfg = GameConfig.skip_variant(k=9, b=1)
        mcfg = MakerConfig(lam=Fraction(1, 5), c=Fraction(1, 30))
        mk = DangerRedirectMaker(cfg=mcfg, seed=seed)
        s = play_full_game(g, cfg, mk, seed=seed + 900)
        t1c, t2c, _ = mcfg.thresholds(g.max_degree, cfg.b)
        loads = loads_per_round(g, s.log, s.round)
        for v, r in mk.memory.t1_round.items():
            assert loads[r][v] >= t1c
            assert loads[r - 1][v] < t1c
        for v, r in mk.memory.t2_round.items():
            assert loads[r][v] >= t2c
            assert loads[r - 1][v] < t2c
            assert mk.memory.t1_round[v] <= r
            assert v in mk.memory.danger

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_danger_freeze_matches_recompute(self, seed):
        g = G.random_regular(10, 4, seed=5)
        cfg = GameConfig.skip_variant(k=7, b=1)
        mcfg = MakerConfig(lam=Fraction(2, 5), c=Fraction(1, 15))
        mk = DangerRedirectMaker(cfg=mcfg, seed=seed)
        s = play_full_game(g, cfg, mk, seed=seed + 77)
        # replay the log up to each vertex's T2 round and recompute D(v)
        from gamelab.engine import replay

        for v, r in mk.memory.t2_round.items():
            prefix = type(s.log)([rec for rec in s.log if rec.round <= r])
            part = replay(g, cfg, prefix)
            mem2 = MakerMemory(
                t1_round=dict(mk.memory.t1_round), t2_round=dict(mk.memory.t2_round)
            )
            expect = compute_danger_set(part, mem2, v)
            assert mk.memory.danger[v] == expect

    def test_redirect_targets_frozen_and_uncolored(self):
        g = G.complete(6)
        cfg = GameConfig.skip_variant(k=9, b=2)
        mcfg = MakerConfig(lam=Fraction(2, 5), c=Fraction(1, 15))
        redirected_seen = 0
        for seed in range(25):
            mk = DangerRedirectMaker(cfg=mcfg, seed=seed)
            s = play_full_game(g, cfg, mk, seed=seed + 5_000)
            for rec in s.log:
                if rec.player == MAKER and rec.ann and rec.ann.get("redirected"):
                    redirected_seen += 1
                    v, u = rec.ann["v"], rec.ann["u"]
                    assert u in mk.memory.danger[v]
        assert redirected_seen >= 1

    def test_forced_flag_in_modified_process(self):
        s = GameState(G.cycle(3), GameConfig.skip_variant(k=2, b=2, mode=MODIFIED))
        s.apply_move(BREAKER, 0, 1)
        s.apply_move(BREAKER, 1, 2)
        s.end_breaker_turn()
        mk = DangerRedirectMaker(seed=0)
        e, c, ann = mk.move(s)
        assert e == 2 and ann["forced_nonproper"] and 1 <= c <= 2
        s.apply_move(MAKER, e, c, ann)
        assert s.forced_count == 1

    def test_strict_mode_block_raises(self):
        s = GameState(G.cycle(3), GameConfig.skip_variant(k=2, b=2))
        s.apply_move(BREAKER, 0, 1)
        s.apply_move(BREAKER, 1, 2)
        assert s.game_over()  # strategies are never consulted after this


# the engine tests' fuzz graphs
FUZZ_GRAPHS = [
    G.path(4),
    G.cycle(5),
    G.star(4),
    G.complete(4),
    G.complete_bipartite(2, 3),
]


class TestTouchedCrossings:
    """The paper Maker reads only the loads that changed since its previous
    move; a shadow memory fed by the full scan must stay equal to its own."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_memory_equals_a_full_scan(self, data):
        g = data.draw(st.sampled_from(FUZZ_GRAPHS), label="graph")
        variant = data.draw(st.sampled_from([GameConfig.skip_variant, GameConfig.classic]))
        cfg = variant(
            k=data.draw(st.integers(1, 2 * g.max_degree + 1), label="k"),
            b=data.draw(st.integers(1, 3), label="b"),
            mode=data.draw(st.sampled_from([STRICT, MODIFIED]), label="mode"),
        )
        lams = [Fraction(1, 10), Fraction(1, 3), Fraction(4, 5)]
        lam = data.draw(st.sampled_from(lams), label="lam")
        mcfg = MakerConfig(lam=lam, c=lam / 6)
        thresholds = mcfg.thresholds(g.max_degree, cfg.b)
        seed = data.draw(st.integers(0, 2**32), label="seed")
        fork_at = data.draw(st.integers(0, g.m), label="fork at Maker move")

        def play_on(s, mk, shadow, rng, forks):
            moves = 0
            while not s.game_over():
                if s.turn != MAKER:
                    run_breaker_turn_random(s, rng)
                    continue
                e, c, ann = mk.move(s)
                record_crossings(s, shadow, thresholds, s.round - 1, range(g.n))
                for name in ("t1_round", "t2_round", "t3_round", "danger"):
                    assert getattr(mk.memory, name) == getattr(shadow, name), name
                s.apply_move(MAKER, e, c, ann)
                moves += 1
                if forks and moves == fork_at:
                    # the verifier's fork: a clone of the strategy plays
                    # another line on the same state, which is taken back
                    # before the original plays on
                    depth = len(s.trail)
                    play_on(s, mk.clone(), shadow.copy(), random.Random(seed + 1), False)
                    while len(s.trail) > depth:
                        s.undo()

        mk = DangerRedirectMaker(mcfg, seed=seed)
        play_on(GameState(g, cfg), mk, MakerMemory(), random.Random(seed), True)


class TestCloneDeterminism:
    def test_clone_continues_identically(self):
        g = G.complete(5)
        cfg = GameConfig.skip_variant(k=7, b=2)
        s = GameState(g, cfg)
        rng = random.Random(1)
        run_breaker_turn_random(s, rng)
        for cls, ask in (
            (DangerRedirectMaker, lambda p: p.move(s)),
            (UniformRandomMaker, lambda p: p.move(s)),
            (UniformRandomBreaker, lambda p: p.micro_move(s)),
        ):
            original, twin = cls(seed=99), cls(seed=99)
            assert ask(original) == ask(twin)
            dup = original.clone()
            assert dup is not original
            expected = ask(twin)
            assert ask(dup) == expected  # the clone continues the stream
            assert ask(original) == expected  # and leaves the original's alone

    def test_stateless_policies_are_their_own_clone(self):
        for policy in (GreedyMaker(), GreedyBlockingBreaker(), SkipBreaker(), BoxReductionBreaker()):
            assert policy.clone() is policy

    def test_same_seed_same_game(self):
        g = G.random_regular(8, 3, seed=2)
        cfg = GameConfig.skip_variant(k=5, b=1)
        s1 = play_full_game(g, cfg, DangerRedirectMaker(seed=7), seed=70)
        s2 = play_full_game(g, cfg, DangerRedirectMaker(seed=7), seed=70)
        assert s1.log == s2.log  # same moves, annotations included



class TestOneGamePerInstance:
    # a reused instance used to start its next game with the previous
    # game's anchor f0, crossing rounds and danger sets, and was accepted
    # on any graph with the same (Delta, b, k)
    @pytest.mark.parametrize("n", [8, 9], ids=["same graph", "same delta b k"])
    def test_second_game_rejected(self, n):
        g = G.cycle(8)
        cfg = GameConfig.skip_variant(k=3, mode=MODIFIED)
        maker = DangerRedirectMaker(seed=0)
        play_full_game(g, cfg, maker, seed=0)
        second = GameState(g if n == 8 else G.cycle(n), cfg)
        second.end_breaker_turn()
        with pytest.raises(StrategyError, match="may not switch games"):
            maker.move(second)

    def test_clones_share_the_game(self):
        g = G.cycle(8)
        s = GameState(g, GameConfig.skip_variant(k=3, mode=MODIFIED))
        s.end_breaker_turn()
        maker = DangerRedirectMaker(seed=0)
        e, c, ann = maker.move(s)
        s.apply_move(MAKER, e, c, ann)
        s.end_breaker_turn()
        dup = maker.clone()
        assert dup.move(s) == maker.move(s)
        other = GameState(g, s.cfg)
        other.end_breaker_turn()
        with pytest.raises(StrategyError, match="may not switch games"):
            dup.move(other)

TAPE_RANGES = (1, 2, 3, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 10**11)


def tape_draws(r, ops) -> list:
    """``random()`` for each None in ``ops``, else ``randrange(n)``."""
    return [r.random() if n is None else r.randrange(n) for n in ops]


class TestDrawTape:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.lists(st.none() | st.sampled_from(TAPE_RANGES), max_size=120),
    )
    def test_draws_equal_the_generators(self, seed, ops):
        assert tape_draws(DrawTape(seed), ops) == tape_draws(random.Random(seed), ops)

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_range_raises_like_the_generator(self, n):
        with pytest.raises(ValueError):
            random.Random(0).randrange(n)
        with pytest.raises(ValueError, match="empty range"):
            DrawTape(0).randrange(n)

    def test_fork_continues_the_stream_and_leaves_the_original_alone(self):
        ops = [None, 3, 2**40, None, 10**11, 1, 2**32 + 1, 2**31] * 4
        at_end = 0
        for prefix in range(140):
            tape, twin = DrawTape(prefix), random.Random(prefix)
            assert tape_draws(tape, [2**32 - 1] * prefix) == tape_draws(twin, [2**32 - 1] * prefix)
            # with every drawn word read, the fork is first to draw new ones
            at_end += tape.pos == len(tape._words)
            dup = tape.fork()
            expected = tape_draws(twin, ops)
            assert tape_draws(dup, ops) == expected
            assert tape_draws(tape, ops) == expected
        assert at_end >= 2


class TestBaselines:
    def test_uniform_random_is_uniform_over_pairs(self):
        g = G.star(2)
        s = GameState(g, GameConfig.classic(k=3))
        counts: dict[tuple[int, int], int] = {}
        trials = 6000
        for i in range(trials):
            mk = UniformRandomMaker(seed=i)
            e, c, _ = mk.move(s)
            counts[(e, c)] = counts.get((e, c), 0) + 1
        assert len(counts) == 6
        for n in counts.values():
            assert 0.12 <= n / trials <= 0.21

    def test_greedy_plays_min_availability(self):
        g = G.cycle(3)
        s = GameState(g, GameConfig.skip_variant(k=3, b=2))
        s.apply_move(BREAKER, 0, 1)
        s.apply_move(BREAKER, 1, 2)
        s.end_breaker_turn()
        e, c, _ = GreedyMaker().move(s)
        assert e == 2 and c == 3

    def test_greedy_prefers_tightest_edge(self):
        g = G.path(4)
        s = GameState(g, GameConfig.skip_variant(k=2, b=1))
        s.apply_move(BREAKER, 0, 1)
        s.end_breaker_turn()
        e, c, _ = GreedyMaker().move(s)
        assert e == 1 and c == 2  # middle edge has one option, end edge two

    def test_random_maker_seeded_deterministic(self):
        g = G.complete(4)
        s = GameState(g, GameConfig.classic(k=5))
        a = UniformRandomMaker(seed=5).move(s)
        b = UniformRandomMaker(seed=5).move(s)
        assert a == b
