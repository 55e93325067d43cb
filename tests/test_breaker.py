"""Breaker policies: box-game reduction, greedy blocker, baselines."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamelab import graph as G
from gamelab._util import StrategyError
from gamelab.breaker import (
    BoxReductionBreaker,
    GreedyBlockingBreaker,
    SkipBreaker,
    UniformRandomBreaker,
)
from gamelab.engine import (
    BREAKER,
    BREAKER_WON,
    MAKER,
    MAKER_WON,
    MODIFIED,
    STRICT,
    GameConfig,
    GameState,
    new_game,
)
from gamelab.goodset import find_good_set
from gamelab.maker import GreedyMaker, UniformRandomMaker
from gamelab.match import ExperimentSpec, run_match
from helpers import edge_distance


def map_edge_to_box(g: G.Graph, F, e: int) -> int:
    """Oracle for ``box_of_edge``: index of the member of F nearest to
    edge e (lowest index on ties), one BFS per member."""
    best, best_d = -1, None
    for j, f in enumerate(F):
        d = edge_distance(g, f, e)
        if best_d is None or d < best_d:
            best, best_d = j, d
    return best


def greedy_oracle(s: GameState) -> tuple[tuple[int, int, None] | None, str | None]:
    """Oracle for ``GreedyBlockingBreaker.micro_move``: the full scan over
    every uncolored edge and its whole neighbourhood.  Returns the move and
    the case that chose it: "reduce", "preserve", or "unique" when the lowest
    legal edge is the unique minimum edge (None without a move)."""
    g = s.g
    uncolored = [e for e in range(g.m) if s.color[e] == 0]
    if not uncolored:
        return None, None
    avail = {e: s.avail_mask(e) for e in uncolored}
    counts = {e: avail[e].bit_count() for e in uncolored}
    m = min(counts.values())
    min_edges = [e for e in uncolored if counts[e] == m]
    # phase one: reduce the minimum
    min_set = set(min_edges)
    for e in uncolored:
        if avail[e] == 0:
            continue
        mask = 0
        x, y = g.edges[e]
        for f in g.incident[x] + g.incident[y]:
            if f != e and s.color[f] == 0 and f in min_set:
                mask |= avail[f]
        hit = avail[e] & mask
        if hit:
            return (e, (hit & -hit).bit_length(), None), "reduce"
    # phase two: preserve the minimum
    legal = [e for e in uncolored if avail[e]]
    if not legal:
        return None, None
    e0 = legal[0]
    if e0 not in min_set or len(min_edges) > 1:
        return (e0, (avail[e0] & -avail[e0]).bit_length(), None), "preserve"
    x, y = g.edges[e0]
    mask = 0
    for f in g.incident[x] + g.incident[y]:
        if f != e0 and s.color[f] == 0 and counts[f] == m + 1:
            mask |= avail[f]
    hit = avail[e0] & mask
    if hit:
        return (e0, (hit & -hit).bit_length(), None), "unique"
    e = legal[1] if len(legal) > 1 else e0
    return (e, (avail[e] & -avail[e]).bit_length(), None), "unique"


def random_transition(s: GameState, rng: random.Random) -> None:
    """Play one random legal transition; Maker is forced onto a random
    color of a random edge in a quarter of his modified-mode moves."""
    uncolored = [e for e in range(s.g.m) if s.color[e] == 0]
    if s.turn == MAKER:
        if s.cfg.mode == MODIFIED and rng.random() < 0.25:
            s.apply_move(MAKER, rng.choice(uncolored), rng.randint(1, s.cfg.k))
            return
        pairs = [(e, c) for e in uncolored for c in sorted(s.available_colors(e))]
        if pairs:
            s.apply_move(MAKER, *rng.choice(pairs))
        else:
            s.apply_move(MAKER, uncolored[0], 1)  # modified mode only
        return
    pairs = []
    if s.breaker_moves_this_turn < s.cfg.b:
        pairs = [(e, c) for e in uncolored for c in sorted(s.available_colors(e))]
    if pairs and (rng.random() < 0.7 or not s.may_end_breaker_turn()):
        s.apply_move(BREAKER, *rng.choice(pairs))
    else:
        s.end_breaker_turn()


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

    def test_nearest_mapping_totality(self):
        g = G.cycle(25)
        cert = find_good_set(g)
        assert len(cert.nearest) == g.m
        for e in range(g.m):
            assert cert.nearest[e] == map_edge_to_box(g, cert.edges, e)

    def test_gamma_disjoint_and_sized(self):
        g = G.cycle(25)
        seen: set[int] = set()
        for gam in find_good_set(g).gamma:
            assert len(gam) == 2 * g.max_degree - 2
            assert not (set(gam) & seen)
            seen |= set(gam)

    @given(
        st.lists(
            st.one_of(
                st.integers(3, 14).map(G.cycle),
                st.integers(2, 14).map(G.path),
                st.builds(
                    G.gnp, st.integers(4, 12), st.sampled_from([0.2, 0.4]), st.integers(0, 2**16)
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_certificate_matches_oracles(self, parts):
        # a disjoint union, so members and edges may lie in different components
        edges, n = [], 0
        for h in parts:
            edges += [(u + n, v + n) for u, v in h.edges]
            n += h.n
        g = G.Graph(n, edges)
        cert = find_good_set(g)
        F = cert.edges
        if not F:
            assert cert.nearest == cert.gamma == ()
            return
        assert cert.nearest == tuple(map_edge_to_box(g, F, e) for e in range(g.m))
        assert cert.gamma == tuple(
            tuple(e for e in range(g.m) if e != f and set(g.edges[e]) & set(g.edges[f])) for f in F
        )

    @pytest.mark.parametrize("spec", ["star:5", "gnp:30:0.2:3"])
    def test_empty_good_set_rejected(self, spec):
        # graphs with edges but no good set; the second Breaker reads the
        # certificate the first one left on the graph
        g = G.generate(spec)
        assert g.m > 0 and not find_good_set(g).edges
        for br in (BoxReductionBreaker(), BoxReductionBreaker()):
            s = new_game(g, GameConfig.skip_variant(k=5, b=2))
            with pytest.raises(StrategyError, match="non-empty good set"):
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
            nearest = find_good_set(g).nearest
            for rec in s.log:
                if rec.player == MAKER and rec.edge is not None:
                    assert nearest[rec.edge] != killed

    def test_freshness_invariant_from_logs(self):
        g = G.cycle(25)
        cert = find_good_set(g)
        F = cert.edges
        gamma_of = {e: i for i, gam in enumerate(cert.gamma) for e in gam}
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
                    touched[cert.nearest[rec.edge]] = True
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
                    snap = br.snapshot(s)
                    for i in range(len(F)):
                        if not snap.touched[i]:
                            assert snap.remaining[i] == cfg.k - claims[i]

    def test_auto_goodset_binding(self):
        g = G.cycle(10)
        br = BoxReductionBreaker()
        s = play(g, GameConfig.skip_variant(k=2, b=3), UniformRandomMaker(seed=2), br)
        assert s.winner() == BREAKER_WON
        assert br.cert is not None and br.cert.edges == (0, 5)

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
        assert len(br.cert.edges) == 5
        assert len(calls) == 5

    def test_match_runs_one_bfs_per_member(self, monkeypatch):
        # every trial builds its own Breaker, and each reads the one
        # certificate kept on the match's graph
        calls = []
        bfs = G.Graph.vertex_distances

        def counted(self, sources):
            calls.append(sources)
            return bfs(self, sources)

        monkeypatch.setattr(G.Graph, "vertex_distances", counted)
        spec = ExperimentSpec(
            graph="cycle:25", maker="random", breaker="box", k=2, b=2, trials=50, seed=1
        )
        assert run_match(spec).breaker_wins == 50
        assert len(calls) == 5


class TestBinding:
    @pytest.mark.parametrize(
        "g, cfg",
        [
            (G.path(26), GameConfig.skip_variant(k=2, b=2)),
            (G.complete(6), GameConfig.classic(k=7, b=2)),
        ],
        ids=["path:26", "complete:6"],
    )
    def test_reused_instance_plays_another_graph_as_a_fresh_one(self, g, cfg):
        br = BoxReductionBreaker()
        play(G.cycle(25), GameConfig.skip_variant(k=2, b=2), GreedyMaker(), br)
        reused = play(g, cfg, UniformRandomMaker(seed=4), br)
        fresh = play(g, cfg, UniformRandomMaker(seed=4), BoxReductionBreaker())
        assert reused.log == fresh.log

    def test_rebinds_on_another_bias(self):
        g = G.cycle(10)
        br = BoxReductionBreaker()
        br.micro_move(new_game(g, GameConfig.skip_variant(k=2, b=2)))
        br.micro_move(new_game(g, GameConfig.skip_variant(k=2, b=3)))
        assert br.b == 3


class TestReductionBreak:
    """A claim on a box whose edges around f_i are all colored cannot be
    realized: the move falls back and the log records a reduction break.
    On C_10 the good set is F = (0, 5), with edges 1, 9 around f_0 and
    4, 6 around f_1."""

    def test_skip_variant_falls_back_to_an_edge_around_F(self):
        g = G.cycle(10)
        s = new_game(g, GameConfig.skip_variant(k=2, b=3))
        s.apply_move(BREAKER, 6, 2)
        s.apply_move(BREAKER, 4, 2)
        # box 1 is untouched with one color left and one claim left this
        # turn, so Bob claims it; the lowest legal edge around F is edge 1
        assert BoxReductionBreaker().micro_move(s) == (
            1, 1, {"reduction_break": True, "box": 1}
        )

    def test_classic_falls_back_to_the_lowest_legal_move_on_the_board(self):
        g = G.cycle(10)
        s = new_game(g, GameConfig.classic(k=3, b=2))
        s.apply_move(MAKER, 1, 3)
        s.apply_move(BREAKER, 6, 3)
        s.apply_move(BREAKER, 4, 2)
        s.end_breaker_turn()
        s.apply_move(MAKER, 9, 3)
        # every edge around F is colored and Breaker may not sit out, so the
        # move is the lowest legal one anywhere: f_0 itself
        assert BoxReductionBreaker().micro_move(s) == (
            0, 1, {"reduction_break": True, "box": 1}
        )


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


# the engine tests' fuzz graphs
FUZZ_GRAPHS = [
    G.path(4),
    G.cycle(5),
    G.star(4),
    G.complete(4),
    G.complete_bipartite(2, 3),
]


def assert_kept_minimum(br: GreedyBlockingBreaker) -> None:
    """The greedy Breaker's kept minimum and minimum-edge set equal a scan
    of its counts."""
    low = min(br._count)
    assert br._min == low
    assert br._min_edges == {e for e, cnt in enumerate(br._count) if cnt == low}


class TestGreedyOracle:
    """The greedy Breaker looks only around the minimum edges; the oracle
    scans every uncolored edge.  They must make the same move."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_scan(self, data):
        g = data.draw(st.sampled_from(FUZZ_GRAPHS), label="graph")
        variant = data.draw(st.sampled_from([GameConfig.skip_variant, GameConfig.classic]))
        cfg = variant(
            k=data.draw(st.integers(1, 2 * g.max_degree + 1), label="k"),
            b=data.draw(st.integers(1, 3), label="b"),
            mode=data.draw(st.sampled_from([STRICT, MODIFIED]), label="mode"),
        )
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        br = GreedyBlockingBreaker()
        s = new_game(g, cfg)
        # the opening: every edge is a minimum edge
        assert br.micro_move(s) == greedy_oracle(s)[0]
        assert_kept_minimum(br)
        while not s.game_over():
            if s.turn == BREAKER and s.breaker_moves_this_turn < cfg.b:
                assert br.micro_move(s) == greedy_oracle(s)[0]
                assert_kept_minimum(br)
            random_transition(s, rng)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_scan_across_undo_and_states(self, data):
        """The verifier's access pattern: one instance serves two live
        states, one first cloned from the other, that play, take moves
        back and play on."""
        g = data.draw(st.sampled_from(FUZZ_GRAPHS), label="graph")
        variant = data.draw(st.sampled_from([GameConfig.skip_variant, GameConfig.classic]))
        cfg = variant(
            k=data.draw(st.integers(1, 2 * g.max_degree + 1), label="k"),
            b=data.draw(st.integers(1, 3), label="b"),
            mode=data.draw(st.sampled_from([STRICT, MODIFIED]), label="mode"),
        )
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        br = GreedyBlockingBreaker()

        def check(s: GameState) -> None:
            if not s.game_over() and s.turn == BREAKER and s.breaker_moves_this_turn < cfg.b:
                assert br.micro_move(s) == greedy_oracle(s)[0]
                assert_kept_minimum(br)

        first = new_game(g, cfg)
        for _ in range(data.draw(st.integers(0, g.m), label="shared opening")):
            if first.game_over():
                break
            random_transition(first, rng)
            check(first)
        # the clone shares the trail's entries but is another state
        states = (first, first.clone())
        steps = st.tuples(st.integers(0, 1), st.one_of(st.just(0), st.integers(1, 4)))
        for which, undos in data.draw(st.lists(steps, max_size=40), label="steps"):
            s = states[which]
            if undos:
                for _ in range(min(undos, len(s.trail))):
                    s.undo()
            elif not s.game_over():
                random_transition(s, rng)
            check(s)

    def test_opening_on_the_benchmark_graph(self):
        # at the skip variant's opening every edge holds the minimum, so
        # phase one walks the edges in order instead of gathering them
        g = G.generate("random_regular:64:16:1")
        s = new_game(g, GameConfig.skip_variant(k=32, mode=MODIFIED))
        br = GreedyBlockingBreaker()
        assert br.micro_move(s) == greedy_oracle(s)[0]
        assert len(br._min_edges) == s.uncolored == g.m
        assert_kept_minimum(br)
        mk = GreedyMaker()
        for _ in range(3):
            s.apply_move(BREAKER, *br.micro_move(s)[:2])
            s.end_breaker_turn()
            s.apply_move(MAKER, *mk.move(s)[:2])
            assert br.micro_move(s) == greedy_oracle(s)[0]
            assert_kept_minimum(br)

    def test_seeded_positions_reach_every_case(self):
        # the same comparison on seeded playouts, which must reach every case
        cases = {"reduce": 0, "preserve": 0, "unique": 0}
        br = GreedyBlockingBreaker()
        rng = random.Random(7)
        for g, variant, mode, b in itertools.product(
            FUZZ_GRAPHS, (GameConfig.skip_variant, GameConfig.classic), (STRICT, MODIFIED), (1, 2, 3)
        ):
            for k in range(1, 2 * g.max_degree + 2):
                s = new_game(g, variant(k=k, b=b, mode=mode))
                while not s.game_over():
                    if s.turn == BREAKER and s.breaker_moves_this_turn < b:
                        mv, case = greedy_oracle(s)
                        assert br.micro_move(s) == mv
                        if case:
                            cases[case] += 1
                    random_transition(s, rng)
        assert all(cases.values()), cases


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
