"""Exact solver tests.

The reference oracle here is a deliberately dumb full-enumeration minimax
over engine states: every legal move, every color, no symmetry reduction,
no ordering, no table.  The solver (with and without memoization) must
agree with it on every small instance.  Two more oracles check the
transposition table: ``scratch_key`` rebuilds the solver's key from the
coloring and the automorphisms networkx finds, and ``plain_key_winner``
memoizes on the raw position, so it shares no key code with the solver.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from functools import reduce
from operator import or_

import networkx as nx
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
    IllegalMove,
    apply_record,
    new_game,
    replay,
    step,
)
from gamelab.exact import (
    ChiIndexResult,
    VerifyResult,
    _moves,
    _play,
    _Solver,
    _Verifier,
    game_chromatic_index,
    solve,
    verify_strategy,
)
from gamelab.breaker import (
    BoxReductionBreaker,
    GreedyBlockingBreaker,
    SkipBreaker,
    UniformRandomBreaker,
)
from gamelab.maker import DangerRedirectMaker, GreedyMaker, UniformRandomMaker
from gamelab.match import mixed_corpus
from gamelab.graph import (
    MAX_EDGE_AUTOMORPHISMS,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    generate,
    gnp,
    path,
    star,
)
from gamelab._util import BudgetExceeded
from helpers import nx_edge_automorphisms

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
            or cfg.variant == "skip"
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
        expect = oracle_value(g, GameConfig(k=k, b=b, variant=cfg.variant))
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
            or cfg.variant == "skip"
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


def scratch_key(state: GameState) -> int:
    """The solver's transposition key, rebuilt from ``state.color``.

    Each color's class is the bitmask of the edges that carry it.  Each
    edge automorphism of the graph (from networkx, not from
    ``Graph.edge_automorphisms``) gives a pair: the moved set of all
    colored edges, and the sorted classes of the moved coloring.  The
    classes of the least pair are packed in m-bit fields, and the turn
    phase is folded in last.  Only the colors on the board are listed: an
    empty class would sort first and add nothing.
    """
    m = state.g.m

    def moved(perm: tuple[int, ...]) -> tuple[int, list[int]]:
        classes: dict[int, int] = {}
        for e, c in enumerate(state.color):
            if c:
                classes[c] = classes.get(c, 0) | 1 << perm[e]
        return reduce(or_, classes.values(), 0), sorted(classes.values())

    key = 0
    for mask in min(map(moved, nx_edge_automorphisms(state.g)))[1]:
        key = key << m | mask
    return (key * state.cfg.b + state.breaker_moves_this_turn) * 2 + (
        state.turn == BREAKER
    )


def decode_key(key: int, b: int) -> tuple[int, int, bool]:
    """(packed classes, Breaker colorings this turn, Breaker to move)."""
    return key // (2 * b), key // 2 % b, bool(key % 2)


def coloring_orbit(state: GameState) -> frozenset:
    """The coloring up to a palette permutation: its set of color classes."""
    classes: dict[int, set[int]] = {}
    for e, c in enumerate(state.color):
        if c:
            classes.setdefault(c, set()).add(e)
    return frozenset(frozenset(edges) for edges in classes.values())


def symmetry_orbit(state: GameState) -> frozenset:
    """The coloring up to a palette permutation and a graph automorphism,
    by brute force: the coloring orbits of all its automorphic images."""
    return frozenset(
        frozenset(frozenset(perm[e] for e in edges) for edges in coloring_orbit(state))
        for perm in nx_edge_automorphisms(state.g)
    )


def recolored(state: GameState, perm: dict[int, int], edge_perm=None) -> GameState:
    """A position with ``state``'s phase and its coloring renamed by
    ``perm`` and, if given, moved by ``edge_perm``."""
    s = GameState(state.g, state.cfg, log=False)
    moved = edge_perm or range(state.g.m)
    for e, c in enumerate(state.color):
        s.color[moved[e]] = perm[c] if c else 0
    s.turn = state.turn
    s.breaker_moves_this_turn = state.breaker_moves_this_turn
    return s


def loaded_key(state: GameState) -> int:
    """The key of a fresh solver whose class lists are loaded from
    ``state``'s coloring."""
    solver = _Solver(state, True, None)
    solver.load(state)
    return solver.key(state)


KEY_GRAPHS = [path(4), cycle(4), cycle(5), star(4), complete(4), complete_bipartite(2, 3)]


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
        assert scratch_key(s1) == scratch_key(s2)

    def test_phase_distinguishes_turn_and_spent_moves(self):
        g = path(4)
        cfg = GameConfig.skip_variant(k=3, b=2)
        s = new_game(g, cfg)
        k0 = scratch_key(s)
        s.apply_move(BREAKER, 0, 1)
        k1 = scratch_key(s)
        s.end_breaker_turn()
        k2 = scratch_key(s)
        assert k0 != k1 and k1 != k2
        assert decode_key(k1, cfg.b)[1] == 1 and decode_key(k2, cfg.b)[1] == 0

    def test_key_is_coloring_orbit(self):
        g = path(4)
        cfg = GameConfig.skip_variant(k=3)
        a = new_game(g, cfg)
        a.apply_move(BREAKER, 0, 2)
        b = new_game(g, cfg)
        b.apply_move(BREAKER, 0, 3)
        c = new_game(g, cfg)
        c.apply_move(BREAKER, 1, 1)
        assert scratch_key(a) == scratch_key(b)
        assert scratch_key(a) != scratch_key(c)

    @given(
        g=st.sampled_from(KEY_GRAPHS),
        extra=st.integers(-2, 3),
        b=st.sampled_from([1, 2, 3]),
        classic=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=80, deadline=None)
    def test_incremental_key_matches_scratch_key(self, g, extra, b, classic, seed):
        """Random ``_play``/``undo`` lines, with the class lists and the
        union kept by the solver's own ``paint`` and restored the way the
        search restores them: after every step they equal a fresh
        ``load``, and the key equals the from-scratch key, is blind to
        palette renaming, and tells apart positions whose symmetry orbit
        or phase differs."""
        rng = random.Random(seed)
        k = max(1, g.m + extra)
        cfg = (CLASSIC if classic else SKIP)(k=k, b=b)
        state = GameState(g, cfg, log=False)
        solver = _Solver(state, True, None)
        solver.load(state)
        m = g.m

        seen: dict[int, tuple] = {}
        line: list[tuple[int, int | None, int, tuple | None]] = []
        for _ in range(6 * m):
            fresh = _Solver(state, True, None)
            fresh.load(state)
            assert (solver.classes, solver.union) == (fresh.classes, fresh.union)
            if not state.game_over():
                key = solver.key(state)
                assert key == scratch_key(state)
                decoded = decode_key(key, b)
                assert decoded[1:] == (state.breaker_moves_this_turn, state.turn == BREAKER)
                shuffled = rng.sample(range(1, k + 1), k)
                perm = dict(zip(range(1, k + 1), shuffled))
                assert scratch_key(recolored(state, perm)) == key
                # equal keys exactly when orbit and phase are equal
                pos = (symmetry_orbit(state), state.turn, state.breaker_moves_this_turn)
                for other_key, other_pos in seen.items():
                    assert (other_key == key) == (other_pos == pos)
                seen[key] = pos
            used = sum(1 << (c - 1) for c in set(state.color) if c)
            uncolored = [e for e in range(m) if state.color[e] == 0]
            moves = [] if state.game_over() else list(_moves(state, uncolored, used))
            if line and (not moves or rng.random() < 0.3):
                plies, e, c, old = line.pop()
                if e is not None:
                    solver.classes[c - 1], solver.union = old
                for _ in range(plies):
                    state.undo()
                continue
            if not moves:
                break
            e, bit = rng.choice(moves)
            plies = _play(state, e, bit)
            c = bit.bit_length()
            old = None if e is None else solver.paint(e, c - 1)
            line.append((plies, e, c, old))

    @given(
        g=st.sampled_from(KEY_GRAPHS + [cycle(7), complete_bipartite(3, 3)]),
        b=st.sampled_from([1, 2]),
        classic=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_key_is_the_symmetry_orbit(self, g, b, classic, seed):
        """The key of a loaded solver does not change under any graph
        automorphism times any palette permutation, and over positions
        reached by search lines two keys are equal exactly when the
        brute-force orbits (and phases) are."""
        rng = random.Random(seed)
        k = g.max_degree + rng.randrange(g.max_degree)
        cfg = (CLASSIC if classic else SKIP)(k=k, b=b)
        auts = sorted(nx_edge_automorphisms(g))
        by_key: dict[int, tuple] = {}
        for _ in range(12):
            state = search_line(g, cfg, rng)
            key = loaded_key(state)
            palette = dict(zip(range(1, k + 1), rng.sample(range(1, k + 1), k)))
            assert loaded_key(recolored(state, palette, rng.choice(auts))) == key
            pos = (symmetry_orbit(state), state.turn, state.breaker_moves_this_turn)
            assert by_key.setdefault(key, pos) == pos
        positions = list(by_key.values())
        assert len(set(positions)) == len(positions)

    @pytest.mark.parametrize(
        "spec, k, variant, b",
        [
            ("cycle:7", 3, SKIP, 1),
            ("complete:4", 4, CLASSIC, 2),
            ("complete_bipartite:3:3", 4, SKIP, 1),
            ("star:4", 9, SKIP, 3),
            ("path:6", 2, CLASSIC, 1),
        ],
    )
    def test_solver_looks_up_the_scratch_key(self, spec, k, variant, b):
        """Every table lookup of a whole solve uses the key rebuilt from
        the position the solver is at."""
        g = generate(spec)
        state = GameState(g, variant(k=k, b=b), log=False)
        solver = _Solver(state, True, None)
        lookups = 0

        class AuditedTable(dict):
            def get(self, key, default=None):
                nonlocal lookups
                assert key == scratch_key(state)
                lookups += 1
                return super().get(key, default)

        solver.table = AuditedTable()
        win = solver.maker_wins(state, 0)
        assert (MAKER if win else BREAKER) == solve(g, k, variant(k=1, b=b)).winner
        assert len(solver.table) <= lookups
        assert not any(state.color) and not state.trail
        if solver.budget.nodes == 1:
            # a root settled by a cut is never expanded, so the symmetries
            # are not loaded and nothing is looked up
            assert solver.classes is None and lookups == 0
        else:
            assert lookups > 0 and not any(map(any, solver.classes))

    def test_plain_search_and_verifier_build_no_symmetry(self):
        # memoize=False has no table to key, and a strategy need not be
        # equivariant, so neither path asks the graph for its automorphisms
        g = generate("complete_bipartite:3:3")
        state = GameState(g, SKIP(k=4), log=False)
        solver = _Solver(state, False, None)
        assert solver.maker_wins(state, 0) and solver.budget.nodes > 1
        assert verify_strategy(g, 4, SKIP(k=4), GreedyMaker(), MAKER).nodes > 1
        assert solver.classes is None and g._automorphisms is None
        solve(g, 4, SKIP(k=1))
        assert g._automorphisms is not None


CAPPED_CASES = [("complete_bipartite:4:4", 4), ("complete:6", 5)]


class TestCappedGroup:
    """Graphs whose group is larger than ``MAX_EDGE_AUTOMORPHISMS``: the
    solver keys on a subset of the group, which may merge fewer positions
    than the group would, but never two that are not automorphic."""

    @pytest.mark.parametrize("spec, k", CAPPED_CASES)
    def test_winner_matches_plain_search(self, spec, k):
        g = generate(spec)
        res = solve(g, k, SKIP(k=1))
        assert len(g.edge_automorphisms()) == MAX_EDGE_AUTOMORPHISMS
        assert len(nx_edge_automorphisms(g)) > MAX_EDGE_AUTOMORPHISMS
        assert res.winner == solve(g, k, SKIP(k=1), memoize=False).winner

    @pytest.mark.parametrize("variant, b", [(SKIP, 1), (CLASSIC, 2)])
    def test_equal_keys_are_automorphic(self, variant, b):
        """Over positions reached by search lines on K_6, equal keys mean
        equal brute-force orbits and phases, and some key stands for
        colorings that differ by more than a palette permutation."""
        g = generate("complete:6")
        rng = random.Random(0)
        by_key: dict[int, tuple] = {}
        colorings: dict[int, set] = {}
        for _ in range(60):
            state = search_line(g, variant(k=5, b=b), rng)
            key = loaded_key(state)
            pos = (symmetry_orbit(state), state.turn, state.breaker_moves_this_turn)
            assert by_key.setdefault(key, pos) == pos
            colorings.setdefault(key, set()).add(coloring_orbit(state))
        assert max(map(len, colorings.values())) > 1


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
        res = solve(g, k, SKIP(k=1))
        assert (res.winner, res.nodes) == (MAKER, 1)

    def test_partial_map_on_tiny_budget(self):
        # k = 2 takes 5 nodes, so a budget of 4 ends inside the first solve
        res = game_chromatic_index(cycle(5), 1, SKIP(k=1), budget=4)
        assert res.partial
        assert res.value is None
        assert res.winners == {}


def plain_key_winner(g: Graph, k: int, cfg: GameConfig) -> str:
    """Winner from the opening by ``plain_key_wins``."""
    state = GameState(g, replace(cfg, k=k), log=False)
    return MAKER_WON if plain_key_wins(state) else BREAKER_WON


def plain_key_wins(state: GameState) -> bool:
    """Whether Maker wins from ``state``, by a memoized minimax keyed on the
    raw position, ``(bytes(color), turn, breaker_moves_this_turn)``.

    It shares no key code with the solver and no move order either (edges
    in index order), plays through the checked ``apply_move``, and has no
    trivial-bound cuts.  Its one reduction is the fresh-color rule: of the
    colors not yet on the board only the lowest is tried.  ``state`` is
    left as it was found.
    """
    g, cfg = state.g, state.cfg
    palette = range(1, cfg.k + 1)
    table: dict[tuple, bool] = {}

    def rec() -> bool:
        w = state.winner()
        if w != ONGOING:
            return w == MAKER_WON
        key = (bytes(state.color), state.turn, state.breaker_moves_this_turn)
        hit = table.get(key)
        if hit is not None:
            return hit
        used = set(state.color)
        fresh = next((c for c in palette if c not in used), None)
        moves: list[tuple] = [
            (e, c)
            for e in range(g.m)
            if state.color[e] == 0
            for c in sorted(state.available_colors(e))
            if c in used or c == fresh
        ]
        maker = state.turn == MAKER
        if not maker and state.may_end_breaker_turn():
            moves.append((None, None))
        val = not maker
        for e, c in moves:
            if e is None:
                state.end_breaker_turn()
                plies = 1
            else:
                state.apply_move(state.turn, e, c)
                plies = 1
                if not maker and state.breaker_moves_this_turn == cfg.b and not state.game_over():
                    state.end_breaker_turn()
                    plies = 2
            won = rec()
            for _ in range(plies):
                state.undo()
            if won == maker:
                val = maker
                break
        table[key] = val
        return val

    return rec()


PLAIN_KEY_CASES = [(name, g, SKIP) for name, g in mixed_corpus() if g.m <= 10] + [
    ("complete_bipartite:3:3", complete_bipartite(3, 3), CLASSIC),
    ("cycle:11", cycle(11), CLASSIC),
    ("cycle:11", cycle(11), SKIP),
]


class TestPlainKeyOracle:
    @pytest.mark.parametrize(
        "name, g, variant",
        PLAIN_KEY_CASES,
        ids=[f"{name}-{variant.__name__}" for name, _, variant in PLAIN_KEY_CASES],
    )
    def test_winner_map_matches_plain_key(self, name, g, variant):
        # winners only: the plain key merges fewer positions, so it searches more
        res = game_chromatic_index(g, 1, variant(k=1))
        plain = {
            k: plain_key_winner(g, k, variant(k=1))
            for k in range(max(1, g.max_degree), 2 * g.max_degree)
        }
        assert not res.partial
        assert res.winners == plain

    @pytest.mark.parametrize("variant", [SKIP, CLASSIC])
    def test_five_vertex_census_matches_plain_key(self, variant):
        """Every connected graph on five vertices, b = 1.  Winner maps of
        small named graphs let an unsound symmetry cut through, so the
        census is the oracle's widest sweep."""
        for i, h in enumerate(nx.graph_atlas_g()):
            if h.number_of_nodes() != 5 or not nx.is_connected(h):
                continue
            g = Graph(5, h.edges())
            res = game_chromatic_index(g, 1, variant(k=1))
            plain = {
                k: plain_key_winner(g, k, variant(k=1))
                for k in range(g.max_degree, 2 * g.max_degree)
            }
            assert res.winners == plain, f"atlas {i}"


def search_line(g: Graph, cfg: GameConfig, rng: random.Random) -> GameState:
    """The position after a random line of search moves (``_moves`` and
    ``_play``, so a spent Breaker turn is closed) that stops short of the
    end of the game."""
    state = GameState(g, cfg, log=False)
    used = 0
    for _ in range(rng.randrange(g.m)):
        uncolored = [e for e in range(g.m) if state.color[e] == 0]
        e, bit = rng.choice(list(_moves(state, uncolored, used)))
        plies = _play(state, e, bit)
        if state.game_over():
            for _ in range(plies):
                state.undo()
            break
        used |= bit
    return state


def solve_from(state: GameState, memoize: bool) -> tuple[bool, int]:
    """(Maker wins, nodes) of ``_Solver`` started at ``state`` with the used
    colors of the position; the solver loads its class lists itself."""
    solver = _Solver(state, memoize, None)
    used = 0
    for c in state.color:
        if c:
            used |= 1 << (c - 1)
    return solver.maker_wins(state, used), solver.budget.nodes


CUT_GRAPHS = KEY_GRAPHS + [cycle(7), path(6)]


class TestTrivialBoundCuts:
    """The safe-board and one-move-block cuts, against the cut-free plain
    key from positions inside the game."""

    def check(self, g: Graph, cfg: GameConfig, seed: int) -> tuple[bool, int]:
        state = search_line(g, cfg, random.Random(seed))
        expect = plain_key_wins(state)
        for memoize in (True, False):
            win, nodes = solve_from(state, memoize)
            assert win == expect, (g, cfg, seed, memoize)
        return win, nodes

    @given(
        g=st.sampled_from(CUT_GRAPHS),
        extra=st.integers(0, 10),
        b=st.sampled_from([1, 2, 3]),
        classic=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=80, deadline=None)
    def test_solver_matches_plain_key_inside_the_game(self, g, extra, b, classic, seed):
        delta = g.max_degree
        k = delta + extra % delta
        self.check(g, (CLASSIC if classic else SKIP)(k=k, b=b), seed)

    def test_both_cuts_fire_in_a_seeded_sweep(self):
        # a fresh solver's root is never a table hit, so a one-node solve of
        # an unfinished position is a cut: Maker wins on a safe board,
        # Breaker by a one-move block
        fired = Counter()
        for i, g in enumerate(CUT_GRAPHS):
            delta = g.max_degree
            for k in range(delta, 2 * delta):
                for b in (1, 2, 3):
                    for variant in (SKIP, CLASSIC):
                        for seed in range(3):
                            win, nodes = self.check(g, variant(k=k, b=b), 1000 * i + seed)
                            if nodes == 1:
                                fired[win] += 1
        assert fired[True] > 0 and fired[False] > 0, fired

    @pytest.mark.parametrize("variant", [SKIP, CLASSIC])
    def test_top_of_trivial_range_settles_at_the_root(self, variant):
        for name, g in mixed_corpus():
            k = 2 * g.max_degree - 1
            for memoize in (True, False):
                res = solve(g, k, variant(k=1), memoize=memoize)
                assert (res.winner, res.nodes) == (MAKER, 1), name


def stabilizer_orbits(state: GameState, edges: list[int]) -> list[list[int]]:
    """``edges`` grouped by orbit of the stabilizer of ``state``'s coloring
    up to palette, over the automorphisms networkx finds; each orbit keeps
    the order of ``edges``, and the orbits are in the order of their first
    edges."""
    classes = coloring_orbit(state)
    stabilizer = [
        p
        for p in nx_edge_automorphisms(state.g)
        if frozenset(frozenset(p[e] for e in cls) for cls in classes) == classes
    ]
    orbits: dict[frozenset, list[int]] = {}
    for e in edges:
        orbits.setdefault(frozenset(p[e] for p in stabilizer), []).append(e)
    return list(orbits.values())


def child_keys(solver: _Solver, state: GameState, e: int, used: int) -> set[int]:
    """The table keys of the children the search plays on edge e."""
    keys = set()
    for _, bit in _moves(state, [e], used):
        if bit:
            plies = _play(state, e, bit)
            c = bit.bit_length() - 1
            old = solver.paint(e, c)
            keys.add(solver.key(state))
            solver.classes[c], solver.union = old
            for _ in range(plies):
                state.undo()
    return keys


ORBIT_CASES = [
    ("complete:5", 4), ("complete:5", 5), ("complete:5", 6),
    ("complete_bipartite:3:3", 3), ("complete_bipartite:3:3", 4),
    ("cycle:11", 2),
]


class TestOrbitPruning:
    """The solver expands one edge per orbit of the coloring's stabilizer."""

    @pytest.mark.parametrize("variant", [SKIP, CLASSIC])
    @pytest.mark.parametrize("spec, k", ORBIT_CASES)
    def test_pruned_edges_repeat_their_representatives_children(self, spec, k, variant):
        """On positions reached by search lines, every edge the solver
        drops has the child keys of the first edge of its orbit, which the
        solver keeps; and, these groups being under the cap, the solver
        keeps exactly the first edge of each orbit."""
        g = generate(spec)
        rng = random.Random(k)
        bad = pruned = 0
        for _ in range(25):
            state = search_line(g, variant(k=k), rng)
            used = reduce(or_, (1 << (c - 1) for c in state.color if c), 0)
            solver = _Solver(state, True, None)
            solver.load(state)
            solver.key(state)
            order = sorted(
                (state.avail_mask(e).bit_count(), e) for e in range(g.m) if state.color[e] == 0
            )
            edges = [e for _, e in order]
            reps = solver.orbit_reps(edges)
            orbits = stabilizer_orbits(state, edges)
            for orbit in orbits:
                expect = child_keys(solver, state, orbit[0], used)
                for e in orbit:
                    if e not in reps:
                        pruned += 1
                        bad += orbit[0] not in reps or child_keys(solver, state, e, used) != expect
            assert not bad, f"{bad} bad merges"
            assert reps == [orbit[0] for orbit in orbits]
        assert pruned > 0


class TestBudget:
    def test_solve_budget_exceeded(self):
        with pytest.raises(BudgetExceeded) as ei:
            solve(complete(5), 6, SKIP(k=1), budget=50)
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

    @pytest.mark.parametrize(
        "move, err",
        [((0, 1), "edge 0 is already colored"), ((1, 4), "color 4 outside palette 1..3")],
        ids=["colored-edge", "off-palette"],
    )
    def test_illegal_strategy_move_raises(self, move, err):
        # the verifier plays a strategy's moves through the checked apply_move
        class FixedMaker:
            def move(self, s):
                return (*move, None)

            def clone(self):
                return self

        with pytest.raises(IllegalMove, match=err):
            verify_strategy(cycle(5), 3, SKIP(k=1), FixedMaker(), MAKER)

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
            ("cycle:11", SKIP, 12),
            ("complete:5", SKIP, 634),
            ("complete_bipartite:3:3", SKIP, 257),
            ("cycle:11", CLASSIC, 3),
        ],
        ids=["C11-skip", "K5", "K33", "C11-classic"],
    )
    def test_ladder_node_counts(self, spec, variant, nodes):
        # the search order and the cuts fix the tree each rung searches
        assert game_chromatic_index(generate(spec), 1, variant(k=1)).nodes == nodes

    def test_palette_far_above_edge_count(self):
        # an edge has fewer than m neighbours, so with k above m the root
        # is a safe board, settled without expanding it
        res = solve(generate("cycle:9"), 2000, SKIP(k=1))
        assert (res.winner, res.nodes) == (MAKER, 1)


def eager_verify(
    g: Graph, k: int, cfg: GameConfig, strategy, side: str, memo: bool = False
) -> VerifyResult:
    """``verify_strategy`` with eager forks: every opponent branch but the
    last gets a clone of the strategy before its move is played, and the
    root gets a clone of the caller's.  ``memo`` skips an opponent decision
    point whose (coloring tuple, Breaker's spent count) already returned
    sound, as the verifier does for a position-only strategy."""
    cfg = replace(cfg, k=k)
    want = MAKER_WON if side == MAKER else BREAKER_WON
    nodes = 0
    proven = set()

    def search(state: GameState, strategy):
        nonlocal nodes
        plies = 0
        while True:
            nodes += 1
            if state.game_over():
                bad = None if state.winner() == want else state.log.copy()
                break
            if state.turn != side:
                bad = branch(state, strategy)
                break
            step(state, strategy, strategy)
            plies += 1
        for _ in range(plies):
            state.undo()
        return bad

    def branch(state: GameState, strategy):
        key = (tuple(state.color), state.breaker_moves_this_turn)
        if memo and key in proven:
            return None
        uncolored = [e for e in range(state.g.m) if state.color[e] == 0]
        moves = list(_moves(state, uncolored, state.full_mask))
        last = len(moves) - 1
        for i, (e, bit) in enumerate(moves):
            plies = _play(state, e, bit)
            bad = search(state, strategy if i == last else strategy.clone())
            for _ in range(plies):
                state.undo()
            if bad is not None:
                return bad
        proven.add(key)
        return None

    bad = search(new_game(g, cfg), strategy.clone())
    return VerifyResult(bad is None, bad, nodes)


def audited_verify(g: Graph, k: int, cfg: GameConfig, strategy, side: str):
    """``verify_strategy`` plus a count of the forks it made, of those forks
    later asked for a move, and of moves asked of the caller's strategy."""
    cls = type(strategy)
    ask_name = "move" if side == MAKER else "micro_move"
    clone, ask = cls.clone, getattr(cls, ask_name)
    counts: Counter = Counter()

    def counted_clone(self):
        dup = clone(self)
        if dup is not self:
            counts["forks"] += 1
            dup._unasked_fork = True
        return dup

    def counted_ask(self, s):
        if self is strategy:
            counts["caller asked"] += 1
        elif self.__dict__.pop("_unasked_fork", False):
            counts["forks asked"] += 1
        return ask(self, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "clone", counted_clone)
        mp.setattr(cls, ask_name, counted_ask)
        res = verify_strategy(g, k, cfg, strategy, side)
    return res, counts


# (n, variant, k, b, seeds, sound) for the paper Maker on C_n
PAPER_CASES = [
    (6, SKIP, 2, 1, (0, 1, 2), False),
    (6, SKIP, 3, 1, (0, 1, 2), True),
    (6, CLASSIC, 2, 1, (0, 1, 2), False),
    (6, CLASSIC, 3, 1, (0, 1, 2), True),
    (6, SKIP, 2, 2, (0, 1, 2), False),
    (6, CLASSIC, 3, 2, (0, 1, 2), True),
    (7, SKIP, 2, 1, (0, 1, 2), False),
    (7, SKIP, 3, 1, (0,), True),
    (7, CLASSIC, 2, 1, (0, 1, 2), False),
    (7, CLASSIC, 3, 1, (0, 1, 2), True),
    (8, SKIP, 2, 1, (0, 1, 2), False),
    (8, SKIP, 3, 1, (0,), True),  # the benchmark's rung: about 100k nodes
    (8, CLASSIC, 2, 1, (0, 1, 2), False),
    (8, CLASSIC, 3, 1, (0, 1, 2), True),
    (8, CLASSIC, 4, 1, (0,), True),
]

# (graph spec, variant, k, sound) for the uniform random policies
RANDOM_MAKER_CASES = [
    ("cycle:5", SKIP, 2, False),
    ("cycle:6", SKIP, 3, True),
    ("path:5", CLASSIC, 3, True),
    ("complete:4", SKIP, 4, False),
    ("complete:4", CLASSIC, 4, False),
]

RANDOM_BREAKER_CASES = [
    ("cycle:5", CLASSIC, 2, True),
    ("cycle:6", SKIP, 3, False),
    ("cycle:7", CLASSIC, 2, True),
    ("complete:4", SKIP, 3, False),
    ("complete:5", CLASSIC, 3, True),
    ("complete_bipartite:3:3", CLASSIC, 2, True),
]


def _case_id(case) -> str:
    spec, variant, k, _ = case
    return f"{spec}-{variant.__name__}-k{k}"


class TestLazyFork:
    """The verifier forks a strategy only when a line first asks it to move;
    it must return what eager forking at every branch returns."""

    def check(self, g, k, cfg, make, side, sound):
        res, counts = audited_verify(g, k, cfg, make(), side)
        assert res == eager_verify(g, k, cfg, make(), side)
        assert res.sound == sound
        if not sound:
            assert replay(g, replace(cfg, k=k), res.counterexample).winner() != (
                MAKER_WON if side == MAKER else BREAKER_WON
            )
        assert counts["caller asked"] == 0
        assert counts["forks asked"] == counts["forks"]
        return counts

    @pytest.mark.parametrize(
        "n, variant, k, b, seeds, sound",
        PAPER_CASES,
        ids=[f"C{n}-{v.__name__}-k{k}-b{b}" for n, v, k, b, _, _ in PAPER_CASES],
    )
    def test_paper_maker(self, n, variant, k, b, seeds, sound):
        for seed in seeds:
            counts = self.check(
                cycle(n), k, variant(k=1, b=b), lambda: DangerRedirectMaker(seed=seed), MAKER, sound
            )
            assert counts["forks"] > 0

    @pytest.mark.parametrize(
        "spec, variant, k, sound", RANDOM_MAKER_CASES, ids=map(_case_id, RANDOM_MAKER_CASES)
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uniform_random_maker(self, spec, variant, k, sound, seed):
        make = lambda: UniformRandomMaker(seed=seed)
        self.check(generate(spec), k, variant(k=1), make, MAKER, sound)

    @pytest.mark.parametrize(
        "spec, variant, k, sound", RANDOM_BREAKER_CASES, ids=map(_case_id, RANDOM_BREAKER_CASES)
    )
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uniform_random_breaker(self, spec, variant, k, sound, b, seed):
        make = lambda: UniformRandomBreaker(seed=seed)
        self.check(generate(spec), k, variant(k=1, b=b), make, BREAKER, sound)


# (graph spec, policy, variant, b, k) for the position-only policies: every
# k in [Δ, 2Δ−1], both variants (the skip Breaker only where it may pass)
MEMO_POLICIES = {GreedyMaker: MAKER, GreedyBlockingBreaker: BREAKER, SkipBreaker: BREAKER}
MEMO_GRAPHS = (
    "cycle:5", "cycle:6", "cycle:7", "path:6",
    "complete:4", "star:4", "complete_bipartite:2:3", "complete_bipartite:3:3",
)
# eager searches of 1.5 s to minutes, left out to keep the suite fast; the
# greedy C_8 rung below stands in for a large memoized search
MEMO_SLOW = {
    ("cycle:7", GreedyMaker, SKIP, 2, 3),
    ("complete:4", GreedyMaker, SKIP, 2, 5),
    ("complete_bipartite:2:3", GreedyMaker, SKIP, 2, 5),
    ("complete_bipartite:3:3", GreedyMaker, SKIP, 1, 5),
    ("complete_bipartite:3:3", GreedyMaker, SKIP, 2, 5),
    ("complete_bipartite:3:3", GreedyMaker, CLASSIC, 1, 5),
    ("complete_bipartite:3:3", GreedyMaker, CLASSIC, 2, 5),
}
MEMO_CASES = [
    (spec, policy, variant, b, k)
    for spec in MEMO_GRAPHS
    for policy in MEMO_POLICIES
    for variant in ((SKIP,) if policy is SkipBreaker else (SKIP, CLASSIC))
    for b in (1, 2)
    for delta in (generate(spec).max_degree,)
    for k in range(delta, 2 * delta)
    if (spec, policy, variant, b, k) not in MEMO_SLOW
]


class TestVerifierMemo:
    """For a strategy whose move depends on the position alone, the verifier
    skips opponent decision points already proven sound; verdict and first
    counterexample must be those of the memo-free eager search."""

    def check(self, g, k, cfg, policy):
        side = MEMO_POLICIES[policy]
        res = verify_strategy(g, k, cfg, policy(), side)
        ref = eager_verify(g, k, cfg, policy(), side)
        assert (res.sound, res.counterexample) == (ref.sound, ref.counterexample)
        assert res.nodes <= ref.nodes
        # and it skips exactly what a memo on the plain position skips
        assert res == eager_verify(g, k, cfg, policy(), side, memo=True)
        return res

    @pytest.mark.parametrize(
        "spec, policy, variant, b, k",
        MEMO_CASES,
        ids=[f"{s}-{p.__name__}-{v.__name__}-b{b}-k{k}" for s, p, v, b, k in MEMO_CASES],
    )
    def test_matches_eager_search(self, spec, policy, variant, b, k):
        self.check(generate(spec), k, variant(k=1, b=b), policy)

    @pytest.mark.parametrize(
        "spec, variant, b, k",
        [("complete:4", SKIP, 1, 4), ("complete:4", SKIP, 2, 4), ("complete:4", CLASSIC, 2, 4)],
        ids=["K4-skip-b1", "K4-skip-b2", "K4-classic-b2"],
    )
    def test_memo_holds_no_position_of_the_refuted_line(self, monkeypatch, spec, variant, b, k):
        # storing a refuted position changes no result, since the first
        # counterexample ends the search; the memo must still hold only
        # positions proven sound
        verifiers = []
        init = _Verifier.__init__

        def spy(self, *args):
            init(self, *args)
            verifiers.append(self)

        monkeypatch.setattr(_Verifier, "__init__", spy)
        g, cfg = generate(spec), variant(k=k, b=b)
        res = verify_strategy(g, k, cfg, GreedyMaker(), MAKER)
        assert not res.sound
        [verifier] = verifiers
        assert verifier.proven
        state = new_game(g, cfg)
        on_line = set()
        for rec in res.counterexample:
            if state.turn == BREAKER and state.breaker_moves_this_turn < b:
                on_line.add(verifier.key(state))
            apply_record(state, rec)
        assert on_line and not on_line & verifier.proven

    def test_benchmark_greedy_rung(self):
        # 116,993 nodes without the memo
        res = verify_strategy(cycle(8), 3, SKIP(k=3), GreedyMaker(), MAKER)
        assert (res.sound, res.nodes) == (True, 20_159)

    def test_palette_above_one_byte(self):
        # colors above 255 reach the key; with k = 300, packing them modulo
        # 256 would merge the positions of colors 1 and 257
        res = self.check(path(3), 300, SKIP(k=1, b=2), GreedyMaker)
        assert (res.sound, res.nodes) == (True, 181_504)
