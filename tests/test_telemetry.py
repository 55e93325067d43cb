"""Telemetry tests.

The live collector and the batch analyzer run the same routine (``analyze``
replays the log through a ``TraceCollector``), so their agreement checks
only live against replayed engine state.  The one independent path is
``brute_rows``/``brute_events``: a test-local recount straight from the raw
log records, with no engine and no collector, which every report's rows,
move counts and good events must equal.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from gamelab.engine import (
    BREAKER,
    BREAKER_WON,
    MAKER,
    MODIFIED,
    GameConfig,
    MoveLog,
    new_game,
    step,
)
from gamelab.breaker import (
    BoxReductionBreaker,
    GreedyBlockingBreaker,
    SkipBreaker,
    UniformRandomBreaker,
)
from gamelab.graph import Graph, cycle, gnp, path, random_regular, star
from gamelab.maker import DangerRedirectMaker, MakerConfig, UniformRandomMaker
from gamelab.match import play_game
from gamelab import telemetry
from gamelab._util import derive_seed
from gamelab.acceptance import ACCEPT_SEED
from gamelab.telemetry import (
    TraceCollector,
    analyze,
    summary_json,
    to_csv,
)


def play_instrumented(g, cfg, maker, breaker, mcfg=None):
    """Run one game, feeding a collector after every engine transition."""
    col = TraceCollector(g, cfg, mcfg)
    s = play_game(g, cfg, maker, breaker, col)
    return s, col.finish(s)


def brute_rows(g, log):
    """Per-vertex end-of-round loads, Gamma' sums and Gamma' sizes, straight
    from the records: a row is taken at every end-of-turn record and, if the
    log ends mid-round, once more at its end."""
    load = [0] * g.n
    colored: set[frozenset[int]] = set()
    loads, sums, cnts = ([[] for _ in range(g.n)] for _ in range(3))

    def take_row():
        for v in range(g.n):
            gamma = [u for u in g.adj[v] if frozenset((u, v)) not in colored]
            loads[v].append(load[v])
            sums[v].append(sum(load[u] for u in gamma))
            cnts[v].append(len(gamma))

    take_row()
    dirty = False
    for rec in log:
        if rec.skip:
            take_row()
            dirty = False
            continue
        x, y = g.edges[rec.edge]
        load[x] += 1
        load[y] += 1
        colored.add(frozenset((x, y)))
        dirty = True
    if dirty:
        take_row()
    return loads, sums, cnts


def brute_events(g, log):
    """Per-vertex good events as (round, edge, pre_load), straight from the
    records: pre_load counts the colorings at v before the event's record."""
    colorings = [0] * g.n
    events = [[] for _ in range(g.n)]
    for rec in log:
        if rec.skip:
            continue
        if rec.player == MAKER:
            v = rec.ann["v"]
            events[v].append((rec.round, rec.edge, colorings[v]))
        for w in g.edges[rec.edge]:
            colorings[w] += 1
    return events


def assert_rows_match_oracle(g, cfg, log, live):
    """Live report == batch report, and their rows, move counts and good
    events == the raw-record oracle."""
    assert live == analyze(log, g, cfg, MCFG)
    loads, sums, cnts = brute_rows(g, log)
    assert live.rounds == len(loads[0]) - 1
    for tr in live.traces:
        assert tr.loads == loads[tr.v]
        assert tr.nbr_sum == sums[tr.v]
        assert tr.nbr_cnt == cnts[tr.v]
    colorings = [rec for rec in log if not rec.skip]
    maker_recs = [rec for rec in colorings if rec.player == MAKER]
    assert live.maker_moves == len(maker_recs)
    assert live.breaker_moves == sum(rec.player == BREAKER for rec in colorings)
    assert live.forced_nonproper == sum(bool(rec.ann.get("forced_nonproper")) for rec in maker_recs)
    assert live.redirected_moves == sum(bool(rec.ann.get("redirected")) for rec in maker_recs)
    events = brute_events(g, log)
    for tr in live.traces:
        assert [(ev.round, ev.edge, ev.pre_load) for ev in tr.good_events] == events[tr.v]


def thresholds(mcfg, delta, b):
    return [0] + [mcfg.threshold_ceil(j, delta, b) for j in (1, 2, 3)]


MCFG = MakerConfig()


class TestTraceBookkeeping:
    def _game(self, seed=0):
        g = random_regular(12, 4, seed=7)
        cfg = GameConfig.skip_variant(k=7, b=1, mode=MODIFIED)
        maker = DangerRedirectMaker(MCFG, seed=seed)
        breaker = UniformRandomBreaker(seed=seed + 99)
        s, live = play_instrumented(g, cfg, maker, breaker, MCFG)
        return g, cfg, maker, s, live

    def test_load_trace_matches_raw_log(self):
        g, cfg, _, s, live = self._game()
        assert_rows_match_oracle(g, cfg, s.log, live)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_rows_match_raw_log_oracle(self, seed):
        g, cfg, _, s, live = self._game(seed)
        assert_rows_match_oracle(g, cfg, s.log, live)

    def test_load_plus_uncolored_neighbors_is_degree(self):
        _, _, _, _, live = self._game(seed=1)
        for tr in live.traces:
            for r in range(len(tr.loads)):
                assert tr.loads[r] + tr.nbr_cnt[r] == tr.degree

    def test_crossing_rounds_match_loads(self):
        g, cfg, _, _, live = self._game(seed=2)
        tc = thresholds(MCFG, g.max_degree, cfg.b)
        for tr in live.traces:
            for j, got in ((1, tr.t1), (2, tr.t2), (3, tr.t3)):
                expect = next(
                    (r for r, x in enumerate(tr.loads) if x >= tc[j]), None
                )
                assert got == expect

    def test_window_classification_from_first_principles(self):
        g, cfg, _, _, live = self._game(seed=3)
        tc = thresholds(MCFG, g.max_degree, cfg.b)
        for tr in live.traces:
            counts = [0, 0, 0]
            mid = set()
            for ev in tr.good_events:
                prev, cur = tr.loads[ev.round - 1], tr.loads[ev.round]
                for j in (1, 2, 3):
                    if prev >= tc[j - 1] and cur < tc[j]:
                        counts[j - 1] += 1
                        if j == 2:
                            mid.add(ev.color)
                        break
            assert tuple(counts) == tr.window_counts
            assert mid == set(tr.i_mid)
            assert sum(counts) <= len(tr.good_events)

    def test_i_prime_is_capped_prefix_of_window_one_colors(self):
        g, cfg, _, _, live = self._game(seed=4)
        tc = thresholds(MCFG, g.max_degree, cfg.b)
        cap = math.floor(Fraction(1, 5 * cfg.b**2) * MCFG.lam * g.max_degree)
        for tr in live.traces:
            assert len(tr.i_prime) <= cap
            seen: list[int] = []
            for ev in tr.good_events:
                if tr.loads[ev.round] < tc[1] and ev.color not in seen:
                    seen.append(ev.color)
            assert list(tr.i_prime) == seen[: max(cap, 0)]

    def test_good_events_partition_maker_moves(self):
        g, _, _, s, live = self._game(seed=5)
        maker_recs = [
            rec for rec in s.log if not rec.skip and rec.player == MAKER
        ]
        assert sum(len(tr.good_events) for tr in live.traces) == len(maker_recs)
        assert live.maker_moves == len(maker_recs)
        for tr in live.traces:
            for ev in tr.good_events:
                assert tr.v in g.edges[ev.edge]

    def test_danger_subset_of_danger_prime(self):
        _, _, _, _, live = self._game(seed=6)
        for tr in live.traces:
            if tr.danger is not None:
                assert tr.danger_prime is not None
                assert tr.danger <= tr.danger_prime

    def test_danger_prime_from_crossing_rounds(self):
        g, _, _, _, live = self._game(seed=7)
        t1 = {tr.v: tr.t1 for tr in live.traces}
        for tr in live.traces:
            if tr.t1 is None:
                assert tr.danger_prime is None
                continue
            expect = {
                u
                for u in g.adj[tr.v]
                if t1[u] is not None and t1[u] <= tr.t1
            }
            assert tr.danger_prime == frozenset(expect)

    def test_matches_maker_memory(self):
        g, cfg, maker, s, live = self._game(seed=8)
        mem = maker.memory
        last_maker_round = max(
            rec.round for rec in s.log if not rec.skip and rec.player == MAKER
        )
        for tr in live.traces:
            for attr, book in (("t1", mem.t1_round), ("t2", mem.t2_round)):
                got = getattr(tr, attr)
                if tr.v in book:
                    assert got == book[tr.v]
                elif got is not None:
                    # The maker last inspected the board at the start of its
                    # final move; crossings after that are telemetry-only.
                    assert got >= last_maker_round
            if tr.v in mem.danger:
                assert tr.danger == mem.danger[tr.v]


class TestSmallExamples:
    def test_star_every_move_is_a_good_edge_for_its_vertex(self):
        g = star(5)
        cfg = GameConfig.skip_variant(k=9)
        s, live = play_instrumented(
            g, cfg, DangerRedirectMaker(MCFG, seed=1), SkipBreaker(), MCFG
        )
        assert s.winner() == "maker_won"
        assert live.maker_moves == g.m
        assert sum(len(tr.good_events) for tr in live.traces) == g.m
        for tr in live.traces:
            for ev in tr.good_events:
                assert tr.v in g.edges[ev.edge]

    def test_untouched_vertices_have_empty_traces(self):
        # Box breaker kills C_25 with b=2, k=2 before Maker ever moves, so
        # distant vertices never reach T1: no windows, no colors.
        g = cycle(25)
        cfg = GameConfig.skip_variant(k=2, b=2)
        s, live = play_instrumented(
            g, cfg, DangerRedirectMaker(MCFG, seed=2), BoxReductionBreaker(), MCFG
        )
        assert s.winner() == BREAKER_WON
        assert live.maker_moves == 0
        untouched = [tr for tr in live.traces if tr.t1 is None]
        assert untouched
        for tr in untouched:
            assert tr.window_counts == (0, 0, 0)
            assert tr.i_prime == ()
            assert tr.i_mid == frozenset()
            assert tr.danger is None and tr.danger_prime is None

    @pytest.mark.parametrize("seed", range(6))
    def test_isolated_vertices_keep_empty_rows(self, seed):
        # a triangle plus three isolated vertices: rows cover all six
        g = Graph(6, [(0, 1), (1, 2), (0, 2)])
        cfg = GameConfig.skip_variant(k=3 + seed % 2, mode=MODIFIED)
        breaker = (UniformRandomBreaker(seed), GreedyBlockingBreaker(), SkipBreaker())[seed % 3]
        s, live = play_instrumented(g, cfg, DangerRedirectMaker(MCFG, seed=seed), breaker, MCFG)
        assert live.rounds >= 1
        assert_rows_match_oracle(g, cfg, s.log, live)
        for tr in live.traces[3:]:
            assert tr.loads == tr.nbr_sum == tr.nbr_cnt == [0] * (live.rounds + 1)

    def test_report_equality_is_deep(self):
        g = path(5)
        cfg = GameConfig.skip_variant(k=3, mode=MODIFIED)
        s, _ = play_instrumented(
            g, cfg, DangerRedirectMaker(MCFG, seed=3), UniformRandomBreaker(4), MCFG
        )
        a = analyze(s.log, g, cfg, MCFG)
        b = analyze(s.log, g, cfg, MCFG)
        assert a == b


class TestLiveEqualsBatch:
    def test_thousand_game_fuzz(self):
        """Incremental counters equal the from-scratch recomputation, and
        both give the raw-record oracle's rows."""
        arenas = [
            (path(5), GameConfig.skip_variant(k=3, mode=MODIFIED)),
            (cycle(6), GameConfig.skip_variant(k=3, b=2, mode=MODIFIED)),
            (cycle(6), GameConfig.classic(k=3, mode=MODIFIED)),
            (star(4), GameConfig.skip_variant(k=7)),
            (random_regular(10, 3, seed=5), GameConfig.skip_variant(k=5, mode=MODIFIED)),
            (gnp(8, 0.4, seed=11), GameConfig.classic(k=6, b=2, mode=MODIFIED)),
            (cycle(10), GameConfig.skip_variant(k=2, b=3)),
        ]
        breakers = [
            lambda seed: UniformRandomBreaker(seed),
            lambda seed: GreedyBlockingBreaker(),
            lambda seed: SkipBreaker(),
        ]
        games = 0
        for i in range(150):
            for j, (g, cfg) in enumerate(arenas):
                maker = DangerRedirectMaker(MCFG, seed=1000 * i + j)
                breaker = breakers[(i + j) % 3](i)
                if isinstance(breaker, SkipBreaker) and cfg.variant != "skip":
                    breaker = UniformRandomBreaker(i)
                s, live = play_instrumented(g, cfg, maker, breaker, MCFG)
                assert_rows_match_oracle(g, cfg, s.log, live)
                games += 1
        assert games >= 1000


    @pytest.mark.parametrize("i", [0, 1])
    def test_criterion_nine_games_match_the_oracle(self, i):
        # live and replayed reports share every line of Gamma' code, so at
        # the benchmark's scale only the raw-record oracle checks the rows
        g = random_regular(64, 16, seed=1)
        cfg = GameConfig.skip_variant(k=32, mode=MODIFIED)
        maker = DangerRedirectMaker(MCFG, seed=derive_seed(ACCEPT_SEED, "c9", i))
        s, live = play_instrumented(g, cfg, maker, GreedyBlockingBreaker(), MCFG)
        assert s.game_over()
        assert_rows_match_oracle(g, cfg, s.log, live)

class TestErrors:
    def test_unannotated_log_rejected(self):
        g = path(4)
        cfg = GameConfig.skip_variant(k=3)
        state = play_game(g, cfg, UniformRandomMaker(seed=0), UniformRandomBreaker(seed=1))
        with pytest.raises(ValueError, match="missing annotations"):
            analyze(state.log, g, cfg, MCFG)

    def test_shifted_rounds_rejected(self):
        # replays fine unshifted; shifted, vertex 0 would get a T1 round of 8
        g = cycle(8)
        cfg = GameConfig.skip_variant(k=3, mode=MODIFIED)
        s, live = play_instrumented(
            g, cfg, DangerRedirectMaker(MCFG, seed=0), GreedyBlockingBreaker(), MCFG
        )
        assert analyze(s.log, g, cfg, MCFG) == live
        shifted = MoveLog([rec._replace(round=rec.round + 7) for rec in s.log])
        with pytest.raises(ValueError, match="log record 0: expected round 1, record says 8"):
            analyze(shifted, g, cfg, MCFG)

    def test_annotation_off_the_edge_rejected(self):
        # record 2 is Maker's (0, 7) for v = 0; naming vertex 1 instead used
        # to file (0, 7) among vertex 1's good events
        g = cycle(8)
        cfg = GameConfig.skip_variant(k=3, mode=MODIFIED)
        s, _ = play_instrumented(
            g, cfg, DangerRedirectMaker(MCFG, seed=0), GreedyBlockingBreaker(), MCFG
        )
        rec = s.log[2]
        assert (rec.player, g.edges[rec.edge], rec.ann["v"]) == (MAKER, (0, 7), 0)
        bad = s.log.copy()
        bad[2] = rec._replace(ann={**rec.ann, "v": 1})
        with pytest.raises(
            ValueError, match=r"^log record 2: annotated vertex 1 is not on edge \(0, 7\)$"
        ):
            analyze(bad, g, cfg, MCFG)

    @pytest.mark.parametrize(
        "flag, value", [("redirected", "false"), ("redirected", 0), ("forced_nonproper", None)]
    )
    def test_non_boolean_flag_rejected(self, flag, value):
        # bool() of the string "false" is True: a flag must be a boolean
        g = cycle(8)
        cfg = GameConfig.skip_variant(k=3, mode=MODIFIED)
        s, _ = play_instrumented(
            g, cfg, DangerRedirectMaker(MCFG, seed=0), GreedyBlockingBreaker(), MCFG
        )
        rec = s.log[2]
        assert rec.player == MAKER
        bad = s.log.copy()
        bad[2] = rec._replace(ann={**rec.ann, flag: value})
        with pytest.raises(
            ValueError, match=rf"^log record 2: '{flag}' must be a boolean, got {value!r}$"
        ):
            analyze(bad, g, cfg, MCFG)

    def test_collector_requires_every_transition(self):
        g = path(4)
        cfg = GameConfig.skip_variant(k=3)
        state = new_game(g, cfg)
        col = TraceCollector(g, cfg, MCFG)
        state.end_breaker_turn()
        maker = DangerRedirectMaker(MCFG, seed=0)
        e, c, ann = maker.move(state)
        state.apply_move(MAKER, e, c, ann)
        with pytest.raises(ValueError, match="every transition"):
            col.observe(state)

    def test_collector_refuses_unobserved_transitions(self):
        # the last transition, a Maker move, goes unobserved: finish must
        # refuse rather than report 11 Maker moves against analyze's 12
        g = random_regular(12, 4, seed=13)
        cfg = GameConfig.skip_variant(k=7, mode=MODIFIED)
        maker, breaker = DangerRedirectMaker(MCFG, seed=3), GreedyBlockingBreaker()
        state = new_game(g, cfg)
        col = TraceCollector(g, cfg, MCFG)
        while not state.game_over():
            step(state, maker, breaker)
            if not state.game_over():
                col.observe(state)
        assert state.log[-1].player == MAKER
        assert analyze(state.log, g, cfg, MCFG).maker_moves == 12
        with pytest.raises(ValueError, match="observed 35 of 36 log records"):
            col.finish(state)

    def test_collector_finish_is_final(self):
        g = path(4)
        cfg = GameConfig.skip_variant(k=3)
        state = new_game(g, cfg)
        col = TraceCollector(g, cfg, MCFG)
        col.finish(state)
        with pytest.raises(ValueError):
            col.finish(state)
        with pytest.raises(ValueError):
            col.observe(state)


class TestSummary:
    def _report(self, seed=0):
        g = random_regular(12, 4, seed=13)
        cfg = GameConfig.skip_variant(k=7, mode=MODIFIED)
        s, live = play_instrumented(
            g,
            cfg,
            DangerRedirectMaker(MCFG, seed=seed),
            UniformRandomBreaker(seed + 5),
            MCFG,
        )
        return g, cfg, live

    def test_window_cells_recomputed(self):
        g, cfg, rep = self._report()
        tc = thresholds(MCFG, g.max_degree, cfg.b)
        short = Fraction(1, 5 * cfg.b**2) * MCFG.lam * g.max_degree
        for j in (1, 2, 3):
            cell = rep.summary["good_windows"][str(j)]
            eligible = [t for t in rep.traces if t.degree >= tc[j]]
            completed = [
                t for t in eligible if (t.t1, t.t2, t.t3)[j - 1] is not None
            ]
            violating = [
                t for t in completed if t.window_counts[j - 1] < short
            ]
            assert cell["eligible"] == len(eligible)
            assert cell["completed"] == len(completed)
            assert cell["violating"] == len(violating)

    def test_spike_cell_recomputed(self):
        g, cfg, rep = self._report(seed=1)
        tc = thresholds(MCFG, g.max_degree, cfg.b)
        bound = 9 * MCFG.lam * g.max_degree
        min_deg = (1 - MCFG.c / cfg.b**4) * g.max_degree
        eligible = [t for t in rep.traces if t.degree >= min_deg]
        violating = 0
        for t in eligible:
            if any(
                t.loads[r] < tc[2]
                and t.nbr_cnt[r] > 0
                and Fraction(t.nbr_sum[r], t.nbr_cnt[r]) >= bound
                for r in range(len(t.loads))
            ):
                violating += 1
        cell = rep.summary["nbr_spike"]
        assert cell["eligible"] == len(eligible)
        assert cell["violating"] == violating

    @pytest.mark.parametrize(
        "lam", [Fraction(1, 10), Fraction(1, 7), Fraction(1, 9)], ids=["18/5", "36/7", "4"]
    )
    def test_spike_cell_counts_a_tie_as_a_violation(self, lam):
        # spike = 9 * lam * delta on a 4-regular graph; every row is zeroed,
        # then one trace gets a row exactly at spike * cnt and another one
        # just below it
        mcfg = MakerConfig(lam=lam, c=lam / 6)
        g = random_regular(12, 4, seed=13)
        cfg = GameConfig.skip_variant(k=7, mode=MODIFIED)
        _, rep = play_instrumented(
            g, cfg, DangerRedirectMaker(mcfg, seed=3), UniformRandomBreaker(8), mcfg
        )
        spike = 9 * lam * g.max_degree
        traces = [
            dataclasses.replace(
                t, loads=[0] * len(t.loads), nbr_sum=[0] * len(t.loads), nbr_cnt=[1] * len(t.loads)
            )
            for t in rep.traces
        ]
        for t, below in ((traces[0], 0), (traces[1], 1)):
            t.nbr_cnt[1] = 2 * spike.denominator
            t.nbr_sum[1] = 2 * spike.numerator - below
        params = telemetry.TraceCollector(g, cfg, mcfg)
        cell = telemetry._summarize(params, traces)["nbr_spike"]
        tc2 = mcfg.threshold_ceil(2, g.max_degree, cfg.b)
        recount = [
            t.v
            for t in traces
            if any(
                t.loads[r] < tc2 and t.nbr_cnt[r] > 0 and Fraction(t.nbr_sum[r], t.nbr_cnt[r]) >= spike
                for r in range(len(t.loads))
            )
        ]
        assert recount == [traces[0].v]
        assert cell == {"eligible": len(traces), "violating": 1, "fraction": 1 / len(traces)}

    @pytest.mark.parametrize("offset, counted", [(-1, True), (0, False)], ids=["below", "at"])
    def test_spike_cell_reads_only_the_rounds_below_t2(self, offset, counted):
        # one trace reaches T2 at round 3 and has one spike, in the last
        # round below T2 or in the round it reaches T2; every other row is
        # quiet
        g, cfg, rep = self._report()
        tc2 = thresholds(MCFG, g.max_degree, cfg.b)[2]
        rounds = len(rep.traces[0].loads)
        assert rounds > 4
        traces = [
            dataclasses.replace(
                t, loads=[0] * rounds, nbr_sum=[0] * rounds, nbr_cnt=[1] * rounds
            )
            for t in rep.traces
        ]
        hot = traces[0]
        hot.loads = [0, 0, tc2 - 1] + [tc2] * (rounds - 3)
        spike = 9 * MCFG.lam * g.max_degree
        hot.nbr_sum[3 + offset] = math.ceil(spike)
        cell = telemetry._summarize(telemetry.TraceCollector(g, cfg, MCFG), traces)["nbr_spike"]
        assert cell["eligible"] == len(traces)
        assert cell["violating"] == int(counted)

    def test_danger_and_heavy_cells_recomputed(self):
        g, cfg, rep = self._report(seed=2)
        cap = MCFG.c * Fraction(1, cfg.b**2) * g.max_degree
        frozen = [t for t in rep.traces if t.danger is not None]
        oversize = [t for t in frozen if len(t.danger) > cap]
        cell = rep.summary["danger_oversize"]
        assert cell["eligible"] == len(frozen)
        assert cell["violating"] == len(oversize)
        heavy_mult = Fraction(1, 4 * cfg.b**4) * MCFG.c * MCFG.lam * g.max_degree
        iprime = {t.v: t.i_prime for t in rep.traces}
        violating = 0
        for t in rep.traces:
            counts: dict[int, int] = {}
            for u in g.adj[t.v]:
                for color in iprime[u]:
                    counts[color] = counts.get(color, 0) + 1
            heavy = sum(1 for x in counts.values() if x >= heavy_mult)
            violating += heavy >= cap
        assert rep.summary["heavy_colors"]["violating"] == violating


class TestOutputs:
    def test_csv_shape(self):
        g = path(5)
        cfg = GameConfig.skip_variant(k=3, mode=MODIFIED)
        s, live = play_instrumented(
            g, cfg, DangerRedirectMaker(MCFG, seed=3), UniformRandomBreaker(4), MCFG
        )
        text = to_csv(live)
        lines = text.strip().split("\n")
        assert len(lines) == g.n + 1
        assert lines[0].startswith("v,degree,final_load,t1,t2,t3")
        assert all(line.count(",") == lines[0].count(",") for line in lines)

    def test_summary_json_deterministic_and_parseable(self):
        g = cycle(6)
        cfg = GameConfig.skip_variant(k=3, mode=MODIFIED)
        s, live = play_instrumented(
            g, cfg, DangerRedirectMaker(MCFG, seed=5), GreedyBlockingBreaker(), MCFG
        )
        a = summary_json(analyze(s.log, g, cfg, MCFG))
        b = summary_json(analyze(s.log, g, cfg, MCFG))
        assert a == b
        doc = json.loads(a)
        assert doc["params"]["lam"] == "1/10"
        assert set(doc["violations"]) == {
            "good_windows",
            "nbr_spike",
            "danger_oversize",
            "heavy_colors",
        }
