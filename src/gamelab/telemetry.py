"""Per-vertex traces and summary statistics from annotated game logs.

Rounds are end-of-round snapshots, stored as one load row and one Gamma'
sum row over all vertices per round: row r describes the position after
every logged record of round <= r has been applied (row 0 is the empty
board; a game that ends mid-round contributes one final partial row).  The
report transposes the rows into per-vertex traces.  For each vertex v:

* ``loads[r]``: number of colored v-edges after round r,
* ``t1/t2/t3``: first r with ``loads[r] >= ceil(T_j)`` where
  ``T_j = j*lam*delta/b``,
* good v-edge events: every Maker record carries an annotation naming the
  endpoint v of its edge it played for, making that edge a "good v-edge",
* window counts: good v-edges colored at rounds r with
  ``loads[r-1] >= ceil(T_{j-1})`` and ``loads[r] < ceil(T_j)`` for
  j in {1,2,3}.  A round that jumps across a window boundary belongs to
  no window; that is how the periods the counts describe are delimited,
* ``i_prime``: the first ``floor(lam*delta/(5*b*b))`` distinct colors on
  good v-edges played at window-1 rounds (load still below T1),
* ``i_mid``: all colors on good v-edges played at window-2 rounds,
* ``danger``: the dangerous-neighbor set, frozen at the end of round
  t2(v) by the same rule the maker strategy uses (shared
  ``record_crossings``),
* ``danger_prime``: neighbors whose load reached T1 not after v did,
* ``nbr_sum[r]``/``nbr_cnt[r]``: total load over, and size of, the
  uncolored neighborhood Gamma'_r(v); every colored v-edge leaves
  Gamma'(v), so ``nbr_cnt[r]`` is derived as ``degree - loads[r]``.

One routine builds every report: ``TraceCollector``, fed the position
after every single engine transition.  It keeps the Gamma' sums up to date
move by move, closes a row at every end-of-turn record, and ``finish``
refuses a log with records it was never shown.  A live game feeds it as it
is played; ``analyze`` works from the recorded log alone, replaying the
records through a fresh engine state, checking each as ``engine.replay``
does, and feeding the collector the same way.  So live and replayed reports
differ only in live against replayed engine state.  The independent check
of the rows is a test-side recount straight from the log records.

The summary reports, per inequality the analysis tracks at scale
(lam, c, b, delta), how many vertices violate it.  These are descriptive
statistics: the bounds only hold asymptotically with high probability and
can genuinely fail at desk scale, so nothing here asserts them.  The
color-multiplicity statistic is a deliberate over-approximation: the
underlying event quantifies over all neighbor subsets W of a fixed size,
which is not enumerable, so multiplicities are counted over the whole
neighborhood, flagging a superset of the event.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .engine import (
    MAKER,
    GameConfig,
    GameState,
    IllegalMove,
    MoveLog,
    MoveRecord,
    apply_record,
)
from .graph import Graph
from .maker import MakerConfig, MakerMemory, record_crossings

__all__ = [
    "GoodEdgeEvent",
    "VertexTrace",
    "TelemetryReport",
    "TraceCollector",
    "analyze",
    "to_csv",
    "summary_json",
]

_INF = float("inf")


@dataclass
class GoodEdgeEvent:
    """One Maker move, attributed to the vertex its annotation names."""

    round: int
    edge: int
    color: int
    pre_load: int
    redirected: bool
    forced: bool


@dataclass
class VertexTrace:
    v: int
    degree: int
    loads: list[int]
    nbr_sum: list[int]
    nbr_cnt: list[int]
    t1: int | None
    t2: int | None
    t3: int | None
    window_counts: tuple[int, int, int]
    good_events: list[GoodEdgeEvent]
    i_prime: tuple[int, ...]
    i_mid: frozenset[int]
    danger: frozenset[int] | None
    danger_prime: frozenset[int] | None


@dataclass
class TelemetryReport:
    n: int
    m: int
    delta: int
    k: int
    b: int
    lam: Fraction
    c: Fraction
    rounds: int
    maker_moves: int
    breaker_moves: int
    forced_nonproper: int
    redirected_moves: int
    traces: list[VertexTrace]
    summary: dict


def _file_events(col: TraceCollector, loads: list[int], events: list[GoodEdgeEvent]):
    """Window counts, I' and I_mid of one vertex from its per-round loads
    and its good events, in play order; each event's round is closed."""
    tc = col.tc
    counts = [0, 0, 0]
    i_prime: list[int] = []
    i_mid: set[int] = set()
    for ev in events:
        prev_load, round_load = loads[ev.round - 1], loads[ev.round]
        for j in (1, 2, 3):
            if prev_load >= tc[j - 1] and round_load < tc[j]:
                counts[j - 1] += 1
                if j == 1 and ev.color not in i_prime and len(i_prime) < col.i_prime_cap:
                    i_prime.append(ev.color)
                if j == 2:
                    i_mid.add(ev.color)
                break
    return tuple(counts), tuple(i_prime), frozenset(i_mid)


def _danger_prime(g: Graph, t1: dict[int, int], v: int) -> frozenset[int] | None:
    if v not in t1:
        return None
    return frozenset(u for u in g.adj[v] if t1.get(u, _INF) <= t1[v])


def _summarize(col: TraceCollector, traces: list[VertexTrace]) -> dict:
    lam, c = col.maker_cfg.lam, col.maker_cfg.c
    delta, b = col.delta, col.b
    shortfall = Fraction(1, 5 * b * b) * lam * delta
    spike = 9 * lam * delta
    spike_degree = (1 - c * Fraction(1, b**4)) * delta
    danger_cap = c * Fraction(1, b * b) * delta
    heavy_mult = Fraction(1, 4 * b**4) * c * lam * delta
    out: dict = {"good_windows": {}}
    for j in (1, 2, 3):
        eligible = [t for t in traces if t.degree >= col.tc[j]]
        completed = [t for t in eligible if (t.t1, t.t2, t.t3)[j - 1] is not None]
        violating = [t for t in completed if t.window_counts[j - 1] < shortfall]
        out["good_windows"][str(j)] = _cell(
            len(eligible), len(violating), completed=len(completed)
        )
    eligible = [t for t in traces if t.degree >= spike_degree]
    violating = []
    # nbr_sum >= spike * nbr_cnt in integers; the denominator is positive
    num, den = spike.numerator, spike.denominator
    for t in eligible:
        # loads never fall, so the rounds below T2 are a prefix
        below = bisect_left(t.loads, col.tc[2])
        rows = zip(t.nbr_sum[:below], t.nbr_cnt)
        if any(cnt > 0 and total * den >= num * cnt for total, cnt in rows):
            violating.append(t)
    out["nbr_spike"] = _cell(len(eligible), len(violating))
    frozen = [t for t in traces if t.danger is not None]
    violating = [t for t in frozen if len(t.danger) > danger_cap]
    out["danger_oversize"] = _cell(len(frozen), len(violating))
    mult: dict[int, dict[int, int]] = {}
    for t in traces:
        for color in t.i_prime:
            for u in col.g.adj[t.v]:
                mult.setdefault(u, {})
                mult[u][color] = mult[u].get(color, 0) + 1
    violating = []
    for t in traces:
        heavy = sum(
            1 for cnt in mult.get(t.v, {}).values() if cnt >= heavy_mult
        )
        if heavy >= danger_cap:
            violating.append(t)
    out["heavy_colors"] = _cell(len(traces), len(violating))
    return out


def _cell(eligible: int, violating: int, completed: int | None = None) -> dict:
    denom = eligible if completed is None else completed
    cell = {
        "eligible": eligible,
        "violating": violating,
        "fraction": (violating / denom) if denom else None,
    }
    if completed is not None:
        cell["completed"] = completed
    return cell


class TraceCollector:
    """The one telemetry routine: per-round rows, threshold crossings and
    good events of a game, fed one engine transition at a time.

    ``observe(state)`` must be called after *every* engine transition
    (``apply_move``, ``end_breaker_turn`` or ``apply_record``), so that
    exactly one new log record is visible per call; loads and danger sets
    are read from the state, and only the Gamma' sums are kept here,
    updated move by move.  ``finish(state)`` raises ValueError unless every
    record of ``state.log`` was observed, then closes a trailing partial
    round and builds the report.
    """

    def __init__(
        self, g: Graph, game_cfg: GameConfig, maker_cfg: MakerConfig | None = None
    ) -> None:
        self.g = g
        self.game_cfg = game_cfg
        self.maker_cfg = maker_cfg = maker_cfg or MakerConfig()
        self.delta = g.max_degree
        self.b = game_cfg.b
        self.thresholds = maker_cfg.thresholds(self.delta, self.b)
        self.tc = [0, *self.thresholds]  # tc[j] = smallest integer load meeting T_j
        self.i_prime_cap = math.floor(Fraction(1, 5 * self.b * self.b) * maker_cfg.lam * self.delta)
        self.load_rows: list[tuple[int, ...]] = [(0,) * g.n]
        self.sum_rows: list[tuple[int, ...]] = [(0,) * g.n]
        self.mem = MakerMemory()
        self.events: list[tuple[int, GoodEdgeEvent]] = []
        self._touched: set[int] = set()  # ends of the edges colored this round
        self._cur_sum = [0] * g.n
        self._cursor = 0
        self._finished = False

    def observe(self, state: GameState) -> None:
        if self._finished:
            raise ValueError("collector already finished")
        fresh = len(state.log) - self._cursor
        if fresh != 1:
            raise ValueError(
                "collector must observe every transition (one new record at "
                f"a time, got {fresh})"
            )
        i = self._cursor
        rec = state.log[i]
        self._cursor += 1
        if rec.skip:
            self._close_round(rec.round, state)
            return
        self._count(i, rec, state)
        g, color, load, sums = state.g, state.color, state.load, self._cur_sum
        x, y = g.edges[rec.edge]
        # the edge is colored now: x and y leave each other's Gamma', and
        # every vertex still joined to x or y by an uncolored edge gains 1
        for w in (x, y):
            for u, e in zip(g.adj[w], g.incident[w]):
                if not color[e]:
                    sums[u] += 1
        # state.load already counts this edge
        sums[x] -= load[y] - 1
        sums[y] -= load[x] - 1

    def _count(self, i: int, rec: MoveRecord, state: GameState) -> None:
        """Count coloring record i of the log, just played on ``state``.

        A Maker record is a good event of the vertex v its annotation names,
        which must be an endpoint of its edge, with flags that are absent or
        booleans (else ValueError naming record i); v's load before the
        record is ``state.load[v]`` less that edge.
        """
        ends = state.g.edges[rec.edge]
        self._touched.update(ends)
        if rec.player != MAKER:
            return
        ann = rec.ann
        v = ann.get("v") if ann else None
        if type(v) is not int:
            raise ValueError(f"log record {i}: missing annotations")
        if v not in ends:
            raise ValueError(f"log record {i}: annotated vertex {v} is not on edge {ends}")
        flags = ann.get("redirected", False), ann.get("forced_nonproper", False)
        for name, flag in zip(("redirected", "forced_nonproper"), flags):
            if type(flag) is not bool:
                raise ValueError(f"log record {i}: {name!r} must be a boolean, got {flag!r}")
        pre_load = state.load[v] - 1
        ev = GoodEdgeEvent(rec.round, rec.edge, rec.color, pre_load, *flags)
        self.events.append((v, ev))

    def _close_round(self, r: int, state: GameState) -> None:
        """Append the end-of-round load and Gamma'-sum rows of the position
        ``state``, then record the threshold crossings of round r; only the
        ends of the edges counted since the last close gained load."""
        if len(self.load_rows) != r:
            raise ValueError(f"round {r} closed out of order")
        self.load_rows.append(tuple(state.load))
        self.sum_rows.append(tuple(self._cur_sum))
        record_crossings(state, self.mem, self.thresholds, r, sorted(self._touched))
        self._touched.clear()

    def finish(self, state: GameState) -> TelemetryReport:
        if self._finished:
            raise ValueError("collector already finished")
        log = state.log
        if len(log) != self._cursor:
            raise ValueError(f"collector observed {self._cursor} of {len(log)} log records")
        # a game that ends mid-round contributes a final partial row
        if len(log) and not log[-1].skip:
            self._close_round(log[-1].round, state)
        self._finished = True
        return _build_report(self)


def _build_report(col: TraceCollector) -> TelemetryReport:
    g = col.g
    mem = col.mem
    rounds = len(col.load_rows) - 1
    colored = sum(col.load_rows[-1]) // 2  # an edge loads both endpoints
    # transpose into per-vertex lists, dropping each row set once copied
    loads = [list(row) for row in zip(*col.load_rows)]
    col.load_rows.clear()
    sums = [list(row) for row in zip(*col.sum_rows)]
    col.sum_rows.clear()
    good_events: list[list[GoodEdgeEvent]] = [[] for _ in range(g.n)]
    for v, ev in col.events:
        good_events[v].append(ev)
    traces = []
    for v in range(g.n):
        degree = g.degree(v)
        window_counts, i_prime, i_mid = _file_events(col, loads[v], good_events[v])
        traces.append(
            VertexTrace(
                v=v,
                degree=degree,
                loads=loads[v],
                nbr_sum=sums[v],
                nbr_cnt=[degree - load for load in loads[v]],
                t1=mem.t1_round.get(v),
                t2=mem.t2_round.get(v),
                t3=mem.t3_round.get(v),
                window_counts=window_counts,
                good_events=good_events[v],
                i_prime=i_prime,
                i_mid=i_mid,
                danger=mem.danger.get(v),
                danger_prime=_danger_prime(g, mem.t1_round, v),
            )
        )
    events = [ev for _, ev in col.events]
    return TelemetryReport(
        n=g.n,
        m=g.m,
        delta=col.delta,
        k=col.game_cfg.k,
        b=col.b,
        lam=col.maker_cfg.lam,
        c=col.maker_cfg.c,
        rounds=rounds,
        maker_moves=len(events),
        breaker_moves=colored - len(events),
        forced_nonproper=sum(ev.forced for ev in events),
        redirected_moves=sum(ev.redirected for ev in events),
        traces=traces,
        summary=_summarize(col, traces),
    )


def analyze(
    log: MoveLog, g: Graph, game_cfg: GameConfig, maker_cfg: MakerConfig | None = None
) -> TelemetryReport:
    """Recompute the full report from a recorded log, from scratch.

    The records are replayed through a fresh engine state, and the position
    after each one is fed to a fresh ``TraceCollector``, exactly as a live
    game feeds it.  Raises ValueError naming the record that breaks the
    rules (as ``engine.replay`` does) or, once played, is a Maker record not
    annotated with an endpoint of its edge.
    """
    col = TraceCollector(g, game_cfg, maker_cfg)
    state = GameState(g, game_cfg)
    for i, rec in enumerate(log):
        try:
            apply_record(state, rec)
        except IllegalMove as exc:
            raise IllegalMove(f"log record {i}: {exc}") from None
        col.observe(state)
    return col.finish(state)


def to_csv(report: TelemetryReport) -> str:
    """One row per vertex with the scalar trace quantities."""
    header = (
        "v,degree,final_load,t1,t2,t3,w1,w2,w3,"
        "good_edges,i_prime_size,i_mid_size,danger_size,danger_prime_size"
    )
    lines = [header]
    for tr in report.traces:
        w1, w2, w3 = tr.window_counts
        cells = [
            tr.v,
            tr.degree,
            tr.loads[-1],
            tr.t1 if tr.t1 is not None else "",
            tr.t2 if tr.t2 is not None else "",
            tr.t3 if tr.t3 is not None else "",
            w1,
            w2,
            w3,
            len(tr.good_events),
            len(tr.i_prime),
            len(tr.i_mid),
            len(tr.danger) if tr.danger is not None else "",
            len(tr.danger_prime) if tr.danger_prime is not None else "",
        ]
        lines.append(",".join(str(x) for x in cells))
    return "\n".join(lines) + "\n"


def summary_json(report: TelemetryReport) -> str:
    """Canonical JSON rendering of the summary block (sorted keys)."""
    doc = {
        "params": {
            "n": report.n,
            "m": report.m,
            "delta": report.delta,
            "k": report.k,
            "b": report.b,
            "lam": str(report.lam),
            "c": str(report.c),
        },
        "game": {
            "rounds": report.rounds,
            "maker_moves": report.maker_moves,
            "breaker_moves": report.breaker_moves,
            "forced_nonproper": report.forced_nonproper,
            "redirected_moves": report.redirected_moves,
        },
        "violations": report.summary,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
