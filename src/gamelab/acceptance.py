"""The acceptance suite: the checks a fresh checkout must satisfy.

Each criterion is a function returning (ok, detail).  The runner times
it, turns a BudgetExceeded into SKIP (an oversized instance is not a
failure of the implementation), and renders one line per criterion.
Criteria with a stated wall-clock budget include the timing in their
pass condition.  Everything is seeded; the two report-producing
criteria (7 and 9) are rerun by criterion 11, which demands their
reports be byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from ._util import BudgetExceeded, derive_seed, wilson_interval
from .boxgame import bob_wins, box_threshold, is_near_uniform, solve_boxgame
from .breaker import BoxReductionBreaker, GreedyBlockingBreaker
from .engine import BREAKER, MAKER, MAKER_WON, MODIFIED, GameConfig
from .exact import game_chromatic_index, solve, verify_strategy
from .goodset import find_good_set, harmonic_condition
from .graph import cycle, nonisomorphic_trees, random_regular, star
from .match import ExperimentSpec, mixed_corpus, play_game, run_match
from .maker import DangerRedirectMaker, MakerConfig
from .telemetry import TraceCollector, analyze

ACCEPT_SEED = 1729


@dataclass
class CriterionResult:
    number: int
    name: str
    status: str  # PASS | FAIL | SKIP
    detail: str
    seconds: float

    def line(self) -> str:
        return (
            f"[{self.status}] criterion {self.number:2d} ({self.name}): "
            f"{self.detail} [{self.seconds:.1f}s]"
        )

    def as_dict(self) -> dict:
        return {**asdict(self), "seconds": round(self.seconds, 3)}


def _check_stars() -> tuple[bool, str]:
    """chi'_g(K_{1,n}) = n for n in 2..6, both variants, each solve < 10 s."""
    worst = 0.0
    for n in range(2, 7):
        for factory in (GameConfig.skip_variant, GameConfig.classic):
            t0 = time.perf_counter()
            res = game_chromatic_index(star(n), 1, factory(k=1))
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            if res.value != n or dt >= 10.0:
                return False, f"star {n}: value {res.value} in {dt:.2f}s (want {n} < 10s)"
    return True, f"all ten solves correct; slowest {worst:.2f}s"


def _check_odd_cycles() -> tuple[bool, str]:
    """chi'_g(C_n) = 3 for odd n in 3..9, both variants, < 60 s total."""
    t0 = time.perf_counter()
    for n in (3, 5, 7, 9):
        for factory in (GameConfig.skip_variant, GameConfig.classic):
            res = game_chromatic_index(cycle(n), 1, factory(k=1))
            if res.value != 3:
                return False, f"C_{n}: value {res.value}, want 3"
    dt = time.perf_counter() - t0
    return dt < 60.0, f"all eight solves gave 3 in {dt:.1f}s (budget 60s)"


def _check_forest_bound() -> tuple[bool, str]:
    """Every tree with <= 8 edges and max degree >= 5 has value <= Delta+1.

    Maker winning with Delta or Delta+1 colors decides value <= Delta+1
    exactly (no palette size below Delta can ever be a Maker win).
    """
    trees = 0
    for g in nonisomorphic_trees(8):
        d = g.max_degree
        if d < 5:
            continue
        trees += 1
        if not any(
            solve(g, k, GameConfig.skip_variant(k=k)).winner == MAKER
            for k in (d, d + 1)
        ):
            return False, f"tree {g.edges}: value exceeds Delta+1 = {d + 1}"
    return True, f"{trees} trees with Delta >= 5, all values <= Delta+1"


def _check_boxgame_oracle() -> tuple[bool, str]:
    """Threshold criterion == brute minimax on all small near-uniform families."""
    t0 = time.perf_counter()
    checked = 0
    for s in range(1, 5):
        for sizes in itertools.combinations_with_replacement(range(1, 5), s):
            if not is_near_uniform(sizes):
                continue
            for b in range(1, 4):
                if bob_wins(sizes, b) != solve_boxgame(sizes, b):
                    return False, f"mismatch at sizes={list(sizes)} b={b}"
                checked += 1
    dt = time.perf_counter() - t0
    return dt < 60.0, f"{checked} families agree in {dt:.1f}s (budget 60s)"


def _check_f_recurrence() -> tuple[bool, str]:
    """Pinned f values, and f(s,b) >= (b-1)*s*H_{s-1} for s <= 1000, b <= 10."""
    pinned = {(2, 1): 2, (3, 1): 4, (4, 1): 6, (5, 2): 20}
    for (s, b), want in pinned.items():
        got = box_threshold(s, b)
        if got != want:
            return False, f"f({s},{b}) = {got}, want {want}"
    for b in range(1, 11):
        # Running the recurrence and the harmonic sum incrementally keeps
        # the 10,000-point sweep cheap; spot-check against box_threshold.
        val = 0
        harmonic = Fraction(0)
        for s in range(2, 1001):
            val = (s * (val + b)) // (s - 1)
            harmonic += Fraction(1, s - 1)
            if s in (10, 100, 1000) and val != box_threshold(s, b):
                return False, f"recurrence drift at s={s}, b={b}"
            if val < (b - 1) * s * harmonic:
                return False, f"f({s},{b}) = {val} < (b-1)sH_(s-1)"
    return True, "pinned values exact; lower bound holds for s<=1000, b<=10"


def _check_reduction_small() -> tuple[bool, str]:
    """C_10, b=3, k=2: good set of 2, Breaker value, box strategy certified."""
    t0 = time.perf_counter()
    g = cycle(10)
    cert = find_good_set(g)
    if len(cert) != 2:
        return False, f"|F| = {len(cert)}, want 2"
    if not harmonic_condition(g, cert.edges, 3):
        return False, "harmonic condition not satisfied"
    res = solve(g, 2, GameConfig.skip_variant(k=2, b=3))
    if res.winner != BREAKER:
        return False, f"solver says {res.winner}, want breaker"
    for factory in (GameConfig.skip_variant, GameConfig.classic):
        ver = verify_strategy(
            g, 2, factory(k=2, b=3), BoxReductionBreaker(), BREAKER
        )
        if not ver.sound:
            return False, "box strategy refuted by some Maker line"
    dt = time.perf_counter() - t0
    return dt < 300.0, f"|F|=2, solver=breaker, certified both variants in {dt:.1f}s"


def _reduction_medium_report() -> str:
    docs = {}
    for maker in ("random", "greedy"):
        spec = ExperimentSpec(
            graph="cycle:25", maker=maker, breaker="box",
            k=2, b=2, trials=1000, seed=derive_seed(ACCEPT_SEED, "c7", maker),
        )
        docs[maker] = json.loads(run_match(spec).to_json())
    return json.dumps(docs, sort_keys=True, indent=2)


def _check_reduction_medium() -> tuple[bool, str]:
    """C_25, b=2, k=2: good set of 5, condition 2 <= H_4, 2000 box wins."""
    t0 = time.perf_counter()
    g = cycle(25)
    cert = find_good_set(g)
    if len(cert) != 5:
        return False, f"|F| = {len(cert)}, want 5"
    if not harmonic_condition(g, cert.edges, 2):
        return False, "condition 2 <= H_4 not satisfied"
    doc = json.loads(_reduction_medium_report())
    for maker in ("random", "greedy"):
        wins = doc[maker]["results"]["breaker_wins"]
        if wins != 1000:
            return False, f"box breaker lost {1000 - wins} games vs {maker} maker"
    dt = time.perf_counter() - t0
    return dt < 120.0, f"|F|=5, 2 <= H_4, 2000/2000 box wins in {dt:.1f}s (budget 120s)"


def _check_pigeonhole_corpus() -> tuple[bool, str]:
    """k = 2*Delta - 1 concedes nothing: zero Breaker wins in 1000 games."""
    breaker_wins = 0
    games = 0
    for name, g in mixed_corpus():
        spec = ExperimentSpec(
            graph=name, maker="random", breaker="random",
            k=2 * g.max_degree - 1, trials=40,
            seed=derive_seed(ACCEPT_SEED, "c8", name),
        )
        rep = run_match(spec)
        breaker_wins += rep.breaker_wins
        games += rep.trials
    ok = games >= 1000 and breaker_wins == 0
    return ok, f"{breaker_wins} breaker wins in {games} games over {len(mixed_corpus())} graphs"


def _recount_rows(g, log) -> tuple[list[list[int]], list[list[int]]]:
    """Per-vertex end-of-round loads and Gamma' sums straight from the
    records, without the engine or the collector: a row at every
    end-of-turn record and, if the log ends mid-round, one at its end."""
    load = [0] * g.n
    gamma = [set(nbrs) for nbrs in g.adj]  # Gamma'(v): joined by an uncolored edge
    loads, sums = [], []

    def take_row() -> None:
        loads.append(list(load))
        sums.append([sum(map(load.__getitem__, nbrs)) for nbrs in gamma])

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
        gamma[x].discard(y)
        gamma[y].discard(x)
        dirty = True
    if dirty:
        take_row()
    return [list(col) for col in zip(*loads)], [list(col) for col in zip(*sums)]


def _paper_maker_report() -> str:
    g = random_regular(64, 16, seed=1)
    k = math.ceil(1.95 * 16)
    cfg = GameConfig.skip_variant(k=k, mode=MODIFIED)
    mcfg = MakerConfig()
    maker_wins = 0
    mismatches = 0
    unfinished = 0
    total_rounds = 0
    games = 100
    for i in range(games):
        maker = DangerRedirectMaker(mcfg, seed=derive_seed(ACCEPT_SEED, "c9", i))
        col = TraceCollector(g, cfg, mcfg)
        s = play_game(g, cfg, maker, GreedyBlockingBreaker(), col)
        live = col.finish(s)
        if not s.game_over():
            unfinished += 1
        # the replay runs the collector again; the recount checks its rows
        loads, sums = _recount_rows(g, s.log)
        if (
            live != analyze(s.log, g, cfg, mcfg)
            or [t.loads for t in live.traces] != loads
            or [t.nbr_sum for t in live.traces] != sums
        ):
            mismatches += 1
        if s.winner() == MAKER_WON:
            maker_wins += 1
        total_rounds += s.round
    lo, hi = wilson_interval(maker_wins, games)
    doc = {
        "spec": {
            "graph": "random_regular:64:16:1",
            "k": k,
            "maker": "paper",
            "breaker": "greedy",
            "mode": MODIFIED,
            "games": games,
        },
        "results": {
            "all_terminated": unfinished == 0,
            "telemetry_mismatches": mismatches,
            "maker_wins": maker_wins,
            "win_rate": maker_wins / games,
            "wilson_95": [lo, hi],
            "mean_rounds": total_rounds / games,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def _check_paper_maker_integrity() -> tuple[bool, str]:
    """100 instrumented games: termination, live == replayed telemetry,
    and the live rows equal a recount from the records."""
    doc = json.loads(_paper_maker_report())
    res = doc["results"]
    if not res["all_terminated"]:
        return False, "some game failed to terminate"
    if res["telemetry_mismatches"]:
        return False, f"{res['telemetry_mismatches']} telemetry mismatches"
    return True, (
        f"100 games terminated, telemetry exact; maker win rate "
        f"{res['win_rate']:.2f} (95% CI {res['wilson_95'][0]:.2f}-{res['wilson_95'][1]:.2f})"
    )


def _check_solver_self_consistency() -> tuple[bool, str]:
    """Memoized solve == unmemoized solve on all small corpus graphs."""
    checked = 0
    for name, g in mixed_corpus():
        if g.m > 7:
            continue
        d = g.max_degree
        for k in range(max(1, d), 2 * d):
            for factory in (GameConfig.skip_variant, GameConfig.classic):
                cfg = factory(k=k)
                a = solve(g, k, cfg, memoize=True)
                b = solve(g, k, cfg, memoize=False)
                if a.winner != b.winner:
                    return False, f"disagreement on {name}, k={k}"
                checked += 1
    return True, f"{checked} (graph, k, variant) solves agree"


def _check_determinism() -> tuple[bool, str]:
    """Criteria 7 and 9 reruns are byte-identical."""
    if _reduction_medium_report() != _reduction_medium_report():
        return False, "criterion 7 report differs between runs"
    if _paper_maker_report() != _paper_maker_report():
        return False, "criterion 9 report differs between runs"
    return True, "criterion 7 and 9 reports byte-identical across reruns"


CRITERIA: dict[int, tuple[str, object]] = {
    1: ("stars-exact", _check_stars),
    2: ("odd-cycles", _check_odd_cycles),
    3: ("forest-bound", _check_forest_bound),
    4: ("boxgame-oracle", _check_boxgame_oracle),
    5: ("f-recurrence", _check_f_recurrence),
    6: ("reduction-small", _check_reduction_small),
    7: ("reduction-medium", _check_reduction_medium),
    8: ("pigeonhole-corpus", _check_pigeonhole_corpus),
    9: ("paper-maker-integrity", _check_paper_maker_integrity),
    10: ("solver-self-consistency", _check_solver_self_consistency),
    11: ("determinism", _check_determinism),
}


def run_criterion(number: int) -> CriterionResult:
    name, fn = CRITERIA[number]
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
        status = "PASS" if ok else "FAIL"
    except BudgetExceeded as exc:
        status, detail = "SKIP", f"budget exceeded after {exc.nodes} nodes"
    return CriterionResult(number, name, status, detail, time.perf_counter() - t0)


def run_criteria(only: list[int] | None = None) -> list[CriterionResult]:
    numbers = sorted(CRITERIA) if only is None else only
    return [run_criterion(n) for n in numbers]
