"""Workloads, correctness checks and metrics of the gamelab benchmark.

A run has three phases.  Set-up imports the package afresh and builds the
workload's inputs, several times before the timed phase and again after it.
The timed phase repeats *passes* over the workload's fixed item set until
``seconds`` have elapsed, checking every item.  A fixed reference
computation is timed between set-ups and between items, and
``setup_s`` and ``wall_s`` are medians of time ÷ reference time, expressed
in reference seconds (``REF_S``).  In a traced run one more pass follows
with timing wrappers installed on the package's public functions (see
``tracer.py``), which gives the per-layer metrics of that pass in plain
seconds.

Nothing here imports ``gamelab`` at module level: the import is part of the
measured set-up.  Every random choice is derived from the workload seed with
``derive_seed``; graph specs are fixed.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import random
import resource
import statistics
import sys
import time
from types import SimpleNamespace

from tracer import Tracer, replace_everywhere, wrap_methods

MAKER_WON = "maker_won"
BREAKER_WON = "breaker_won"

SETUP_REPS = 5  # before and again after the timed phase
REF_S = 0.025  # end-to-end times are in units of 25 ms of reference() work
MODULES = ("engine", "exact", "maker", "breaker", "boxgame", "goodset", "graph", "telemetry", "cli", "_util")


def import_gamelab() -> SimpleNamespace:
    """Import the package from scratch; a namespace of its modules."""
    for name in [n for n in sys.modules if n == "gamelab" or n.startswith("gamelab.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m.lstrip("_"): importlib.import_module(f"gamelab.{m}") for m in MODULES}
    )


class Checks:
    """Items attempted and failed; an item is a solve, a verification or a game."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)


def check_winner_map(checks: Checks, label: str, result, expected: dict[int, str]) -> None:
    value = min(k for k, w in expected.items() if w == MAKER_WON)
    ok = not result.partial and result.winners == expected and result.value == value
    checks.check(ok, f"{label}: winners {result.winners}, value {result.value}")


def check_verification(checks: Checks, label: str, result, sound: bool, replay_winner) -> None:
    """``sound`` is the pinned verdict; a refutation must replay to a Maker win."""
    ok = result.sound == sound
    if ok and not sound:
        ok = replay_winner(result.counterexample) == MAKER_WON
    checks.check(ok, f"{label}: sound={result.sound}, expected {sound}")


def check_box_report(checks: Checks, label: str, report) -> None:
    """Breaker wins every game: the harmonic condition 2 <= H_4 holds on C_25."""
    checks.add(report.trials, report.maker_wins, f"{label}: {report.maker_wins} maker wins")


def check_paper_game(checks: Checks, label: str, over: bool, live, replayed) -> None:
    same = live == replayed
    checks.check(over and same, f"{label}: over={over}, telemetry equal={same}")


class Workload:
    """Inputs built at set-up, plus ``items``: the callables of one pass.

    Each callable runs one item and records its check; a pass always has the
    same number of items, in the same order.
    """

    name = ""

    def __init__(self, gl: SimpleNamespace, seed: int) -> None:
        self.gl = gl
        self.seed = seed
        self.game_times: list[float] = []  # seconds per game, match workloads only

    def start(self) -> None:
        """Called once after set-up, before the timed phase."""

    def items(self, p: int, checks: Checks) -> list:
        raise NotImplementedError


class ChiLadder(Workload):
    """Exact values only: ``exact`` plus ``engine``, no strategy code."""

    name = "chi-ladder"
    RUNGS = (
        ("C_11", "cycle:11", "skip_variant", {2: BREAKER_WON, 3: MAKER_WON}),
        ("K_5", "complete:5", "skip_variant", {4: BREAKER_WON, 5: BREAKER_WON, 6: MAKER_WON, 7: MAKER_WON}),
        ("K_3,3", "complete_bipartite:3:3", "skip_variant", {3: BREAKER_WON, 4: MAKER_WON, 5: MAKER_WON}),
        ("C_11 classic", "cycle:11", "classic", {2: BREAKER_WON, 3: MAKER_WON}),
    )

    def __init__(self, gl, seed):
        super().__init__(gl, seed)
        self.rungs = [
            (label, gl.graph.generate(spec), getattr(gl.engine.GameConfig, variant)(k=1), expected)
            for label, spec, variant, expected in self.RUNGS
        ]

    def items(self, p, checks):
        exact = self.gl.exact

        def rung(label, g, cfg, expected):
            check_winner_map(checks, label, exact.game_chromatic_index(g, 1, cfg), expected)

        return [functools.partial(rung, *r) for r in self.rungs]


class Certify(Workload):
    """Strategies under full search: clones of state and strategy per branch."""

    name = "certify"

    def __init__(self, gl, seed):
        super().__init__(gl, seed)
        GameConfig = gl.engine.GameConfig
        self.c8 = gl.graph.generate("cycle:8")
        self.k55 = gl.graph.generate("complete_bipartite:5:5")
        self.rr16 = gl.graph.generate("random_regular:16:4:3")
        self.skip3 = GameConfig.skip_variant(k=3)
        self.classic4 = GameConfig.classic(k=4, b=2)
        self.greedy = gl.maker.GreedyMaker()
        self.box = gl.breaker.BoxReductionBreaker()

    def items(self, p, checks):
        gl = self.gl
        paper = gl.maker.DangerRedirectMaker(seed=gl.util.derive_seed(self.seed, "certify", "paper", p))

        def rung(label, g, k, cfg, strategy, side, sound):
            res = gl.exact.verify_strategy(g, k, cfg, strategy, side)
            check_verification(checks, label, res, sound, lambda log: gl.engine.replay(g, cfg, log).winner())

        rungs = (
            ("paper maker C_8", self.c8, 3, self.skip3, paper, gl.engine.MAKER, True),
            ("greedy maker C_8", self.c8, 3, self.skip3, self.greedy, gl.engine.MAKER, True),
            ("box breaker K_5,5", self.k55, 4, self.classic4, self.box, gl.engine.BREAKER, True),
            ("box breaker random_regular:16:4:3", self.rr16, 4, self.classic4, self.box, gl.engine.BREAKER, False),
        )
        return [functools.partial(rung, *r) for r in rungs]


class BoxMatch(Workload):
    """Two-move games, so per-trial set-up (good set, box mapping) dominates."""

    name = "box-match"
    TRIALS = 250
    MAKERS = ("random", "greedy")

    def __init__(self, gl, seed):
        super().__init__(gl, seed)
        self.specs = [
            gl.cli.ExperimentSpec(graph="cycle:25", maker=m, breaker="box", k=2, b=2, trials=self.TRIALS)
            for m in self.MAKERS
        ]

    def start(self):
        # run_match gives no per-game times, so time play_game where it is looked up
        play_game = self.gl.cli.play_game
        times = self.game_times

        def timed_play_game(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return play_game(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)

        replace_everywhere(play_game, timed_play_game)

    def items(self, p, checks):
        cli, derive_seed = self.gl.cli, self.gl.util.derive_seed

        def match(spec):
            spec = dataclasses.replace(spec, seed=derive_seed(self.seed, "box-match", spec.maker, p))
            check_box_report(checks, f"{spec.maker} maker pass {p}", cli.run_match(spec))

        return [functools.partial(match, spec) for spec in self.specs]


class PaperMatch(Workload):
    """Long live games with telemetry, each re-derived by ``analyze``."""

    name = "paper-match"
    GAMES = 4

    def __init__(self, gl, seed):
        super().__init__(gl, seed)
        self.g = gl.graph.generate("random_regular:64:16:1")
        self.cfg = gl.engine.GameConfig.skip_variant(k=32, mode=gl.engine.MODIFIED)
        self.mcfg = gl.maker.MakerConfig()
        self.master = gl.util.derive_seed(seed, "paper-match")

    def items(self, p, checks):
        gl, g, cfg, mcfg = self.gl, self.g, self.cfg, self.mcfg

        def game(i):
            t0 = time.perf_counter()
            maker = gl.maker.DangerRedirectMaker(mcfg, seed=gl.util.derive_seed(self.master, i, "maker"))
            collector = gl.telemetry.TraceCollector(g, cfg, mcfg)
            s = gl.cli.play_game(g, cfg, maker, gl.breaker.GreedyBlockingBreaker(), collector)
            live = collector.finish(s)
            replayed = gl.telemetry.analyze(s.log, g, cfg, mcfg)
            self.game_times.append(time.perf_counter() - t0)
            check_paper_game(checks, f"game {i}", s.game_over(), live, replayed)

        return [functools.partial(game, i) for i in range(p * self.GAMES, (p + 1) * self.GAMES)]


WORKLOADS = {w.name: w for w in (ChiLadder, Certify, BoxMatch, PaperMatch)}

# (metric prefix, module, function, wrapper options); coarse calls get spans
TRACED_FUNCTIONS = (
    ("exact.game_chromatic_index", "exact", "game_chromatic_index", {"span": True}),
    ("exact.solve", "exact", "solve", {"span": True, "nodes": True}),
    ("exact.verify_strategy", "exact", "verify_strategy", {"span": True, "nodes": True}),
    ("cli.run_match", "cli", "run_match", {"span": True}),
    ("cli.play_game", "cli", "play_game", {"span": True}),
    ("telemetry.analyze", "telemetry", "analyze", {"span": True}),
    ("goodset.find_good_set", "goodset", "find_good_set", {}),
    ("maker.compute_danger_set", "maker", "compute_danger_set", {}),
    ("boxgame.bob_strategy", "boxgame", "bob_strategy", {}),
    ("graph.generate", "graph", "generate", {}),
)
# (metric prefix, module, method): wrapped on every class of the module defining it.
# GameState.avail_mask is left out on purpose: it runs ~600k times per ladder
# and its cost already shows in its callers' self time.
TRACED_METHODS = (
    ("engine.clone", "engine", "clone"),
    ("engine.apply_move", "engine", "apply_move"),
    ("engine.end_breaker_turn", "engine", "end_breaker_turn"),
    ("maker.move", "maker", "move"),
    ("maker.clone", "maker", "clone"),
    ("breaker.micro_move", "breaker", "micro_move"),
    ("breaker.clone", "breaker", "clone"),
    ("breaker.snapshot", "breaker", "snapshot"),
    ("breaker.for_game", "breaker", "for_game"),
    ("graph.vertex_distances", "graph", "vertex_distances"),
    ("telemetry.observe", "telemetry", "observe"),
    ("telemetry.finish", "telemetry", "finish"),
)


def install_tracer(tracer: Tracer, gl: SimpleNamespace) -> None:
    for name, mod, attr, opts in TRACED_FUNCTIONS:
        original = getattr(getattr(gl, mod), attr)
        replace_everywhere(original, tracer.wrap(name, original, **opts))
    for name, mod, method in TRACED_METHODS:
        if not wrap_methods(tracer, name, getattr(gl, mod), method):
            raise RuntimeError(f"no class in gamelab.{mod} defines {method}")


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile that leaves at least ten
    samples beyond it, capped at p99.9, by nearest rank."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 0.0, xs[0]
    pct = min(99.9, 100.0 * (n - 10) / n)
    return pct, xs[math.ceil(pct / 100.0 * n) - 1]


def layer_metrics(tracer: Tracer, pass_wall: float, untraced_wall: float, generate_s: float) -> dict:
    out: dict[str, float] = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = st.calls
        out[f"{name}.self_s"] = st.self_s
        if name in ("exact.solve", "exact.verify_strategy"):
            out[f"{name}.nodes"] = st.nodes
            out[f"{name}.nodes_per_s"] = st.nodes / st.total_s if st.total_s else 0.0
    nodes = tracer.stats["exact.solve"].nodes + tracer.stats["exact.verify_strategy"].nodes
    out["engine.clones_per_node"] = tracer.stats["engine.clone"].calls / nodes if nodes else 0.0
    out["graph.generate.self_s"] = generate_s
    out["trace.overhead_ratio"] = pass_wall / untraced_wall
    out["trace.coverage"] = sum(st.self_s for st in tracer.stats.values()) / pass_wall
    return out


def clock(fn) -> float:
    """Seconds taken by ``fn()``."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def reference() -> int:
    """Fixed work that uses only the standard library, in the proportions the
    package's own inner loops use it: list and set copies, bytes keys, dict
    inserts, and generators reseeded from the OS and restored from a state.

    It is timed between items and between set-ups, and end-to-end times are
    reported relative to it (see ``in_reference_seconds``).  It defines the
    time unit, so it must never change.
    """
    table = {}
    state = list(range(64))
    sets = [set(range(i, i + 8)) for i in range(64)]
    rng = random.Random(0)
    for i in range(6000):
        st = list(state)
        copies = [set(x) for x in sets[:16]]
        st[i % 64] = i
        table[bytes(j & 255 for j in st[i % 40 : i % 40 + 24])] = len(copies)
        if i % 16 == 0:
            random.Random().setstate(rng.getstate())
    return len(table)


def in_reference_seconds(times: list[float], refs: list[float]) -> float:
    """Median of ``time / reference time around it``, in units of ``REF_S``.

    On a shared machine CPU speed drifts by tens of percent within minutes,
    and CPU time tracks wall time, so raw times of runs made minutes apart are
    not comparable.  Dividing each time by the reference timed around it
    cancels the speed of that moment.
    """
    return REF_S * statistics.median(t / r for t, r in zip(times, refs))


def run_pass(wl: Workload, p: int, checks: Checks, refs: list[float] | None = None) -> list[float]:
    """Run pass ``p``; the time of each item.  With ``refs``, the reference is
    timed between the items, and for each item the mean of the reference
    times before and after it is appended there."""
    times: list[float] = []
    around: list[float] = []
    for item in wl.items(p, checks):
        if refs is not None:
            around.append(clock(reference))
        times.append(clock(item))
    if refs is not None:
        around.append(clock(reference))
        refs.extend((a + b) / 2 for a, b in zip(around, around[1:]))
    return times


def timed_passes(wl: Workload, checks: Checks, seconds: float) -> tuple[list[list[float]], list[list[float]]]:
    """Run passes until ``seconds`` have elapsed (at least one).

    Returns the item times and the adjacent reference times, per pass.
    """
    passes: list[list[float]] = []
    refs: list[list[float]] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        refs.append([])
        passes.append(run_pass(wl, len(passes), checks, refs[-1]))
    return passes, refs


def set_up(cls, seed: int, times: list[float], refs: list[float]) -> Workload:
    """Import the package and build the inputs ``SETUP_REPS`` times, with the
    reference timed around each; returns the last workload."""
    around = [clock(reference)]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = cls(import_gamelab(), seed)
        times.append(time.perf_counter() - t0)
        around.append(clock(reference))
    refs.extend((a + b) / 2 for a, b in zip(around, around[1:]))
    return wl


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns metric values, checks and sample counts."""
    cls = WORKLOADS[name]
    setup_times: list[float] = []
    setup_refs: list[float] = []
    wl = set_up(cls, seed, setup_times, setup_refs)
    checks = Checks()
    wl.start()
    passes, refs = timed_passes(wl, checks, seconds)
    walls = [sum(times) for times in passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    game_times = list(wl.game_times)
    out = {"checks": checks, "spans": None}
    samples = {"passes": len(passes), "items": checks.attempted, "games": len(game_times)}
    game_layer = {"match.game_p50_ms": 0.0, "match.game_tail_ms": 0.0}
    if game_times:
        pct, value = tail(game_times)
        samples["game_tail_percentile"] = pct
        game_layer = {
            "match.game_p50_ms": 1000.0 * statistics.median(game_times),
            "match.game_tail_ms": 1000.0 * value,
        }
    if trace:
        gl = wl.gl
        tracer = Tracer()
        install_tracer(tracer, gl)
        cls(gl, seed)  # a traced set-up, for graph.generate
        generate_s = tracer.stats["graph.generate"].self_s
        tracer.reset()
        with tracer.span(f"pass:{name}"):
            pass_wall = sum(run_pass(wl, 0, checks))
        out["per_layer"] = {
            **layer_metrics(tracer, pass_wall, statistics.median(walls), generate_s),
            **game_layer,
        }
        out["spans"] = tracer.spans
    # set up again after the timed phase, so setup_s samples two moments of the run
    set_up(cls, seed, setup_times, setup_refs)
    samples["setups"] = len(setup_times)
    out["samples"] = samples
    # one pass: every item slot at its median time relative to the reference
    slots = zip(zip(*passes), zip(*refs))
    out["end_to_end"] = {
        "setup_s": in_reference_seconds(setup_times, setup_refs),
        "wall_s": sum(in_reference_seconds(ts, rs) for ts, rs in slots),
        "peak_rss_mb": peak_rss_mb,
    }
    all_refs = [r for rs in refs for r in rs] + setup_refs
    out["raw"] = {
        "setup_s": statistics.median(setup_times),
        "median_pass_s": statistics.median(walls),
        "reference_s": statistics.median(all_refs),
    }
    return out
