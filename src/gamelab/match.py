"""Seeded matches between a Maker and a Breaker policy.

One master seed determines a match byte for byte: per-trial randomness is
derived by hashing ``(seed, trial, role)``, never drawn from a shared
generator, so trial order cannot matter.  Also here: the policy registries,
graph loading by file or name, and the named smoke corpus.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from ._util import derive_seed, wilson_interval
from .breaker import (
    BoxReductionBreaker,
    GreedyBlockingBreaker,
    SkipBreaker,
    UniformRandomBreaker,
)
from .engine import MAKER_WON, STRICT, GameConfig, GameState, new_game, step
from .graph import Graph, generate, read_edge_list
from .maker import DangerRedirectMaker, GreedyMaker, MakerConfig, UniformRandomMaker

MAKER_POLICIES = ("paper", "random", "greedy")
BREAKER_POLICIES = ("box", "random", "greedy", "skip")

# corpus graphs that no generator spec describes, as (n, edges)
_NAMED_GRAPHS = {
    "spider": (7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)]),
    "caterpillar": (8, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (3, 7)]),
    "petersen": (
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    ),
}

_CORPUS = (
    *(f"star:{n}" for n in range(2, 7)),
    *(f"path:{n}" for n in range(3, 7)),
    *(f"cycle:{n}" for n in range(3, 8)),
    "complete:4",
    "complete:5",
    "complete_bipartite:2:3",
    "complete_bipartite:3:3",
    "spider",
    "caterpillar",
    "gnp:8:0.4:7",
    "gnp:10:0.3:11",
    "random_regular:8:3:5",
    "random_regular:10:4:9",
    "petersen",
)


def make_maker(policy: str, seed: int, mcfg: MakerConfig | None = None):
    if policy == "paper":
        return DangerRedirectMaker(mcfg or MakerConfig(), seed=seed)
    if policy == "random":
        return UniformRandomMaker(seed=seed)
    if policy == "greedy":
        return GreedyMaker()
    raise ValueError(f"unknown maker policy {policy!r}")


def make_breaker(policy: str, seed: int):
    if policy == "box":
        return BoxReductionBreaker()
    if policy == "random":
        return UniformRandomBreaker(seed=seed)
    if policy == "greedy":
        return GreedyBlockingBreaker()
    if policy == "skip":
        return SkipBreaker()
    raise ValueError(f"unknown breaker policy {policy!r}")


def play_game(g: Graph, cfg: GameConfig, maker, breaker, collector=None) -> GameState:
    """Drive one game to the end, optionally feeding every transition to
    a trace collector.  The driver, not the breaker policy, ends the
    Breaker turn once the bias is spent."""
    s = new_game(g, cfg)
    while not s.game_over():
        step(s, maker, breaker)
        if collector is not None:
            collector.observe(s)
    return s


@dataclass
class ExperimentSpec:
    """A reproducible match: graph, policies, rules, trial count, seed."""

    graph: str
    maker: str
    breaker: str
    k: int
    b: int = 1
    variant: str = "skip"
    mode: str = STRICT
    trials: int = 1
    seed: int = 0
    lam: str | None = None
    c: str | None = None
    logs_dir: str | None = None

    def game_config(self) -> GameConfig:
        return GameConfig(self.k, self.b, self.variant, self.mode)

    def maker_config(self) -> MakerConfig | None:
        if self.lam is None and self.c is None:
            return None
        base = MakerConfig()
        return MakerConfig(
            lam=self.lam if self.lam is not None else base.lam,
            c=self.c if self.c is not None else base.c,
        )


@dataclass
class MatchReport:
    """Aggregated match outcome; counts and sums only, so trial order
    can never leak into the report."""

    spec: ExperimentSpec
    maker_wins: int
    breaker_wins: int
    total_moves: int
    total_rounds: int
    forced_nonproper: int
    wilson_low: float
    wilson_high: float

    @property
    def trials(self) -> int:
        return self.maker_wins + self.breaker_wins

    def to_json(self) -> str:
        doc = {
            "spec": asdict(self.spec),
            "results": {
                "trials": self.trials,
                "maker_wins": self.maker_wins,
                "breaker_wins": self.breaker_wins,
                "mean_game_length": self.total_moves / max(1, self.trials),
                "mean_rounds": self.total_rounds / max(1, self.trials),
                "forced_nonproper": self.forced_nonproper,
                "maker_win_rate": self.maker_wins / max(1, self.trials),
                "wilson_95": [self.wilson_low, self.wilson_high],
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def run_match(spec: ExperimentSpec) -> MatchReport:
    """Play spec.trials independent seeded games and aggregate."""
    g = load_graph(spec.graph)
    cfg = spec.game_config()
    mcfg = spec.maker_config()
    logs_dir = Path(spec.logs_dir) if spec.logs_dir else None
    if logs_dir is not None:
        logs_dir.mkdir(parents=True, exist_ok=True)
    maker_wins = breaker_wins = moves = rounds = forced = 0
    for i in range(spec.trials):
        maker = make_maker(spec.maker, derive_seed(spec.seed, i, "maker"), mcfg)
        breaker = make_breaker(spec.breaker, derive_seed(spec.seed, i, "breaker"))
        s = play_game(g, cfg, maker, breaker)
        if s.winner() == MAKER_WON:
            maker_wins += 1
        else:
            breaker_wins += 1
        # one edge per coloring record; the policies annotate every forced move
        moves += g.m - s.uncolored
        forced += s.forced_count
        rounds += s.round
        if logs_dir is not None:
            (logs_dir / f"trial_{i:04d}.jsonl").write_text(s.log.to_jsonl(g))
    lo, hi = wilson_interval(maker_wins, spec.trials)
    return MatchReport(
        spec=spec,
        maker_wins=maker_wins,
        breaker_wins=breaker_wins,
        total_moves=moves,
        total_rounds=rounds,
        forced_nonproper=forced,
        wilson_low=lo,
        wilson_high=hi,
    )


def _named_graph(name: str) -> Graph:
    """A corpus graph by name, else the graph of a generator spec."""
    if name in _NAMED_GRAPHS:
        return Graph(*_NAMED_GRAPHS[name])
    return generate(name)


def mixed_corpus() -> list[tuple[str, Graph]]:
    """The named smoke-test corpus: 25 small graphs across families."""
    return [(name, _named_graph(name)) for name in _CORPUS]


def load_graph(source: str) -> Graph:
    """A file path if one exists there, else a name or generator spec."""
    p = Path(source)
    if p.exists():
        return read_edge_list(p.read_text())
    return _named_graph(source)
