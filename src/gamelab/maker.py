"""Maker policies: the randomized danger-redirect strategy and baselines.

The headline strategy colors edges near the recent action: it anchors on its
own previous edge or one of Breaker's last-turn edges, walks to a random
endpoint, and colors a random uncolored edge there with a random available
color.  Per-vertex load thresholds T1 < T2 < T3 (fractions of lambda/b times
the maximum degree) drive a correction term: when a vertex v crosses T2, the
set D(v) of *dangerous* neighbors is frozen once, and from then on a small
probability q redirects Maker's choice into D(v) so the risky edges at v get
colored before v's load reaches T3.

All random draws come from the strategy's `DrawTape`, the words of one
`random.Random(seed)` shared by every clone, in a fixed documented order
(see `DangerRedirectMaker`).  They use the words as `random.Random` would,
so logs replay bit-for-bit from the seed; a clone copies a tape position.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from ._util import DrawTape, StrategyError
from .engine import BREAKER, MAKER, MODIFIED, GameState, MoveLog, uniform_legal_move

_INF = math.inf


def _as_fraction(x: object, name: str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**9)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{name} {x!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"{name} {x!r} is not a fraction") from None
    raise TypeError(f"cannot interpret {x!r} as an exact fraction")


@dataclass(frozen=True)
class MakerConfig:
    """Constants of the randomized strategy: lambda, c, and derived q = 6c/lambda.

    Thresholds are exact rationals T_j = j * lambda * Delta / b, compared
    against integer loads via their ceilings (load >= T iff load >= ceil(T)).
    """

    lam: Fraction = Fraction(1, 10)
    c: Fraction = Fraction(1, 1000)

    def __post_init__(self) -> None:
        lam = _as_fraction(self.lam, "lambda")
        c = _as_fraction(self.c, "c")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "c", c)
        if not 0 < lam < 1:
            raise ValueError("lambda must lie in (0, 1)")
        if not 0 < c <= lam / 6:
            raise ValueError("c must lie in (0, lambda/6] so that q <= 1")

    @property
    def q(self) -> Fraction:
        return 6 * self.c / self.lam

    def threshold(self, j: int, delta: int, b: int) -> Fraction:
        """T_j = j * lambda * b^-1 * Delta, exactly."""
        return Fraction(j) * self.lam * delta / b

    def thresholds(self, delta: int, b: int) -> tuple[int, int, int]:
        """The smallest integer loads that meet T_1, T_2 and T_3."""
        return tuple(math.ceil(self.threshold(j, delta, b)) for j in (1, 2, 3))

    def default_palette(self, delta: int, b: int) -> int:
        """k = floor((2 - c * b^-4) * Delta), clamped into [Delta, 2*Delta - 1]."""
        if delta < 1 or b < 1:
            raise ValueError("need delta >= 1 and b >= 1")
        raw = math.floor((2 - self.c / b**4) * delta)
        return max(delta, min(2 * delta - 1, raw))


@dataclass
class MakerMemory:
    """Per-game state of the danger-redirect strategy.

    ``t1_round[v]`` / ``t2_round[v]`` / ``t3_round[v]`` give the first round
    r whose end-of-round load satisfied ``load_r(v) >= T1`` (resp. T2, T3).
    ``danger[v]`` is frozen exactly once, at v's T2-crossing round.  ``f0``
    is the edge Maker colored on his previous move.
    """

    f0: int | None = None
    t1_round: dict[int, int] = field(default_factory=dict)
    t2_round: dict[int, int] = field(default_factory=dict)
    t3_round: dict[int, int] = field(default_factory=dict)
    danger: dict[int, frozenset[int]] = field(default_factory=dict)

    def copy(self) -> "MakerMemory":
        t1, t2, t3 = self.t1_round.copy(), self.t2_round.copy(), self.t3_round.copy()
        return MakerMemory(self.f0, t1, t2, t3, self.danger.copy())


def record_crossings(
    s: GameState,
    mem: MakerMemory,
    thresholds: tuple[int, int, int],
    r: int,
    touched: Iterable[int],
) -> None:
    """Record the threshold crossings of round r and freeze new danger sets.

    ``s`` is the position at the end of round r, so ``s.load[v]`` is v's
    load then, and ``thresholds`` are the integer loads (ceilings) that meet
    T1 <= T2 <= T3.  Each vertex whose load meets T_j for the first time
    gets ``r`` in ``mem.t<j>_round``.  Once every crossing is recorded, D(v)
    is frozen from ``s`` for each vertex newly past T2.

    Loads only grow, so a vertex whose load is unchanged since the last call
    on ``mem`` has nothing new to cross: ``touched`` lists the vertices whose
    load may have changed since then (every vertex, on the first call), in
    any order and possibly more than once, and only those are read.
    """
    t1, t2, t3 = thresholds
    t1_round, t2_round, t3_round = mem.t1_round, mem.t2_round, mem.t3_round
    loads = s.load
    newly_t2 = []
    for v in touched:
        load = loads[v]
        # a vertex past T3 has every crossing recorded
        if load < t1 or v in t3_round:
            continue
        if v not in t1_round:
            t1_round[v] = r
        if load >= t2 and v not in t2_round:
            t2_round[v] = r
            newly_t2.append(v)
        if load >= t3:
            t3_round[v] = r
    for v in newly_t2:
        compute_danger_set(s, mem, v)


def compute_danger_set(s: GameState, mem: MakerMemory, v: int) -> frozenset[int]:
    """Freeze D(v): the dangerous neighbors of v, at its T2-crossing round.

    A neighbor u qualifies when
      (i)   the edge {u, v} is still uncolored,
      (ii)  deg(u) + deg(v) >= k,
      (iii) the endpoints share at most 2*Delta - k used colors, and
      (iv)  u reached load T1 no later than v did.

    Stores the result in ``mem.danger[v]`` and returns it.
    """
    if v in mem.danger:
        raise StrategyError(f"danger set for vertex {v} is already frozen")
    if v not in mem.t2_round:
        raise StrategyError(f"vertex {v} has not crossed T2 yet")
    g = s.g
    k = s.cfg.k
    overlap_cap = 2 * g.max_degree - k
    t1_round, color, adj, umask = mem.t1_round, s.color, g.adj, s.umask
    t1_v, used_v = t1_round[v], umask[v]
    least_deg_u = k - len(adj[v])  # deg(u) + deg(v) >= k
    members = []
    for u, e in zip(adj[v], g.incident[v]):
        if color[e] or len(adj[u]) < least_deg_u:
            continue
        if (umask[u] & used_v).bit_count() > overlap_cap:
            continue
        if t1_round.get(u, _INF) <= t1_v:
            members.append(u)
    result = frozenset(members)
    mem.danger[v] = result
    return result


def last_breaker_turn(log: MoveLog) -> list[int]:
    """Edges Breaker colored in the turn whose end-of-turn record ends the
    log, in play order (empty if the log ends otherwise); reads that turn only."""
    if not log or not log[-1].skip:
        return []
    i = len(log) - 1
    while i > 0 and log[i - 1].player == BREAKER and not log[i - 1].skip:
        i -= 1
    return [rec.edge for rec in log[i:-1]]


class DangerRedirectMaker:
    """The randomized strategy with frozen danger sets and redirect coin q.

    Draw order per move (all from ``self.rng``, lowest-index-sorted pools):
      1. if this is the first move, an anchor edge f0 uniform over all edges;
      2. if Breaker's last turn colored nothing, a uniform uncolored edge f1;
      3. the anchor coin (f := f0 with prob 1/2, else uniform in F);
      4. the endpoint pick between the two endpoints of f;
      5. if needed, the replacement vertex (uniform over vertices with
         uncolored incident edges, after trying the other endpoint);
      6. the neighbor u uniform in Gamma'(v);
      7. when load(v) >= T2 and D(v) cuts Gamma'(v): the redirect coin, and
         on success the redirect target uniform in that intersection;
      8. the color, uniform in A(e) (uniform over the whole palette when
         forced in the modified process).
    """

    memo_key = None  # draw tape, danger memory and the log's last turn

    def __init__(self, cfg: MakerConfig | None = None, seed: int | None = None) -> None:
        self.cfg = cfg or MakerConfig()
        self.rng = DrawTape(seed)
        self.memory = MakerMemory()
        self._state: GameState | None = None  # the one game this instance plays
        self._thresholds = (0, 0, 0)
        self._q = 0.0  # float(cfg.q), the redirect coin's bias
        self._pairs: list[list[tuple[int, int]]] = []  # (neighbour, edge) at each vertex
        self._deg: list[int] = []

    def _bind(self, s: GameState) -> None:
        if s is self._state:
            return
        if self._state is not None:
            raise StrategyError("one strategy instance may not switch games")
        self._state = s
        g = s.g
        self._thresholds = self.cfg.thresholds(g.max_degree, s.cfg.b)
        self._q = float(self.cfg.q)
        # sorted by neighbour, so the uncolored ones come ascending
        self._pairs = [sorted(zip(g.adj[v], g.incident[v])) for v in range(g.n)]
        self._deg = [len(a) for a in g.adj]

    def move(self, s: GameState) -> tuple[int, int, dict]:
        if s.uncolored == 0:
            raise StrategyError("no uncolored edge left")
        if s.turn != MAKER:
            raise StrategyError("not Maker's turn")
        self._bind(s)
        g, rng, mem = s.g, self.rng, self.memory
        pool = last_breaker_turn(s.log)
        # Maker moves first within a round, so the loads seen here are those
        # at the end of round s.round - 1; since his previous move only the
        # ends of that move's edge and of Breaker's last turn gained load
        if mem.f0 is None:
            touched = range(g.n)
        else:
            touched = [w for e in (mem.f0, *pool) for w in g.edges[e]]
        record_crossings(s, mem, self._thresholds, s.round - 1, touched)

        # step 1: anchor edge
        if mem.f0 is None:
            mem.f0 = rng.randrange(g.m)
        if not pool:
            uncolored = [e for e in range(g.m) if s.color[e] == 0]
            pool = [uncolored[rng.randrange(len(uncolored))]]
        if rng.random() < 0.5:
            f = mem.f0
        else:
            f = pool[rng.randrange(len(pool))]

        # step 2: endpoint of the anchor, with replacement if exhausted
        x, y = g.edges[f]
        v = (x, y)[rng.randrange(2)]
        # Gamma'(w) is empty exactly when every edge at w is colored
        load, deg = s.load, self._deg
        if load[v] == deg[v]:
            other = y if v == x else x
            if load[other] < deg[other]:
                v = other
            else:
                alive = [w for w in range(g.n) if load[w] < deg[w]]
                v = alive[rng.randrange(len(alive))]

        # step 3: neighbor, with the danger redirect; Gamma'(v) ascending
        nbrs = [p for p in self._pairs[v] if not s.color[p[1]]]
        u, e = nbrs[rng.randrange(len(nbrs))]
        redirected = False
        if load[v] >= self._thresholds[1] and v in mem.danger:
            danger = mem.danger[v]
            targets = [p for p in nbrs if p[0] in danger]
            if targets and rng.random() < self._q:
                u, e = targets[rng.randrange(len(targets))]
                redirected = True

        # step 4: color
        mask = s.avail_mask(e)
        avail = [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]  # A(e), ascending
        ann: dict = {"f": f, "v": v, "u": u, "redirected": redirected}
        if avail:
            color = avail[rng.randrange(len(avail))]
        else:
            if s.cfg.mode != MODIFIED:
                raise StrategyError("chosen edge has no available color in strict mode")
            color = rng.randrange(s.cfg.k) + 1
            ann["forced_nonproper"] = True
        mem.f0 = e
        return e, color, ann

    def clone(self) -> "DangerRedirectMaker":
        """Own tape position and memory; constants and bound game shared."""
        dup = object.__new__(type(self))
        dup.__dict__ = fields = self.__dict__.copy()
        fields["rng"], fields["memory"] = self.rng.fork(), self.memory.copy()
        return dup


class UniformRandomMaker:
    """Colors a uniformly random legal (edge, color) pair."""

    memo_key = None  # draw tape

    def __init__(self, seed: int | None = None) -> None:
        self.rng = DrawTape(seed)

    def move(self, s: GameState) -> tuple[int, int, dict | None]:
        if s.uncolored == 0:
            raise StrategyError("no uncolored edge left")
        mv = uniform_legal_move(s, self.rng)
        if mv is not None:
            return mv[0], mv[1], None
        if s.cfg.mode != MODIFIED:
            raise StrategyError("no legal pair left in strict mode")
        uncolored = [e for e in range(s.g.m) if s.color[e] == 0]
        e = uncolored[self.rng.randrange(len(uncolored))]
        return e, self.rng.randrange(s.cfg.k) + 1, {"forced_nonproper": True}

    def clone(self) -> "UniformRandomMaker":
        dup = copy.copy(self)
        dup.rng = self.rng.fork()
        return dup


class GreedyMaker:
    """Colors an uncolored edge of minimum availability with its lowest color."""

    def move(self, s: GameState) -> tuple[int, int, dict | None]:
        if s.uncolored == 0:
            raise StrategyError("no uncolored edge left")
        best_e = -1
        best_cnt = -1
        for e in range(s.g.m):
            if s.color[e] != 0:
                continue
            cnt = s.avail_mask(e).bit_count()
            if cnt > 0 and (best_cnt == -1 or cnt < best_cnt):
                best_e, best_cnt = e, cnt
        if best_e == -1:
            if s.cfg.mode != MODIFIED:
                raise StrategyError("no legal pair left in strict mode")
            e = next(e for e in range(s.g.m) if s.color[e] == 0)
            return e, 1, {"forced_nonproper": True}
        mask = s.avail_mask(best_e)
        color = (mask & -mask).bit_length()
        return best_e, color, None

    def memo_key(self, s: GameState) -> int:
        return 0  # no per-game state

    def clone(self) -> "GreedyMaker":
        return self  # no per-game state
