"""Breaker policies: the box-game reduction strategy and baselines.

The reduction breaker owns a good set F = {f_1 .. f_s} and plays the box
game on it: box i stands for the uncolored edge f_i and holds one element
per color still available on f_i.  Every Maker move touches the box of its
nearest member of F; Breaker realizes box claims by coloring an uncolored
edge adjacent to f_i with a color not yet present around f_i, shrinking
A(f_i) by one.  Destroying an untouched box means some f_i ran out of
colors: Breaker has won the coloring game.

Annotations written into the move log:
  {"box": i}                      a realized claim on box i
  {"reduction_break": true, ...}  claim on box i could not be realized;
                                  the move is a fallback (audit trail)
  {"box_game_over": true}         the box game is already lost; filler move
"""

from __future__ import annotations

import copy
from itertools import compress, islice
from typing import Sequence

from . import boxgame
from ._util import DrawTape, StrategyError
from .engine import BREAKER, MAKER, GameState, uniform_legal_move
from .goodset import GoodSetCertificate, find_good_set
from .graph import Graph


class BoxReductionBreaker:
    """Plays Bob's box-game strategy through the color board.

    A claim on box i is realized by the lowest-index uncolored edge around
    f_i that accepts the lowest color fresh around f_i.  If the scripted
    claim cannot be realized, the log records a reduction break and the move
    falls back to the lowest legal edge around F; failing that, or once the
    box game is over, Breaker sits out if allowed, else plays the lowest
    legal move on the board.  The reduction data depends only on the graph
    and the bias: it is bound on first use and again on another game, and
    the instance is its own clone.
    """

    def __init__(self) -> None:
        self.cert: GoodSetCertificate | None = None
        self.b = 0
        self._graph: Graph | None = None  # the graph ``cert`` was found on

    def for_game(self, s: GameState) -> None:
        """Bind the good set of s's graph and the bias of its game."""
        cert = find_good_set(s.g)
        if not cert.edges:
            raise StrategyError("box reduction needs a non-empty good set")
        self.cert, self.b, self._graph = cert, s.cfg.b, s.g

    def _touched(self, s: GameState) -> list[bool]:
        """touched[i] is set when f_i is colored, so it can no longer be
        destroyed, or when a Maker move was mapped to box i, the box of its
        nearest member of F.  Binds s's game first if need be."""
        if self._graph is not s.g or self.b != s.cfg.b:
            self.for_game(s)
        color, nearest = s.color, self.cert.nearest
        touched = [color[f] != 0 for f in self.cert.edges]
        for rec in s.log:
            if rec.player == MAKER and rec.edge is not None:
                touched[nearest[rec.edge]] = True
        return touched

    def memo_key(self, s: GameState) -> int:
        """The touched boxes as a mask: beyond the position, the next moves
        read nothing else.  The verifier may ask before the first
        micro-move, as Maker moves first in the classic variant."""
        return sum(1 << i for i, t in enumerate(self._touched(s)) if t)

    def snapshot(self, s: GameState) -> boxgame.BoxGameState:
        """Rebuild the embedded box game from the engine state and its log:
        remaining[i] counts the colors still available on f_i, none once it
        is colored."""
        touched = self._touched(s)
        color, edges, umask, full = s.color, s.g.edges, s.umask, s.full_mask
        remaining = []
        for f in self.cert.edges:
            u, v = edges[f]  # A(f), as GameState.avail_mask reads it
            remaining.append(0 if color[f] else (full & ~(umask[u] | umask[v])).bit_count())
        return boxgame.BoxGameState(
            remaining=remaining,
            touched=touched,
            b=self.b,
            turn=boxgame.BOB,
            claims_left=max(0, self.b - s.breaker_moves_this_turn),
        )

    def _any_legal(self, s: GameState, edges: Sequence[int]) -> tuple[int, int] | None:
        for e in sorted(edges):
            if s.color[e] != 0:
                continue
            mask = s.avail_mask(e)
            if mask:
                return e, (mask & -mask).bit_length()
        return None

    def micro_move(self, s: GameState) -> tuple[int, int, dict] | None:
        if s.turn != BREAKER:
            raise StrategyError("not Breaker's turn")
        target = boxgame.bob_strategy(self.snapshot(s))
        cert = self.cert
        near: Sequence[int] = ()
        if target is None:
            # every box is touched: the reduction has nothing left to say
            ann = {"box_game_over": True}
        else:
            # realize the claim: lowest edge around f_target with a color free on f_target
            fresh = s.avail_mask(cert.edges[target])
            for e in cert.gamma[target]:
                if s.color[e] != 0:
                    continue
                mask = s.avail_mask(e) & fresh
                if mask:
                    return e, (mask & -mask).bit_length(), {"box": target}
            ann = {"reduction_break": True, "box": target}
            near = [e for gam in cert.gamma for e in gam]
        fallback = self._any_legal(s, near)
        if fallback is None and s.cfg.variant == "classic":
            fallback = self._any_legal(s, range(s.g.m))
        return None if fallback is None else (fallback[0], fallback[1], ann)

    def clone(self) -> "BoxReductionBreaker":
        return self  # bound data is static; ``for_game`` rebinds on another game


class UniformRandomBreaker:
    """Colors uniformly random legal pairs until the bias is spent."""

    memo_key = None  # draw tape

    def __init__(self, seed: int | None = None) -> None:
        self.rng = DrawTape(seed)

    def micro_move(self, s: GameState) -> tuple[int, int, None] | None:
        mv = uniform_legal_move(s, self.rng)
        return None if mv is None else (mv[0], mv[1], None)

    def clone(self) -> "UniformRandomBreaker":
        dup = copy.copy(self)
        dup.rng = self.rng.fork()
        return dup


class GreedyBlockingBreaker:
    """Colors the legal pair that minimizes the smallest availability left.

    Two cases: either some uncolored edge adjacent to a minimum-availability
    edge shares a color with it (drop the minimum by one), or the minimum
    cannot decrease this move and the move preserves it instead, avoiding
    coloring the unique minimum edge unless doing so drags a second-lowest
    edge down to the old minimum.  The first case looks only at the edges
    around the minimum edges: the lowest edge sharing a free color with one
    of them, colored with the lowest such color.

    The instance keeps each edge's available colors and their count, read
    from the state it last saw, with the minimum count and the set of edges
    that hold it.  A colored edge has no colors and the count k + 1.  When
    that state has only grown its trail since, only the edges at the
    endpoints of the newly colored edges are read again: counts only fall,
    so an edge whose count drops below the minimum starts a new set, one
    that reaches it joins, and only an emptied set is found by a scan.  Any
    other state, or an ``undo`` below the last read, rebuilds everything.
    All of it is derived from the position, so the move still depends on
    the position alone.
    """

    def __init__(self) -> None:
        self._state: GameState | None = None  # the state last read
        self._depth = 0  # its trail length then
        self._top: tuple | None = None  # and the trail entry then on top
        self._avail: list[int] = []
        self._count: list[int] = []
        self._min = 0  # the minimum of ``_count``
        self._min_edges: set[int] = set()  # the edges whose count it is

    def _read(self, s: GameState) -> tuple[list[int], list[int]]:
        """Bring ``_avail``, ``_count``, ``_min`` and ``_min_edges`` up to
        date with s."""
        g, trail, depth = s.g, s.trail, self._depth
        full, umask, color = s.full_mask, s.umask, s.color
        colored = s.cfg.k + 1  # the count of a colored edge
        # every transition pushes a fresh tuple and undo pops it, so an
        # unmoved top entry means the trail below it is unchanged as well
        grown = len(trail) >= depth and (not depth or trail[depth - 1] is self._top)
        if s is self._state and grown:
            avail, count = self._avail, self._count
            low, mins = self._min, self._min_edges
            edges, incident = g.edges, g.incident
            for i in range(depth, len(trail)):
                e = trail[i][0]
                if e is None:  # an end of turn
                    continue
                # coloring e with c took c from every edge at its endpoints
                avail[e], count[e] = 0, colored
                mins.discard(e)
                bit = 1 << (color[e] - 1)
                for w in edges[e]:
                    for f in incident[w]:
                        a = avail[f]
                        if a & bit:
                            avail[f] = a ^ bit
                            n = count[f] = count[f] - 1
                            if n < low:
                                low, mins = n, {f}
                            elif n == low:
                                mins.add(f)
            self._min, self._min_edges = low, mins
        else:
            free = [full & ~used for used in umask]
            avail = self._avail = [
                0 if c else free[u] & free[v] for c, (u, v) in zip(color, g.edges)
            ]
            count = self._count = [colored if c else a.bit_count() for c, a in zip(color, avail)]
            self._state = s
            self._min_edges = set()
        if not self._min_edges:
            low = self._min = min(count, default=colored)
            self._min_edges = set(compress(range(len(count)), map(low.__eq__, count)))
        self._depth = len(trail)
        self._top = trail[-1] if trail else None
        return avail, count

    def micro_move(self, s: GameState) -> tuple[int, int, dict | None] | None:
        avail, count = self._read(s)
        m, min_edges = self._min, self._min_edges
        if m > s.cfg.k:  # every edge is colored
            return None
        g = s.g
        color, edges, incident = s.color, g.edges, g.incident
        # phase one: reduce the minimum, by the lowest edge that shares a
        # color with a minimum edge around it
        if len(min_edges) == s.uncolored:
            # every uncolored edge is a minimum edge (and a colored one has
            # no colors), so walk the edges in order and stop at the first
            for e in compress(range(g.m), avail):
                x, y = edges[e]
                mask = 0
                for f in incident[x] + incident[y]:
                    if f != e:
                        mask |= avail[f]
                hit = avail[e] & mask
                if hit:
                    return e, (hit & -hit).bit_length(), None
        else:
            # near[e] holds the colors e shares with the minimum edges around it
            near: dict[int, int] = {}
            for f in min_edges:
                a = avail[f]
                x, y = edges[f]
                for e in incident[x] + incident[y]:
                    if e != f and not color[e]:
                        near[e] = near.get(e, 0) | a
            for e in sorted(near):
                hit = avail[e] & near[e]
                if hit:
                    return e, (hit & -hit).bit_length(), None
        # phase two: preserve the minimum; the two lowest legal edges decide
        legal = list(islice(compress(range(g.m), avail), 2))
        if not legal:
            return None
        e0 = legal[0]
        if len(min_edges) > 1 or e0 not in min_edges:
            return e0, (avail[e0] & -avail[e0]).bit_length(), None
        # e0 is the unique minimum: only color it if that knocks a
        # second-lowest neighbor down to the old minimum (a colored
        # neighbor adds no colors to the mask)
        x, y = edges[e0]
        mask = 0
        for f in incident[x] + incident[y]:
            if count[f] == m + 1:
                mask |= avail[f]
        hit = avail[e0] & mask
        if hit:
            return e0, (hit & -hit).bit_length(), None
        e = legal[-1]
        return e, (avail[e] & -avail[e]).bit_length(), None

    def memo_key(self, s: GameState) -> int:
        return 0  # all it holds is derived from the position

    def clone(self) -> "GreedyBlockingBreaker":
        return self  # holds only data derived from the position it last read


class SkipBreaker:
    """Always passes; only legal in the skip variant."""

    def micro_move(self, s: GameState) -> None:
        return None

    def memo_key(self, s: GameState) -> int:
        return 0  # no per-game state

    def clone(self) -> "SkipBreaker":
        return self  # no per-game state
