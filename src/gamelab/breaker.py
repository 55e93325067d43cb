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
from dataclasses import dataclass
from typing import Sequence

from . import boxgame
from ._util import DrawTape, StrategyError
from .engine import BREAKER, MAKER, GameState, uniform_legal_move
from .goodset import GoodSetCertificate, find_good_set
from .graph import Graph


@dataclass
class BoxReductionMemory:
    """Static reduction data plus the per-call box-game snapshot inputs.

    ``gamma[i]`` holds the edges sharing an endpoint with f_i; for a good set
    these are pairwise disjoint across boxes.  ``box_of_edge[e]`` is the index
    of the member of F nearest to edge e (lowest index on ties).
    """

    F: tuple[int, ...]
    gamma: tuple[tuple[int, ...], ...]
    box_of_edge: tuple[int, ...]
    b: int

    @classmethod
    def for_game(cls, g: Graph, cert: GoodSetCertificate, b: int) -> "BoxReductionMemory":
        """Reduction data for the good set ``cert.edges``, reusing the
        certificate's distances from each member."""
        F = cert.edges
        if not F:
            raise StrategyError("box reduction needs a non-empty good set")
        gamma = []
        for f in F:
            u, v = g.edges[f]
            nbrs = sorted((set(g.incident[u]) | set(g.incident[v])) - {f})
            gamma.append(tuple(nbrs))
        dists = cert.distances
        # min keeps the first of equal keys, so ties go to the lowest index
        box_of_edge = tuple(
            min(range(len(F)), key=lambda j: min(dists[j][x], dists[j][y])) for x, y in g.edges
        )
        return cls(F=F, gamma=tuple(gamma), box_of_edge=box_of_edge, b=b)

    def snapshot(self, s: GameState) -> boxgame.BoxGameState:
        """Rebuild the embedded box game from the engine state and its log.

        remaining[i] counts the colors still available on f_i; touched[i] is
        set by any Maker move mapped to box i (and for a colored f_i, which
        can no longer be destroyed).
        """
        remaining = []
        touched = [False] * len(self.F)
        for i, f in enumerate(self.F):
            if s.color[f] != 0:
                remaining.append(0)
                touched[i] = True
            else:
                remaining.append(s.avail_mask(f).bit_count())
        for rec in s.log:
            if rec.player == MAKER and rec.edge is not None:
                touched[self.box_of_edge[rec.edge]] = True
        claims_left = max(0, self.b - s.breaker_moves_this_turn)
        return boxgame.BoxGameState(
            remaining=remaining,
            touched=touched,
            b=self.b,
            turn=boxgame.BOB,
            claims_left=claims_left,
        )


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

    position_only = False  # reads which edges Maker colored from the log

    def __init__(self) -> None:
        self.memory: BoxReductionMemory | None = None
        self._graph: Graph | None = None  # the graph ``memory`` was built for

    def _bind(self, s: GameState) -> BoxReductionMemory:
        mem = self.memory
        if self._graph is not s.g or mem.b != s.cfg.b:
            mem = self.memory = BoxReductionMemory.for_game(s.g, find_good_set(s.g), s.cfg.b)
            self._graph = s.g
        return mem

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
        mem = self._bind(s)
        target = boxgame.bob_strategy(mem.snapshot(s))
        near: Sequence[int] = ()
        if target is None:
            # every box is touched: the reduction has nothing left to say
            ann = {"box_game_over": True}
        else:
            # realize the claim: lowest edge around f_target with a color free on f_target
            fresh = s.avail_mask(mem.F[target])
            for e in mem.gamma[target]:
                if s.color[e] != 0:
                    continue
                mask = s.avail_mask(e) & fresh
                if mask:
                    return e, (mask & -mask).bit_length(), {"box": target}
            ann = {"reduction_break": True, "box": target}
            near = [e for gam in mem.gamma for e in gam]
        fallback = self._any_legal(s, near)
        if fallback is None and s.cfg.variant == "classic":
            fallback = self._any_legal(s, range(s.g.m))
        return None if fallback is None else (fallback[0], fallback[1], ann)

    def clone(self) -> "BoxReductionBreaker":
        return self  # bound data is static; ``_bind`` rebinds on another game


class UniformRandomBreaker:
    """Colors uniformly random legal pairs until the bias is spent."""

    position_only = False  # draw tape

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
    """

    position_only = True

    def micro_move(self, s: GameState) -> tuple[int, int, dict | None] | None:
        g = s.g
        color, edges, incident = s.color, g.edges, g.incident
        uncolored = [e for e in range(g.m) if not color[e]]
        if not uncolored:
            return None
        free = [s.full_mask & ~used for used in s.umask]
        avail = [free[u] & free[v] for u, v in edges]
        counts = [avail[e].bit_count() for e in uncolored]
        m = min(counts)
        min_edges = [e for e, n in zip(uncolored, counts) if n == m]
        # phase one: reduce the minimum; near[e] holds the colors e shares
        # with the minimum edges around it
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
        # phase two: preserve the minimum
        legal = [e for e in uncolored if avail[e]]
        if not legal:
            return None
        e0 = legal[0]
        if len(min_edges) > 1 or e0 != min_edges[0]:
            return e0, (avail[e0] & -avail[e0]).bit_length(), None
        # e0 is the unique minimum: only color it if that knocks a
        # second-lowest neighbor down to the old minimum
        x, y = edges[e0]
        mask = 0
        for f in incident[x] + incident[y]:
            if f != e0 and not color[f] and avail[f].bit_count() == m + 1:
                mask |= avail[f]
        hit = avail[e0] & mask
        if hit:
            return e0, (hit & -hit).bit_length(), None
        if len(legal) > 1:
            e = legal[1]
            return e, (avail[e] & -avail[e]).bit_length(), None
        return e0, (avail[e0] & -avail[e0]).bit_length(), None

    def clone(self) -> "GreedyBlockingBreaker":
        return self  # no per-game state


class SkipBreaker:
    """Always passes; only legal in the skip variant."""

    position_only = True

    def micro_move(self, s: GameState) -> None:
        return None

    def clone(self) -> "SkipBreaker":
        return self  # no per-game state
