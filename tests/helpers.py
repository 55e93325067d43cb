"""Helpers shared by several test modules."""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from gamelab._util import NodeBudget, StrategyError
from gamelab.boxgame import ALICE, BOB, BOB_WON, BoxGameState, _children, bob_strategy
from gamelab.engine import BREAKER, MAKER, MODIFIED, GameState, MoveLog
from gamelab.graph import Graph
from gamelab.maker import DangerRedirectMaker, record_crossings


def edge_distance(g: Graph, e: int, f: int) -> float:
    """Smallest vertex distance between any endpoint of e and any endpoint of f.

    Adjacent (or identical) edges have distance 0; edges in different
    components have distance ``math.inf``.
    """
    eu, ev = g.edges[e]
    fu, fv = g.edges[f]
    dist = g.vertex_distances((eu, ev))
    return min(dist[fu], dist[fv])


@lru_cache(maxsize=None)
def nx_edge_automorphisms(g: Graph) -> frozenset[tuple[int, ...]]:
    """Every edge permutation induced by an automorphism of g, as tuples of
    image indices, from networkx's VF2 matcher (independent of
    ``Graph.edge_automorphisms``).  Several vertex maps may induce one edge
    permutation (isolated vertices, single-edge components)."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return frozenset(
        tuple(g.index_of(f[u], f[v]) for u, v in g.edges)
        for f in GraphMatcher(h, h).isomorphisms_iter()
    )


def verify_bob_strategy(
    sizes: Sequence[int],
    b: int,
    first: str = ALICE,
    budget: int | None = None,
) -> tuple[bool, int]:
    """Check that the scripted Bob beats *every* Alice line.

    Returns (sound, nodes).  Alice's choices are enumerated up to box
    equivalence (same remaining count and touch flag); Bob follows
    ``bob_strategy``.
    """
    nodes = NodeBudget(budget, "box-strategy verifier")

    def visit(state: BoxGameState) -> bool:
        nodes.tick()
        w = state.winner()
        if w is not None:
            return w == BOB_WON
        if state.turn == BOB:
            nxt = state.clone()
            while nxt.winner() is None and nxt.turn == BOB:
                choice = bob_strategy(nxt)
                if choice is None:
                    nxt.end_bob_turn()
                else:
                    nxt.bob_claim(choice)
            return visit(nxt)
        return all(map(visit, _children(state)))

    root = BoxGameState.new(sizes, b, first=first)
    return visit(root), nodes.nodes


def log_breaker_turn(log: MoveLog) -> list[int]:
    """Edges Breaker colored in the turn whose end-of-turn record ends the
    log, in play order (empty if the log ends otherwise), by a walk back
    over the log."""
    if not log or not log[-1].skip:
        return []
    i = len(log) - 1
    while i > 0 and log[i - 1].player == BREAKER and not log[i - 1].skip:
        i -= 1
    return [rec.edge for rec in log[i:-1]]


def paper_maker_oracle(mk: DangerRedirectMaker, s: GameState) -> tuple[int, int, dict]:
    """``DangerRedirectMaker.move`` as a plain list-building reference: the
    pools Gamma'(v), A(e), the uncolored edges and the alive vertices are
    built in full and indexed by the draw, and Breaker's last turn comes
    from the log.  Draws from ``mk.rng`` and updates ``mk.memory``."""
    if s.uncolored == 0:
        raise StrategyError("no uncolored edge left")
    if s.turn != MAKER:
        raise StrategyError("not Maker's turn")
    mk._bind(s)
    g, rng, mem = s.g, mk.rng, mk.memory
    pool = log_breaker_turn(s.log)
    if mem.f0 is None:
        touched = range(g.n)
    else:
        touched = [w for e in (mem.f0, *pool) for w in g.edges[e]]
    record_crossings(s, mem, mk._thresholds, s.round - 1, touched)

    if mem.f0 is None:
        mem.f0 = rng.randrange(g.m)
    if not pool:
        uncolored = [e for e in range(g.m) if s.color[e] == 0]
        pool = [uncolored[rng.randrange(len(uncolored))]]
    if rng.random() < 0.5:
        f = mem.f0
    else:
        f = pool[rng.randrange(len(pool))]

    x, y = g.edges[f]
    v = (x, y)[rng.randrange(2)]
    load, deg = s.load, mk._deg
    if load[v] == deg[v]:
        other = y if v == x else x
        if load[other] < deg[other]:
            v = other
        else:
            alive = [w for w in range(g.n) if load[w] < deg[w]]
            v = alive[rng.randrange(len(alive))]

    nbrs = [p for p in mk._pairs[v] if not s.color[p[1]]]
    u, e = nbrs[rng.randrange(len(nbrs))]
    redirected = False
    if load[v] >= mk._thresholds[1] and v in mem.danger:
        danger = mem.danger[v]
        targets = [p for p in nbrs if p[0] in danger]
        if targets and rng.random() < mk._q:
            u, e = targets[rng.randrange(len(targets))]
            redirected = True

    mask = s.avail_mask(e)
    avail = [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]
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
