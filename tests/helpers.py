"""Helpers shared by several test modules."""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from gamelab._util import NodeBudget
from gamelab.boxgame import ALICE, BOB, BOB_WON, BoxGameState, _children, bob_strategy
from gamelab.graph import Graph


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
