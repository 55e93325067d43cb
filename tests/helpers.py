"""Helpers shared by several test modules."""

from __future__ import annotations

from gamelab.graph import Graph


def edge_distance(g: Graph, e: int, f: int) -> float:
    """Smallest vertex distance between any endpoint of e and any endpoint of f.

    Adjacent (or identical) edges have distance 0; edges in different
    components have distance ``math.inf``.
    """
    eu, ev = g.endpoints(e)
    fu, fv = g.endpoints(f)
    dist = g.vertex_distances((eu, ev))
    return min(dist[fu], dist[fv])
