"""Good edge sets: well-separated max-degree edges and the harmonic criterion.

A *good set* F is a set of edges whose endpoints all have maximum degree and
whose pairwise edge distance is at least 4.  Such a set supports a reduction
of Breaker's play to a box game with one box per member of F; the harmonic
criterion `harmonic_condition` tells when that box game is a Breaker win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boxgame import harmonic_number
from .graph import Graph


@dataclass(frozen=True)
class GreedyStep:
    """One round of the greedy selection: chosen edge and its fallout."""

    edge: int
    removed: int  # pool edges deleted this round (including the chosen one)
    alive_after: int
    full_degree_lost: int  # vertices that dropped below full degree this round


@dataclass(frozen=True)
class GoodSetCertificate:
    """A good set, the facts that certify it, and the box reduction's data."""

    edges: tuple[int, ...]
    endpoint_degrees: tuple[tuple[int, int], ...]
    pair_distances: tuple[tuple[int, int, float], ...]  # (edge, edge, distance)
    steps: tuple[GreedyStep, ...]
    distances: tuple[tuple[float, ...], ...]  # per edge: BFS distance to each vertex
    gamma: tuple[tuple[int, ...], ...]  # per member: the edges sharing an endpoint with it
    nearest: tuple[int, ...]  # per edge: its nearest member's index, lowest on ties; () if none

    def __len__(self) -> int:
        return len(self.edges)


def find_good_set(g: Graph) -> GoodSetCertificate:
    """Greedy good set construction.

    Repeatedly picks the lowest-index pool edge whose endpoints still have
    full degree within the pool, then removes every pool edge at distance at
    most 2 from it (distances measured in the original graph).  Surviving
    eligible edges end up at distance >= 4 from all chosen ones: an edge at
    distance exactly 3 has an endpoint whose neighbor toward the chosen edge
    sits at distance 2, so one of that endpoint's edges was removed and the
    endpoint lost full degree.

    The certificate depends only on g: it is built on the first call and kept.
    """
    if g._good_set is not None:
        return g._good_set
    delta = g.max_degree
    alive = [True] * g.m
    deg_alive = [g.degree(v) for v in range(g.n)]
    chosen: list[int] = []
    dists: list[tuple[float, ...]] = []
    steps: list[GreedyStep] = []
    alive_count = g.m
    while True:
        pick = -1
        for e in range(g.m):
            if not alive[e]:
                continue
            u, v = g.edges[e]
            if deg_alive[u] == delta and deg_alive[v] == delta:
                pick = e
                break
        if pick == -1:
            break
        chosen.append(pick)
        dist = tuple(g.vertex_distances(g.edges[pick]))
        dists.append(dist)
        removed = 0
        full_lost = 0
        for f in range(g.m):
            if not alive[f]:
                continue
            x, y = g.edges[f]
            if min(dist[x], dist[y]) <= 2:
                alive[f] = False
                for w in (x, y):
                    if deg_alive[w] == delta:
                        full_lost += 1
                    deg_alive[w] -= 1
                removed += 1
        alive_count -= removed
        steps.append(
            GreedyStep(
                edge=pick,
                removed=removed,
                alive_after=alive_count,
                full_degree_lost=full_lost,
            )
        )
    pairs = []
    for i, e in enumerate(chosen):
        for f in chosen[i + 1 :]:
            x, y = g.edges[f]
            pairs.append((e, f, min(dists[i][x], dists[i][y])))
    # per vertex (distance, index) of its nearest member; the lower index wins ties
    near = [min(zip(col, range(len(chosen)))) for col in zip(*dists)]
    g._good_set = GoodSetCertificate(
        edges=tuple(chosen),
        endpoint_degrees=tuple(
            (g.degree(g.edges[e][0]), g.degree(g.edges[e][1])) for e in chosen
        ),
        pair_distances=tuple(pairs),
        steps=tuple(steps),
        distances=tuple(dists),
        gamma=tuple(
            tuple(sorted(f for w in g.edges[e] for f in g.incident[w] if f != e)) for e in chosen
        ),
        nearest=tuple(min(near[x], near[y])[1] for x, y in g.edges) if chosen else (),
    )
    return g._good_set


def condition_values(g: Graph, edges: Sequence[int], b: int) -> tuple[Fraction, Fraction]:
    """LHS and RHS of the harmonic criterion: ((2*Delta-2)/(b-1), H_{|F|-1})."""
    if b < 2:
        raise ValueError("criterion needs bias b >= 2")
    lhs = Fraction(2 * g.max_degree - 2, b - 1)
    rhs = harmonic_number(max(0, len(edges) - 1))
    return lhs, rhs


def harmonic_condition(g: Graph, edges: Sequence[int], b: int) -> bool:
    """Harmonic criterion: (2*Delta - 2) / (b - 1) <= H_{|F| - 1}.

    When it holds for a good set F, the box-game reduction gives Breaker a
    win with bias b at any palette size below 2*Delta - 1.  Requires b >= 2;
    with |F| <= 1 the harmonic sum is empty and the criterion is vacuously
    false.
    """
    if len(edges) <= 1:
        if b < 2:
            raise ValueError("criterion needs bias b >= 2")
        return False
    lhs, rhs = condition_values(g, edges, b)
    return lhs <= rhs


def reduction_vertex_bound(delta: int, b: int, scale: float = 1.0) -> int:
    """Vertex count guaranteeing a usable good set in a Delta-regular graph:
    ceil(scale * Delta^3 * exp((Delta - 1) / (b - 1)))."""
    if delta < 1:
        raise ValueError("need delta >= 1")
    if b < 2:
        raise ValueError("need b >= 2")
    return math.ceil(scale * delta**3 * math.exp((delta - 1) / (b - 1)))
