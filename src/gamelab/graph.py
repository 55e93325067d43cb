"""Simple undirected graphs: construction, generators, distances, edge-list I/O.

Vertices are 0-based and contiguous.  Edges are stored with the smaller
endpoint first, in insertion order; the edge index is the stable identifier
used by the game engine, the solver, and the move logs.
"""

from __future__ import annotations

import math
import random
from collections import deque
from functools import partial
from typing import Iterable, Iterator, Sequence


# Graph allocates per vertex and per edge: caps on the vertices of an edge list or
# generator, and on the edges a generator builds or the vertex pairs gnp draws on
MAX_EDGE_LIST_VERTICES = 100_000
MAX_GENERATOR_PAIRS = 1_000_000
# ``tree:ORDER:INDEX`` walks the trees of that order up to the index; order 16
# has 19,320 of them, walked in about a second
MAX_TREE_ORDER = 16
# Bounds on ``Graph.edge_automorphisms``.  The solver keys its table on a
# coloring up to the permutations listed, a key that is sound for any subset
# of the automorphism group holding the identity, so a bound costs merges and
# never a value.  The cap keeps the whole group of K_5 (120).  Trying a
# candidate image costs one step plus one per adjacency it is checked
# against, and each permutation found costs m more, so a graph with m edges
# gets at most MAX_AUTOMORPHISM_STEPS / m of them.
MAX_EDGE_AUTOMORPHISMS = 128
MAX_AUTOMORPHISM_STEPS = 50_000


class GraphError(ValueError):
    """Malformed graph, edge list, or generator parameters."""


def _check_size(n: int, pairs: int = 0) -> None:
    """Reject a graph too large to build, before anything is allocated."""
    if n > MAX_EDGE_LIST_VERTICES:
        raise GraphError(f"vertex count {n} exceeds {MAX_EDGE_LIST_VERTICES}")
    if pairs > MAX_GENERATOR_PAIRS:
        raise GraphError(f"{pairs} edges or vertex pairs exceed {MAX_GENERATOR_PAIRS}")


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``."""

    __slots__ = (
        "n", "edges", "adj", "incident", "_index_of", "_max_degree", "_automorphisms",
        "_good_set", "_symmetry",
    )

    def __init__(self, n: int, edges: Iterable[Sequence[int]]) -> None:
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self.n = n
        self.edges: list[tuple[int, int]] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.incident: list[list[int]] = [[] for _ in range(n)]
        self._index_of: dict[tuple[int, int], int] = {}
        for pair in edges:
            u, v = int(pair[0]), int(pair[1])
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u > v:
                u, v = v, u
            if (u, v) in self._index_of:
                raise GraphError(f"duplicate edge ({u}, {v})")
            idx = len(self.edges)
            self._index_of[(u, v)] = idx
            self.edges.append((u, v))
            self.adj[u].append(v)
            self.adj[v].append(u)
            self.incident[u].append(idx)
            self.incident[v].append(idx)
        self._max_degree = max((len(a) for a in self.adj), default=0)
        self._automorphisms: tuple[tuple[int, ...], ...] | None = None
        self._good_set = None  # built and kept by ``goodset.find_good_set``
        self._symmetry = None  # built and kept by the exact solver

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def max_degree(self) -> int:
        return self._max_degree

    def index_of(self, u: int, v: int) -> int:
        """Edge index for endpoints (u, v); raises GraphError if absent."""
        key = (u, v) if u < v else (v, u)
        try:
            return self._index_of[key]
        except KeyError:
            raise GraphError(f"no edge ({u}, {v})") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.edges)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def edge_automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Edge permutations induced by automorphisms, the identity first.

        Each maps edge index e to the index of its image.  The list is
        bounded by ``MAX_EDGE_AUTOMORPHISMS`` and ``MAX_AUTOMORPHISM_STEPS``
        and holds the whole group when the search ends inside both.  It is
        built on the first call and kept.
        """
        if self._automorphisms is None:
            self._automorphisms = _edge_automorphisms(self)
        return self._automorphisms

    # -- distances -----------------------------------------------------

    def vertex_distances(self, sources: Iterable[int]) -> list[float]:
        """BFS distance from the nearest source to every vertex (inf if unreachable)."""
        dist: list[float] = [math.inf] * self.n
        queue: deque[int] = deque()
        for s in sources:
            if dist[s] != 0:
                dist[s] = 0
                queue.append(s)
        while queue:
            x = queue.popleft()
            for y in self.adj[x]:
                if dist[y] == math.inf:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist


def _edge_automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Backtrack over the vertices with edges in BFS order.  A vertex may
    map to an unused vertex of its degree that is adjacent to the images of
    its neighbours placed before it, so past a component's first vertex only
    neighbours of an image are tried.  A full map then sends the m edges to
    m distinct edges, so onto them: it is an automorphism.  Isolated
    vertices stay put: moving them moves no edge."""
    adj = g.adj
    nbrs = [set(a) for a in adj]
    order: list[int] = []
    pos = [-1] * g.n
    for r in range(g.n):
        if pos[r] < 0 and adj[r]:
            head = pos[r] = len(order)
            order.append(r)
            while head < len(order):
                for y in adj[order[head]]:
                    if pos[y] < 0:
                        pos[y] = len(order)
                        order.append(y)
                head += 1
    # back[i]: the neighbours of order[i] placed before it
    back = [[x for x in adj[v] if pos[x] < i] for i, v in enumerate(order)]
    img = [-1] * g.n
    used = [False] * g.n
    steps = 0

    def options(i: int) -> Iterator[int]:
        nonlocal steps
        bk = back[i]
        d = len(adj[order[i]])
        for w in adj[img[bk[0]]] if bk else order:
            steps += 1 + len(bk)
            if not used[w] and len(adj[w]) == d and all(img[x] in nbrs[w] for x in bk):
                yield w

    identity = tuple(range(g.m))
    found = [identity]
    seen = {identity}
    stack = [options(0)] if order else []
    while stack and steps < MAX_AUTOMORPHISM_STEPS:
        v = order[len(stack) - 1]
        if img[v] >= 0:
            used[img[v]] = False
        img[v] = w = next(stack[-1], -1)
        if w < 0:
            stack.pop()
            continue
        used[w] = True
        if len(stack) < len(order):
            stack.append(options(len(stack)))
            continue
        steps += g.m
        perm = tuple(g.index_of(img[x], img[y]) for x, y in g.edges)
        if perm not in seen:
            seen.add(perm)
            found.append(perm)
            if len(found) == MAX_EDGE_AUTOMORPHISMS:
                break
    return tuple(found)


# -- generators ----------------------------------------------------------


def star(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 is the center."""
    if leaves < 1:
        raise GraphError("star needs at least one leaf")
    _check_size(leaves + 1, leaves)
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    _check_size(n, n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """Path on n vertices (n - 1 edges)."""
    if n < 2:
        raise GraphError("path needs at least 2 vertices")
    _check_size(n, n - 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 2:
        raise GraphError("complete graph needs at least 2 vertices")
    _check_size(n, n * (n - 1) // 2)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("both sides must be non-empty")
    _check_size(a + b, a * b)
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed."""
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must be in [0, 1]")
    _check_size(n, n * (n - 1) // 2)
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the pairing model.

    Stubs are shuffled and matched; pairs that would form loops or repeated
    edges are rejected and re-pooled, restarting from scratch when the
    leftover stubs admit no suitable pair.  Deterministic for a given seed.
    """
    if d < 0 or n <= d:
        raise GraphError("need 0 <= d < n")
    if (n * d) % 2 != 0:
        raise GraphError("n * d must be even")
    _check_size(n, n * d // 2)
    if d == 0:
        return Graph(n, [])
    rng = random.Random(seed)
    while True:
        edges = _try_pairing(rng, n, d)
        if edges is not None:
            return Graph(n, sorted(edges))


def _try_pairing(rng: random.Random, n: int, d: int) -> set[tuple[int, int]] | None:
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        potential: dict[int, int] = {}
        for v in stubs:
            potential[v] = potential.get(v, 0) + 1
        if not _suitable(edges, potential):
            return None  # dead end: restart the whole pairing
        rng.shuffle(stubs)
        leftover = []
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u > v:
                u, v = v, u
            if u == v or (u, v) in edges:
                leftover.extend((stubs[i], stubs[i + 1]))
            else:
                edges.add((u, v))
        if len(leftover) == len(stubs):
            # no progress this round; reshuffle unless provably stuck
            if not _suitable(edges, {v: leftover.count(v) for v in set(leftover)}):
                return None
        stubs = leftover
    return edges


def _suitable(edges: set[tuple[int, int]], potential: dict[int, int]) -> bool:
    """True if some non-loop, non-repeated pair can still be formed."""
    if not potential:
        return True
    verts = list(potential)
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            key = (u, v) if u < v else (v, u)
            if key not in edges:
                return True
    return False


def nonisomorphic_trees(max_edges: int) -> Iterator[Graph]:
    """All trees with 1..max_edges edges, one per isomorphism class."""
    import networkx as nx

    if max_edges < 1:
        raise GraphError("max_edges must be at least 1")
    for order in range(2, max_edges + 2):
        for t in nx.nonisomorphic_trees(order):
            yield _tree_graph(t)


def _tree_graph(t) -> Graph:
    """A networkx tree on vertices 0..n-1 as a Graph, edges sorted."""
    return Graph(t.number_of_nodes(), sorted(tuple(sorted(e)) for e in t.edges()))


def _tree(order: int, index: int) -> Graph:
    """The index-th tree of the given order, in networkx's enumeration."""
    if order > MAX_TREE_ORDER:
        raise GraphError(f"tree order {order} exceeds {MAX_TREE_ORDER}")
    if index < 0:
        raise GraphError(f"tree index {index} is negative")
    import networkx as nx

    for i, t in enumerate(nx.nonisomorphic_trees(order)):
        if i == index:
            return _tree_graph(t)
    raise GraphError(f"tree index {index} out of range for order {order}")


# per family: its builder, then the type of each field its spec takes; the
# named graphs of the smoke corpus take no field
_FAMILIES = {
    "star": (star, int),
    "cycle": (cycle, int),
    "path": (path, int),
    "complete": (complete, int),
    "complete_bipartite": (complete_bipartite, int, int),
    "tree": (_tree, int, int),
    "gnp": (gnp, int, float, int),
    "random_regular": (random_regular, int, int, int),
    "spider": (partial(Graph, 7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)]),),
    "caterpillar": (partial(Graph, 8, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (3, 7)]),),
    # the outer 5-cycle, the spokes, then the inner pentagram
    "petersen": (partial(Graph, 10, [(i, (i + 1) % 5) for i in range(5)]
                         + [(i, i + 5) for i in range(5)]
                         + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),),
}


def generate(spec: str) -> Graph:
    """Build a graph from a colon-separated family spec.

    Examples: ``star:5``, ``cycle:7``, ``path:4``, ``complete:4``,
    ``complete_bipartite:2:3``, ``random_regular:64:16:1``,
    ``gnp:10:0.3:7``, ``tree:8:3`` (3rd tree of order 8), and the named
    graphs ``spider``, ``caterpillar`` and ``petersen``.
    """
    kind, *fields = spec.split(":")
    if kind not in _FAMILIES:
        raise GraphError(f"unknown family {kind!r}")
    build, *types = _FAMILIES[kind]
    if len(fields) != len(types):
        noun = "field" if len(types) == 1 else "fields"
        raise GraphError(
            f"bad generator spec {spec!r}: {kind} takes {len(types)} {noun}, got {len(fields)}"
        )
    try:
        return build(*(typ(x) for typ, x in zip(types, fields)))
    except GraphError:
        raise
    except ValueError as exc:
        raise GraphError(f"bad generator spec {spec!r}: {exc}") from exc


# -- edge-list text format -------------------------------------------------
#
# First significant line: vertex count.  Each following line: "u v" with
# 0 <= u < v < n.  '#' starts a comment; blank lines are ignored.


def read_edge_list(text: str) -> Graph:
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise GraphError(f"line {lineno}: expected vertex count, got {raw!r}")
            try:
                n = int(fields[0])
            except ValueError:
                raise GraphError(f"line {lineno}: bad vertex count {fields[0]!r}") from None
            try:
                _check_size(n)
            except GraphError as exc:
                raise GraphError(f"line {lineno}: {exc}") from None
            continue
        if len(fields) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphError(f"line {lineno}: bad endpoints {raw!r}") from None
        edges.append((u, v))
    if n is None:
        raise GraphError("empty edge list: missing vertex count")
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    """Canonical text form: vertex count, then edges sorted lexicographically."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
