"""Graph construction, generators, distances, and edge-list I/O."""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamelab import graph as G
from gamelab.graph import Graph, GraphError
from gamelab.match import mixed_corpus
from helpers import edge_distance, nx_edge_automorphisms


def allpairs_dist(g: Graph) -> list[list[float]]:
    """Independent all-pairs oracle: repeated relaxation over the edge list."""
    n = g.n
    dist = [[0.0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for _ in range(n):
        changed = False
        for u, v in g.edges:
            for row in dist:
                if row[u] + 1 < row[v]:
                    row[v] = row[u] + 1
                    changed = True
                if row[v] + 1 < row[u]:
                    row[u] = row[v] + 1
                    changed = True
        if not changed:
            break
    return dist


def oracle_edge_distance(g: Graph, e: int, f: int) -> float:
    d = allpairs_dist(g)
    eu, ev = g.edges[e]
    fu, fv = g.edges[f]
    return min(d[a][b] for a in (eu, ev) for b in (fu, fv))


class TestGraphBasics:
    def test_construction_normalizes_endpoints(self):
        g = Graph(4, [(2, 1), (3, 0)])
        assert g.edges == [(1, 2), (0, 3)]
        assert g.index_of(1, 2) == 0
        assert g.index_of(0, 3) == 1
        assert g.degree(1) == 1
        assert g.max_degree == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])

    def test_missing_edge_lookup(self):
        g = G.path(3)
        with pytest.raises(GraphError):
            g.index_of(0, 2)


class TestEdgeDistance:
    def test_path_gap(self):
        # path v0..v4; {v0,v1} vs {v3,v4} leaves a two-step gap
        g = G.path(5)
        e = g.index_of(0, 1)
        f = g.index_of(3, 4)
        assert edge_distance(g, e, f) == 2
        assert oracle_edge_distance(g, e, f) == 2

    def test_adjacent_edges_distance_zero(self):
        g = G.path(3)
        assert edge_distance(g, 0, 1) == 0

    def test_same_edge_distance_zero(self):
        g = G.cycle(5)
        assert edge_distance(g, 2, 2) == 0

    def test_disconnected_is_infinite(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert edge_distance(g, 0, 1) == math.inf

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracle_on_random_graphs(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(
            st.lists(st.sampled_from(all_pairs), min_size=1, max_size=12, unique=True)
        )
        g = Graph(n, chosen)
        e = data.draw(st.integers(min_value=0, max_value=g.m - 1))
        f = data.draw(st.integers(min_value=0, max_value=g.m - 1))
        assert edge_distance(g, e, f) == oracle_edge_distance(g, e, f)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_symmetry_and_relaxed_triangle(self, data):
        n = data.draw(st.integers(min_value=3, max_value=7))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(
            st.lists(st.sampled_from(all_pairs), min_size=3, max_size=10, unique=True)
        )
        g = Graph(n, chosen)
        idx = st.integers(min_value=0, max_value=g.m - 1)
        e, f, h = data.draw(idx), data.draw(idx), data.draw(idx)
        assert edge_distance(g, e, f) == edge_distance(g, f, e)
        # crossing the middle edge can save at most one step
        assert edge_distance(g, e, h) <= edge_distance(g, e, f) + edge_distance(g, f, h) + 1


def preserves_adjacency(g: Graph, perm: tuple[int, ...]) -> bool:
    """Whether ``perm`` permutes the edges so that two edges share an
    endpoint exactly when their images do."""
    ends = [set(e) for e in g.edges]
    return sorted(perm) == list(range(g.m)) and all(
        bool(ends[e] & ends[f]) == bool(ends[perm[e]] & ends[perm[f]])
        for e in range(g.m)
        for f in range(e)
    )


AUTOMORPHISM_GRAPHS = [*mixed_corpus(), *(
    (name, G.read_edge_list(text))
    for name, text in [
        ("isolated vertices", "9\n0 1\n1 2\n5 6\n"),
        ("three single edges", "7\n0 1\n2 3\n5 6\n"),
        ("two triangles", "6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"),
    ]
)]


class TestEdgeAutomorphisms:
    """``Graph.edge_automorphisms`` against networkx's VF2 matcher."""

    @pytest.mark.parametrize(
        "name, g", AUTOMORPHISM_GRAPHS, ids=[name for name, _ in AUTOMORPHISM_GRAPHS]
    )
    def test_whole_group_below_the_cap(self, name, g):
        perms = g.edge_automorphisms()
        expect = nx_edge_automorphisms(g)
        assert perms[0] == tuple(range(g.m))
        assert len(set(perms)) == len(perms)
        if len(expect) <= G.MAX_EDGE_AUTOMORPHISMS:
            assert set(perms) == expect
        else:  # star:6 (720)
            assert len(perms) == G.MAX_EDGE_AUTOMORPHISMS and set(perms) <= expect

    @given(n=st.integers(1, 7), p=st.sampled_from([0.2, 0.4, 0.6, 0.8]), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_match_networkx(self, n, p, seed):
        g = G.gnp(n, p, seed)
        perms = g.edge_automorphisms()
        expect = nx_edge_automorphisms(g)
        assert perms[0] == tuple(range(g.m))
        assert len(set(perms)) == len(perms) == min(len(expect), G.MAX_EDGE_AUTOMORPHISMS)
        assert set(perms) <= expect

    @pytest.mark.parametrize("spec", ["star:8", "star:12"])
    def test_capped_groups_stop_at_the_cap(self, spec):
        g = G.generate(spec)
        perms = g.edge_automorphisms()
        assert len(set(perms)) == len(perms) == G.MAX_EDGE_AUTOMORPHISMS
        assert perms[0] == tuple(range(g.m))
        assert all(preserves_adjacency(g, perm) for perm in perms)

    @pytest.mark.parametrize(
        "g",
        [Graph(40, [(0, 1), (7, 30), (12, 39)]), G.complete_bipartite(40, 40)],
        ids=["40 vertices, 3 edges", "K_40,40"],
    )
    def test_search_is_bounded(self, g):
        # isolated vertices are left out of the search, and the step bound
        # stops a huge group long before the cap
        t0 = time.perf_counter()
        perms = g.edge_automorphisms()
        assert time.perf_counter() - t0 < 0.5
        assert perms[0] == tuple(range(g.m)) and len(set(perms)) == len(perms)

    def test_built_once_per_graph(self):
        g = G.cycle(5)
        assert g.edge_automorphisms() is g.edge_automorphisms()

    def test_edgeless_graph(self):
        assert Graph(3, []).edge_automorphisms() == ((),)


class TestGenerators:
    def test_star_shape(self):
        g = G.star(5)
        assert g.n == 6 and g.m == 5 and g.max_degree == 5
        assert all(0 in e for e in g.edges)

    def test_cycle_and_path(self):
        assert G.cycle(7).m == 7
        assert all(G.cycle(7).degree(v) == 2 for v in range(7))
        assert G.path(4).m == 3

    def test_complete_and_bipartite(self):
        assert G.complete(5).m == 10
        kb = G.complete_bipartite(2, 3)
        assert kb.m == 6 and kb.max_degree == 3

    def test_random_regular_degrees(self):
        g = G.random_regular(64, 16, seed=1)
        assert g.n == 64 and g.m == 512
        assert all(g.degree(v) == 16 for v in range(64))

    def test_random_regular_determinism(self):
        assert G.random_regular(12, 3, seed=5) == G.random_regular(12, 3, seed=5)

    def test_random_regular_parameter_errors(self):
        with pytest.raises(GraphError):
            G.random_regular(5, 3, seed=1)  # odd stub count
        with pytest.raises(GraphError):
            G.random_regular(4, 4, seed=1)  # d >= n

    def test_degree_sequences_over_many_seeds(self):
        # family definitions must hold for every seed, not just a lucky one
        for seed in range(1000):
            g = G.random_regular(10, 3, seed=seed)
            assert all(g.degree(v) == 3 for v in range(10))

    def test_gnp_seeded_and_simple(self):
        g1 = G.gnp(12, 0.3, seed=9)
        g2 = G.gnp(12, 0.3, seed=9)
        assert g1 == g2
        assert len(set(g1.edges)) == g1.m
        assert G.gnp(12, 0.0, seed=1).m == 0
        assert G.gnp(6, 1.0, seed=1).m == 15

    def test_tree_enumeration_counts(self):
        trees = list(G.nonisomorphic_trees(4))
        # orders 2..5 hold 1 + 1 + 2 + 3 isomorphism classes
        assert len(trees) == 7
        for t in trees:
            assert t.m == t.n - 1
            assert all(d < math.inf for d in t.vertex_distances(0))

    def test_generate_spec_strings(self):
        assert G.generate("star:3").m == 3
        assert G.generate("random_regular:8:3:2").max_degree == 3
        assert G.generate("tree:5:0").n == 5
        with pytest.raises(GraphError):
            G.generate("moebius:5")
        with pytest.raises(GraphError):
            G.generate("star:x")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("cycle:5:7", "cycle takes 1 field, got 2"),
            ("random_regular:64:16:1:9", "random_regular takes 3 fields, got 4"),
            ("star", "star takes 1 field, got 0"),
            ("path:4:", "path takes 1 field, got 2"),
            ("complete:4:4", "complete takes 1 field, got 2"),
            ("complete_bipartite:2", "complete_bipartite takes 2 fields, got 1"),
            ("tree:5:0:1", "tree takes 2 fields, got 3"),
            ("gnp:10:0.3", "gnp takes 3 fields, got 2"),
        ],
    )
    def test_spec_takes_exactly_its_fields(self, spec, message):
        # an extra field used to be dropped, so a seed could go unused
        with pytest.raises(GraphError) as exc:
            G.generate(spec)
        assert str(exc.value) == f"bad generator spec {spec!r}: {message}"

    def test_size_caps_accept_the_limit(self):
        assert G.generate(f"cycle:{G.MAX_EDGE_LIST_VERTICES}").m == G.MAX_EDGE_LIST_VERTICES
        assert G.generate("gnp:1414:0.0:1").n == 1414  # 998,991 pairs
        assert G.generate(f"tree:{G.MAX_TREE_ORDER}:0").n == G.MAX_TREE_ORDER

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("cycle:100001", "vertex count 100001 exceeds 100000"),
            ("star:100000", "vertex count 100001 exceeds 100000"),
            ("complete:1415", "1000405 edges or vertex pairs exceed 1000000"),
            ("gnp:1415:0.0:1", "1000405 edges or vertex pairs exceed 1000000"),
            ("tree:17:0", "tree order 17 exceeds 16"),
            ("tree:30:100000000", "tree order 30 exceeds 16"),
            ("tree:5:-1", "tree index -1 is negative"),
        ],
    )
    def test_size_caps_reject_above_the_limit(self, spec, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            G.generate(spec)


class TestEdgeListIO:
    def test_round_trip_canonical(self):
        text = "4\n# a comment\n2 3\n0 1\n\n1 2\n"
        g = G.read_edge_list(text)
        assert g.n == 4
        assert g.edges == [(2, 3), (0, 1), (1, 2)]  # input order preserved
        out = G.write_edge_list(g)
        assert out == "4\n0 1\n1 2\n2 3\n"
        assert G.read_edge_list(out) == G.read_edge_list(G.write_edge_list(G.read_edge_list(out)))

    def test_self_loop_file_rejected(self):
        with pytest.raises(GraphError):
            G.read_edge_list("2\n0 0\n")

    def test_malformed_lines_rejected(self):
        with pytest.raises(GraphError):
            G.read_edge_list("3\n0 1 2\n")
        with pytest.raises(GraphError):
            G.read_edge_list("3\n0 x\n")
        with pytest.raises(GraphError):
            G.read_edge_list("")

    def test_out_of_range_file_rejected(self):
        with pytest.raises(GraphError):
            G.read_edge_list("2\n0 5\n")

    def test_vertex_count_over_cap_rejected(self):
        cap = G.MAX_EDGE_LIST_VERTICES
        assert G.read_edge_list(f"{cap}\n0 1\n").n == cap
        with pytest.raises(GraphError, match=f"^line 2: vertex count {cap + 1} exceeds"):
            G.read_edge_list(f"# header\n{cap + 1}\n0 1\n")

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_write_read_identity(self, data):
        n = data.draw(st.integers(min_value=1, max_value=9))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(all_pairs), max_size=15, unique=True)) if all_pairs else []
        g = Graph(n, sorted(chosen))
        assert G.read_edge_list(G.write_edge_list(g)) == g
