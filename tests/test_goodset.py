"""Good sets: greedy construction, certification, harmonic criterion, sizing."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamelab import graph as G
from gamelab.goodset import (
    condition_values,
    find_good_set,
    harmonic_condition,
    reduction_vertex_bound,
)
from gamelab.match import mixed_corpus
from helpers import edge_distance


def good_set_problems(g: G.Graph, edges) -> list[str]:
    """All reasons why ``edges`` fails to be a good set (empty if none)."""
    problems: list[str] = []
    delta = g.max_degree
    seen: set[int] = set()
    for e in edges:
        if not 0 <= e < g.m:
            problems.append(f"edge index {e} out of range")
            continue
        if e in seen:
            problems.append(f"edge {e} listed twice")
        seen.add(e)
        u, v = g.edges[e]
        if g.degree(u) != delta or g.degree(v) != delta:
            problems.append(f"edge {e} has an endpoint below degree {delta}")
    clean = sorted(e for e in seen if 0 <= e < g.m)
    for i, e in enumerate(clean):
        for f in clean[i + 1 :]:
            d = edge_distance(g, e, f)
            if d < 4:
                problems.append(f"edges {e} and {f} are at distance {d} < 4")
    return problems


def check_good_set(g: G.Graph, edges) -> bool:
    """True iff the degree and pairwise-distance conditions hold in g."""
    return not good_set_problems(g, edges)


def brute_force_good_sets(g: G.Graph, size: int) -> list[tuple[int, ...]]:
    """All good sets of a given size, by definition (oracle)."""
    import itertools

    delta = g.max_degree
    eligible = [
        e
        for e in range(g.m)
        if g.degree(g.edges[e][0]) == delta and g.degree(g.edges[e][1]) == delta
    ]
    out = []
    for combo in itertools.combinations(eligible, size):
        if all(
            edge_distance(g, e, f) >= 4
            for i, e in enumerate(combo)
            for f in combo[i + 1 :]
        ):
            out.append(combo)
    return out


class TestGreedy:
    def test_star_has_no_good_set(self):
        cert = find_good_set(G.star(5))
        assert cert.edges == ()

    def test_cycle_10(self):
        cert = find_good_set(G.cycle(10))
        assert cert.edges == (0, 5)
        assert check_good_set(G.cycle(10), cert.edges)

    def test_cycle_25(self):
        g = G.cycle(25)
        cert = find_good_set(g)
        assert cert.edges == (0, 5, 10, 15, 20)
        assert check_good_set(g, cert.edges)

    def test_certificate_contents(self):
        g = G.cycle(10)
        cert = find_good_set(g)
        assert cert.pair_distances == ((0, 5, 4),)
        assert len(cert.steps) == 2
        assert cert.steps[0].edge == 0
        assert sum(st_.removed for st_ in cert.steps) <= g.m

    def test_greedy_output_is_maximal_like(self):
        # greedy never stops while an eligible edge with full-degree endpoints
        # survives; spot-check by recomputing eligibility after the fact
        g = G.cycle(12)
        cert = find_good_set(g)
        assert check_good_set(g, cert.edges)

    def test_disconnected_components(self):
        # two triangles far apart: distance is infinite across components
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        g = G.Graph(6, edges)
        cert = find_good_set(g)
        assert len(cert.edges) == 2
        assert check_good_set(g, cert.edges)
        e, f, d = cert.pair_distances[0]
        assert d == math.inf

    def test_certificate_distances_match_independent_bfs(self):
        graphs = [g for _, g in mixed_corpus()]
        graphs.append(G.generate("random_regular:64:16:1"))
        for g in graphs:
            cert = find_good_set(g)
            assert cert.pair_distances == tuple(
                (e, f, edge_distance(g, e, f))
                for i, e in enumerate(cert.edges)
                for f in cert.edges[i + 1 :]
            )

    @given(st.integers(min_value=8, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_cycle_picks(self, n):
        # on C_n the greedy walks the cycle picking every fifth edge; when 5
        # divides n the wrap-around works out to exactly n/5 picks
        cert = find_good_set(G.cycle(n))
        assert check_good_set(G.cycle(n), cert.edges)
        if n % 5 == 0:
            assert cert.edges == tuple(range(0, n, 5))

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=6, max_value=14),
    )
    @settings(max_examples=40, deadline=None)
    def test_greedy_sound_on_random_graphs(self, seed, n):
        g = G.gnp(n, 0.3, seed=seed)
        cert = find_good_set(g)
        assert check_good_set(g, cert.edges), good_set_problems(g, cert.edges)

    def test_greedy_not_smaller_than_needed_on_c10(self):
        # oracle cross-check: a 2-element good set exists on C_10, and greedy found one
        assert len(brute_force_good_sets(G.cycle(10), 2)) > 0
        assert len(find_good_set(G.cycle(10)).edges) == 2

    def test_certificate_is_kept_per_graph(self):
        g = G.cycle(25)
        assert find_good_set(g) is find_good_set(g)
        twin = G.cycle(25)
        assert find_good_set(twin) == find_good_set(g)
        assert find_good_set(twin) is not find_good_set(g)

    def test_shrinkage_bound_on_regular_graphs(self):
        for g in [G.cycle(20), G.random_regular(24, 3, seed=4), G.complete(6)]:
            delta = g.max_degree
            cert = find_good_set(g)
            for step in cert.steps:
                assert step.full_degree_lost <= 2 * delta**3


class TestCheck:
    def test_adjacent_edges_rejected(self):
        g = G.cycle(10)
        assert not check_good_set(g, [0, 1])
        msgs = good_set_problems(g, [0, 1])
        assert any("distance" in m for m in msgs)

    def test_low_degree_endpoint_rejected(self):
        g = G.star(5)
        assert not check_good_set(g, [0])

    def test_duplicate_and_out_of_range(self):
        g = G.cycle(10)
        assert not check_good_set(g, [0, 0])
        assert not check_good_set(g, [99])

    def test_empty_is_good(self):
        assert check_good_set(G.cycle(5), [])


class TestHarmonicCondition:
    def test_c10_b3(self):
        g = G.cycle(10)
        F = find_good_set(g).edges
        lhs, rhs = condition_values(g, F, 3)
        assert lhs == 1 and rhs == 1
        assert harmonic_condition(g, F, 3)

    def test_c25_b2(self):
        g = G.cycle(25)
        F = find_good_set(g).edges
        lhs, rhs = condition_values(g, F, 2)
        assert lhs == 2 and rhs == Fraction(25, 12)
        assert harmonic_condition(g, F, 2)

    def test_singleton_false(self):
        g = G.cycle(10)
        assert not harmonic_condition(g, [0], 3)
        assert not harmonic_condition(g, [], 2)

    def test_bias_one_rejected(self):
        g = G.cycle(10)
        with pytest.raises(ValueError):
            harmonic_condition(g, [0, 5], 1)

    def test_more_boxes_help(self):
        g = G.cycle(50)
        F = find_good_set(g).edges  # 10 boxes
        assert harmonic_condition(g, F, 2)
        assert harmonic_condition(g, F[:5], 2)
        assert not harmonic_condition(g, F[:2], 2)  # 2 > H_1 = 1


class TestVertexBound:
    def test_pinned_values(self):
        assert reduction_vertex_bound(2, 3) == 14
        assert reduction_vertex_bound(2, 2) == 22

    def test_monotone_in_delta(self):
        for b in (2, 3, 5):
            prev = 0
            for delta in range(1, 12):
                cur = reduction_vertex_bound(delta, b)
                assert cur >= prev
                prev = cur

    def test_scale_and_errors(self):
        assert reduction_vertex_bound(2, 3, scale=2.0) == 27  # ceil(16 * e^0.5)
        with pytest.raises(ValueError):
            reduction_vertex_bound(0, 2)
        with pytest.raises(ValueError):
            reduction_vertex_bound(2, 1)
