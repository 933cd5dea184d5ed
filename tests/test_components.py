"""Tests for connected components and graph reports."""

import numpy as np
import pytest

from gnmd import components, sampler
from gnmd.seeding import make_rng


def graph_from_edges(n, d, edge_list):
    codes = sorted(min(e) * n + max(e) for e in edge_list)
    return sampler.SimpleGraph(n=n, d=d, codes=codes)


def bfs_component_sizes(g):
    """Reference: component sizes by breadth-first search, descending."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    sizes = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue, size = [start], 0
        while queue:
            v = queue.pop()
            size += 1
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        sizes.append(size)
    return sorted(sizes, reverse=True)


class TestConnectedComponents:
    def test_edgeless_graph(self):
        g = sampler.SimpleGraph(n=5, d=2, codes=[])
        assert components.connected_components(g) == [1, 1, 1, 1, 1]

    def test_path_plus_isolated(self):
        g = graph_from_edges(4, 2, [(0, 1), (1, 2)])
        assert components.connected_components(g) == [3, 1]

    def test_hand_decomposition(self):
        g = graph_from_edges(7, 2, [(0, 1), (1, 2), (3, 4), (5, 6)])
        assert components.connected_components(g) == [3, 2, 2]

    def test_sizes_partition_vertices(self):
        for seed in range(5):
            g = sampler.sample_graph(200, 150, 4, make_rng(seed))
            assert sum(components.connected_components(g)) == 200

    @pytest.mark.parametrize(
        "n, m, d, seed",
        [(1, 0, 3, 0), (12, 0, 3, 1), (30, 8, 3, 2), (200, 90, 4, 3), (500, 600, 5, 4)],
    )
    def test_matches_breadth_first_search(self, n, m, d, seed):
        rng = make_rng(seed)
        if m:
            g = sampler.sample_graph(n, m, d, rng)
        else:
            g = sampler.SimpleGraph(n=n, d=d, codes=[])
        # Percolate half the edges away so that isolated vertices and many
        # small components appear.
        keep = rng.random(g.m) < 0.5
        g = sampler.SimpleGraph(n=n, d=d, codes=g.codes[keep])
        assert components.connected_components(g) == bfs_component_sizes(g)


class TestReport:
    def test_unique_tiny_graph(self):
        g = sampler.sample_graph(2, 1, 3, make_rng(0))
        rep = components.report(g)
        assert rep.sizes == (2,)
        assert rep.degree_counts == (0, 2, 0, 0)
        assert rep.largest_fraction == 1.0
        assert rep.second_fraction == 0.0

    def test_triangle(self):
        g = graph_from_edges(3, 2, [(0, 1), (0, 2), (1, 2)])
        rep = components.report(g)
        assert rep.largest_fraction == 1.0
        assert rep.degree_counts == (0, 0, 3)

    def test_handshake_identity(self):
        for seed in range(5):
            g = sampler.sample_graph(300, 200, 4, make_rng(seed))
            rep = components.report(g)
            assert sum(rep.sizes) == g.n
            weighted = sum(i * c for i, c in enumerate(rep.degree_counts))
            assert weighted == 2 * g.m

    def test_report_invariant_under_multigraph_edge_order(self):
        # The canonicalization step erases pairing order, so reports are a
        # function of the edge set only.
        tokens = np.array([[2, 1, 0, 1, 4, 3], [3, 4, 1, 0, 1, 2]])
        codes, simple = sampler.is_simple(tokens, 5)
        assert simple.all()
        r1, r2 = (
            components.report(sampler.SimpleGraph(n=5, d=2, codes=row))
            for row in codes
        )
        assert r1 == r2
