"""Tests for connected components and graph reports."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gnmd import components, experiments, sampler
from gnmd.seeding import make_rng


def graph_from_edges(n, d, edge_list):
    codes = sorted(min(e) * n + max(e) for e in edge_list)
    return sampler.SimpleGraph(n=n, d=d, codes=codes)


def path_through(order):
    """The path that visits the vertices 0..n-1 in the given order."""
    order = order.tolist()
    return graph_from_edges(len(order), 2, zip(order, order[1:]))


@st.composite
def labelled_graphs(draw):
    """A simple graph on 1..40 vertices with any edge set and any labels."""
    n = draw(st.integers(1, 40))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(min(e), max(e)) for e in draw(st.lists(pairs, max_size=60)) if e[0] != e[1]}
    return graph_from_edges(n, n, edges)


def csgraph_component_sizes(g):
    """Component sizes by scipy's csgraph, an independent oracle, descending."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    adjacency = coo_matrix((np.ones(g.m), np.divmod(g.codes, g.n)), shape=(g.n, g.n))
    _, labels = connected_components(adjacency, directed=False)
    return np.sort(np.bincount(labels))[::-1].tolist()


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

    @settings(max_examples=200, deadline=None)
    @given(g=labelled_graphs())
    @example(g=graph_from_edges(1, 1, []))
    @example(g=graph_from_edges(6, 6, [(5, 3), (0, 5), (3, 0)]))
    def test_matches_breadth_first_search_on_any_labelling(self, g):
        assert components.connected_components(g) == bfs_component_sizes(g)

    N = 10_001

    @pytest.mark.parametrize(
        "order",
        [
            np.arange(N),
            np.arange(N)[::-1],
            # zigzag: 0, n-1, 1, n-2, ...
            np.column_stack([np.arange(N), np.arange(N)[::-1]]).ravel()[:N],
            # V-shaped: the even labels descending, then the odd ascending
            np.concatenate([np.arange(0, N, 2)[::-1], np.arange(1, N, 2)]),
            np.random.default_rng(0).permutation(N),
        ],
        ids=["increasing", "decreasing", "zigzag", "v-shaped", "random"],
    )
    def test_adversarially_labelled_path_is_one_component(self, order):
        assert sorted(order.tolist()) == list(range(self.N))
        assert components.connected_components(path_through(order)) == [self.N]

    def test_star_centred_on_the_largest_label_is_one_component(self):
        g = graph_from_edges(self.N, self.N - 1, [(v, self.N - 1) for v in range(self.N - 1)])
        assert components.connected_components(g) == [self.N]

    def test_heap_tree_with_reversed_labels_is_one_component(self):
        # Heap position i has children 2i + 1 and 2i + 2; position i carries
        # the label n - 1 - i, so every parent outranks its children.
        top = self.N - 1
        g = graph_from_edges(self.N, 3, [(top - i, top - (i - 1) // 2) for i in range(1, self.N)])
        assert components.connected_components(g) == [self.N]

    @pytest.mark.parametrize("mu", [0.8, 1.2, 1.6, 2.0])
    def test_matches_csgraph_on_sampled_graphs(self, mu):
        n = 100_000
        g = sampler.sample_graph(n, round(mu * n / 2), 4, make_rng(19))
        assert components.connected_components(g) == csgraph_component_sizes(g)

    def test_matches_csgraph_on_a_percolated_regular_graph(self):
        g = experiments.sample_percolated_regular(20_000, 4, 0.4, make_rng(19))
        assert components.connected_components(g) == csgraph_component_sizes(g)


class TestDegrees:
    @settings(max_examples=200, deadline=None)
    @given(g=labelled_graphs())
    @example(g=graph_from_edges(1, 1, []))
    @example(g=graph_from_edges(6, 6, [(1, 4), (0, 4)]))
    def test_match_the_count_over_the_joined_endpoints(self, g):
        expected = np.bincount(np.concatenate(g.endpoints()), minlength=g.n)
        degrees = g.degrees()
        assert degrees.dtype == expected.dtype and np.array_equal(degrees, expected)


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
