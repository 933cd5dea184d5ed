"""Connected components and degree-structure measurements."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import SimpleGraph

__all__ = ["ComponentReport", "connected_components", "report"]


@dataclass(frozen=True)
class ComponentReport:
    """Component sizes and degree histogram of a simple graph.

    Attributes:
        sizes: Component sizes in descending order; sums to n.
        largest_fraction: sizes[0] / n.
        second_fraction: sizes[1] / n, or 0.0 for a connected graph.
        degree_counts: Number of vertices of each degree 0..d; sums to n,
            and the degree-weighted sum equals 2m (handshake identity).
        n: Vertex count.
        m: Edge count.
    """

    sizes: tuple[int, ...]
    largest_fraction: float
    second_fraction: float
    degree_counts: tuple[int, ...]
    n: int
    m: int


def _sparse():
    """scipy.sparse with its csgraph submodule, imported on first use.

    Importing gnmd loads no scipy.  The grid driver calls this before it
    forks its process pool, so that the workers inherit the import.
    """
    import scipy.sparse.csgraph

    return scipy.sparse


def connected_components(g: SimpleGraph) -> list[int]:
    """Component sizes of the graph, sorted descending.

    Labels the components with scipy's csgraph search over the edge list
    as a sparse adjacency matrix, then counts the labels; O(n + m).
    """
    sparse = _sparse()
    ones = np.ones(g.m, dtype=np.int8)
    adjacency = sparse.coo_matrix((ones, np.divmod(g.codes, g.n)), shape=(g.n, g.n))
    _, labels = sparse.csgraph.connected_components(adjacency, directed=False)
    return np.sort(np.bincount(labels))[::-1].tolist()


def report(g: SimpleGraph) -> ComponentReport:
    """Component decomposition plus the degree histogram of the graph."""
    sizes = connected_components(g)
    total = sum(sizes)
    assert total == g.n, f"component sizes sum to {total}, expected {g.n}"
    degree_counts = np.bincount(g.degrees(), minlength=g.d + 1)
    weighted = int(np.arange(degree_counts.size) @ degree_counts)
    assert weighted == 2 * g.m, f"handshake failed: {weighted} != {2 * g.m}"
    return ComponentReport(
        sizes=tuple(sizes),
        largest_fraction=sizes[0] / g.n,
        second_fraction=(sizes[1] / g.n) if len(sizes) > 1 else 0.0,
        degree_counts=tuple(int(c) for c in degree_counts),
        n=g.n,
        m=g.m,
    )
