"""Connected components, labelled in numpy alone, and degree-structure measurements."""

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


def _roots(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Component label of each vertex: the smallest vertex of its component.

    Min-label hooking and pointer jumping (Shiloach and Vishkin, J.
    Algorithms 3, 1982) over the edges (lo, hi) with lo < hi.  Each round
    hooks every root that has an edge to a smaller root under the smallest
    such root, so parent[x] <= x always holds and no cycle forms; pointer
    jumping then points every vertex at its root, and the edges whose two
    roots still differ go on to the next round as (smaller, larger) root.
    The labels have the endpoints' dtype.
    """
    # Gathers go through take, which casts int32 indices once; fancy indexing
    # casts them buffer by buffer and ran about half as fast (numpy 2.4).
    parent = np.arange(n, dtype=lo.dtype)
    while lo.size:
        np.minimum.at(parent, hi, lo)
        jumped = parent.take(parent)
        moved = np.flatnonzero(jumped != parent)
        parent = jumped
        while moved.size:
            up = parent[moved]
            jumped = parent.take(up)
            parent[moved] = jumped
            moved = moved[jumped != up]
        # Rebound one at a time, so each replaced array can go at once.
        lo = parent.take(lo)
        hi = parent.take(hi)
        cross = lo != hi
        lo = lo[cross]
        hi = hi[cross]
        top = np.maximum(lo, hi)
        np.minimum(lo, hi, out=lo)
        hi = top
    return parent


def connected_components(g: SimpleGraph) -> list[int]:
    """Component sizes of the graph, sorted descending.

    Labels the vertices with _roots over g.endpoints(), a few numpy passes
    over the edges (4-6 rounds on sampled graphs at n = 1e5), then counts
    the labels and lists the sizes from the counts of each size, largest
    first.
    """
    counts = np.bincount(_roots(g.n, *g.endpoints()))
    hist = np.bincount(counts)
    hist[0] = 0
    return np.repeat(np.arange(hist.size - 1, -1, -1), hist[::-1]).tolist()


def report(g: SimpleGraph) -> ComponentReport:
    """Component decomposition plus the degree histogram of the graph.

    Memory: g.degrees() and connected_components each decode the codes to
    two int32 m-vectors (8m bytes), one after the other.  The int64 degree
    vector (8n bytes) is freed before _roots allocates its labels; a
    labelling round holds at most the endpoints, their gathered roots and
    one transient int64 copy of the index it gathers by.  On a 4-regular
    graph at n = 1e5 (m = 2n) the peak is about 3.4 * 8m bytes beyond the
    codes.
    """
    degree_counts = np.bincount(g.degrees(), minlength=g.d + 1)
    sizes = connected_components(g)
    total = sum(sizes)
    assert total == g.n, f"component sizes sum to {total}, expected {g.n}"
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
