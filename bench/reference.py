"""Reference computations for the benchmark, made apart from gnmd.

Nothing here imports gnmd.  Every quantity the benchmark checks a gnmd
output against is recomputed from first principles:

- the d-truncated Poisson law of mean mu, from partial exponential sums;
- the critical mean degree mu_c(d) = mean_d(lam1), where the
  (d-1)-truncated law at rate lam1 has mean 1;
- the giant fraction theta = 1 - G0(xi), with xi the largest root in
  [0, 1) of the size-biased fixed point xi = G1(xi), found by
  numpy.polynomial roots (Molloy & Reed 1995; Newman, Strogatz & Watts
  2001);
- the giant of a bond-percolated random d-regular graph,
  theta_p = 1 - (1 - q)^d with q = p (1 - (1 - q)^(d-1)) and p = mu/d;
- component sizes by networkx;
- the tiny (n, m, d) ensemble, counted by brute force over edge bitmasks.
"""

from __future__ import annotations

import math
from itertools import combinations
from statistics import NormalDist

import numpy as np
from numpy.polynomial import polynomial as P


def partial_exp_sum(k: int, lam: float) -> float:
    """sum_{j=0}^{k} lam^j / j!, accumulated with the term recurrence."""
    total = term = 1.0
    for j in range(1, k + 1):
        term *= lam / j
        total += term
    return total


def truncated_mean(k: int, lam: float) -> float:
    """Mean of the k-truncated Poisson law at rate lam."""
    return lam * partial_exp_sum(k - 1, lam) / partial_exp_sum(k, lam)


def rate_for_mean(k: int, target: float) -> float:
    """Rate at which the k-truncated Poisson law has mean `target`."""
    if not 0.0 < target < k:
        raise ValueError(f"mean {target} outside (0, {k})")
    lo, hi = 0.0, 1.0
    while truncated_mean(k, hi) < target:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if truncated_mean(k, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def degree_law(d: int, mu: float) -> np.ndarray:
    """Probabilities p_0..p_d of the d-truncated Poisson law of mean mu."""
    lam = rate_for_mean(d, mu)
    terms = np.array([lam**j / math.factorial(j) for j in range(d + 1)])
    return terms / terms.sum()


def critical_mean_degree(d: int) -> float:
    """mu_c(d); infinite for d = 2, where the (d-1)-law never has mean 1."""
    if d == 2:
        return math.inf
    return truncated_mean(d, rate_for_mean(d - 1, 1.0))


def giant_fraction(probs: np.ndarray) -> float:
    """theta = 1 - G0(xi) for the largest root xi in [0, 1) of xi = G1(xi).

    Returns 0.0 when no such root exists (the subcritical phase, where
    xi = 1 is the only fixed point in [0, 1]).
    """
    probs = np.asarray(probs, dtype=float)
    i = np.arange(probs.size)
    mean = float(i @ probs)
    # G1(x) - x, in increasing powers of x; x = 1 is always a root, so
    # divide it out to keep a second root near 1 well separated.
    coeffs = i[1:] * probs[1:] / mean
    coeffs[1] -= 1.0
    deflated, _ = P.polydiv(coeffs, [-1.0, 1.0])
    roots = P.polyroots(deflated) if deflated.size > 1 else np.empty(0)
    real = roots[np.abs(roots.imag) < 1e-9].real
    inside = real[(real >= 0.0) & (real < 1.0)]
    if inside.size == 0:
        return 0.0
    xi = float(inside.max())
    return 1.0 - float(P.polyval(xi, probs))


def percolated_regular_giant(d: int, mu: float) -> float:
    """Giant fraction of a random d-regular graph with edges kept w.p. mu/d.

    Solves q = p (1 - (1 - q)^(d-1)) for its largest root by bisection on
    the sign change below q = p, then returns 1 - (1 - q)^d.  Zero at or
    below the threshold p (d - 1) <= 1.
    """
    p = mu / d
    if p * (d - 1) <= 1.0:
        return 0.0

    def f(q: float) -> float:
        return p * (1.0 - (1.0 - q) ** (d - 1)) - q

    lo, hi = 1e-12, p  # f(lo) > 0 above the threshold, f(p) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    return 1.0 - (1.0 - q) ** d


def component_sizes(n: int, edges: np.ndarray) -> list[int]:
    """Component sizes, descending, by networkx."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(map(tuple, np.asarray(edges).tolist()))
    return sorted((len(c) for c in nx.connected_components(graph)), reverse=True)


def graph_defects(n: int, m: int, d: int, edges: np.ndarray) -> list[str]:
    """Why an edge list is not a simple graph with m edges and max degree <= d."""
    edges = np.asarray(edges).reshape(-1, 2)
    problems = []
    if edges.shape[0] != m:
        problems.append(f"{edges.shape[0]} edges, expected {m}")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        problems.append("vertex label out of range")
        return problems
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    if np.any(lo == hi):
        problems.append("loop")
    if np.unique(lo * n + hi).size != edges.shape[0]:
        problems.append("repeated edge")
    if np.bincount(edges.ravel(), minlength=n).max(initial=0) > d:
        problems.append(f"a vertex exceeds degree {d}")
    return problems


def degree_histogram_bound(probs: np.ndarray, n: int, z: float = 6.0) -> float:
    """Bound on max_i |nu_i/n - p_i| for a multinomial(n, p) histogram.

    Each class frequency has standard deviation sqrt(p_i (1 - p_i) / n);
    conditioning on the degree sum only narrows it.  z standard deviations
    of the widest class, plus 1/n for the integer rounding of counts.
    """
    probs = np.asarray(probs, dtype=float)
    return z * float(np.sqrt(probs * (1.0 - probs) / n).max()) + 1.0 / n


def tiny_ensemble(n: int, m: int, d: int) -> set[tuple[int, ...]]:
    """Every simple graph on [0, n) with m edges and max degree <= d.

    Each graph is a sorted tuple of edge codes u*n + v (u < v).  Works on
    edge bitmasks: a mask with m bits set is kept when no vertex row of
    the incidence matrix has more than d of its bits.
    """
    pairs = list(combinations(range(n), 2))
    incidence = np.zeros((n, len(pairs)), dtype=np.int64)
    for e, (u, v) in enumerate(pairs):
        incidence[u, e] = incidence[v, e] = 1
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    bits = (masks[:, None] >> np.arange(len(pairs))) & 1
    chosen = bits[bits.sum(axis=1) == m]
    kept = chosen[(chosen @ incidence.T).max(axis=1) <= d]
    codes = np.array([u * n + v for u, v in pairs])
    return {tuple(sorted(codes[row.astype(bool)].tolist())) for row in kept}


def chi_square_quantile(dof: int, tail: float) -> float:
    """Upper quantile of chi-square(dof) by the Wilson-Hilferty transform.

    Accurate to well under 0.1% for dof in the hundreds and above.
    """
    z = NormalDist().inv_cdf(1.0 - tail)
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3
