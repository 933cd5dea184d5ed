"""Brute-force ground truth at tiny scale.

Exhaustive enumeration of all labeled simple graphs with n vertices,
m edges, and max degree at most d; exact distributions for sums of
truncated Poisson variables; and a frequency test of the graph sampler
against the enumerated uniform distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import chdtri

from . import sampler as sampler_mod
from . import truncpoisson
from .seeding import make_rng

__all__ = [
    "EnumeratedEnsemble",
    "enumerate_graphs",
    "count_graphs_with_degree_sequence",
    "stratified_recount",
    "UniformityReport",
    "uniformity_test",
    "sum_pmf",
    "conditional_marginal",
]

ENUMERATION_GUARD = 10**8
MAX_ENUM_VERTICES = 8

#: Draws that uniformity_test asks the sampler for at a time.  Each block
#: is tallied before the next is drawn, so memory stays O(block * m)
#: whatever the trial count.
_TALLY_BLOCK = 1 << 14


@dataclass(frozen=True)
class EnumeratedEnsemble:
    """All labeled simple graphs with the given parameters.

    graphs holds one canonical edge list per graph: pairs normalized
    (u < v) and sorted lexicographically.  edge_codes holds the same
    graphs as rows of u*n + v codes for fast tallying.
    """

    n: int
    m: int
    d: int
    graphs: tuple[tuple[tuple[int, int], ...], ...]
    edge_codes: np.ndarray  # shape (count, m), rows sorted ascending

    @property
    def count(self) -> int:
        return len(self.graphs)


def enumerate_graphs(n: int, m: int, d: int) -> EnumeratedEnsemble:
    """Enumerate every labeled simple graph on [0, n) with m edges, deg <= d.

    Iterates over all m-subsets of the n(n-1)/2 vertex pairs and keeps the
    subsets whose maximum degree stays within d.

    Raises:
        ValueError: If n exceeds 8 or the number of m-subsets exceeds the
            10^8 enumeration guard.
    """
    if n < 1 or n > MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUM_VERTICES}, got {n}")
    pair_count = math.comb(n, 2)
    if m < 0 or m > pair_count:
        raise ValueError(f"m must lie in [0, {pair_count}], got {m}")
    subsets = math.comb(pair_count, m)
    if subsets > ENUMERATION_GUARD:
        raise ValueError(
            f"refusing to enumerate {subsets} edge subsets (> {ENUMERATION_GUARD})"
        )
    pairs = list(combinations(range(n), 2))
    kept: list[tuple[tuple[int, int], ...]] = []
    degree = np.zeros(n, dtype=np.int64)
    for subset in combinations(pairs, m):
        degree[:] = 0
        for u, v in subset:
            degree[u] += 1
            degree[v] += 1
        if degree.max(initial=0) <= d:
            kept.append(subset)
    codes = np.array(
        [[u * n + v for u, v in g] for g in kept], dtype=np.int64
    ).reshape(len(kept), m)
    return EnumeratedEnsemble(n=n, m=m, d=d, graphs=tuple(kept), edge_codes=codes)


def count_graphs_with_degree_sequence(degrees: tuple[int, ...] | list[int]) -> int:
    """Count labeled simple graphs realizing an exact degree sequence.

    Independent of enumerate_graphs: recursively satisfies the vertex with
    the largest remaining degree by choosing its full set of new neighbors,
    so every realization is constructed exactly once.  Intended for tiny
    instances (the recount cross-check of the enumeration).
    """
    deg = list(degrees)
    if any(x < 0 for x in deg):
        return 0
    if sum(deg) % 2:
        return 0
    n = len(deg)
    adj: list[set[int]] = [set() for _ in range(n)]

    def rec() -> int:
        i = max(range(n), key=lambda v: deg[v])
        if deg[i] == 0:
            return 1
        cands = [v for v in range(n) if v != i and deg[v] > 0 and v not in adj[i]]
        if len(cands) < deg[i]:
            return 0
        total = 0
        need = deg[i]
        deg[i] = 0
        for chosen in combinations(cands, need):
            for v in chosen:
                deg[v] -= 1
                adj[i].add(v)
                adj[v].add(i)
            total += rec()
            for v in chosen:
                deg[v] += 1
                adj[i].remove(v)
                adj[v].remove(i)
        deg[i] = need
        return total

    return rec()


def stratified_recount(n: int, m: int, d: int) -> int:
    """Total graph count via degree-sequence stratification.

    Sums count_graphs_with_degree_sequence over every feasible degree
    sequence; an independent route to |ensemble| used to validate
    enumerate_graphs.
    """
    total = 0
    for degrees in _degree_sequences(n, 2 * m, d):
        total += count_graphs_with_degree_sequence(degrees)
    return total


def _degree_sequences(n: int, total: int, d: int):
    """Yield all vectors in [0, d]^n with the given sum."""
    seq = [0] * n

    def rec(i: int, remaining: int):
        if i == n - 1:
            if remaining <= d:
                seq[i] = remaining
                yield tuple(seq)
            return
        hi = min(d, remaining)
        lo = max(0, remaining - d * (n - 1 - i))
        for v in range(lo, hi + 1):
            seq[i] = v
            yield from rec(i + 1, remaining - v)

    yield from rec(0, total)


@dataclass(frozen=True)
class UniformityReport:
    """Outcome of tallying sampler output against an enumerated ensemble."""

    count: int
    trials: int
    tv_distance: float
    chi_square: float
    dof: int
    chi_square_q999: float
    observed_min: int
    observed_max: int
    never_sampled: int

    @property
    def chi_square_ok(self) -> bool:
        return self.chi_square <= self.chi_square_q999


def _graph_keys(codes: np.ndarray) -> np.ndarray:
    """One uint64 per row of edge codes: the OR of 1 << code over the row.

    Injective on sets of codes below 64, which every code u*n + v is when
    n <= MAX_ENUM_VERTICES.  Built column by column, so no temporary of
    the full (rows, m) shape is made.
    """
    keys = np.zeros(codes.shape[0], dtype=np.uint64)
    one = np.uint64(1)
    for column in codes.T:
        keys |= one << column.astype(np.uint64)
    return keys


def _key_index(ensemble: EnumeratedEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble's graph keys in ascending order, and the graph index of each."""
    keys = _graph_keys(ensemble.edge_codes)
    order = np.argsort(keys)
    return keys[order], order


def _tally(
    ensemble: EnumeratedEnsemble,
    index: tuple[np.ndarray, np.ndarray],
    codes: np.ndarray,
) -> np.ndarray:
    """How often each ensemble graph occurs among the rows of `codes`.

    `index` is the ensemble's _key_index, built once per ensemble.  Only
    the distinct keys of `codes` are looked up: sorted, they search the
    ensemble keys several times faster than the raw rows do.

    Raises:
        RuntimeError: If a row is not a graph of the ensemble.
    """
    sorted_keys, order = index
    row_keys = _graph_keys(codes)
    keys, counts = np.unique(row_keys, return_counts=True)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    alien = np.nonzero(sorted_keys[pos] != keys)[0]
    if alien.size:
        row = codes[np.argmax(row_keys == keys[alien[0]])]
        decoded = [(int(code) // ensemble.n, int(code) % ensemble.n) for code in row]
        raise RuntimeError(
            f"sampled graph {decoded} is not in the enumerated ensemble; "
            "the sampler violates its support"
        )
    observed = np.zeros(ensemble.count, dtype=np.int64)
    observed[order[pos]] = counts
    return observed


def uniformity_test(
    ensemble: EnumeratedEnsemble,
    trials: int,
    seed: int,
) -> UniformityReport:
    """Sample `trials` graphs and compare frequencies to uniform.

    Reports total-variation distance to the uniform distribution over the
    ensemble and the chi-square statistic with count - 1 degrees of
    freedom (plus its 0.999 reference quantile).

    The graphs come from sampler.sample_edge_codes, whose bulk kernel
    completes the last degree of each attempt by acceptance (see its
    docstring for why that keeps the law exact), in blocks of
    _TALLY_BLOCK draws from one generator.  Each block is tallied by graph
    key before the next is drawn, so memory is O(_TALLY_BLOCK * m) for any
    trial count, and the ensemble keys are sorted once.

    Raises:
        ValueError: If the ensemble has more than MAX_ENUM_VERTICES
            vertices or fewer than 2 graphs, or trials is below 100 per
            graph.
        RuntimeError: If a sampled graph is missing from the ensemble,
            which would mean the sampler or the enumeration is wrong.
    """
    if ensemble.n > MAX_ENUM_VERTICES:
        raise ValueError(
            f"uniformity test supports n <= {MAX_ENUM_VERTICES}, got n={ensemble.n}"
        )
    if ensemble.count < 2:
        raise ValueError("uniformity test needs an ensemble with >= 2 graphs")
    if trials < 100 * ensemble.count:
        raise ValueError(
            f"need at least {100 * ensemble.count} trials for {ensemble.count} "
            f"graphs, got {trials}"
        )
    rng = make_rng(seed)
    index = _key_index(ensemble)
    observed = np.zeros(ensemble.count, dtype=np.int64)
    for start in range(0, trials, _TALLY_BLOCK):
        codes = sampler_mod.sample_edge_codes(
            ensemble.n,
            ensemble.m,
            ensemble.d,
            min(_TALLY_BLOCK, trials - start),
            rng,
        )
        observed += _tally(ensemble, index, codes)
    expected = trials / ensemble.count
    tv = 0.5 * float(np.abs(observed / trials - 1.0 / ensemble.count).sum())
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    dof = ensemble.count - 1
    q999 = float(chdtri(dof, 0.001))
    return UniformityReport(
        count=ensemble.count,
        trials=trials,
        tv_distance=tv,
        chi_square=chi2,
        dof=dof,
        chi_square_q999=q999,
        observed_min=int(observed.min()),
        observed_max=int(observed.max()),
        never_sampled=int((observed == 0).sum()),
    )


def sum_pmf(n: int, d: int, lam: float) -> np.ndarray:
    """Exact pmf of the sum of n i.i.d. d-truncated Poisson variables.

    Returns an array of length n*d + 1 with entry s equal to P(sum = s),
    computed by convolution powers (exponentiation by squaring).  All
    terms are nonnegative so no cancellation occurs; accuracy near the
    bulk of the distribution is limited only by float rounding.
    """
    if n < 0:
        raise ValueError(f"need n >= 0 variables, got {n}")
    if n == 0:
        return np.ones(1)
    base = truncpoisson.law_from_rate(d, lam).probs.copy()
    result: np.ndarray | None = None
    e = n
    while True:
        if e & 1:
            result = base.copy() if result is None else np.convolve(result, base)
        e >>= 1
        if e == 0:
            break
        base = np.convolve(base, base)
    assert result is not None and result.size == n * d + 1
    return result


def conditional_marginal(n: int, target_sum: int, d: int, lam: float) -> np.ndarray:
    """Exact law of one variable among n i.i.d. truncated Poissons given the sum.

    Entry k is P(Z_1 = k | Z_1 + ... + Z_n = target_sum); proportional to
    pmf(k) * P(sum of n-1 variables = target_sum - k).
    """
    if n < 1:
        raise ValueError(f"need n >= 1 variables, got {n}")
    if not (0 <= target_sum <= n * d):
        raise ValueError(f"target sum must lie in [0, {n * d}], got {target_sum}")
    probs = truncpoisson.law_from_rate(d, lam).probs
    rest = sum_pmf(n - 1, d, lam)
    weights = np.zeros(d + 1)
    for k in range(d + 1):
        r = target_sum - k
        if 0 <= r < rest.size:
            weights[k] = probs[k] * rest[r]
    total = weights.sum()
    if total <= 0:
        raise ValueError(f"sum {target_sum} has probability zero")
    return weights / total
