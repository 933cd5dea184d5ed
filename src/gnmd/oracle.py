"""Exact ground truth for the sampler.

Exhaustive enumeration of all labeled simple graphs with n vertices,
m edges and max degree at most d, kept as rows of sorted edge codes
u*n + v; an independent exact count of the same graphs by a recursion
over residual degree histograms; exact distributions for sums of
truncated Poisson variables; and a frequency test of the graph sampler
against the enumerated uniform distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

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

    edge_codes holds one graph per row as its m edge codes u*n + v
    (u < v), sorted ascending: the canonical form the samplers use.
    """

    n: int
    m: int
    d: int
    edge_codes: np.ndarray  # shape (count, m), rows sorted ascending

    @property
    def count(self) -> int:
        return self.edge_codes.shape[0]


def enumerate_graphs(n: int, m: int, d: int) -> EnumeratedEnsemble:
    """Enumerate every labeled simple graph on [0, n) with m edges, deg <= d.

    Iterates over all m-subsets of the n(n-1)/2 vertex pairs in
    lexicographic order, which is also the order of their edge codes, and
    keeps the subsets whose maximum degree stays within d.

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
    kept = []
    for subset in combinations(combinations(range(n), 2), m):
        degree = [0] * n
        for u, v in subset:
            degree[u] += 1
            degree[v] += 1
        if max(degree) <= d:
            kept.append([u * n + v for u, v in subset])
    return EnumeratedEnsemble(n, m, d, np.array(kept, dtype=np.int64).reshape(len(kept), m))


def _splits(avail: list[int], r: int):
    """Yield (k, prod_i C(avail[i], k[i])) for each k <= avail summing to r."""
    if len(avail) == 1:
        if r <= avail[0]:
            yield (r,), math.comb(avail[0], r)
        return
    for k in range(min(avail[0], r) + 1):
        for tail, ways in _splits(avail[1:], r - k):
            yield (k, *tail), math.comb(avail[0], k) * ways


def _histogram_counter():
    """A fresh N(h), the labeled simple graphs with residual degree histogram h.

    h[c - 1] counts the vertices of residual degree c >= 1 (degree-0
    vertices take no edge).  N removes one vertex of the top class r and
    joins it to k_c of the other vertices of each class c, in
    prod_c C(h_c, k_c) ways, each moving down one class; its neighbour set
    tells the realizations apart.  The memo is local to the returned
    function, so it is shared within one top-level call and then dropped.
    """
    memo: dict[tuple[int, ...], int] = {(): 1}

    def count(h: tuple[int, ...]) -> int:
        while h and not h[-1]:
            h = h[:-1]
        if h not in memo:
            rest = [*h[:-1], h[-1] - 1]
            memo[h] = sum(
                ways * count(tuple(a - b + c for a, b, c in zip(rest, k, (*k[1:], 0))))
                for k, ways in _splits(rest, len(h))
            )
        return memo[h]

    return count


def _histograms(d: int, vertices: int, degree_sum: int):
    """Yield every (h_1, ..., h_d) with sum_c c*h_c = degree_sum, sum h <= vertices."""
    if d == 0:
        if degree_sum == 0:
            yield ()
        return
    for k in range(min(vertices, degree_sum // d) + 1):
        for h in _histograms(d - 1, vertices - k, degree_sum - d * k):
            yield (*h, k)


def count_graphs_with_degree_sequence(degrees: tuple[int, ...] | list[int]) -> int:
    """Count labeled simple graphs realizing an exact degree sequence.

    Independent of enumerate_graphs: N(histogram of degrees), with Python
    integers throughout.  Returns 0 for a negative entry or an odd sum.
    """
    if any(x < 0 for x in degrees) or sum(degrees) % 2:
        return 0
    return _histogram_counter()(tuple(np.bincount(degrees, minlength=1)[1:].tolist()))


def stratified_recount(n: int, m: int, d: int) -> int:
    """|ensemble| as the sum of n!/prod_c h_c! * N(h) over degree histograms h.

    h = (h_0, ..., h_d) has n vertices and degree sum 2m.  Exact and
    polynomial in n for fixed d: the independent check of enumerate_graphs.
    """
    count = _histogram_counter()
    return sum(
        math.factorial(n) // math.prod(map(math.factorial, (n - sum(h), *h))) * count(h)
        for h in _histograms(d, n, 2 * m)
    )


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
        graph = sampler_mod.SimpleGraph._trusted(ensemble.n, ensemble.d, row)
        raise RuntimeError(
            f"sampled graph {graph.edges.tolist()} is not in the enumerated ensemble; "
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
    # Imported on first use, so that importing gnmd loads no scipy.
    from scipy.special import chdtri

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
