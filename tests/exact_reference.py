"""Exact references for the tests: graph counts and degree-sum laws.

An exact count of the labeled simple graphs with n vertices, m edges and
max degree at most d, by a recursion over residual degree histograms and
independent of oracle.enumerate_graphs; the count for one exact degree
sequence by the same recursion; and the exact laws of a sum of i.i.d.
truncated Poisson variables and of one of them given the sum, which the
sampler's degree stage conditions on.
"""

from __future__ import annotations

import math

import numpy as np

from gnmd import truncpoisson


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
    base = truncpoisson.DegreeLaw(d, lam).probs
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
    probs = truncpoisson.DegreeLaw(d, lam).probs
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
