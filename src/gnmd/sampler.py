"""Exactly uniform sampling of graphs with m edges and max degree at most d.

One attempt kernel serves both samplers.  It runs a batch of attempts
through three stages:

1. sample_degree_sequence draws a degree vector per attempt: n i.i.d.
   truncated Poisson degrees conditioned on summing to exactly 2m.  The
   rate is mean-matched to 2m/n, which maximizes the conditioning
   acceptance rate (any positive rate yields the same conditional law, so
   this is pure efficiency).  The conditional law weights a vector x
   proportionally to 1/prod(x_i!).
2. pair_configuration gives each vertex one token per unit of degree,
   shuffles each attempt's 2m tokens uniformly, and pairs consecutive
   tokens into edges.
3. is_simple keeps the attempts with no loop and no parallel edge, each
   as its sorted edge codes u*n + v (u < v), the canonical form.

Every attempt draws a FRESH degree vector.  This full restart is what
makes the output exactly uniform: per attempt, P(vector x) is
proportional to 1/prod(x_i!) and every simple graph with degrees x arises
from exactly prod(x_i!) of the (2m-1)!! half-edge matchings, so each
simple graph is hit with the same per-attempt probability and rejection
preserves the proportionality.  Re-pairing a kept vector would instead
bias graphs by the vector's simplicity probability.

sample_graph runs the kernel one attempt at a time until an attempt is
simple; sample_edge_codes runs it on whole chunks of attempts and keeps
the simple ones in attempt order.  The degree stage conditions on the sum
by one of two routes, chosen by the batch size:

- One attempt: through the degree histogram.  The class counts of an
  i.i.d. degree vector are multinomial, the sum constraint depends on the
  histogram alone, and conditionally on the histogram the vector is a
  uniformly random arrangement.  Drawing (histogram, then arrangement)
  costs O(d) per rejected draw instead of O(n), which matters at large n.
- A batch: by completing the last degree.  Each row draws n - 1 i.i.d.
  degrees by inverse CDF, sets last = 2m - (their sum), and is kept with
  probability p(last) / max(p) when 0 <= last <= d.  A kept row x has
  probability proportional to prod(p(x_i)) on {sum x = 2m}, which is the
  conditional law itself, arrangement included.

Both routes draw from the same law on different random streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import truncpoisson

__all__ = [
    "SimpleGraph",
    "SamplerStats",
    "SamplingError",
    "sample_degree_sequence",
    "pair_configuration",
    "is_simple",
    "sample_graph",
    "sample_edge_codes",
    "format_graph",
    "write_graph",
    "read_graph",
]

#: Histogram draws allowed per degree sequence: ceil(SEQUENCE_CAP_FACTOR * sqrt(n)).
#: The conditioning acceptance rate is of order 1/sqrt(n), so this allows
#: roughly 10^4 expected lifetimes before giving up.
SEQUENCE_CAP_FACTOR = 10_000

#: Simplicity restarts allowed per sampled graph.  The simplicity
#: acceptance probability is bounded away from zero in n for fixed (d, mu),
#: so hitting this cap indicates a pathological parameterization.
SIMPLICITY_CAP = 1_000

_HISTOGRAM_BATCH = 256

#: Largest vertex count read_graph accepts: scipy's csgraph, which
#: components uses, labels vertices with int32.
MAX_VERTICES = 2**31 - 1


class SamplingError(RuntimeError):
    """A retry budget was exhausted; carries a diagnostic message."""


@dataclass(frozen=True)
class SimpleGraph:
    """Simple labeled graph with max degree at most d, stored as its canonical form.

    codes holds each edge (u < v) as u*n + v: a frozen, strictly increasing
    int64 vector.  edges decodes it on each access to an (m, 2) int64 array
    in lexicographic order.  Construction checks the codes and n >= 1.
    """

    n: int
    d: int
    codes: np.ndarray  # shape (m,), strictly increasing

    def __post_init__(self) -> None:
        codes = np.array(self.codes, dtype=np.int64)
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        if self.n < 1:
            raise ValueError(f"need at least one vertex, got n={self.n}")
        if codes.ndim != 1:
            raise ValueError(f"codes must be a vector, got shape {codes.shape}")
        u, v = np.divmod(codes, self.n)
        if not np.all((0 <= u) & (u < v)):
            raise ValueError(f"edge codes must decode to pairs 0 <= u < v < n={self.n}")
        if np.any(np.diff(codes) <= 0):
            raise ValueError("edge codes must be sorted and duplicate-free")
        if self.degrees().max(initial=0) > self.d:
            raise ValueError(f"a vertex exceeds the degree bound {self.d}")

    @classmethod
    def _trusted(cls, n: int, d: int, codes: np.ndarray) -> SimpleGraph:
        """Wrap canonical int64 codes unchecked: the kernel's output, a valid graph's subset.

        The vector is frozen in place, so the caller must not keep writing to it.
        """
        codes.setflags(write=False)
        g = object.__new__(cls)
        g.__dict__.update(n=n, d=d, codes=codes)
        return g

    @property
    def m(self) -> int:
        return self.codes.size

    @property
    def edges(self) -> np.ndarray:
        return np.column_stack(np.divmod(self.codes, self.n))

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate(np.divmod(self.codes, self.n)), minlength=self.n)


@dataclass
class SamplerStats:
    """Counters accumulated across sampling attempts.

    histogram_draws counts the histograms drawn by the one-attempt route,
    pairings the attempts that reached the pairing stage and simple the
    ones kept.  alpha is sum_i x_i(x_i - 1) / (2m) of an attempted degree
    sequence; its running mean tracks the quantity that controls the
    simplicity acceptance probability, which is why its sum over attempts
    is kept.
    """

    histogram_draws: int = 0
    pairings: int = 0
    simple: int = 0
    alpha_total: float = 0.0

    @property
    def alpha_mean(self) -> float:
        return self.alpha_total / self.pairings if self.pairings else math.nan

    @property
    def simplicity_rate(self) -> float:
        return self.simple / self.pairings if self.pairings else math.nan


def _check_instance(n: int, m: int, d: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if m < 1:
        raise ValueError(f"need at least one edge, got m={m}")
    if d < 1:
        raise ValueError(f"degree bound must be >= 1, got d={d}")
    if 2 * m > d * n:
        raise ValueError(
            f"infeasible instance: 2m = {2 * m} exceeds d*n = {d * n}"
        )


def _degree_law(n: int, m: int, d: int) -> truncpoisson.DegreeLaw | None:
    """The instance's mean-matched degree law, after checking the instance.

    Returns None when 2m = dn: the constraint pins every degree to d, and
    no mean-matched rate exists (d is not an attainable truncated Poisson
    mean).
    """
    _check_instance(n, m, d)
    if 2 * m == d * n:
        return None
    return truncpoisson.make_degree_law(d, 2 * m / n)


def _conditioned_histogram(
    n: int,
    target_sum: int,
    probs: np.ndarray,
    rng: np.random.Generator,
    stats: SamplerStats | None,
) -> np.ndarray:
    """Multinomial histogram of n draws conditioned on weighted sum.

    Histograms are drawn in batches, but stats counts only the draws up to
    and including the first hit: the rest of its batch is never looked at.
    """
    weights = np.arange(probs.size)
    cap = math.ceil(SEQUENCE_CAP_FACTOR * math.sqrt(n))
    draws = 0
    while draws < cap:
        batch = min(_HISTOGRAM_BATCH, cap - draws)
        counts = rng.multinomial(n, probs, size=batch)
        hits = np.nonzero(counts @ weights == target_sum)[0]
        if hits.size:
            if stats is not None:
                stats.histogram_draws += draws + int(hits[0]) + 1
            return counts[hits[0]]
        draws += batch
    if stats is not None:
        stats.histogram_draws += draws
    raise SamplingError(
        f"no degree histogram with sum {target_sum} found in {draws} draws "
        f"(n={n}, d={probs.size - 1}); the instance is extremely atypical"
    )


def _conditioned_degree_rows(
    n: int,
    target_sum: int,
    cum: np.ndarray,
    rows: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw `rows` degree vectors from the law of n i.i.d. degrees given their sum.

    The first n - 1 degrees of a row are i.i.d. inverse-CDF images of one
    uniform draw each, the smallest i with cum[i] >= u, computed as d
    comparisons against the cumulative probabilities.  The last degree
    completes the sum, last = target_sum - (sum of the others), and the
    row is kept with probability p(last) / max(p) when 0 <= last <= d,
    decided by the row's n-th uniform.  A kept row x therefore has
    probability proportional to prod(p(x_i)) on {sum x = target_sum}: the
    conditional law itself.  The draws are laid out vertex-major,
    (n, rows), so every comparison and the row sums run along long
    contiguous vectors.  The kept rows are returned as a (k, n) array,
    k <= rows.
    """
    # The class masses the inverse CDF realises, so the last degree is
    # weighted exactly as the others are drawn.
    probs = np.diff(cum, prepend=0.0)
    u = rng.random((n, rows))
    degrees = np.empty((n, rows), dtype=np.int64)
    head = degrees[:-1]
    np.greater(u[:-1], cum[0], out=head)
    for c in cum[1:-1]:
        head += u[:-1] > c
    last = target_sum - head.sum(axis=0)
    degrees[-1] = last
    feasible = np.clip(last, 0, probs.size - 1)
    keep = (last == feasible) & (u[-1] * probs.max() < probs[feasible])
    return degrees.T[keep]


def sample_degree_sequence(
    n: int,
    m: int,
    d: int,
    law: truncpoisson.DegreeLaw | None,
    rows: int,
    rng: np.random.Generator,
    stats: SamplerStats | None = None,
) -> np.ndarray:
    """Draw degree vectors from the conditioned truncated Poisson law.

    Each returned row is distributed as n i.i.d. draws from `law`
    conditioned on summing to 2m, equivalently as the box occupancies of
    2m balls dropped into n boxes of capacity d: P(x) is proportional to
    1/prod(x_i!).  `law` is the instance's mean-matched law, or None when
    2m = dn, where every degree is d.

    Returns:
        A (k, n) int64 array.  With rows == 1 the vector is conditioned
        through its histogram and k == 1; with rows > 1 each row completes
        its last degree and k <= rows rows are kept; with law None,
        k == rows.

    Raises:
        SamplingError: If the histogram route exhausts its retry budget
            (about 10^4 sqrt(n) draws, versus an expected O(sqrt(n))).
    """
    if law is None:
        return np.full((rows, n), d, dtype=np.int64)
    # The crossover, measured per kept vector with numpy 2.4.6 on a 2-vCPU
    # host: for one vector the histogram wins at every n tried (76 us
    # against 113 us at (n, m, d) = (6, 5, 3), 2.3 ms against 167 ms at
    # (1e5, 6e4, 4)); for 8192 rows completion wins (3.7M against 0.68M
    # vectors/s at (6, 5, 3), 110k against 65k at (60, 36, 4)).
    if rows == 1:
        histogram = _conditioned_histogram(n, 2 * m, law.probs, rng, stats)
        return rng.permutation(np.repeat(np.arange(d + 1), histogram))[None]
    return _conditioned_degree_rows(n, 2 * m, law.cumulative(), rows, rng)


def pair_configuration(degrees: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform configuration pairing of each degree vector's half-edges.

    Each row of the (k, n) degree array, summing to 2m, becomes a row of
    2m tokens, x_i copies of vertex i, shuffled uniformly; tokens 2j and
    2j + 1 are edge j.  Every perfect matching of a row's tokens is
    equally likely.  For a single row this draws the same permutation, and
    leaves the generator in the same state, as rng.shuffle of that row.
    """
    k, n = degrees.shape
    tokens = np.repeat(np.tile(np.arange(n), k), degrees.ravel()).reshape(k, 2 * m)
    return rng.permuted(tokens, axis=1, out=tokens)


def is_simple(tokens: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Simplicity check and canonical form of paired token rows.

    Returns the edge codes u*n + v (u < v) of the simple rows, each row
    sorted ascending, in row order, and the boolean mask of the simple
    rows: those without a loop and without a repeated pair.  Any defect
    discards the whole attempt, so only loop-free rows are sorted.
    """
    u, v = tokens[:, 0::2], tokens[:, 1::2]
    simple = ~np.any(u == v, axis=1)
    u, v = u[simple], v[simple]
    codes = np.minimum(u, v)
    codes *= n
    codes += np.maximum(u, v)
    codes.sort(axis=1)
    distinct = np.all(codes[:, 1:] != codes[:, :-1], axis=1)
    simple[simple] = distinct
    return codes[distinct], simple


def _attempts(
    n: int,
    m: int,
    d: int,
    law: truncpoisson.DegreeLaw | None,
    rows: int,
    rng: np.random.Generator,
    stats: SamplerStats | None,
) -> np.ndarray:
    """Run a batch of `rows` attempts; the simple ones' sorted codes, in order.

    The stages are called through the module's globals, so a wrapper
    installed on this module sees each of them.
    """
    degrees = sample_degree_sequence(n, m, d, law, rows, rng, stats)
    codes, simple = is_simple(pair_configuration(degrees, m, rng), n)
    if stats is not None:
        stats.pairings += simple.size
        stats.simple += int(simple.sum())
        stats.alpha_total += float((degrees * (degrees - 1)).sum() / (2 * m))
    return codes


def sample_graph(
    n: int,
    m: int,
    d: int,
    rng: np.random.Generator,
    stats: SamplerStats | None = None,
) -> SimpleGraph:
    """Sample a uniform graph on n vertices with m edges and max degree <= d.

    Runs the kernel one attempt at a time {fresh degree sequence; fresh
    pairing} until the pairing is simple.  Determinism: identical
    (n, m, d) and generator state produce the identical graph.

    Args:
        stats: Optional SamplerStats accumulator; records histogram draws,
            pairing attempts, and the sum of per-attempt alpha diagnostics.

    Raises:
        ValueError: If the instance is infeasible (2m > dn).
        SamplingError: If a retry budget is exhausted (pathological
            parameters, e.g. an instance whose rare feasible sequences
            almost never pair simply).
    """
    law = _degree_law(n, m, d)
    for _ in range(SIMPLICITY_CAP):
        codes = _attempts(n, m, d, law, 1, rng, stats)
        if len(codes):
            return SimpleGraph._trusted(n, d, codes[0])
    raise SamplingError(
        f"no simple pairing in {SIMPLICITY_CAP} restarts for "
        f"(n={n}, m={m}, d={d}); the simple graphs of this instance are "
        "vanishingly rare under the configuration pairing"
    )


def sample_edge_codes(
    n: int,
    m: int,
    d: int,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bulk-sample `count` uniform graphs, returned as sorted edge codes.

    Row k holds the k-th sampled graph as its m edge codes u*n + v
    (u < v), sorted ascending -- the same canonical form SimpleGraph uses.
    This is sample_graph's kernel run on whole chunks of attempts, keeping
    the simple ones in attempt order, so that tiny instances can be
    sampled millions of times in vectorized numpy.  A chunk conditions its
    degree vectors by completing the last degree, so the output has the
    same distribution as sample_graph's; only the random stream differs.

    Intended for uniformity testing at small n; a chunk holds at most
    about 4e6 tokens.
    """
    law = _degree_law(n, m, d)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rows = max(64, min(8192, 4_000_000 // max(n, 2 * m)))
    out = np.empty((count, m), dtype=np.int64)
    filled = 0
    attempts = 0
    # Budget mirrors the scalar caps: conditioning draws per kept sequence
    # times simplicity restarts per kept graph.
    budget = SIMPLICITY_CAP * math.ceil(SEQUENCE_CAP_FACTOR * math.sqrt(n))
    while filled < count:
        if attempts > budget and filled == 0:
            raise SamplingError(
                f"no graph produced after {attempts} bulk attempts for "
                f"(n={n}, m={m}, d={d})"
            )
        attempts += rows
        good = _attempts(n, m, d, law, rows, rng, None)
        take = min(len(good), count - filled)
        out[filled : filled + take] = good[:take]
        filled += take
    return out


def format_graph(n: int, d: int, codes: np.ndarray) -> str:
    """The graph file text: a header "n m d", then "u v" per sorted edge code u*n + v."""
    u, v = np.divmod(codes, n)
    lines = "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist()))
    return f"{n} {len(codes)} {d}\n{lines}"


def write_graph(path: str | Path, g: SimpleGraph) -> None:
    """Write g to `path` in the format of format_graph."""
    Path(path).write_text(format_graph(g.n, g.d, g.codes))


def read_graph(path: str | Path) -> SimpleGraph:
    """Read the format written by write_graph: exactly m edge lines, validated.

    Raises:
        ValueError: If the file is malformed, a label lies outside [0, n),
            the graph is invalid, or n exceeds MAX_VERTICES.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: header must be 'n m d'")
        n, m, d = (int(t) for t in header)
        if n > MAX_VERTICES:
            raise ValueError(f"{path}: n={n} exceeds the limit of {MAX_VERTICES} vertices")
        lines = [line for line in fh if line.strip()]
    edges = np.loadtxt(lines, dtype=np.int64, ndmin=2) if lines else np.empty((0, 2), int)
    if edges.shape != (m, 2):
        raise ValueError(f"{path}: expected {m} edge lines, got {edges.shape}")
    # Checked before encoding: at n = 10, "0 15" would encode to the valid edge (1, 5).
    if m and (edges.min() < 0 or edges.max() >= n):
        raise ValueError(f"{path}: vertex labels must lie in [0, {n})")
    return SimpleGraph(n, d, edges[:, 0] * n + edges[:, 1])
