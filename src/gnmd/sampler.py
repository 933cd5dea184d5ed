"""Exactly uniform sampling of graphs with m edges and max degree at most d.

One sampling loop serves both samplers.  It runs batches of attempts,
each through three stages:

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

The loop keeps the simple attempts in attempt order until it has as many
graphs as asked for; sample_graph runs it on batches of one attempt and
sample_edge_codes on whole chunks.  One restart rule bounds it:
SamplingError once SIMPLICITY_CAP batches in a row keep no attempt.  The
degree stage conditions on the sum by one of two routes, chosen by the
batch size:

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
import operator
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

#: Batches in a row that may keep no simple attempt before the sampling loop
#: gives up: 1000 restarts for sample_graph, 1000 chunks (up to 8.2e6 attempts)
#: for sample_edge_codes.  Simplicity is bounded away from zero in n for fixed
#: (d, mu), so hitting this cap indicates a pathological parameterization.
SIMPLICITY_CAP = 1_000

_HISTOGRAM_BATCH = 256

#: Largest vertex count of a graph or an instance: the int32 label range, so
#: SimpleGraph.endpoints() decodes every graph to int32.
MAX_VERTICES = 2**31 - 1


def _check_vertices(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"need at least one vertex, got n={n}" if n < 1
                         else f"n={n} exceeds the limit of {MAX_VERTICES} vertices")


class SamplingError(RuntimeError):
    """A retry budget was exhausted; carries a diagnostic message."""


@dataclass(frozen=True)
class SimpleGraph:
    """Simple labeled graph with max degree at most d, stored as its canonical form.

    codes holds each edge (u < v) as u*n + v: a frozen, strictly increasing
    int64 vector.  endpoints() is its one decoder; edges and degrees() read
    it.  Construction checks n and d are integers, the vertex bound on n, and the codes.
    """

    n: int
    d: int
    codes: np.ndarray  # shape (m,), strictly increasing

    def __post_init__(self) -> None:
        n, d = operator.index(self.n), operator.index(self.d)
        _check_vertices(n)
        codes = np.array(self.codes)
        if codes.size and codes.dtype.kind not in "iu":
            raise ValueError(f"edge codes must be integers, got dtype {codes.dtype}")
        codes = codes.astype(np.int64, copy=False)
        codes.setflags(write=False)
        self.__dict__.update(n=n, d=d, codes=codes)
        if codes.ndim != 1:
            raise ValueError(f"codes must be a vector, got shape {codes.shape}")
        # Range-checked in int64 first: the one decode is int32 and could wrap.
        in_range = not codes.size or (codes.min() >= 0 and codes.max() < n * n)
        ends = self.endpoints()
        if not in_range or np.any(np.greater_equal(*ends)):
            raise ValueError(f"edge codes must decode to pairs 0 <= u < v < n={n}")
        if np.any(np.diff(codes) <= 0):
            raise ValueError("edge codes must be sorted and duplicate-free")
        if self._count_degrees(ends).max(initial=0) > d:
            raise ValueError(f"a vertex exceeds the degree bound {d}")

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
        return np.stack(self.endpoints(), axis=1, dtype=np.int64)

    def degrees(self) -> np.ndarray:
        """Vertex degrees (int64), counted in place over endpoints() without copying them."""
        return self._count_degrees(self.endpoints())

    def _count_degrees(self, ends: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        degree = np.zeros(self.n, np.int64)
        for side in ends:
            np.add.at(degree, side, 1)
        return degree

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges' endpoints u < v, decoded once from the codes.

        int32, which the vertex bound keeps in range, half the size of int64; the
        decode writes them through its buffered cast, so no int64 copy is made.
        """
        lo, hi = np.empty(self.m, np.int32), np.empty(self.m, np.int32)
        np.divmod(self.codes, self.n, out=(lo, hi))
        return lo, hi


@dataclass
class SamplerStats:
    """Counters accumulated across sampling attempts.

    histogram_draws counts the histograms drawn by the one-attempt route,
    pairings the attempts that reached the pairing stage and simple the
    ones kept.  The two acceptance rates are ratios of these counts:
    sequences per histogram draw, and simple / pairings.  The benchmark's
    tracer and the tests read the fields directly.
    """

    histogram_draws: int = 0
    pairings: int = 0
    simple: int = 0


def _check_instance(n: int, m: int, d: int) -> None:
    _check_vertices(n)
    if not 0 <= 2 * m <= d * n:
        raise ValueError(
            f"infeasible instance: 2m = {2 * m} lies outside [0, d*n = {d * n}]"
        )


def _degree_law(n: int, m: int, d: int) -> truncpoisson.DegreeLaw | None:
    """The instance's mean-matched degree law, after checking the instance.

    The law is truncated at cap = min(d, 2m).  No entry of a vector summing
    to 2m exceeds 2m, so on the conditioning event {x_i <= d} and
    {x_i <= cap} are the same set: the conditional law is unchanged, and
    building it costs O(cap) however large d is.  Returns None when
    2m = cap * n: the constraint pins every degree to cap, and no
    mean-matched rate exists (cap is not an attainable truncated Poisson
    mean).
    """
    _check_instance(n, m, d)
    cap = min(d, 2 * m)
    if 2 * m == cap * n:
        return None
    return truncpoisson.make_degree_law(cap, 2 * m / n)


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
    law: truncpoisson.DegreeLaw | None,
    rows: int,
    rng: np.random.Generator,
    stats: SamplerStats | None = None,
) -> np.ndarray:
    """Draw degree vectors from the conditioned truncated Poisson law.

    Each returned row is distributed as n i.i.d. draws from `law`
    conditioned on summing to 2m, equivalently as the box occupancies of
    2m balls dropped into n boxes of capacity d: P(x) is proportional to
    1/prod(x_i!).  `law` is the instance's mean-matched law, truncated at
    min(d, 2m), or None when that truncation pins every degree to 2m/n.

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
        return np.full((rows, n), 2 * m // n, dtype=np.int64)
    # The crossover, measured per kept vector with numpy 2.4.6 on a 2-vCPU
    # host: for one vector the histogram wins at every n tried (76 us
    # against 113 us at (n, m, d) = (6, 5, 3), 2.3 ms against 167 ms at
    # (1e5, 6e4, 4)); for 8192 rows completion wins (3.7M against 0.68M
    # vectors/s at (6, 5, 3), 110k against 65k at (60, 36, 4)).
    if rows == 1:
        histogram = _conditioned_histogram(n, 2 * m, law.probs, rng, stats)
        return rng.permutation(np.repeat(np.arange(law.d + 1), histogram))[None]
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
    discards the whole attempt, so only loop-free rows are sorted, and
    when no row is loop-free no code is built at all.

    Memory: beyond its (k, 2m) int64 input, one (k, m) int64 array of
    codes, min(u, v)*(n - 1) + u + v = min*n + max built in place, and one
    boolean (k, m) mask at a time: 1.125 * 8km bytes.  Rows are copied
    only to drop some: the loop-free rows' codes when a row has a loop
    (up to 2.125 * 8km bytes), then the simple ones when a loop-free row
    is not simple.
    """
    u, v = tokens[:, 0::2], tokens[:, 1::2]
    simple = ~np.any(u == v, axis=1)
    if not simple.any():
        return np.empty((0, u.shape[1]), dtype=np.int64), simple
    codes = np.minimum(u, v)
    codes *= n - 1
    codes += u
    codes += v
    if not simple.all():
        codes = codes[simple]
    codes.sort(axis=1)
    distinct = np.all(codes[:, 1:] != codes[:, :-1], axis=1)
    simple[simple] = distinct
    return (codes if distinct.all() else codes[distinct]), simple


def _simple_codes(
    n: int,
    m: int,
    d: int,
    count: int,
    rows: int,
    rng: np.random.Generator,
    stats: SamplerStats | None,
) -> np.ndarray:
    """The sampling loop: `count` simple attempts' sorted codes, in attempt order.

    Runs batches of `rows` attempts until `count` are simple, or raises
    SamplingError once SIMPLICITY_CAP batches in a row keep none.  The
    stages are called through the module's globals, so a wrapper installed
    on this module sees each of them.
    """
    law = _degree_law(n, m, d)
    kept = []
    filled = misses = 0
    while filled < count:
        degrees = sample_degree_sequence(n, m, law, rows, rng, stats)
        tokens = pair_configuration(degrees, m, rng)
        del degrees
        codes, simple = is_simple(tokens, n)
        # Freed here, not when the next batch rebinds it, where memory peaks.
        del tokens
        if stats is not None:
            stats.pairings += simple.size
            stats.simple += int(simple.sum())
        if not len(codes):
            misses += 1
            if misses == SIMPLICITY_CAP:
                raise SamplingError(
                    f"no simple pairing in {SIMPLICITY_CAP * rows} attempts in a row for "
                    f"(n={n}, m={m}, d={d}); the simple graphs of this instance are "
                    "vanishingly rare under the configuration pairing"
                )
            continue
        kept.append(codes[: count - filled])
        filled += len(kept[-1])
        misses = 0
    # A single kept batch, as in every sample_graph call, is returned uncopied.
    return kept[0] if len(kept) == 1 else np.concatenate(kept)


def sample_graph(
    n: int,
    m: int,
    d: int,
    rng: np.random.Generator,
    stats: SamplerStats | None = None,
) -> SimpleGraph:
    """Sample a uniform graph on n vertices with m edges and max degree <= d.

    Runs the sampling loop one attempt at a time {fresh degree sequence;
    fresh pairing} until the pairing is simple.  Determinism: identical
    (n, m, d) and generator state produce the identical graph.

    Args:
        stats: Optional SamplerStats accumulator; counts histogram draws,
            pairing attempts and simple pairings.

    m = 0 returns the one edgeless graph.

    Raises:
        ValueError: If n breaks the vertex bound or 2m lies outside [0, dn].
        SamplingError: If a degree sequence exhausts its histogram draws or
            SIMPLICITY_CAP attempts in a row pair with a defect (pathological
            parameters, e.g. an instance with no simple graph).
    """
    return SimpleGraph._trusted(n, d, _simple_codes(n, m, d, 1, 1, rng, stats)[0])


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
    This is sample_graph's loop run on whole chunks of attempts, keeping
    the simple ones in attempt order, so that tiny instances can be
    sampled millions of times in vectorized numpy.  A chunk conditions its
    degree vectors by completing the last degree, so the output has the
    same distribution as sample_graph's; only the random stream differs.

    Intended for uniformity testing at small n; a chunk holds at most
    about 4e6 tokens.

    m = 0 gives `count` empty rows, a (count, 0) array.

    Raises:
        ValueError: If n breaks the vertex bound, 2m lies outside [0, dn] or count < 1.
        SamplingError: If SIMPLICITY_CAP chunks in a row keep no graph.
    """
    _check_instance(n, m, d)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rows = max(64, min(8192, 4_000_000 // max(n, 2 * m)))
    return _simple_codes(n, m, d, count, rows, rng, None)


def format_graph(g: SimpleGraph) -> str:
    """The graph file text of g: a header "n m d", then "u v" per edge in code order."""
    u, v = g.endpoints()
    lines = "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist()))
    return f"{g.n} {g.m} {g.d}\n{lines}"


def write_graph(path: str | Path, g: SimpleGraph) -> None:
    """Write g to `path` in the format of format_graph."""
    Path(path).write_text(format_graph(g))


def read_graph(path: str | Path) -> SimpleGraph:
    """Read the format written by write_graph: exactly m edge lines, validated.

    A header bound d above n - 1 is read as n - 1.

    Raises:
        ValueError: If the file is malformed, a label lies outside [0, n),
            the graph is invalid, or n breaks the vertex bound.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: header must be 'n m d'")
        n, m, d = (int(t) for t in header)
        _check_vertices(n)  # SimpleGraph's check, before u*n + v can overflow int64
        lines = [line for line in fh if line.strip()]
    edges = np.loadtxt(lines, dtype=np.int64, ndmin=2) if lines else np.empty((0, 2), int)
    if edges.shape != (m, 2):
        raise ValueError(f"{path}: expected {m} edge lines, got {edges.shape}")
    # Checked before encoding: at n = 10, "0 15" would encode to the valid edge (1, 5).
    if m and (edges.min() < 0 or edges.max() >= n):
        raise ValueError(f"{path}: vertex labels must lie in [0, {n})")
    # No vertex has more than n - 1 neighbours, so a larger bound says nothing
    # more, and it would size report's degree histogram.
    return SimpleGraph(n, min(d, n - 1), edges[:, 0] * n + edges[:, 1])
