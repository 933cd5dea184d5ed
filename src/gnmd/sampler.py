"""Exactly uniform sampling of graphs with m edges and max degree at most d.

The sampler runs the classic two-stage scheme:

1. Draw a degree sequence: n i.i.d. truncated Poisson degrees conditioned
   on summing to exactly 2m.  The rate is mean-matched to 2m/n, which
   maximizes the conditioning acceptance rate (any positive rate yields
   the same conditional law, so this is pure efficiency).  The conditional
   law weights a sequence x proportionally to 1/prod(x_i!).
2. Pair half-edges: each vertex gets one token per unit of degree, the
   2m tokens are shuffled uniformly, and consecutive tokens become edges.
   Conditional on the result being simple (no loops, no parallel edges),
   this is uniform over simple graphs with that exact degree sequence.

On a simplicity failure the whole attempt restarts with a FRESH degree
sequence.  This full restart is what makes the output exactly uniform:
per attempt, P(sequence x) is proportional to 1/prod(x_i!) and every
simple graph with degrees x arises from exactly prod(x_i!) of the
(2m-1)!! half-edge matchings, so each simple graph is hit with the same
per-attempt probability and rejection preserves the proportionality.
Re-pairing a kept sequence would instead bias graphs by the sequence's
simplicity probability.

The scalar sampler conditions through the degree histogram: the class
counts of an i.i.d. degree vector are multinomial, the sum constraint
depends on the histogram alone, and conditionally on the histogram the
vector is a uniformly random arrangement.  Drawing (histogram, then
arrangement) is therefore distributionally identical to vector-level
rejection while costing O(d) instead of O(n) per rejected attempt, which
matters at large n.

The bulk sampler for tiny instances (sample_edge_codes) conditions at
vector level instead: it draws n - 1 i.i.d. degrees per attempt by inverse
CDF, completes the sum with last = 2m - (their sum), and keeps the vector
with probability p(last) / max(p) when 0 <= last <= d.  A kept vector x
then has probability proportional to prod(p(x_i)) on {sum x = 2m}, which
is the conditional law itself, arrangement included.  At small n a whole
batch of vectors costs less than a batch of multinomial histograms
followed by their arrangements, and completing the last degree keeps
about three times as many attempts at (n, m, d) = (6, 5, 3) as waiting
for n free draws to hit the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import truncpoisson

__all__ = [
    "DegreeSequence",
    "Multigraph",
    "SimpleGraph",
    "SamplerStats",
    "SamplingError",
    "sample_degree_sequence",
    "pair_configuration",
    "is_simple",
    "sample_graph",
    "sample_edge_codes",
    "alpha_diagnostic",
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


class SamplingError(RuntimeError):
    """A retry budget was exhausted; carries a diagnostic message."""


@dataclass(frozen=True)
class DegreeSequence:
    """Degrees for n labeled vertices, each in [0, d], summing to 2m."""

    degrees: np.ndarray
    n: int
    m: int
    d: int

    def __post_init__(self) -> None:
        degrees = np.array(self.degrees, dtype=np.int64)  # private copy
        degrees.setflags(write=False)
        object.__setattr__(self, "degrees", degrees)
        if degrees.shape != (self.n,):
            raise ValueError(f"expected {self.n} degrees, got shape {degrees.shape}")
        if degrees.min(initial=0) < 0 or degrees.max(initial=0) > self.d:
            raise ValueError(f"degrees must lie in [0, {self.d}]")
        if int(degrees.sum()) != 2 * self.m:
            raise ValueError(
                f"degrees sum to {int(degrees.sum())}, expected 2m = {2 * self.m}"
            )


@dataclass(frozen=True)
class Multigraph:
    """m unordered vertex pairs; loops and repeated pairs allowed."""

    edges: np.ndarray  # shape (m, 2), labels in [0, n)
    n: int

    def __post_init__(self) -> None:
        edges = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        if edges.size and (edges.min() < 0 or edges.max() >= self.n):
            raise ValueError(f"vertex labels must lie in [0, {self.n})")

    @property
    def m(self) -> int:
        return self.edges.shape[0]


@dataclass(frozen=True)
class SimpleGraph:
    """Simple labeled graph with max degree at most d.

    Edges are stored normalized (u < v) and sorted lexicographically, so
    the edge array doubles as the graph's canonical form.
    """

    n: int
    m: int
    d: int
    edges: np.ndarray  # shape (m, 2), u < v, lexicographically sorted

    def __post_init__(self) -> None:
        edges = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        if edges.shape[0] != self.m:
            raise ValueError(f"expected {self.m} edges, got {edges.shape[0]}")
        if self.m:
            if edges.min() < 0 or edges.max() >= self.n:
                raise ValueError(f"vertex labels must lie in [0, {self.n})")
            if np.any(edges[:, 0] >= edges[:, 1]):
                raise ValueError("edges must be normalized with u < v")
            codes = edges[:, 0] * self.n + edges[:, 1]
            if np.any(np.diff(codes) <= 0):
                raise ValueError("edges must be sorted and duplicate-free")
        if self.degrees().max(initial=0) > self.d:
            raise ValueError(f"a vertex exceeds the degree bound {self.d}")

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def adjacency(self) -> list[list[int]]:
        """Per-vertex sorted neighbor lists (built on demand)."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[int(u)].append(int(v))
            adj[int(v)].append(int(u))
        for neighbors in adj:
            neighbors.sort()
        return adj


@dataclass
class SamplerStats:
    """Counters accumulated across sampling attempts.

    alpha is sum_i x_i(x_i - 1) / (2m) of an attempted degree sequence;
    its running mean tracks the quantity that controls the simplicity
    acceptance probability, which is why its sum over attempts is kept.
    """

    histogram_draws: int = 0
    pairings: int = 0
    simple: int = 0
    alpha_total: float = 0.0

    def record_pairing(self, alpha: float, accepted: bool) -> None:
        self.pairings += 1
        self.simple += int(accepted)
        self.alpha_total += alpha

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


def sample_degree_sequence(
    n: int,
    m: int,
    d: int,
    rng: np.random.Generator,
    stats: SamplerStats | None = None,
) -> DegreeSequence:
    """Draw a degree sequence from the conditioned truncated Poisson law.

    The result is distributed as n i.i.d. truncated Poisson degrees
    conditioned on summing to 2m, equivalently as the box occupancies of
    2m balls dropped into n boxes of capacity d: P(x) is proportional to
    1/prod(x_i!).

    Raises:
        ValueError: If 2m > d*n (infeasible) or n, m, d are out of range.
        SamplingError: If the conditioning retry budget (about 10^4 sqrt(n)
            histogram draws, versus an expected O(sqrt(n))) is exhausted.
    """
    _check_instance(n, m, d)
    if 2 * m == d * n:
        # The constraint pins every degree to d; the conditional law is a
        # point mass and no mean-matched rate exists (2m/n = d is not an
        # attainable truncated Poisson mean).
        degrees = np.full(n, d, dtype=np.int64)
        return DegreeSequence(degrees=degrees, n=n, m=m, d=d)
    law = truncpoisson.make_degree_law(d, 2 * m / n)
    histogram = _conditioned_histogram(n, 2 * m, law.probs, rng, stats)
    values = np.repeat(np.arange(d + 1), histogram)
    degrees = rng.permutation(values)
    return DegreeSequence(degrees=degrees, n=n, m=m, d=d)


def pair_configuration(x: DegreeSequence, rng: np.random.Generator) -> Multigraph:
    """Uniform configuration pairing of the sequence's half-edges.

    Lays out x_i tokens for vertex i, shuffles all 2m tokens uniformly,
    and pairs consecutive tokens.  Every perfect matching of the tokens is
    equally likely.
    """
    tokens = np.repeat(np.arange(x.n), x.degrees)
    rng.shuffle(tokens)
    return Multigraph(edges=tokens.reshape(-1, 2), n=x.n)


def _endpoints(g: Multigraph) -> tuple[np.ndarray, np.ndarray]:
    """Smaller and larger endpoint of every edge.

    Taken column against column: a row-wise min over the (m, 2) array
    costs about 30 times as much.
    """
    u, v = g.edges[:, 0], g.edges[:, 1]
    return np.minimum(u, v), np.maximum(u, v)


def is_simple(g: Multigraph) -> bool:
    """True iff the multigraph has no loop and no repeated pair."""
    if g.m == 0:
        return True
    lo, hi = _endpoints(g)
    if np.any(lo == hi):
        return False
    codes = np.sort(lo * g.n + hi)
    return not np.any(np.diff(codes) == 0)


def alpha_diagnostic(x: DegreeSequence) -> float:
    """sum_i x_i(x_i - 1) / (2m), in [0, d].

    Vanishes when all degrees are 0 or 1 and controls the asymptotic
    simplicity acceptance probability of the configuration pairing.
    """
    deg = x.degrees
    return float((deg * (deg - 1)).sum() / (2 * x.m))


def _simple_graph_from_multigraph(g: Multigraph, d: int) -> SimpleGraph:
    lo, hi = _endpoints(g)
    codes = np.sort(lo * g.n + hi)
    edges = np.column_stack(np.divmod(codes, g.n))
    return SimpleGraph(n=g.n, m=g.m, d=d, edges=edges)


def sample_graph(
    n: int,
    m: int,
    d: int,
    rng: np.random.Generator,
    stats: SamplerStats | None = None,
) -> SimpleGraph:
    """Sample a uniform graph on n vertices with m edges and max degree <= d.

    Repeats {fresh degree sequence; fresh pairing} until the pairing is
    simple.  Determinism: identical (n, m, d) and generator state produce
    the identical graph.

    Args:
        stats: Optional SamplerStats accumulator; records histogram draws,
            pairing attempts, and the sum of per-attempt alpha diagnostics.

    Raises:
        ValueError: If the instance is infeasible (2m > dn).
        SamplingError: If a retry budget is exhausted (pathological
            parameters, e.g. an instance whose rare feasible sequences
            almost never pair simply).
    """
    _check_instance(n, m, d)
    for _ in range(SIMPLICITY_CAP):
        x = sample_degree_sequence(n, m, d, rng, stats)
        g = pair_configuration(x, rng)
        ok = is_simple(g)
        if stats is not None:
            stats.record_pairing(alpha_diagnostic(x), ok)
        if ok:
            return _simple_graph_from_multigraph(g, d)
    raise SamplingError(
        f"no simple pairing in {SIMPLICITY_CAP} restarts for "
        f"(n={n}, m={m}, d={d}); the simple graphs of this instance are "
        "vanishingly rare under the configuration pairing"
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
    uniform draw each, the smallest i with cum[i] >= u (the convention of
    truncpoisson.sample_degree), computed as d comparisons against the
    cumulative probabilities.  The last degree completes the sum,
    last = target_sum - (sum of the others), and the row is kept with
    probability p(last) / max(p) when 0 <= last <= d, decided by the row's
    n-th uniform.  A kept row x therefore has probability proportional to
    prod(p(x_i)) on {sum x = target_sum}: the conditional law itself.  The
    draws are laid out vertex-major, (n, rows), so every comparison and
    the row sums run along long contiguous vectors.  The kept rows are
    returned as a (k, n) array, k <= rows.
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


def sample_edge_codes(
    n: int,
    m: int,
    d: int,
    count: int,
    rng: np.random.Generator,
    chunk_rows: int | None = None,
) -> np.ndarray:
    """Bulk-sample `count` uniform graphs, returned as sorted edge codes.

    Row k holds the k-th sampled graph as its m edge codes u*n + v
    (u < v), sorted ascending -- the same canonical form SimpleGraph uses.
    Every attempt draws a fresh degree sequence and a fresh pairing and
    keeps the simple results in attempt order, like sample_graph, but on
    whole batches of attempts at once, so that tiny instances can be
    sampled millions of times in vectorized numpy.

    The degree sequence is conditioned at vector level: n - 1 i.i.d.
    truncated Poisson degrees per attempt, the last degree completing the
    sum 2m, and the vector kept with probability p(last) / max(p)
    (_conditioned_degree_rows).  This is the conditional law itself,
    arrangement included, so the output has the same distribution as
    sample_graph's histogram route; only the random stream differs.

    Intended for uniformity testing at small n; memory per chunk scales
    with chunk_rows * n.
    """
    _check_instance(n, m, d)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if chunk_rows is None:
        chunk_rows = max(64, min(8192, 4_000_000 // max(n, 2 * m)))
    regular = 2 * m == d * n
    if not regular:
        # make_degree_law's arithmetic, without its d >= 2 floor: at d = 1
        # the mean-matched law is just as well defined.
        lam = truncpoisson.invert_mean(d, 2 * m / n)
        cum = truncpoisson.law_from_rate(d, lam).cumulative()
    vertex_row = np.arange(n)

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
        attempts += chunk_rows
        if regular:
            degmat = np.full((chunk_rows, n), d, dtype=np.int64)
        else:
            degmat = _conditioned_degree_rows(n, 2 * m, cum, chunk_rows, rng)
        k = degmat.shape[0]
        tokens = np.repeat(np.tile(vertex_row, k), degmat.ravel()).reshape(k, 2 * m)
        tokens = rng.permuted(tokens, axis=1)
        u = tokens[:, 0::2]
        v = tokens[:, 1::2]
        # Any defect discards the whole attempt, so only loop-free rows
        # need the sort behind the duplicate check.
        loop_free = ~np.any(u == v, axis=1)
        u, v = u[loop_free], v[loop_free]
        codes = np.sort(np.minimum(u, v) * n + np.maximum(u, v), axis=1)
        good = codes[~np.any(np.diff(codes, axis=1) == 0, axis=1)]
        take = min(good.shape[0], count - filled)
        out[filled : filled + take] = good[:take]
        filled += take
    return out


def write_graph(path: str | Path, g: SimpleGraph) -> None:
    """Write the text edge-list format: header "n m d", then "u v" lines.

    Edge lines have u < v and appear in lexicographic order; vertices are
    0-indexed.  This is the interchange format the components CLI reads.
    """
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m} {g.d}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def read_graph(path: str | Path) -> SimpleGraph:
    """Read the edge-list format written by write_graph, with validation."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: header must be 'n m d'")
        n, m, d = (int(t) for t in header)
        edges = np.loadtxt(fh, dtype=np.int64, ndmin=2) if m else np.empty((0, 2), int)
    if edges.shape != (m, 2):
        raise ValueError(f"{path}: expected {m} edge lines, got {edges.shape}")
    return SimpleGraph(n=n, m=m, d=d, edges=edges)
