"""Experiment harness: threshold tables, phase sweeps, percolation duels.

All experiments are deterministic functions of their configuration and a
master seed.  Trials derive independent streams keyed by trial index
(see seeding), so results do not depend on execution order; the worker
count only changes wall-clock time.  Worker parallelism is capped by the
GNMD_WORKERS environment variable (default: serial).  A sweep or duel
hands every (grid point, trial) task of the run to one process pool, and
slices the results back per grid point.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import components, giant, sampler, truncpoisson
from .seeding import trial_rng

__all__ = [
    "SweepConfig",
    "SweepRow",
    "DuelRow",
    "threshold_rows",
    "run_sweep",
    "run_percolation_duel",
    "write_csv",
    "conditioning_acceptance_rate",
    "simplicity_acceptance_rate",
    "worker_count",
]

SWEEP_COLUMNS = (
    "d",
    "mu",
    "n",
    "m",
    "trials",
    "predicted_theta",
    "mean_largest_frac",
    "std_largest_frac",
    "mean_second_frac",
    "max_degree_dev",
    "flags",
)

DUEL_COLUMNS = (
    "d",
    "mu",
    "n",
    "m",
    "trials",
    "mean_largest_frac",
    "std_largest_frac",
    "perc_mean_largest_frac",
    "perc_std_largest_frac",
    "mu_critical",
    "perc_mu_critical",
    "flags",
)


def worker_count() -> int:
    """Worker processes to use, capped by the GNMD_WORKERS env var."""
    raw = os.environ.get("GNMD_WORKERS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"GNMD_WORKERS must be an integer, got {raw!r}") from exc
    return max(1, value)


def threshold_rows(d_max: int) -> list[tuple[int, float, float]]:
    """(d, critical mean degree, factorial-series approximation) for d = 2..d_max."""
    if not (2 <= d_max <= 20):
        raise ValueError(f"d_max must lie in [2, 20], got {d_max}")
    return [
        (
            d,
            truncpoisson.critical_mean_degree(d),
            truncpoisson.critical_mean_degree_approx(d),
        )
        for d in range(2, d_max + 1)
    ]


def _edge_count(mu: float, n: int, d: int) -> int:
    """Realized edge count m = ceil(mu * n / 2) of a grid point.

    Raises:
        ValueError: If 2m > d*n: rounding up leaves no graph with max
            degree d (possible when mu is within 1/n of d and d*n is odd).
    """
    m = math.ceil(mu * n / 2)
    if 2 * m > d * n:
        raise ValueError(
            f"mu={mu} is infeasible at n={n}, d={d}: "
            f"2m = {2 * m} exceeds d*n = {d * n}"
        )
    return m


@dataclass(frozen=True)
class SweepConfig:
    """Grid of mean degrees to simulate at fixed (d, n).

    mu_grid must be strictly increasing with every value in (0, d) and a
    feasible edge count ceil(mu * n / 2) <= d * n / 2; trials >= 1 graphs
    are sampled per grid point; n >= 10.
    """

    d: int
    mu_grid: tuple[float, ...]
    n: int
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.n < 10:
            raise ValueError(f"n must be >= 10, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        grid = tuple(float(v) for v in self.mu_grid)
        if not grid:
            raise ValueError("mu_grid must be nonempty")
        if any(not (0.0 < v < self.d) for v in grid):
            raise ValueError(f"every mu must lie in (0, {self.d})")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("mu_grid must be strictly increasing")
        for mu in grid:
            _edge_count(mu, self.n, self.d)
        object.__setattr__(self, "mu_grid", grid)


@dataclass(frozen=True)
class SweepRow:
    d: int
    mu: float
    n: int
    m: int
    trials: int
    predicted_theta: float  # 0.0 when subcritical
    mean_largest_frac: float
    std_largest_frac: float
    mean_second_frac: float
    max_degree_dev: float  # mean over trials of max_i |nu_i/n - probs_i|
    flags: str

    def as_csv_fields(self) -> tuple[str, ...]:
        return (
            str(self.d),
            _fmt(self.mu),
            str(self.n),
            str(self.m),
            str(self.trials),
            _fmt(self.predicted_theta),
            _fmt(self.mean_largest_frac),
            _fmt(self.std_largest_frac),
            _fmt(self.mean_second_frac),
            _fmt(self.max_degree_dev),
            self.flags,
        )


@dataclass(frozen=True)
class DuelRow:
    d: int
    mu: float
    n: int
    m: int
    trials: int
    mean_largest_frac: float  # fixed-edge-count bounded-degree model
    std_largest_frac: float
    perc_mean_largest_frac: float  # percolated random d-regular model
    perc_std_largest_frac: float
    mu_critical: float
    perc_mu_critical: float
    flags: str

    def as_csv_fields(self) -> tuple[str, ...]:
        return (
            str(self.d),
            _fmt(self.mu),
            str(self.n),
            str(self.m),
            str(self.trials),
            _fmt(self.mean_largest_frac),
            _fmt(self.std_largest_frac),
            _fmt(self.perc_mean_largest_frac),
            _fmt(self.perc_std_largest_frac),
            _fmt(self.mu_critical),
            _fmt(self.perc_mu_critical),
            self.flags,
        )


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return format(float(x), ".10g")


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values), ddof=1))


def _sweep_trial(args: tuple[int, int, int, int, int]) -> tuple[float, float, tuple[int, ...], str]:
    """One sweep trial; returns (largest_frac, second_frac, degree_counts, error)."""
    d, n, m, master_seed, index = args
    rng = trial_rng(master_seed, index)
    try:
        g = sampler.sample_graph(n, m, d, rng)
    except sampler.SamplingError as exc:
        return (math.nan, math.nan, (), str(exc))
    rep = components.report(g)
    return (rep.largest_fraction, rep.second_fraction, rep.degree_counts, "")


def _run_trials(worker, args_list: list, workers: int) -> list:
    """worker(a) for each a in args_list, in order, on one pool if workers > 1."""
    if workers <= 1 or len(args_list) <= 1:
        return [worker(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, args_list))


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Simulate every grid point and aggregate per-trial component reports.

    Per grid point, the edge count is the realized m = ceil(mu * n / 2)
    and `trials` independent graphs are sampled on streams keyed by the
    global trial index grid_index * trials + t, so output is a pure
    function of the config.  Sampler failures flag the row instead of
    aborting the sweep.
    """
    d, n, trials = config.d, config.n, config.trials
    ms = [_edge_count(mu, n, d) for mu in config.mu_grid]
    predictions = [giant.predict(d, mu) for mu in config.mu_grid]
    args = [
        (d, n, m, config.master_seed, grid_index * trials + t)
        for grid_index, m in enumerate(ms)
        for t in range(trials)
    ]
    results = _run_trials(_sweep_trial, args, worker_count())
    rows: list[SweepRow] = []
    for grid_index, (mu, m, prediction) in enumerate(
        zip(config.mu_grid, ms, predictions)
    ):
        chunk = results[grid_index * trials : (grid_index + 1) * trials]
        ok = [r for r in chunk if not r[3]]
        largest = [r[0] for r in ok]
        second = [r[1] for r in ok]
        errors = trials - len(ok)
        devs = [
            float(np.abs(np.asarray(r[2]) / n - prediction.law.probs).max()) for r in ok
        ]
        flags = []
        if prediction.near_critical:
            flags.append("near_critical")
        if errors:
            flags.append(f"errors={errors}")
        rows.append(
            SweepRow(
                d=d,
                mu=float(mu),
                n=n,
                m=m,
                trials=trials,
                predicted_theta=prediction.giant_fraction or 0.0,
                mean_largest_frac=float(np.mean(largest)) if largest else math.nan,
                std_largest_frac=_std(largest),
                mean_second_frac=float(np.mean(second)) if second else math.nan,
                max_degree_dev=float(np.mean(devs)) if devs else math.nan,
                flags=";".join(flags),
            )
        )
    return rows


def sample_percolated_regular(
    n: int, d: int, retain: float, rng: np.random.Generator
) -> sampler.SimpleGraph:
    """Uniform random d-regular simple graph with each edge kept w.p. retain.

    The d-regular graph is drawn through the same configuration pairing
    and simplicity rejection as every other instance (the all-d degree
    sequence is the unique feasible one when 2m = dn), then edges survive
    independently.  Requires n*d even.
    """
    if (n * d) % 2:
        raise ValueError(f"n*d must be even for a d-regular graph, got n={n}, d={d}")
    if not (0.0 <= retain <= 1.0):
        raise ValueError(f"retention probability must lie in [0, 1], got {retain}")
    g = sampler.sample_graph(n, n * d // 2, d, rng)
    keep = rng.random(g.m) < retain
    return sampler.SimpleGraph._trusted(n, d, g.edges[keep])


def _duel_trial(args: tuple[int, int, int, float, int, int]) -> tuple[float, float, str]:
    d, n, m, mu, master_seed, index = args
    rng = trial_rng(master_seed, index)
    try:
        g = sampler.sample_graph(n, m, d, rng)
        bounded = components.report(g).largest_fraction
        perc = components.report(
            sample_percolated_regular(n, d, mu / d, rng)
        ).largest_fraction
    except sampler.SamplingError as exc:
        return (math.nan, math.nan, str(exc))
    return (bounded, perc, "")


def run_percolation_duel(
    d: int,
    mu_grid: Iterable[float],
    n: int,
    trials: int,
    master_seed: int,
) -> list[DuelRow]:
    """Compare giant emergence in the two bounded-degree models.

    For each mean degree mu, samples both a graph with exactly
    m = ceil(mu n / 2) edges and max degree d, and a random d-regular
    graph whose edges are retained independently with probability mu/d
    (so both models share the mean-degree axis).  The percolated model's
    threshold sits at mean degree 1 + 1/(d-1); the fixed-edge-count
    model's threshold is the critical mean degree, which is much smaller
    for large d.

    Raises:
        ValueError: Before any graph is sampled, if d < 3, a mu lies
            outside (0, d) or has no feasible edge count, or n*d is odd
            (no d-regular graph exists).
    """
    if d < 3:
        raise ValueError(f"duel requires d >= 3, got {d}")
    grid = [float(v) for v in mu_grid]
    if any(not (0.0 < v < d) for v in grid):
        raise ValueError(f"every mu must lie in (0, {d})")
    ms = [_edge_count(mu, n, d) for mu in grid]
    if (n * d) % 2:
        raise ValueError(
            f"n*d must be even for the d-regular side of the duel, got n={n}, d={d}"
        )
    args = [
        (d, n, m, mu, master_seed, grid_index * trials + t)
        for grid_index, (mu, m) in enumerate(zip(grid, ms))
        for t in range(trials)
    ]
    results = _run_trials(_duel_trial, args, worker_count())
    rows: list[DuelRow] = []
    for grid_index, (mu, m) in enumerate(zip(grid, ms)):
        chunk = results[grid_index * trials : (grid_index + 1) * trials]
        ok = [r for r in chunk if not r[2]]
        bounded = [r[0] for r in ok]
        perc = [r[1] for r in ok]
        errors = trials - len(ok)
        rows.append(
            DuelRow(
                d=d,
                mu=mu,
                n=n,
                m=m,
                trials=trials,
                mean_largest_frac=float(np.mean(bounded)) if bounded else math.nan,
                std_largest_frac=_std(bounded),
                perc_mean_largest_frac=float(np.mean(perc)) if perc else math.nan,
                perc_std_largest_frac=_std(perc),
                mu_critical=truncpoisson.critical_mean_degree(d),
                perc_mu_critical=1.0 + 1.0 / (d - 1),
                flags=f"errors={errors}" if errors else "",
            )
        )
    return rows


def write_csv(rows: Sequence[SweepRow] | Sequence[DuelRow], path: str | Path) -> None:
    """Write rows with their fixed column schema; output is byte-stable."""
    if not rows:
        raise ValueError("no rows to write")
    columns = SWEEP_COLUMNS if isinstance(rows[0], SweepRow) else DUEL_COLUMNS
    lines = [",".join(columns)]
    lines += [",".join(r.as_csv_fields()) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def conditioning_acceptance_rate(
    n: int, m: int, d: int, draws: int, seed: int
) -> float:
    """Empirical probability that n i.i.d. degrees sum to exactly 2m.

    Uses the mean-matched law and counts hits over `draws` independent
    degree-vector draws (measured through their histograms, which carry
    the sum).  This is the conditioning acceptance rate of the degree
    sequence sampler; theory puts it at order 1/sqrt(n).
    """
    law = truncpoisson.make_degree_law(d, 2 * m / n)
    weights = np.arange(d + 1)
    rng = trial_rng(seed, 0)
    hits = 0
    done = 0
    while done < draws:
        batch = min(200_000, draws - done)
        counts = rng.multinomial(n, law.probs, size=batch)
        hits += int((counts @ weights == 2 * m).sum())
        done += batch
    return hits / draws


def simplicity_acceptance_rate(
    n: int, m: int, d: int, min_pairings: int, seed: int
) -> tuple[float, float, int]:
    """Measured simplicity acceptance of the configuration pairing.

    Samples graphs on per-trial streams until at least min_pairings
    pairing attempts have been observed, then returns (accepted/attempted,
    mean per-attempt alpha diagnostic, attempts).  The rate should be
    essentially independent of n for fixed d and mean degree.
    """
    stats = sampler.SamplerStats()
    t = 0
    while stats.pairings < min_pairings:
        sampler.sample_graph(n, m, d, trial_rng(seed, t), stats)
        t += 1
    return stats.simplicity_rate, stats.alpha_mean, stats.pairings
