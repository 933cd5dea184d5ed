"""Experiment harness: threshold tables, phase sweeps, percolation duels.

All experiments are deterministic functions of their configuration and a
master seed.  Trials derive independent streams keyed by trial index
(see seeding), so results do not depend on execution order; the worker
count only changes wall-clock time.  Worker parallelism is capped by the
GNMD_WORKERS environment variable (default: serial).  The sweep and the
duel share one grid check and one grid driver, which hands every (grid
point, trial) task of the run to one process pool and slices the results
back per grid point.  Each row class is its own CSV schema.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
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


def _edge_counts(d: int, n: int, grid: Sequence[float], trials: int) -> list[int]:
    """Check a grid and its trial count; each point's m = ceil(mu * n / 2).

    Raises:
        ValueError: If trials < 1, a mu lies outside (0, d), or 2m > d*n:
            rounding up leaves no graph with max degree d (possible when
            mu is within 1/n of d and d*n is odd).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ms = []
    for mu in grid:
        if not (0.0 < mu < d):
            raise ValueError(f"every mu must lie in (0, {d}), got mu={mu}")
        m = math.ceil(mu * n / 2)
        if 2 * m > d * n:
            raise ValueError(
                f"mu={mu} is infeasible at n={n}, d={d}: "
                f"2m = {2 * m} exceeds d*n = {d * n}"
            )
        ms.append(m)
    return ms


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
        grid = tuple(float(v) for v in self.mu_grid)
        if not grid:
            raise ValueError("mu_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("mu_grid must be strictly increasing")
        _edge_counts(self.d, self.n, grid, self.trials)
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


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if values else math.nan


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values), ddof=1))


def _flags(near_critical: bool, errors: int) -> str:
    flags = ["near_critical"] if near_critical else []
    if errors:
        flags.append(f"errors={errors}")
    return ";".join(flags)


def _run_grid(
    trial,
    d: int,
    n: int,
    grid: Sequence[float],
    ms: Sequence[int],
    trials: int,
    master_seed: int,
) -> list[list]:
    """Run `trials` trials per grid point; per point, the successful values.

    Trial t of point k gets the task (d, n, m, mu, master_seed, k*trials + t)
    and returns its values, or None when sampling failed.  The tasks run in
    order, on one process pool when worker_count() > 1.  A point keeps the
    values of its successful trials, in order.
    """
    tasks = [
        (d, n, m, mu, master_seed, k * trials + t)
        for k, (mu, m) in enumerate(zip(grid, ms))
        for t in range(trials)
    ]
    workers = worker_count()
    if workers <= 1 or len(tasks) <= 1:
        results = [trial(task) for task in tasks]
    else:
        # components imports scipy on first use.  Load it here, once: the
        # pool's workers fork from this process and inherit it, where each
        # worker of each run would otherwise import it again (~0.5 s).
        components._sparse()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(trial, tasks))
    return [
        [values for values in results[k * trials : (k + 1) * trials] if values is not None]
        for k in range(len(ms))
    ]


def _sweep_trial(task: tuple[int, int, int, float, int, int]) -> tuple | None:
    """One sweep trial: (largest_frac, second_frac, degree_counts), or None."""
    d, n, m, _, master_seed, index = task
    rng = trial_rng(master_seed, index)
    try:
        g = sampler.sample_graph(n, m, d, rng)
    except sampler.SamplingError:
        return None
    rep = components.report(g)
    return rep.largest_fraction, rep.second_fraction, rep.degree_counts


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Simulate every grid point and aggregate per-trial component reports.

    Per grid point, the edge count is the realized m = ceil(mu * n / 2)
    and `trials` independent graphs are sampled on streams keyed by the
    global trial index grid_index * trials + t, so output is a pure
    function of the config.  Sampler failures flag the row instead of
    aborting the sweep.
    """
    d, n, trials = config.d, config.n, config.trials
    ms = _edge_counts(d, n, config.mu_grid, trials)
    points = _run_grid(_sweep_trial, d, n, config.mu_grid, ms, trials, config.master_seed)
    rows: list[SweepRow] = []
    for mu, m, ok in zip(config.mu_grid, ms, points):
        prediction = giant.predict(d, mu)
        devs = [
            float(np.abs(np.asarray(counts) / n - prediction.law.probs).max())
            for _, _, counts in ok
        ]
        rows.append(
            SweepRow(
                d=d,
                mu=float(mu),
                n=n,
                m=m,
                trials=trials,
                predicted_theta=prediction.giant_fraction or 0.0,
                mean_largest_frac=_mean([largest for largest, _, _ in ok]),
                std_largest_frac=_std([largest for largest, _, _ in ok]),
                mean_second_frac=_mean([second for _, second, _ in ok]),
                max_degree_dev=_mean(devs),
                flags=_flags(prediction.near_critical, trials - len(ok)),
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
    return sampler.SimpleGraph._trusted(n, d, g.codes[keep])


def _duel_trial(task: tuple[int, int, int, float, int, int]) -> tuple | None:
    """One duel trial: (bounded largest_frac, percolated largest_frac), or None."""
    d, n, m, mu, master_seed, index = task
    rng = trial_rng(master_seed, index)
    try:
        g = sampler.sample_graph(n, m, d, rng)
        bounded = components.report(g).largest_fraction
        perc = components.report(
            sample_percolated_regular(n, d, mu / d, rng)
        ).largest_fraction
    except sampler.SamplingError:
        return None
    return bounded, perc


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
        ValueError: Before any graph is sampled, if d < 3, trials < 1, a
            mu lies outside (0, d) or has no feasible edge count, or n <= d
            or n*d is odd (no d-regular graph exists).
    """
    if d < 3:
        raise ValueError(f"duel requires d >= 3, got {d}")
    if n <= d:
        raise ValueError(f"a {d}-regular graph needs n > d vertices, got n={n}, d={d}")
    grid = [float(v) for v in mu_grid]
    ms = _edge_counts(d, n, grid, trials)
    if (n * d) % 2:
        raise ValueError(
            f"n*d must be even for the d-regular side of the duel, got n={n}, d={d}"
        )
    points = _run_grid(_duel_trial, d, n, grid, ms, trials, master_seed)
    mu_critical = truncpoisson.critical_mean_degree(d)
    return [
        DuelRow(
            d=d,
            mu=mu,
            n=n,
            m=m,
            trials=trials,
            mean_largest_frac=_mean([bounded for bounded, _ in ok]),
            std_largest_frac=_std([bounded for bounded, _ in ok]),
            perc_mean_largest_frac=_mean([perc for _, perc in ok]),
            perc_std_largest_frac=_std([perc for _, perc in ok]),
            mu_critical=mu_critical,
            perc_mu_critical=1.0 + 1.0 / (d - 1),
            flags=_flags(False, trials - len(ok)),
        )
        for mu, m, ok in zip(grid, ms, points)
    ]


def write_csv(rows: Sequence[SweepRow] | Sequence[DuelRow], path: str | Path) -> None:
    """Write rows as CSV, one column per row field in field order.

    Floats are written with 10 significant digits, everything else with
    str, so the output is byte-stable.
    """
    if not rows:
        raise ValueError("no rows to write")
    names = [field.name for field in fields(rows[0])]
    lines = [",".join(names)]
    for row in rows:
        values = (getattr(row, name) for name in names)
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in values))
    Path(path).write_text("\n".join(lines) + "\n")


def conditioning_acceptance_rate(
    n: int, m: int, d: int, draws: int, seed: int
) -> float:
    """Empirical probability that n i.i.d. degrees sum to exactly 2m.

    Runs the sampler's own conditioning loop, sample_degree_sequence with
    one row and the mean-matched law, until it has counted at least
    `draws` degree histograms, and returns the sequences it kept per
    histogram counted.  This is the conditioning acceptance rate of the
    degree sequence sampler; theory puts it at order 1/sqrt(n).
    """
    law = truncpoisson.make_degree_law(d, 2 * m / n)
    rng = trial_rng(seed, 0)
    stats = sampler.SamplerStats()
    sequences = 0
    while stats.histogram_draws < draws:
        sampler.sample_degree_sequence(n, m, d, law, 1, rng, stats)
        sequences += 1
    return sequences / stats.histogram_draws


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
