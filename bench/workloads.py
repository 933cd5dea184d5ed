"""One benchmark workload, run in its own process.

Usage (normally started by run.py, which pins the environment):

    python3 bench/workloads.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/workloads.py --workload sweep --seed 1 --probe

The process imports gnmd from the checkout's src/, builds the workload's
inputs and notes the monotonic clock ("ready").  With --probe it stops
there, which is how run.py measures set-up time.  Otherwise it runs whole
rounds of the workload until --seconds have passed, checks every output
against bench/reference.py or against properties the method must have,
and prints one JSON line for run.py.

With --trace 1 it runs every round twice, once untraced and once with
tracer.Tracer installed, and reports the per-layer metrics of the traced
rounds and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import reference as ref
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Tail probability of the oracle's chi-square gate.  At ~10 calls a run and
#: a few hundred runs, a false alarm stays below one in a million.
CHI_SQUARE_TAIL = 1e-9

#: Relative and absolute tolerance of a prediction against the reference
#: root, applied to theta and to 1 - theta.  gnmd bisects the root to float
#: resolution, so a correct prediction agrees to ~1e-12.
THETA_RTOL = 1e-6
THETA_ATOL = 1e-12


@dataclass
class Record:
    """Outcome of one round: operations, call wall times and raw outputs."""

    ops: int
    calls_s: list[float]
    data: Any
    failed: int = 0


@dataclass
class Verdict:
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def trial_stream(master_seed: int, index: int) -> np.random.Generator:
    """The per-trial PCG64 stream gnmd documents for its experiments."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def error_count(flags: str) -> int:
    found = re.search(r"errors=(\d+)", flags)
    return int(found.group(1)) if found else 0


def close(value: float, reference: float) -> bool:
    """theta and 1 - theta both within the prediction tolerance."""
    return math.isclose(value, reference, rel_tol=THETA_RTOL, abs_tol=THETA_ATOL) and (
        math.isclose(1.0 - value, 1.0 - reference, rel_tol=THETA_RTOL, abs_tol=THETA_ATOL)
    )


def finite_size_window(n: int) -> float:
    """Half-width in mu of the critical window where theta is not compared."""
    return 4.0 * n ** (-1.0 / 3.0)


def giant_tolerance(spread: float, trials: int, n: int) -> float:
    """Allowed |mean largest fraction - theta| over `trials` graphs.

    Five standard errors of the mean, with the per-trial spread floored at
    n^-1/2 so that two lucky close trials cannot make the gate sharper than
    the fluctuations of a size-n giant, plus n^-1/2 of finite-size bias.
    """
    return 5.0 * max(spread, n**-0.5) / math.sqrt(trials) + n**-0.5


def pooled(means: list[float], stds: list[float], each: int) -> tuple[float, float, int]:
    """Mean, sample spread and count of equal-size groups of trials."""
    total = len(means) * each
    grand = sum(means) / len(means)
    squares = sum((each - 1) * s * s + each * (m - grand) ** 2 for m, s in zip(means, stds))
    return grand, math.sqrt(squares / (total - 1)) if total > 1 else 0.0, total


class Workload:
    """Inputs, one round of timed calls, and the checks of one workload."""

    def __init__(self, gnmd, seed: int):
        self.gnmd = gnmd
        self.seed = seed
        self.rng = random.Random(seed)

    def master(self, r: int) -> int:
        """Master seed of round r under the run's --seed."""
        return int(np.random.SeedSequence((self.seed, r)).generate_state(1)[0])

    def round(self, r: int) -> Record:
        raise NotImplementedError

    def judge(self, records: list[Record]) -> Verdict:
        raise NotImplementedError

    def check_graph(self, verdict: Verdict, label: str, n: int, m: int, d: int, g) -> None:
        """The graph is simple with m edges and degree <= d, and its
        component sizes are the networkx sizes."""
        defects = ref.graph_defects(n, m, d, g.edges)
        verdict.expect(not defects, f"{label}: {defects}")
        sizes = list(self.gnmd.components.report(g).sizes)
        verdict.expect(
            sizes == ref.component_sizes(n, g.edges),
            f"{label}: component sizes differ from networkx",
        )


class Sweep(Workload):
    """experiments.run_sweep at d=4, n=1e5 over a grid straddling mu_c(4)."""

    D, N, TRIALS = 4, 100_000, 2
    GRID = (0.8, 1.0, 1.2, 1.4, 1.6)

    def round(self, r: int) -> Record:
        ex = self.gnmd.experiments
        config = ex.SweepConfig(
            d=self.D, mu_grid=self.GRID, n=self.N, trials=self.TRIALS,
            master_seed=self.master(r),
        )
        start = time.perf_counter()
        rows = ex.run_sweep(config)
        elapsed = time.perf_counter() - start
        failed = sum(error_count(row.flags) for row in rows)
        return Record(len(self.GRID) * self.TRIALS, [elapsed], (config.master_seed, rows), failed)

    def judge(self, records: list[Record]) -> Verdict:
        verdict = Verdict(failed=sum(rec.failed for rec in records))
        n, d = self.N, self.D
        mu_c = ref.critical_mean_degree(d)
        window = finite_size_window(n)
        runs = {master: rows for master, rows in (rec.data for rec in records)}
        for k, mu in enumerate(self.GRID):
            law = ref.degree_law(d, mu)
            theta = ref.giant_fraction(law)
            at_mu = [grid_rows[k] for grid_rows in runs.values()]
            for row in at_mu:
                verdict.expect(row.m == math.ceil(mu * n / 2), f"mu={mu}: m={row.m}")
                verdict.expect(close(row.predicted_theta, theta),
                               f"mu={mu}: predicted_theta {row.predicted_theta} != {theta}")
                verdict.expect(row.max_degree_dev <= ref.degree_histogram_bound(law, n),
                               f"mu={mu}: degree histogram off by {row.max_degree_dev}")
            ok = [row for row in at_mu if not error_count(row.flags)]
            if not ok or abs(mu - mu_c) <= window:
                continue
            if theta == 0.0:
                verdict.expect(max(row.mean_largest_frac for row in ok) <= 0.01,
                               f"mu={mu}: subcritical largest component above 0.01 n")
            else:
                mean, spread, trials = pooled(
                    [row.mean_largest_frac for row in ok],
                    [row.std_largest_frac for row in ok],
                    self.TRIALS,
                )
                verdict.expect(abs(mean - theta) <= giant_tolerance(spread, trials, n),
                               f"mu={mu}: largest fraction {mean} vs theta {theta}")
            verdict.expect(max(row.mean_second_frac for row in ok) <= 0.01,
                           f"mu={mu}: second component above 0.01 n")
        # Regenerate one trial at each end of the grid from a recorded
        # round and check the graph and its components.
        master = self.rng.choice(sorted(runs))
        for k in (0, len(self.GRID) - 1):
            mu = self.GRID[k]
            m = math.ceil(mu * n / 2)
            index = k * self.TRIALS + self.rng.randrange(self.TRIALS)
            g = self.gnmd.sampler.sample_graph(n, m, d, trial_stream(master, index))
            self.check_graph(verdict, f"sweep trial mu={mu}", n, m, d, g)
            counts = np.bincount(g.degrees(), minlength=d + 1) / n
            law = ref.degree_law(d, mu)
            verdict.expect(float(abs(counts - law).max()) <= ref.degree_histogram_bound(law, n),
                           f"sweep trial mu={mu}: degree histogram off")
            if mu < mu_c - window:
                verdict.expect(self.gnmd.components.report(g).largest_fraction <= 0.01,
                               f"sweep trial mu={mu}: subcritical giant")
        return verdict


class Duel(Workload):
    """experiments.run_percolation_duel, serial, on fixed inputs.

    d=4, n=1e5 at one mu below and one above the percolation threshold
    4/3, and d=6 at n=2000, whose full-restart regular sampling ends in
    SamplingError.  The inputs do not depend on --seed: the restart count
    of a regular graph is geometric with mean ~41, so runs on different
    streams would differ by ~20% in work; --seed only picks the trial
    that the checks regenerate.
    """

    N4, TRIALS4, GRID4, MASTER4 = 100_000, 1, (1.2, 2.0), 2019
    N6, TRIALS6, GRID6, MASTER6 = 2000, 1, (1.2,), 3

    def round(self, r: int) -> Record:
        duel = self.gnmd.experiments.run_percolation_duel
        start = time.perf_counter()
        rows4 = duel(4, self.GRID4, self.N4, self.TRIALS4, self.MASTER4)
        elapsed = time.perf_counter() - start
        rows6 = duel(6, self.GRID6, self.N6, self.TRIALS6, self.MASTER6)
        ops = len(self.GRID4) * self.TRIALS4 + len(self.GRID6) * self.TRIALS6
        failed = sum(error_count(row.flags) for row in rows4 + rows6)
        # Only the d=4 call is timed for call_p50_ms; every d=6 trial fails.
        return Record(ops, [elapsed], (rows4, rows6), failed)

    def judge(self, records: list[Record]) -> Verdict:
        verdict = Verdict(failed=sum(rec.failed for rec in records))
        first = records[0].data
        for rec in records[1:]:
            verdict.expect(_same_rows(rec.data, first), "duel rows differ between rounds")
        rows4, rows6 = first
        n, d = self.N4, 4
        window = finite_size_window(n)
        mu_c = ref.critical_mean_degree(d)
        for row in rows4 + rows6:
            verdict.expect(row.m == math.ceil(row.mu * row.n / 2), f"duel mu={row.mu}: m={row.m}")
            verdict.expect(math.isclose(row.mu_critical, ref.critical_mean_degree(row.d),
                                        rel_tol=1e-10), f"duel d={row.d}: mu_critical")
            verdict.expect(math.isclose(row.perc_mu_critical, 1 + 1 / (row.d - 1), rel_tol=1e-12),
                           f"duel d={row.d}: perc_mu_critical")
        for row in rows4:
            if error_count(row.flags):
                continue
            theta = ref.giant_fraction(ref.degree_law(d, row.mu))
            theta_p = ref.percolated_regular_giant(d, row.mu)
            if abs(row.mu - mu_c) > window:
                verdict.expect(
                    abs(row.mean_largest_frac - theta)
                    <= giant_tolerance(row.std_largest_frac, row.trials, n),
                    f"duel mu={row.mu}: largest fraction {row.mean_largest_frac} vs {theta}")
            if abs(row.mu - (1 + 1 / (d - 1))) <= window:
                continue
            if theta_p == 0.0:
                verdict.expect(row.perc_mean_largest_frac <= 0.01,
                               f"duel mu={row.mu}: subcritical percolated giant")
            else:
                verdict.expect(
                    abs(row.perc_mean_largest_frac - theta_p)
                    <= giant_tolerance(row.perc_std_largest_frac, row.trials, n),
                    f"duel mu={row.mu}: percolated fraction {row.perc_mean_largest_frac} "
                    f"vs {theta_p}")
        # Regenerate one d=4 trial, bounded and percolated graph.
        k = self.rng.randrange(len(self.GRID4))
        mu = self.GRID4[k]
        index = k * self.TRIALS4 + self.rng.randrange(self.TRIALS4)
        stream = trial_stream(self.MASTER4, index)
        m = math.ceil(mu * n / 2)
        g = self.gnmd.sampler.sample_graph(n, m, d, stream)
        self.check_graph(verdict, f"duel trial mu={mu}", n, m, d, g)
        percolate = getattr(self.gnmd.experiments, "sample_percolated_regular", None)
        if percolate is not None:
            p = mu / d
            h = percolate(n, d, p, stream)
            self.check_graph(verdict, f"duel percolated trial mu={mu}", n, h.m, d, h)
            spread = math.sqrt(n * d / 2 * p * (1 - p))
            verdict.expect(abs(h.m - n * d / 2 * p) <= 6 * spread,
                           f"duel percolated trial mu={mu}: {h.m} edges kept")
        return verdict


def _same_rows(a, b) -> bool:
    """Row tuples equal, with NaN equal to NaN (rows of failed trials)."""
    return repr(a) == repr(b)


class Oracle(Workload):
    """oracle.uniformity_test on the enumerated (6, 5, 3) ensemble."""

    N, M, D, DRAWS = 6, 5, 3, 300_000

    def round(self, r: int) -> Record:
        oracle = self.gnmd.oracle
        seed = self.master(r)
        start = time.perf_counter()
        ensemble = oracle.enumerate_graphs(self.N, self.M, self.D)
        report = oracle.uniformity_test(ensemble, self.DRAWS, seed)
        elapsed = time.perf_counter() - start
        keep = ensemble if r == 0 else None
        return Record(self.DRAWS, [elapsed], (report, keep))

    def judge(self, records: list[Record]) -> Verdict:
        verdict = Verdict()
        ensemble = records[0].data[1]
        expected = ref.tiny_ensemble(self.N, self.M, self.D)
        graphs = {tuple(int(c) for c in row) for row in ensemble.edge_codes}
        verdict.expect(ensemble.count == len(expected) == len(graphs),
                       f"ensemble has {ensemble.count} graphs, reference {len(expected)}")
        verdict.expect(graphs == expected, "ensemble differs from the reference ensemble")
        for rec in records:
            rep = rec.data[0]
            bound = ref.chi_square_quantile(rep.dof, CHI_SQUARE_TAIL)
            verdict.expect(rep.count == len(expected) and rep.dof == rep.count - 1,
                           f"report over {rep.count} graphs")
            verdict.expect(rep.trials == self.DRAWS, f"report of {rep.trials} draws")
            verdict.expect(rep.chi_square <= bound, f"chi-square {rep.chi_square} > {bound}")
            verdict.expect(rep.tv_distance <= math.sqrt(rep.count / rep.trials),
                           f"total variation {rep.tv_distance}")
            verdict.expect(rep.never_sampled == 0, f"{rep.never_sampled} graphs never drawn")
        return verdict


class Analytic(Workload):
    """giant.predict and truncpoisson.critical_mean_degree over a (d, mu) grid.

    For d = 3..8: mu = 0.5 (subcritical), the dense d - 0.5 and d - 0.1,
    and five supercritical points mu_c(d) + delta, with the 30 deltas
    spread geometrically from 0.02 to 0.53 over all d.  A prediction's
    cost grows with how far the frontier scan runs before the root, so the
    near-critical points spread the call times evenly and the median call
    moves smoothly with the host's speed instead of jumping between two
    clusters of equal calls.  The grid is fixed, so the predictions that
    are wrong today fail on every run; --seed only orders the calls.
    """

    DEGREES = range(3, 9)
    #: mu_c(d) to four decimals; the offsets keep every point far outside
    #: the +-1e-6 band that predict flags as near-critical.
    MU_C = {3: 1.2426, 4: 1.0578, 5: 1.0131, 6: 1.0026, 7: 1.0004, 8: 1.0001}

    def __init__(self, gnmd, seed: int):
        super().__init__(gnmd, seed)
        grid = [(d, mu) for d in self.DEGREES for mu in (0.5, d - 0.5, d - 0.1)]
        grid += [
            (d, round(self.MU_C[d] + 0.02 * 1.12 ** (6 * k + j), 4))
            for j, d in enumerate(self.DEGREES)
            for k in range(5)
        ]
        self.grid = self.rng.sample(grid, len(grid))

    def round(self, r: int) -> Record:
        critical = {d: self.gnmd.truncpoisson.critical_mean_degree(d) for d in self.DEGREES}
        predict = self.gnmd.giant.predict
        calls, out = [], []
        for d, mu in self.grid:
            start = time.perf_counter()
            p = predict(d, mu)
            calls.append(time.perf_counter() - start)
            out.append((d, mu, p.phase.value, p.giant_fraction, p.mu_critical, p.near_critical))
        return Record(len(self.grid), calls, (critical, out))

    def judge(self, records: list[Record]) -> Verdict:
        verdict = Verdict()
        mu_c = {d: ref.critical_mean_degree(d) for d in self.DEGREES}
        theta = {(d, mu): ref.giant_fraction(ref.degree_law(d, mu)) for d, mu in self.grid}
        for rec in records:
            critical, out = rec.data
            for d in self.DEGREES:
                verdict.expect(math.isclose(critical[d], mu_c[d], rel_tol=1e-10),
                               f"mu_c({d}) = {critical[d]}, reference {mu_c[d]}")
            for d, mu, phase, giant, mu_crit, near in out:
                verdict.expect(math.isclose(mu_crit, mu_c[d], rel_tol=1e-10),
                               f"predict({d}, {mu}).mu_critical = {mu_crit}")
                if near:
                    continue
                expected = "supercritical" if mu > mu_c[d] else "subcritical"
                verdict.expect(phase == expected, f"predict({d}, {mu}) is {phase}")
                if phase != expected:
                    continue
                if expected == "subcritical":
                    verdict.expect(giant is None and theta[d, mu] == 0.0,
                                   f"predict({d}, {mu}): subcritical giant {giant}")
                elif giant is None or not close(giant, theta[d, mu]):
                    # A wrong root: counted as a failed operation.
                    verdict.failed += 1
        return verdict


WORKLOADS = {"sweep": Sweep, "duel": Duel, "oracle": Oracle, "analytic": Analytic}


def run_rounds(workload: Workload, seconds: float) -> tuple[list[Record], list[float]]:
    """Whole rounds until `seconds` have passed; records and round times."""
    records: list[Record] = []
    times: list[float] = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        records.append(workload.round(len(records)))
        times.append(time.perf_counter() - began)
    return records, times


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has reaped, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def traced_run(gnmd, workload: Workload, args, result: dict):
    """Each round twice, untraced and traced, in alternating order.

    A first untimed round lets lazy imports and first-call costs finish, and
    interleaving keeps slow phases of a shared host from landing on one
    side only.  The per-layer metrics come from the traced rounds; the
    overhead is their summed wall time against the untraced rounds'.
    """
    spool = OUT / f"spool-{os.getpid()}"
    spool.mkdir(parents=True)
    tracer = Tracer(gnmd, spool)
    start = time.perf_counter()
    records = [workload.round(0)]
    times = [time.perf_counter() - start]
    traced: list[Record] = []
    spent = {False: 0.0, True: 0.0}
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        r += 1
        for with_trace in ((False, True) if r % 2 else (True, False)):
            if with_trace:
                tracer.install()
            began = time.perf_counter()
            try:
                rec = workload.round(r)
            finally:
                tracer.uninstall()
            took = time.perf_counter() - began
            spent[with_trace] += took
            records.append(rec)
            times.append(took)
            if with_trace:
                traced.append(rec)
    tracer.collect()
    spool.rmdir()
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    layers = tracer.layer_metrics(sum(rec.ops for rec in traced))
    layers["trace.overhead_pct"] = (100.0 * (spent[True] / spent[False] - 1.0), "%")
    result["layers"] = layers
    return records, times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="set up, then exit")
    args = parser.parse_args(argv)

    import gnmd
    import gnmd.experiments  # noqa: F401  (not imported by gnmd/__init__)

    if not Path(gnmd.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"gnmd imported from {gnmd.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload](gnmd, args.seed)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    result: dict[str, Any] = {"ready": ready}
    if args.trace:
        records, times = traced_run(gnmd, workload, args, result)
    else:
        records, times = run_rounds(workload, args.seconds)
    result["peak_rss_mb"] = peak_rss_mb()

    import networkx
    import scipy

    verdict = workload.judge(records)
    calls = [c for rec in records for c in rec.calls_s]
    ops = sum(rec.ops for rec in records)
    result.update(
        correct=not verdict.problems,
        problems=verdict.problems,
        attempted=ops,
        failed=verdict.failed,
        rounds=len(records),
        round_s=times,
        ops_per_s=(ops - verdict.failed) / sum(times),
        call_p50_ms=1e3 * statistics.median(calls),
        calls=len(calls),
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "networkx": networkx.__version__,
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
