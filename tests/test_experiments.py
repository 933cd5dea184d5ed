"""Tests for the experiment harness: sweeps, duels, acceptance-rate probes."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gnmd import components, experiments, giant, sampler, truncpoisson as tp
from gnmd.seeding import make_rng, trial_rng


SWEEP_HEADER = (
    "d,mu,n,m,trials,predicted_theta,mean_largest_frac,std_largest_frac,"
    "mean_second_frac,max_degree_dev,flags"
)
DUEL_HEADER = (
    "d,mu,n,m,trials,mean_largest_frac,std_largest_frac,perc_mean_largest_frac,"
    "perc_std_largest_frac,mu_critical,perc_mu_critical,flags"
)


class TestThresholdRows:
    def test_row_values(self):
        rows = {d: (crit, approx) for d, crit, approx in experiments.threshold_rows(8)}
        assert math.isinf(rows[2][0])
        assert rows[3][0] == pytest.approx(3 * (math.sqrt(2) - 1), abs=1e-10)
        assert rows[8][0] == pytest.approx(1.00006, abs=5e-6)
        for d in range(2, 9):
            assert rows[d][1] == pytest.approx(tp.critical_mean_degree_approx(d))

    def test_dmax_bounds(self):
        with pytest.raises(ValueError):
            experiments.threshold_rows(1)
        with pytest.raises(ValueError):
            experiments.threshold_rows(21)


class TestSweepConfig:
    def test_valid_config(self):
        cfg = experiments.SweepConfig(
            d=3, mu_grid=(0.5, 1.0, 1.5), n=100, trials=2, master_seed=1
        )
        assert cfg.mu_grid == (0.5, 1.0, 1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=3, mu_grid=(1.0, 0.5), n=100, trials=2, master_seed=1),
            dict(d=3, mu_grid=(0.5, 0.5), n=100, trials=2, master_seed=1),
            dict(d=3, mu_grid=(0.5,), n=5, trials=2, master_seed=1),
            dict(d=3, mu_grid=(0.5,), n=100, trials=0, master_seed=1),
            dict(d=3, mu_grid=(3.5,), n=100, trials=2, master_seed=1),
            dict(d=3, mu_grid=(), n=100, trials=2, master_seed=1),
            dict(d=1, mu_grid=(0.5,), n=100, trials=2, master_seed=1),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            experiments.SweepConfig(**kwargs)

    def test_rounded_up_edge_count_must_be_feasible(self):
        # m = ceil(2.99 * 11 / 2) = 17, but 3-bounded graphs on 11 vertices
        # have at most 16 edges.
        with pytest.raises(ValueError, match="mu=2.99"):
            experiments.SweepConfig(d=3, mu_grid=(2.99,), n=11, trials=1, master_seed=1)


class TestRunSweep:
    CONFIG = experiments.SweepConfig(
        d=3, mu_grid=(0.8, 1.8), n=200, trials=4, master_seed=99
    )

    def test_rows_well_formed(self):
        rows = experiments.run_sweep(self.CONFIG)
        assert len(rows) == 2
        for row in rows:
            assert row.m == math.ceil(row.mu * row.n / 2)
            assert 0.0 <= row.mean_largest_frac <= 1.0
            assert 0.0 <= row.mean_second_frac <= 1.0
            assert row.flags == ""

    def test_predicted_theta_recomputable(self):
        rows = experiments.run_sweep(self.CONFIG)
        for row in rows:
            pred = giant.predict(row.d, row.mu)
            expected = pred.giant_fraction or 0.0
            assert row.predicted_theta == pytest.approx(expected, abs=1e-12)

    def test_deterministic(self):
        a = experiments.run_sweep(self.CONFIG)
        b = experiments.run_sweep(self.CONFIG)
        assert a == b

    def test_trials_keep_their_streams(self):
        # Trial t of grid point k runs on stream k * trials + t.
        cfg = self.CONFIG
        rows = experiments.run_sweep(cfg)
        for k, row in enumerate(rows):
            largest = [
                components.report(
                    sampler.sample_graph(
                        cfg.n, row.m, cfg.d, trial_rng(cfg.master_seed, k * cfg.trials + t)
                    )
                ).largest_fraction
                for t in range(cfg.trials)
            ]
            assert row.mean_largest_frac == float(np.mean(largest))

    def test_worker_count_does_not_change_results(self, monkeypatch):
        serial = experiments.run_sweep(self.CONFIG)
        monkeypatch.setenv("GNMD_WORKERS", "2")
        assert experiments.worker_count() == 2
        parallel = experiments.run_sweep(self.CONFIG)
        assert serial == parallel

    def test_csv_round_trip_bytes(self, tmp_path):
        rows = experiments.run_sweep(self.CONFIG)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        experiments.write_csv(rows, p1)
        experiments.write_csv(experiments.run_sweep(self.CONFIG), p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == SWEEP_HEADER


class TestPercolatedRegular:
    def test_full_retention_is_regular(self):
        g = experiments.sample_percolated_regular(20, 3, 1.0, make_rng(0))
        assert (g.degrees() == 3).all()
        assert g.m == 30

    def test_zero_retention_is_empty(self):
        g = experiments.sample_percolated_regular(20, 3, 0.0, make_rng(0))
        assert g.m == 0

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            experiments.sample_percolated_regular(5, 3, 0.5, make_rng(0))

    def test_retention_probability_bounds(self):
        with pytest.raises(ValueError):
            experiments.sample_percolated_regular(10, 3, 1.5, make_rng(0))

    def test_mean_degree_tracks_retention(self):
        g = experiments.sample_percolated_regular(2000, 4, 0.3, make_rng(5))
        assert 2 * g.m / 2000 == pytest.approx(4 * 0.3, abs=0.15)
        # The kept edge subset, built unchecked, passes the public validation.
        sampler.SimpleGraph(n=g.n, d=g.d, codes=g.codes)


class TestPercolationDuel:
    def test_rows_and_thresholds(self):
        rows = experiments.run_percolation_duel(
            4, [0.5, 1.2], n=400, trials=3, master_seed=5
        )
        assert len(rows) == 2
        for row in rows:
            assert row.mu_critical == pytest.approx(tp.critical_mean_degree(4))
            assert row.perc_mu_critical == pytest.approx(4 / 3)
            assert 0.0 <= row.perc_mean_largest_frac <= 1.0
            assert row.flags == ""

    def test_requires_d_at_least_three(self):
        with pytest.raises(ValueError):
            experiments.run_percolation_duel(2, [0.5], n=100, trials=1, master_seed=0)

    def test_rounded_up_edge_count_must_be_feasible(self):
        with pytest.raises(ValueError, match="mu=2.99"):
            experiments.run_percolation_duel(
                3, [1.2, 2.99], n=11, trials=1, master_seed=0
            )

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def sample_graph(*args, **kwargs):
            raise AssertionError("a graph was sampled before the input check")

        monkeypatch.setattr(experiments.sampler, "sample_graph", sample_graph)

    def test_odd_regular_degree_sum_rejected_before_sampling(self, no_sampling):
        with pytest.raises(ValueError, match="n=11, d=3"):
            experiments.run_percolation_duel(3, [1.0], n=11, trials=1, master_seed=1)

    @pytest.mark.parametrize("n", [4, 2, 0, -3])
    def test_too_few_vertices_for_a_regular_graph_rejected_before_sampling(
        self, no_sampling, n
    ):
        with pytest.raises(ValueError, match=f"n={n}, d=4"):
            experiments.run_percolation_duel(4, [1.0], n, trials=1, master_seed=0)

    @pytest.mark.parametrize(
        "d, grid, trials, match",
        [
            (4, [1.0], 0, "trials"),
            (4, [1.0], -2, "trials"),
            (4, [1.0, 0.0], 1, "mu"),
            (4, [4.0], 1, "mu"),
            (4, [5.0], 1, "mu"),
        ],
    )
    def test_bad_grid_or_trials_rejected_before_sampling(
        self, no_sampling, d, grid, trials, match
    ):
        with pytest.raises(ValueError, match=match):
            experiments.run_percolation_duel(d, grid, n=100, trials=trials, master_seed=1)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        args = (4, [0.5, 1.2], 300, 2, 8)
        serial = experiments.run_percolation_duel(*args)
        monkeypatch.setenv("GNMD_WORKERS", "2")
        assert serial == experiments.run_percolation_duel(*args)

    def test_csv_schema(self, tmp_path):
        rows = experiments.run_percolation_duel(
            4, [1.0], n=200, trials=2, master_seed=3
        )
        path = tmp_path / "duel.csv"
        experiments.write_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == DUEL_HEADER


class TestWriteCsv:
    def test_exact_text(self, tmp_path):
        # Ints and flags go through str, floats through 10 significant digits.
        sweep = experiments.SweepRow(
            d=4, mu=1.2, n=100000, m=60000, trials=3,
            predicted_theta=0.123456789876543, mean_largest_frac=math.nan,
            std_largest_frac=0.0, mean_second_frac=math.inf,
            max_degree_dev=2.5e-05, flags="near_critical;errors=2",
        )
        duel = experiments.DuelRow(
            d=6, mu=1.5, n=2000, m=1500, trials=1,
            mean_largest_frac=math.nan, std_largest_frac=0.0,
            perc_mean_largest_frac=0.987654321098765, perc_std_largest_frac=1e-12,
            mu_critical=math.inf, perc_mu_critical=1.2, flags="errors=1",
        )
        path = tmp_path / "rows.csv"
        experiments.write_csv([sweep], path)
        assert path.read_text() == (
            SWEEP_HEADER + "\n"
            "4,1.2,100000,60000,3,0.1234567899,nan,0,inf,2.5e-05,near_critical;errors=2\n"
        )
        experiments.write_csv([duel], path)
        assert path.read_text() == (
            DUEL_HEADER + "\n"
            "6,1.5,2000,1500,1,nan,0,0.9876543211,1e-12,inf,1.2,errors=1\n"
        )

    def test_no_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            experiments.write_csv([], tmp_path / "empty.csv")


class TestAcceptanceProbes:
    def test_conditioning_rate_matches_exact_pmf(self):
        # For a small instance the exact acceptance probability comes from
        # the sum-pmf oracle; the empirical estimate must agree.
        from gnmd import oracle

        n, m, d = 30, 20, 3
        lam = tp.invert_mean(d, 2 * m / n)
        exact = oracle.sum_pmf(n, d, lam)[2 * m]
        rate = experiments.conditioning_acceptance_rate(n, m, d, 200_000, seed=7)
        assert rate == pytest.approx(exact, abs=4 * math.sqrt(exact / 200_000))

    def test_simplicity_rate_reasonable(self):
        rate, alpha, pairings = experiments.simplicity_acceptance_rate(
            500, 300, 4, min_pairings=200, seed=11
        )
        assert pairings >= 200
        assert 0.05 < rate < 1.0
        assert 0.0 < alpha < 4.0


class TestWorkerCount:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("GNMD_WORKERS", raising=False)
        assert experiments.worker_count() == 1

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("GNMD_WORKERS", "lots")
        with pytest.raises(ValueError):
            experiments.worker_count()

    def test_pool_opens_with_scipy_loaded(self):
        # Forked workers inherit the parent's modules, so the driver loads
        # what components needs of scipy before it opens the pool.  A fresh
        # interpreter starts without it, and a thread pool stands in for
        # the process pool: its workers load any module they still lack
        # into this process, where the check below finds it.
        code = textwrap.dedent(
            """
            import sys
            from concurrent.futures import ThreadPoolExecutor
            from gnmd import experiments

            opened = []

            class Pool(ThreadPoolExecutor):
                def __init__(self, max_workers):
                    opened.append(set(sys.modules))
                    super().__init__(max_workers)

            def scipy_modules(names):
                return {m for m in names if m.split(".")[0] == "scipy"}

            experiments.ProcessPoolExecutor = Pool
            assert not scipy_modules(sys.modules)
            experiments.run_sweep(experiments.SweepConfig(4, (1.0, 1.5), 20, 2, 5))
            (loaded,) = opened
            assert "scipy.sparse.csgraph" in loaded
            late = scipy_modules(sys.modules) - loaded
            assert not late, sorted(late)
            """
        )
        src = Path(experiments.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "GNMD_WORKERS": "2"}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
