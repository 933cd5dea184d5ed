"""Tests for the enumeration, counting, and exact-distribution oracles."""

import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
import time

import numpy as np
import pytest
from scipy.special import chdtri

from gnmd import oracle, sampler, truncpoisson as tp
from gnmd.seeding import make_rng


class TestEnumerate:
    def test_known_counts(self):
        # 20 three-edge graphs on 4 vertices minus the 4 stars of degree 3.
        assert oracle.enumerate_graphs(4, 3, 2).count == 16
        assert oracle.enumerate_graphs(3, 3, 2).count == 1  # the triangle
        assert oracle.enumerate_graphs(2, 1, 1).count == 1

    def test_graphs_are_canonical_and_unique(self):
        ens = oracle.enumerate_graphs(5, 4, 3)
        assert ens.edge_codes.shape == (ens.count, 4)
        assert ens.edge_codes.dtype == np.int64
        assert (np.diff(ens.edge_codes, axis=1) > 0).all()
        u, v = np.divmod(ens.edge_codes, 5)
        assert (u < v).all()
        rows = [tuple(row) for row in ens.edge_codes.tolist()]
        # Rows come in lexicographic order of their codes, with no repeat.
        assert rows == sorted(set(rows))

    def test_order_is_the_lexicographic_order_of_edge_subsets(self):
        pairs = list(itertools.combinations(range(5), 2))
        expected = [
            [u * 5 + v for u, v in subset]
            for subset in itertools.combinations(pairs, 4)
            if np.bincount(np.ravel(subset), minlength=5).max() <= 2
        ]
        assert oracle.enumerate_graphs(5, 4, 2).edge_codes.tolist() == expected

    def test_degree_bound_enforced(self):
        for row in oracle.enumerate_graphs(5, 4, 2).edge_codes:
            degrees = np.bincount(np.ravel(np.divmod(row, 5)), minlength=5)
            assert degrees.max() <= 2

    def test_edgeless_ensemble_is_one_empty_row(self):
        ens = oracle.enumerate_graphs(3, 0, 2)
        assert ens.count == 1 and ens.edge_codes.shape == (1, 0)

    def test_rejects_oversized_instances(self):
        # Within n <= 8 the subset guard cannot trip (C(28, 14) < 10^8),
        # so only the vertex bound is exercisable here.
        with pytest.raises(ValueError):
            oracle.enumerate_graphs(9, 3, 3)
        with pytest.raises(ValueError):
            oracle.enumerate_graphs(5, 11, 4)  # more edges than vertex pairs

    def test_recount_by_degree_stratification(self):
        # Independent total: sum over degree histograms of the number of
        # labeled graphs realizing each, counted by the histogram recursion.
        for n, m, d in [(4, 3, 2), (5, 4, 2), (5, 5, 3), (6, 5, 3), (6, 6, 3), (7, 5, 2), (6, 7, 4)]:
            assert oracle.stratified_recount(n, m, d) == oracle.enumerate_graphs(n, m, d).count

    def test_recount_of_an_edgeless_instance(self):
        assert oracle.stratified_recount(5, 0, 3) == 1


class TestDegreeSequenceCounts:
    def test_single_edge(self):
        assert oracle.count_graphs_with_degree_sequence((1, 1)) == 1

    def test_triangle(self):
        assert oracle.count_graphs_with_degree_sequence((2, 2, 2)) == 1

    def test_star(self):
        assert oracle.count_graphs_with_degree_sequence((3, 1, 1, 1)) == 1

    def test_labeled_paths(self):
        # Degrees (2,2,1,1): the two labeled 4-paths with interior {0,1}.
        assert oracle.count_graphs_with_degree_sequence((2, 2, 1, 1)) == 2

    def test_odd_sum_impossible(self):
        assert oracle.count_graphs_with_degree_sequence((2, 1)) == 0

    def test_infeasible_sequence(self):
        assert oracle.count_graphs_with_degree_sequence((3, 1)) == 0

    def test_negative_entry(self):
        assert oracle.count_graphs_with_degree_sequence((2, -1, 1)) == 0

    def test_labeled_cubic_graphs(self):
        # OEIS A002829, on 4, 6, 8, 10 and 12 vertices.
        counts = [oracle.count_graphs_with_degree_sequence((3,) * n) for n in (4, 6, 8, 10, 12)]
        assert counts == [1, 70, 19355, 11180820, 11555272575]

    def test_labeled_quartic_graphs(self):
        # OEIS A005815, on 5 to 9 vertices.
        counts = [oracle.count_graphs_with_degree_sequence((4,) * n) for n in range(5, 10)]
        assert counts == [1, 15, 465, 19355, 1024380]


class TestStratifiedRecount:
    def test_medium_instance_is_exact_and_fast(self):
        start = time.perf_counter()
        total = oracle.stratified_recount(60, 36, 4)
        assert time.perf_counter() - start < 5.0
        assert type(total) is int
        assert total == 1095198915205143835987417277473676749203112445931503981509997926702749557240

    def test_matches_a_sum_over_degree_sequences(self):
        # Every degree vector in [0, d]^n with sum 2m, counted one by one.
        n, m, d = 6, 6, 3
        total = sum(
            oracle.count_graphs_with_degree_sequence(x)
            for x in itertools.product(range(d + 1), repeat=n)
            if sum(x) == 2 * m
        )
        assert oracle.stratified_recount(n, m, d) == total == 3595


class TestSumPmf:
    def test_single_variable_is_the_pmf(self):
        law = tp.DegreeLaw(3, 1.2)
        np.testing.assert_allclose(oracle.sum_pmf(1, 3, 1.2), law.probs)

    def test_two_bernoulli_case(self):
        # d=1, lam=1 is Bernoulli(1/2); P(sum of two = 1) = 1/2.
        pmf = oracle.sum_pmf(2, 1, 1.0)
        assert pmf[1] == pytest.approx(0.5, abs=1e-15)

    def test_normalization(self):
        lam = tp.invert_mean(3, 1.2)
        pmf = oracle.sum_pmf(20, 3, lam)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf.size == 61

    def test_against_brute_force_enumeration(self):
        # Exhaustive oracle over all 3^4 outcomes.
        law = tp.DegreeLaw(2, 0.7)
        brute = np.zeros(9)
        for combo in itertools.product(range(3), repeat=4):
            brute[sum(combo)] += math.prod(law.probs[k] for k in combo)
        np.testing.assert_allclose(oracle.sum_pmf(4, 2, 0.7), brute, atol=1e-15)

    def test_empirical_sum_frequencies(self):
        # Vector-level draws against the exact pmf, within 3 standard
        # errors per cell.
        n, d = 20, 3
        lam = tp.invert_mean(d, 1.2)
        law = tp.DegreeLaw(d, lam)
        pmf = oracle.sum_pmf(n, d, lam)
        rng = make_rng(424242)
        trials = 1_000_000
        draws = np.searchsorted(law.cumulative(), rng.random((trials, n)), side="left")
        sums = draws.sum(axis=1)
        observed = np.bincount(sums, minlength=pmf.size) / trials
        se = np.sqrt(pmf * (1 - pmf) / trials)
        assert np.all(np.abs(observed - pmf) <= 3 * se + 1e-9)


class TestConditionalMarginal:
    def test_single_variable_point_mass(self):
        marg = oracle.conditional_marginal(1, 2, 3, 0.9)
        np.testing.assert_allclose(marg, [0, 0, 1, 0], atol=0)

    def test_two_bernoulli_case(self):
        marg = oracle.conditional_marginal(2, 1, 1, 1.0)
        np.testing.assert_allclose(marg, [0.5, 0.5], atol=1e-15)

    def test_against_brute_force(self):
        law = tp.DegreeLaw(2, 0.7)
        n, target = 4, 5
        joint = np.zeros(3)
        for combo in itertools.product(range(3), repeat=4):
            if sum(combo) == target:
                joint[combo[0]] += math.prod(law.probs[k] for k in combo)
        np.testing.assert_allclose(
            oracle.conditional_marginal(n, target, 2, 0.7),
            joint / joint.sum(),
            atol=1e-14,
        )

    def test_impossible_target_rejected(self):
        with pytest.raises(ValueError):
            oracle.conditional_marginal(2, 7, 3, 1.0)


class TestUniformityTest:
    def test_small_ensemble_passes(self):
        ens = oracle.enumerate_graphs(5, 4, 2)
        rep = oracle.uniformity_test(ens, 60_000, seed=2024)
        assert rep.tv_distance < 0.05
        assert rep.chi_square_ok
        assert rep.never_sampled == 0
        assert rep.dof == ens.count - 1

    def test_single_graph_ensemble_sampling_is_trivially_uniform(self):
        # (3,3,2) admits only the triangle; the sampler can only return it
        # (total-variation distance zero), and the frequency test itself
        # requires at least two graphs.
        ens = oracle.enumerate_graphs(3, 3, 2)
        assert ens.count == 1
        g = sampler.sample_graph(3, 3, 2, make_rng(0))
        assert g.codes.tolist() == ens.edge_codes[0].tolist()
        with pytest.raises(ValueError):
            oracle.uniformity_test(ens, 1_000, seed=0)

    @pytest.mark.parametrize("dof", [1, 2, 3, 10, 69, 2696, 100_000, 1_000_000])
    def test_quantile_is_the_chi_square_quantile(self, dof):
        # scipy's chdtri is the reference; uniformity_test itself loads no scipy.
        for tail in (1e-3, 1e-9, 0.05):
            assert oracle._chi_square_quantile(dof, tail) == pytest.approx(
                chdtri(dof, tail), rel=1e-10
            ), tail

    @pytest.mark.parametrize("tail", [1e-9, 1e-3, 0.05, 0.5])
    def test_two_dof_quantile_is_closed_form(self, tail):
        # chi-square(2) is exponential with mean 2: P(X > x) = exp(-x/2).
        assert oracle._chi_square_quantile(2, tail) == pytest.approx(
            -2 * math.log(tail), rel=1e-10
        )

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy would cost most of the package's import time and memory, and
        # no module of gnmd uses it: neither the package, nor the oracle, nor
        # the experiments, nor the CLI loads any scipy module on import.
        src = Path(oracle.__file__).resolve().parents[1]
        code = (
            "import sys, gnmd, gnmd.oracle, gnmd.experiments, gnmd.cli; "
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "assert not loaded, loaded"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

    def test_requires_enough_trials(self):
        ens = oracle.enumerate_graphs(5, 4, 2)
        with pytest.raises(ValueError):
            oracle.uniformity_test(ens, 100, seed=0)

    def test_alien_graph_is_a_hard_failure(self):
        # Remove one graph from the ensemble; the sampler eventually
        # produces it and the test must abort loudly.
        ens = oracle.enumerate_graphs(4, 3, 2)
        truncated = oracle.EnumeratedEnsemble(
            n=4,
            m=3,
            d=2,
            edge_codes=ens.edge_codes[:-1],
        )
        with pytest.raises(RuntimeError):
            oracle.uniformity_test(truncated, 2_000, seed=1)

    def test_alien_graph_past_the_last_key_is_a_hard_failure(self):
        # Drop the graph whose bitmask key sum(2^code) is the largest, so a
        # draw of it searches past the end of the sorted ensemble keys.
        ens = oracle.enumerate_graphs(4, 3, 2)
        keys = [sum(1 << int(c) for c in row) for row in ens.edge_codes]
        drop = keys.index(max(keys))
        keep = [i for i in range(ens.count) if i != drop]
        truncated = oracle.EnumeratedEnsemble(
            n=4,
            m=3,
            d=2,
            edge_codes=ens.edge_codes[keep],
        )
        with pytest.raises(RuntimeError, match="not in the enumerated ensemble"):
            oracle.uniformity_test(truncated, 2_000, seed=1)

    def test_rejects_ensembles_beyond_the_key_width(self):
        # Graph keys are 64-bit masks over codes below n^2, so n <= 8.
        ens = oracle.EnumeratedEnsemble(
            n=9,
            m=1,
            d=1,
            edge_codes=np.array([[1], [2]], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="n <= 8"):
            oracle.uniformity_test(ens, 1_000, seed=0)

    def test_draws_are_asked_for_block_by_block(self, monkeypatch):
        # Memory stays O(block * m): no call asks for more than one block,
        # and the blocks add up to the trial count.
        asked = []
        draw = sampler.sample_edge_codes

        def recorder(n, m, d, count, rng):
            asked.append(count)
            return draw(n, m, d, count, rng)

        monkeypatch.setattr(oracle.sampler_mod, "sample_edge_codes", recorder)
        ens = oracle.enumerate_graphs(5, 4, 2)
        trials = 2 * oracle._TALLY_BLOCK + 123
        rep = oracle.uniformity_test(ens, trials, seed=3)
        assert rep.trials == trials
        assert max(asked) <= oracle._TALLY_BLOCK
        assert sum(asked) == trials and len(asked) == 3

    def test_tally_matches_a_counter_over_rows(self):
        ens = oracle.enumerate_graphs(5, 4, 2)
        codes = sampler.sample_edge_codes(5, 4, 2, 3_000, make_rng(5))
        counts = Counter(tuple(row) for row in codes.tolist())
        expected = [counts[tuple(row)] for row in ens.edge_codes.tolist()]
        assert oracle._tally(ens, oracle._key_index(ens), codes).tolist() == expected
        assert sum(expected) == codes.shape[0]
