"""Tests for the exploration frontier and giant-component predictions."""

import math

import numpy as np
import pytest

from gnmd import giant, truncpoisson as tp

from analytic_reference import exploration_frontier

# Degenerate distribution with all mass on degree 3: the frontier stays
# positive on the whole interior and its only roots are the endpoints.
ALL_DEGREE_THREE = [0.0, 0.0, 0.0, 1.0]

LAW_GRID = [
    tp.make_degree_law(d, mu)
    for d, mu in [(2, 0.7), (3, 0.6), (3, 1.5), (4, 1.2), (4, 2.8), (6, 1.1), (8, 3.0)]
]


def fixed_point_theta(law):
    """Reference theta = 1 - G0(xi), with xi = G1(xi) bisected on [0, 1/2].

    Valid where the root lies below 1/2, as it does deep in the
    supercritical phase.
    """
    i = np.arange(law.probs.size)
    size_biased = i[1:] * law.probs[1:] / law.mu

    def excess(x):
        return float(size_biased @ x ** (i[1:] - 1)) - x

    lo, hi = 0.0, 0.5
    assert excess(lo) > 0 > excess(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 1.0 - float(law.probs @ lo**i)


class TestExplorationFrontier:
    def test_vanishes_at_zero(self):
        for law in LAW_GRID:
            assert abs(exploration_frontier(law, 0.0)) <= 1e-12

    def test_vanishes_at_midpoint(self):
        for law in LAW_GRID:
            half = law.mu / 2.0
            assert abs(exploration_frontier(law, half)) <= 1e-12

    def test_hand_computed_value(self):
        # D = 3, x = 5/6: 3 - 5/3 - 3 (4/9)^{3/2} = 4/3 - 8/9 = 4/9.
        got = exploration_frontier(ALL_DEGREE_THREE, 5.0 / 6.0)
        assert got == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_rejects_x_outside_interval(self):
        law = tp.make_degree_law(3, 1.5)
        with pytest.raises(ValueError):
            exploration_frontier(law, -0.01)
        with pytest.raises(ValueError):
            exploration_frontier(law, law.mu / 2 + 0.01)

    def test_slope_at_zero_is_q_over_mean(self):
        # Finite-difference oracle for the derivative identity.
        h = 1e-7
        for law in LAW_GRID:
            fd = (exploration_frontier(law, h) - 0.0) / h
            expected = tp.molloy_reed_q(law) / law.mu
            assert fd == pytest.approx(expected, abs=1e-6)


class TestFrontierRoot:
    def test_degenerate_distribution_roots_at_midpoint(self):
        assert giant.frontier_root(ALL_DEGREE_THREE) == pytest.approx(1.5, abs=1e-12)

    def test_supercritical_law_has_interior_root(self):
        law = tp.make_degree_law(3, 2.0)
        root = giant.frontier_root(law)
        assert 0.0 < root < 1.0
        assert abs(exploration_frontier(law, root)) <= 1e-10

    def test_root_matches_dense_grid_minimum(self):
        # Independent localization: on a dense grid the first sign change
        # of the frontier must bracket the returned root.
        law = tp.make_degree_law(3, 2.0)
        root = giant.frontier_root(law)
        half = law.mu / 2.0
        xs = np.linspace(0.0, half, 100_001)
        values = np.array([exploration_frontier(law, x) for x in xs[1:]])
        first_negative = xs[1:][np.argmax(values < 0)]
        assert abs(first_negative - root) <= half / 100_000

    def test_frontier_positive_before_root(self):
        for d, mu in [(3, 1.5), (4, 1.5), (4, 2.0)]:
            law = tp.make_degree_law(d, mu)
            root = giant.frontier_root(law)
            for x in np.linspace(root / 1000, root * 0.999, 500):
                assert exploration_frontier(law, x) > 0

    def test_rejects_subcritical_law(self):
        with pytest.raises(ValueError):
            giant.frontier_root(tp.make_degree_law(4, 0.9))

    @pytest.mark.parametrize("d", range(3, 21))
    def test_root_of_the_frontier_for_every_degree(self, d):
        crit = tp.critical_mean_degree(d)
        for mu in (crit + 0.01, (crit + d) / 2, d - 0.1):
            law = tp.make_degree_law(d, mu)
            root = giant.frontier_root(law)
            assert 0.0 < root <= law.mu / 2 + 1e-12
            assert abs(exploration_frontier(law, root)) <= 1e-12
            assert exploration_frontier(law, root / 2) > 0

    def test_root_next_to_the_threshold(self):
        # Reference from 60-digit arithmetic on the same float mu.  The
        # root xi lies 4e-6 below the root xi = 1 that every law has.
        pred = giant.predict(20, tp.critical_mean_degree(20) + 2e-6)
        assert pred.giant_fraction == pytest.approx(3.9999893334675e-6, rel=1e-6)


class TestGiantFraction:
    def test_degenerate_distribution_fills_graph(self):
        # All degrees 3: the graph is essentially connected, fraction 1.
        assert giant.giant_fraction(ALL_DEGREE_THREE, 1.5) == pytest.approx(1.0)

    def test_vanishes_as_root_vanishes(self):
        law = tp.make_degree_law(3, 1.5)
        assert giant.giant_fraction(law, 1e-12) < 1e-9

    def test_bounded_by_non_isolated_mass(self):
        for d, mu in [(3, 1.5), (4, 1.3), (5, 2.0), (8, 1.5)]:
            law = tp.make_degree_law(d, mu)
            theta = giant.giant_fraction(law, giant.frontier_root(law))
            assert 0.0 < theta <= 1.0 - law.probs[0] + 1e-12

    def test_monotone_in_mean_degree(self):
        thetas = []
        for mu in np.linspace(1.2, 3.5, 12):
            law = tp.make_degree_law(4, float(mu))
            thetas.append(giant.giant_fraction(law, giant.frontier_root(law)))
        assert all(a < b for a, b in zip(thetas, thetas[1:]))

    def test_rejects_root_outside_interval(self):
        law = tp.make_degree_law(3, 1.5)
        with pytest.raises(ValueError):
            giant.giant_fraction(law, 0.0)
        with pytest.raises(ValueError):
            giant.giant_fraction(law, law.mu / 2 + 0.1)


class TestPredict:
    def test_subcritical_classification(self):
        pred = giant.predict(4, 0.9)
        assert pred.phase is giant.Phase.SUBCRITICAL
        assert pred.q < 0
        assert pred.frontier_root_x is None
        assert pred.giant_fraction is None
        assert not pred.near_critical

    def test_supercritical_classification(self):
        pred = giant.predict(3, 2.0)
        assert pred.phase is giant.Phase.SUPERCRITICAL
        assert pred.q > 0
        assert 0.0 < pred.giant_fraction < 1.0
        assert 0.0 < pred.frontier_root_x <= pred.mu / 2

    def test_near_critical_flag_at_exact_threshold(self):
        pred = giant.predict(3, 3 * (math.sqrt(2) - 1))
        assert pred.near_critical
        assert abs(pred.q) < 1e-4

    def test_phase_consistent_with_threshold_comparison(self):
        for d in (3, 4, 5):
            crit = tp.critical_mean_degree(d)
            below = giant.predict(d, crit - 0.01)
            above = giant.predict(d, crit + 0.01)
            assert below.phase is giant.Phase.SUBCRITICAL
            assert above.phase is giant.Phase.SUPERCRITICAL

    def test_degree_mean_matches_mu(self):
        for d, mu in [(3, 1.5), (4, 0.9), (7, 4.2)]:
            pred = giant.predict(d, mu)
            assert abs(pred.law.mu - mu) <= 1e-10

    @pytest.mark.parametrize(
        "d, mu",
        [(8, 5.0), (3, 2.9), (4, 3.5), (4, 3.9), (5, 4.5), (5, 4.9), (6, 5.5), (7, 6.5), (8, 7.5)],
    )
    def test_dense_regime_matches_fixed_point(self, d, mu):
        pred = giant.predict(d, mu)
        assert pred.giant_fraction == pytest.approx(fixed_point_theta(pred.law), rel=1e-9)

    def test_dense_regime_pinned_value(self):
        assert giant.predict(8, 5.0).giant_fraction == pytest.approx(0.9954502132, abs=1e-10)

    @pytest.mark.parametrize("mu", [1.5, 2.0])
    @pytest.mark.parametrize("d", [170, 400, 1000])
    def test_large_d_matches_d40(self, d, mu):
        # The classes above ~40 carry less than a rounding error of the law,
        # down to ~1e-288 at d = 170; they must not reach the root solver.
        theta = giant.predict(d, mu).giant_fraction
        assert theta == pytest.approx(giant.predict(40, mu).giant_fraction, rel=1e-12)

    def test_near_threshold_fraction_is_small(self):
        pred = giant.predict(4, 1.06)
        assert pred.phase is giant.Phase.SUPERCRITICAL
        assert 0.0 < pred.frontier_root_x
        assert pred.giant_fraction < 0.05

    def test_d2_always_subcritical(self):
        for mu in (0.5, 1.0, 1.9):
            pred = giant.predict(2, mu)
            assert pred.phase is giant.Phase.SUBCRITICAL
            assert math.isinf(pred.mu_critical)
            assert not pred.near_critical

    def test_subnormal_mean_degree_is_subcritical(self):
        for d in range(2, 41):
            pred = giant.predict(d, 5e-324)
            assert pred.phase is giant.Phase.SUBCRITICAL
            assert pred.law.lam > 0.0 and pred.giant_fraction is None

    def test_json_dict_is_serializable(self):
        import json

        for pred in (giant.predict(2, 1.0), giant.predict(3, 1.5)):
            text = json.dumps(pred.to_json_dict())
            parsed = json.loads(text)
            assert parsed["phase"] == pred.phase.value

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            giant.predict(1, 0.5)
        with pytest.raises(ValueError):
            giant.predict(3, 3.0)
