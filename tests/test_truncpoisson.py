"""Tests for the truncated Poisson law and its special functions."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from gnmd import giant, sampler, truncpoisson as tp

from analytic_reference import exploration_frontier, molloy_reed_q_closed_form, variance

# Rate grid for property checks: 0.01 * 2^k intersected with (0, 20].
LAMBDA_GRID = [0.01 * 2**k for k in range(11)]

# Probability vectors that break one rule of as_probs, with the message
# that names it.
BAD_PROBABILITY_VECTORS = pytest.mark.parametrize(
    "probs,message",
    [
        ([-0.1, 0.6, 0.5], "finite and >= 0"),
        ([math.nan, 0.5, 0.5], "finite and >= 0"),
        ([0.2, 0.3, 0.3], "sum to 1"),
        ([math.nan, 0.0, 0.5, 0.5], "finite and >= 0"),
        ([0.0, 0.0, 0.0, math.nan], "finite and >= 0"),
        ([0.0, 0.25, 0.25, 0.5 + 1e-10], "sum to 1"),
    ],
    ids=["negative", "nan", "mis-summed", "nan-first", "nan-last", "sum-off-by-1e-10"],
)


def exact_partial_exp_sum(d: int, lam: Fraction) -> Fraction:
    """Independent rational-arithmetic oracle for the partial sum."""
    return sum(lam**j / math.factorial(j) for j in range(d + 1))


class TestPartialExpSum:
    def test_single_term(self):
        assert tp.partial_exp_sum(0, 5.0) == 1.0

    def test_two_terms(self):
        assert tp.partial_exp_sum(1, 2.0) == 3.0

    def test_against_rational_oracle(self):
        expected = exact_partial_exp_sum(3, Fraction(2))
        assert expected == Fraction(19, 3)
        assert tp.partial_exp_sum(3, 2.0) == pytest.approx(float(expected), abs=1e-14)

    @pytest.mark.parametrize("lam", [0.0, -1.0, -1e-9])
    def test_rejects_nonpositive_rate(self, lam):
        with pytest.raises(ValueError):
            tp.partial_exp_sum(3, lam)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            tp.partial_exp_sum(-1, 1.0)

    def test_at_least_one(self):
        for lam in LAMBDA_GRID:
            for d in range(11):
                assert tp.partial_exp_sum(d, lam) >= 1.0


class TestMean:
    def test_known_value_at_sqrt2(self):
        # lam(1 + lam)/(1 + lam + lam^2/2) = 1 exactly at lam = sqrt(2).
        assert tp.mean(2, math.sqrt(2)) == pytest.approx(1.0, abs=1e-12)

    def test_two_term_case(self):
        assert tp.mean(1, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_limit_approaches_truncation(self):
        assert tp.mean(3, 1e6) > 2.999

    def test_stays_inside_open_interval(self):
        for k in range(1, 11):
            for lam in LAMBDA_GRID:
                assert 0.0 < tp.mean(k, lam) < k

    def test_strictly_increasing_in_rate(self):
        for k in range(1, 11):
            values = [tp.mean(k, lam) for lam in LAMBDA_GRID]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tp.mean(0, 1.0)
        with pytest.raises(ValueError):
            tp.mean(2, -1.0)


    def test_finite_where_the_partial_sums_overflow(self):
        # lam^j / j! passes the float range at both rates; the mean must
        # still match the rational oracle, not read nan.
        assert tp.mean(60, 1e300) == pytest.approx(60.0, rel=1e-12)
        s = exact_partial_exp_sum
        exact = Fraction(2000) * s(399, Fraction(2000)) / s(400, Fraction(2000))
        assert tp.mean(400, 2000.0) == pytest.approx(float(exact), rel=1e-12)


class TestInvertMean:
    def test_known_value(self):
        assert tp.invert_mean(2, 1.0) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_simple_rational_case(self):
        # lam/(1 + lam) = 1/2 at lam = 1.
        assert tp.invert_mean(1, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        assert tp.invert_mean(4, tp.mean(4, 0.7)) == pytest.approx(0.7, abs=1e-10)

    def test_residual_within_tolerance(self):
        for k in (2, 5, 9):
            for target in (0.1, 0.5 * k, k - 0.1):
                lam = tp.invert_mean(k, target)
                assert abs(tp.mean(k, lam) - target) <= 1e-12

    @pytest.mark.parametrize("k, target", [(400, 399.5), (60, 59.99999)])
    def test_residual_where_the_partial_sums_overflow(self, k, target):
        lam = tp.invert_mean(k, target)
        assert tp.mean(k, lam) == pytest.approx(target, rel=1e-12)
        assert tp.make_degree_law(k, target).mu == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 4, 40])
    def test_subnormal_target_gives_a_positive_rate(self, k):
        # The final bracket is (0, 5e-324), whose midpoint rounds to 0.0.
        assert tp.invert_mean(k, 5e-324) == 5e-324
        assert tp.invert_mean(k, 1e-323) == 1e-323

    @pytest.mark.parametrize("target", [0.0, -0.5, 2.0, 2.5])
    def test_rejects_out_of_range_target(self, target):
        with pytest.raises(ValueError):
            tp.invert_mean(2, target)


class TestDegreeLaw:
    def test_make_degree_law_contract(self):
        law = tp.make_degree_law(3, 1.5)
        assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.arange(4) @ law.probs == pytest.approx(1.5, abs=1e-12)
        assert np.all(law.probs > 0)

    def test_probs_closed_form_at_sqrt2(self):
        law = tp.make_degree_law(2, 1.0)
        s = 2.0 + math.sqrt(2)
        np.testing.assert_allclose(
            law.probs, [1.0 / s, math.sqrt(2) / s, 1.0 / s], atol=1e-12
        )

    def test_threshold_law_has_vanishing_q(self):
        law = tp.make_degree_law(4, 1.05783)
        assert abs(tp.molloy_reed_q(law)) < 1e-4

    def test_degree_law_matches_pmf_definition(self):
        for d in range(1, 8):
            for lam in (0.3, 1.7, 6.0):
                law = tp.DegreeLaw(d, lam)
                s = tp.partial_exp_sum(d, lam)
                expected = [lam**i / math.factorial(i) / s for i in range(d + 1)]
                np.testing.assert_allclose(law.probs, expected, rtol=1e-12)

    def test_mean_identity(self):
        for d in range(1, 11):
            for lam in LAMBDA_GRID:
                law = tp.DegreeLaw(d, lam)
                moment = float(np.arange(d + 1) @ law.probs)
                assert abs(moment - tp.mean(d, lam)) <= 1e-12

    @pytest.mark.parametrize("d,mu", [(3, 0.0), (3, 3.0), (3, -1.0), (3, 4.0)])
    def test_make_degree_law_domain(self, d, mu):
        with pytest.raises(ValueError):
            tp.make_degree_law(d, mu)

    def test_d_one_has_a_law_but_no_phase(self):
        # The sampler needs the mean-matched law at d = 1; the phase
        # prediction needs d >= 2.
        np.testing.assert_allclose(tp.make_degree_law(1, 0.5).probs, [0.5, 0.5], atol=1e-12)
        with pytest.raises(ValueError):
            giant.predict(1, 0.5)

    def test_underflowed_classes_carry_zero_mass(self):
        # lam^j / j! underflows to 0 past j ~ 170 at lam = 1; the true mass
        # of those classes is far below 1e-300.
        law = tp.make_degree_law(400, 1.0)
        assert law.probs[0] > 0 and law.probs[-1] == 0.0
        assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert law.mu == pytest.approx(1.0, abs=1e-12)
        expected = [1 / math.factorial(i) / math.e for i in range(10)]
        np.testing.assert_allclose(law.probs[:10], expected, rtol=1e-12)

    @BAD_PROBABILITY_VECTORS
    def test_law_validation_rejects_bad_probability_vectors(self, probs, message):
        with pytest.raises(ValueError, match=message):
            tp.as_probs(probs)

    @pytest.mark.parametrize("lam", [-3.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_law_validation_rejects_bad_rates(self, lam):
        with pytest.raises(ValueError, match="rate must be a positive finite real"):
            tp.DegreeLaw(1, lam)

    @pytest.mark.parametrize("d", [1, 2, 4, 60, 400])
    def test_every_rate_builds_a_law(self, d):
        for lam in [5e-324, 1e-300, *LAMBDA_GRID, 1e300, 1.7976931348623157e308]:
            law = tp.DegreeLaw(d, lam)
            assert law.lam == lam and law.d == d

    @BAD_PROBABILITY_VECTORS
    def test_giant_rejects_bad_probability_vectors(self, probs, message):
        calls = [
            lambda: exploration_frontier(probs, 0.0),
            lambda: giant.frontier_root(probs),
            lambda: giant.giant_fraction(probs, 0.5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    def test_as_probs_copies_a_bare_vector_and_keeps_a_laws(self):
        law = tp.make_degree_law(3, 1.5)
        assert tp.as_probs(law) is law.probs
        vector = np.array([0.25, 0.5, 0.25])
        probs = tp.as_probs(vector)
        assert probs is not vector and vector.flags.writeable
        np.testing.assert_array_equal(probs, vector)
        for shapeless in ([1.0], [[0.5, 0.5]]):
            with pytest.raises(ValueError, match="vector over degrees"):
                tp.as_probs(shapeless)

    def test_d_and_mu_are_read_from_probs(self):
        fields = dataclasses.fields(tp.DegreeLaw)
        assert [f.name for f in fields] == ["d", "lam", "probs"]
        assert [f.name for f in fields if f.init] == ["d", "lam"]
        for lam in LAMBDA_GRID:
            for d in range(1, 11):
                law = tp.DegreeLaw(d, lam)
                assert law.d == law.probs.size - 1 == d
                assert law.mu == float(np.arange(d + 1) @ law.probs)
        for name in ("d", "lam", "probs", "mu"):
            with pytest.raises(AttributeError):
                setattr(law, name, 1)

    def test_replacing_the_rate_rebuilds_the_probabilities(self):
        law = tp.make_degree_law(3, 1.5)
        for lam in (0.3, 4.0, 50.0):
            moved = dataclasses.replace(law, lam=lam)
            np.testing.assert_array_equal(moved.probs, tp.DegreeLaw(3, lam).probs)
            assert moved.mu == pytest.approx(tp.mean(3, lam), rel=1e-12)

    def test_equality_and_hash_follow_d_and_rate(self):
        law = tp.DegreeLaw(4, 1.7)
        twin = tp.DegreeLaw(4, 1.7)
        assert law == twin and hash(law) == hash(twin)
        assert law != tp.DegreeLaw(4, 1.8) and law != tp.DegreeLaw(5, 1.7)
        assert len({law, twin, tp.DegreeLaw(4, 1.8)}) == 2

    @pytest.mark.parametrize("d", [0, -1])
    def test_law_rejects_max_degree_below_one(self, d):
        with pytest.raises(ValueError, match="max degree must be >= 1"):
            tp.DegreeLaw(d, 1.0)


    @pytest.mark.parametrize(
        "d, lam",
        [
            (400, 2000.0),
            (1000, 800.0),
            (60, 1e300),
            (4, 1.35),
            (8, 3.0),
            (3, 0.4),
            (20, 7.5),
        ],
    )
    def test_law_where_the_terms_overflow(self, d, lam):
        # One recurrence builds every law relative to its largest term, at
        # j = min(d, floor(lam)).  The first three rates push that term past
        # the float range, at the top class or (1000, 800.0) inside; the
        # others are ordinary rates, peaked at 0, inside or at the top.
        # Each law must match the exact rational weights.
        law = tp.DegreeLaw(d, lam)
        # Weights lam^j * d!/j!, proportional to lam^j / j!; Fraction(lam)
        # is the float rate exactly.
        rate = Fraction(lam)
        falling = [1] * (d + 1)
        for j in range(d, 0, -1):
            falling[j - 1] = falling[j] * j
        weights = [rate**j * falling[j] for j in range(d + 1)]
        total = sum(weights)
        exact = [float(w / total) for w in weights]  # rounds correctly
        np.testing.assert_allclose(law.probs, exact, rtol=1e-12, atol=1e-300)


class TestVariance:
    def test_bernoulli_case(self):
        # d = 1, lam = 1 is Bernoulli(1/2): variance 1/4.
        law = tp.DegreeLaw(1, 1.0)
        assert variance(law) == pytest.approx(0.25, abs=1e-14)

    def test_bounded_by_mean_on_grid(self):
        for d in range(1, 11):
            for lam in LAMBDA_GRID:
                law = tp.DegreeLaw(d, lam)
                v = variance(law)
                assert 0.0 <= v <= law.mu + 1e-14


class TestMolloyReedQ:
    def test_dual_formula_agreement(self):
        for d in range(2, 11):
            for lam in LAMBDA_GRID:
                law = tp.DegreeLaw(d, lam)
                q_moment = tp.molloy_reed_q(law)
                q_closed = molloy_reed_q_closed_form(law)
                assert abs(q_moment - q_closed) <= 1e-12 * max(1.0, abs(q_moment))

    def test_sign_straddles_threshold(self):
        assert tp.molloy_reed_q(tp.make_degree_law(3, 0.5)) < 0
        assert tp.molloy_reed_q(tp.make_degree_law(3, 2.0)) > 0

    def test_zero_at_threshold(self):
        mu = tp.critical_mean_degree(4)
        law = tp.make_degree_law(4, mu)
        assert abs(tp.molloy_reed_q(law)) < 1e-4

    def test_rejects_d_one(self):
        for law in (tp.DegreeLaw(1, 1.0), [0.5, 0.5]):
            with pytest.raises(ValueError, match="max degree >= 2"):
                tp.molloy_reed_q(law)

    def test_bare_vector_gives_the_laws_value(self):
        for d in range(2, 11):
            for lam in LAMBDA_GRID:
                law = tp.DegreeLaw(d, lam)
                assert tp.molloy_reed_q(law.probs.tolist()) == tp.molloy_reed_q(law)


class TestLogConcavity:
    def test_partial_sums_log_concave(self):
        for d in range(1, 11):
            for lam in LAMBDA_GRID:
                lo = tp.partial_exp_sum(d - 1, lam)
                mid = tp.partial_exp_sum(d, lam)
                hi = tp.partial_exp_sum(d + 1, lam)
                assert lo * hi <= mid * mid * (1 + 1e-14)


class TestCriticalMeanDegree:
    def test_exact_closed_form_for_d3(self):
        assert tp.critical_mean_degree(3) == pytest.approx(
            3 * (math.sqrt(2) - 1), abs=1e-10
        )

    def test_tabulated_value_d5(self):
        assert tp.critical_mean_degree(5) == pytest.approx(1.01309, abs=5e-6)

    def test_no_finite_threshold_for_d2(self):
        assert math.isinf(tp.critical_mean_degree(2))

    def test_rejects_d_below_two(self):
        with pytest.raises(ValueError):
            tp.critical_mean_degree(1)

    def test_strictly_decreasing_and_above_one(self):
        values = [tp.critical_mean_degree(d) for d in range(3, 9)]
        assert all(v > 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_approximation_formula(self):
        for d in (5, 8):
            expected = 1 + 1 / (math.e * math.factorial(d - 1)) - 1 / (
                math.e * math.factorial(d)
            )
            assert tp.critical_mean_degree_approx(d) == pytest.approx(expected)


class _Uniforms:
    """Stands in for a Generator: random() lays out the given degree draws.

    The sampler's batch kernel reads a (2, rows) block: row 0 draws the
    first vertex's degree, row 1 the acceptance of the completed last
    degree, here 0 so that every row is kept.
    """

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def random(self, shape):
        assert shape == (2, self.draws.size)
        return np.vstack([self.draws, np.zeros_like(self.draws)])


def kernel_degrees(law, draws):
    """Degrees the sampler's kernel maps the uniform draws to by inverse CDF.

    Two vertices with degree sum d: the last degree, d minus the first,
    is always feasible.
    """
    rows = sampler._conditioned_degree_rows(
        2, law.d, law.cumulative(), len(draws), _Uniforms(draws)
    )
    assert rows.shape == (len(draws), 2)
    return rows[:, 0]


class TestSampleDegree:
    def test_zero_draw_hits_first_class(self):
        law = tp.make_degree_law(3, 1.5)
        assert kernel_degrees(law, [0.0]).tolist() == [0]

    def test_draw_near_one_hits_last_class(self):
        law = tp.make_degree_law(3, 1.5)
        assert kernel_degrees(law, [1 - 1e-15]).tolist() == [3]

    def test_empirical_frequencies_match_pmf(self):
        # The kernel counts the cumulative probabilities below each draw;
        # it must agree with one searchsorted call, the smallest i with
        # cum[i] >= u, and so realise the law's probabilities.
        law = tp.make_degree_law(4, 1.2)
        rng = np.random.default_rng(20240601)
        draws = rng.random(1_000_000)
        degrees = kernel_degrees(law, draws)
        np.testing.assert_array_equal(
            degrees, np.searchsorted(law.cumulative(), draws, side="left")
        )
        freqs = np.bincount(degrees, minlength=5) / draws.size
        np.testing.assert_allclose(freqs, law.probs, atol=0.005)
