import math

import numpy as np
import pytest

from matchbench import (
    MarketSpec,
    QuadratureConvergenceError,
    closed_form_counterexample,
    counterexample_expectations,
    counterexample_index_cdf,
    counterexample_market,
    exponential,
    gaussian,
    matched_outcome,
    monte_carlo_counterexample,
    numeric_counterexample,
    population_moments_gaussian,
    quad_integrate,
    rademacher,
    uniform01,
)
from matchbench.oracle import quadrature_expectations

E2 = math.exp(-2.0)


class TestClosedForms:
    def test_constants(self):
        report = closed_form_counterexample()
        assert abs(report.cov_x1 - (1.0 - E2) / 4.0) <= 1e-12
        assert abs(report.cov_x2 - (3.0 * E2 + 1.0) / 8.0) <= 1e-12
        assert abs(report.ratio_cca - (3.0 + math.exp(2.0)) / (2.0 * math.exp(2.0) - 2.0)) <= 1e-12
        assert report.ratio_true == 1.0

    def test_internal_consistency(self):
        report = closed_form_counterexample()
        assert abs(report.ratio_cca * report.cov_x1 - report.cov_x2) <= 1e-12

    def test_expectation_terms(self):
        terms = counterexample_expectations()
        assert terms["mean_x_cdf_shift0"] == 0.75
        assert abs(terms["mean_x_matched_outcome"] - (3.0 * E2 + 5.0) / 8.0) <= 1e-15
        assert abs(terms["mean_cdf_shift_plus2"] - (1.0 - E2 / 2.0)) <= 1e-15
        assert abs(terms["mean_cdf_shift_minus2"] - E2 / 2.0) <= 1e-15
        assert abs(terms["mean_x_cdf_shift_minus2"] - 7.0 * E2 / 4.0) <= 1e-15
        assert abs(terms["mean_x_cdf_shift_plus2"] - (1.0 - E2 / 4.0)) <= 1e-15

    def test_json_has_symbolic_and_decimals(self):
        obj = closed_form_counterexample().to_json_dict()
        assert obj["ratio_cca"]["symbolic"] == "(3+e^2)/(2e^2-2)"
        assert len(obj["ratio_cca"]["decimal17"].replace("0.", "")) >= 16


class TestMatchedOutcome:
    def test_low_coin_at_origin(self):
        assert matched_outcome(-1.0, 0.0) == 0.0

    def test_high_coin_at_origin(self):
        assert abs(matched_outcome(1.0, 0.0) - 0.5 * (1.0 - E2)) <= 1e-15

    def test_limits_to_one(self):
        assert abs(matched_outcome(1.0, 80.0) - 1.0) <= 1e-15

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            matched_outcome(0.5, 1.0)
        with pytest.raises(ValueError):
            matched_outcome(1.0, -0.5)

    def test_equals_index_cdf_at_combined_index(self, rng):
        x1 = rng.choice([-1.0, 1.0], size=10_000)
        x2 = rng.exponential(size=10_000)
        lhs = matched_outcome(x1, x2)
        rhs = counterexample_index_cdf((x1 + x2) / math.sqrt(2.0))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestQuadrature:
    def test_exponential_mean(self):
        assert abs(quad_integrate(lambda z: z, exponential(1.0), 1e-10) - 1.0) <= 1e-10

    def test_shifted_cdf_expectation(self):
        g = exponential(1.0).cdf
        got = quad_integrate(lambda z: g(z + 2.0), exponential(1.0), 1e-10)
        assert abs(got - (1.0 - E2 / 2.0)) <= 1e-10

    def test_kinked_integrand(self):
        g = exponential(1.0).cdf
        got = quad_integrate(lambda z: z * g(z - 2.0), exponential(1.0), 1e-10)
        assert abs(got - 7.0 * E2 / 4.0) <= 1e-10

    def test_atomic_weight_is_exact_sum(self):
        got = quad_integrate(lambda z: z**3 + 2.0, rademacher(), 1e-6)
        assert got == 2.0

    def test_uniform_weight(self):
        got = quad_integrate(lambda z: z**2, uniform01(), 1e-12)
        assert abs(got - 1.0 / 3.0) <= 1e-12

    def test_gaussian_weight_moments(self):
        d = gaussian(1.5)
        assert abs(quad_integrate(lambda z: z, d, 1e-10)) <= 1e-10
        assert abs(quad_integrate(lambda z: z**2, d, 1e-10) - 2.25) <= 1e-9

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            quad_integrate(lambda z: z, exponential(1.0), 0.0)

    def test_nonconvergence_raises(self):
        # divergent integrand: the leftmost panel chain never meets its budget
        with pytest.raises(QuadratureConvergenceError):
            quad_integrate(lambda z: 1.0 / z, uniform01(), 1e-10)

    def test_terms_match_closed_forms(self):
        closed = counterexample_expectations()
        quad = quadrature_expectations(1e-9)
        for key, value in closed.items():
            assert abs(quad[key] - value) <= 1e-9, key


class TestNumericCounterexample:
    def test_benchmark_market_ratio(self):
        report = numeric_counterexample(counterexample_market(), 1e-9)
        expected = (3.0 + math.exp(2.0)) / (2.0 * math.exp(2.0) - 2.0)
        assert abs(report.ratio_cca - expected) <= 1e-6
        assert abs(report.cov_x1 - (1.0 - E2) / 4.0) <= 1e-8
        assert abs(report.cov_x2 - (3.0 * E2 + 1.0) / 8.0) <= 1e-8
        assert report.expectation_terms  # the benchmark market carries the named terms

    def test_gaussian_market_is_consistent(self):
        spec = MarketSpec(dx=2, dy=1, alpha=np.array([1.0, 2.0]) / math.sqrt(5.0), beta=[1.0],
                          p_components=(gaussian(1.0), gaussian(1.0)),
                          q_components=(gaussian(1.0),))
        report = numeric_counterexample(spec, 1e-8)
        assert abs(report.ratio_cca - report.ratio_true) <= 1e-6

    def test_degenerate_weight_has_zero_covariance(self):
        spec = MarketSpec(dx=2, dy=1, alpha=[1.0, 0.0], beta=[1.0],
                          p_components=(rademacher(), exponential(1.0)),
                          q_components=(uniform01(),))
        report = numeric_counterexample(spec, 1e-9)
        assert abs(report.cov_x2) <= 1e-8

    def test_validates_shape(self):
        spec = MarketSpec(dx=1, dy=1, alpha=[1.0], beta=[1.0],
                          p_components=(uniform01(),), q_components=(uniform01(),))
        with pytest.raises(ValueError):
            numeric_counterexample(spec, 1e-9)

    def test_gaussian_closed_form_matches_quadrature(self):
        spec = MarketSpec(dx=2, dy=1, alpha=[0.6, 0.8], beta=[2.0],
                          p_components=(gaussian(1.0), gaussian(2.0)),
                          q_components=(gaussian(0.7),))
        # cov(X, T) with T = beta * Y the matched y-side index
        cov_x1, cov_x2 = population_moments_gaussian(spec).Sxy @ spec.beta
        quad = numeric_counterexample(spec, 1e-8)
        assert abs(cov_x1 - quad.cov_x1) <= 1e-6
        assert abs(cov_x2 - quad.cov_x2) <= 1e-6


class TestTripleAgreement:
    def test_all_three_routes_agree(self):
        closed = closed_form_counterexample()
        quad = numeric_counterexample(counterexample_market(), 1e-9)
        mc = monte_carlo_counterexample(1_000_000, seed=99)
        assert abs(quad.cov_x1 - closed.cov_x1) <= 1e-8
        assert abs(quad.cov_x2 - closed.cov_x2) <= 1e-8
        assert abs(mc.cov_x1 - closed.cov_x1) <= 3 * mc.stderrs["cov_x1"]
        assert abs(mc.cov_x2 - closed.cov_x2) <= 3 * mc.stderrs["cov_x2"]
        for key, value in closed.expectation_terms.items():
            assert abs(quad.expectation_terms[key] - value) <= 1e-8, key
            assert abs(mc.expectation_terms[key] - value) <= 3 * mc.stderrs[key], key

    def test_monte_carlo_deterministic(self):
        a = monte_carlo_counterexample(10_000, seed=4)
        b = monte_carlo_counterexample(10_000, seed=4)
        assert a.cov_x1 == b.cov_x1 and a.cov_x2 == b.cov_x2
