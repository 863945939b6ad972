import json
import math

import numpy as np
import pytest

from matchbench import (
    MatchedSample,
    MomentSet,
    NumericalError,
    cca,
    closed_form_counterexample,
    compute_moments,
    counterexample_market,
    exponential,
    gaussian,
    gaussian_market,
    mrs_estimate,
    normalize_weights,
    numeric_counterexample,
    ols_index,
    population_moments_gaussian,
    rademacher,
    simulate_market,
    uniform01,
)
from matchbench.estimators import _derivatives_at, _mrs_design, _pairwise_sum, kernel_regression
from matchbench.market import MarketSpec

E2 = math.exp(-2.0)
COV_X1 = (1.0 - E2) / 4.0
COV_X2 = (3.0 * E2 + 1.0) / 8.0
CCA_RATIO = (3.0 + math.exp(2.0)) / (2.0 * math.exp(2.0) - 2.0)


def random_sample(rng, n=400, dx=3, dy=2, noise=0.3) -> MatchedSample:
    xs = rng.normal(size=(n, dx))
    alpha = rng.normal(size=dx)
    base = xs @ alpha
    ys = np.column_stack([base + noise * rng.normal(size=n) for _ in range(dy)])
    ys[:, 1:] += rng.normal(size=(n, dy - 1)) if dy > 1 else 0.0
    return MatchedSample(xs=xs, ys=ys)


class TestNormalizeWeights:
    def test_unit_norm_and_sign(self):
        w = normalize_weights([-3.0, 4.0])
        np.testing.assert_allclose(w, [0.6, -0.8])
        assert abs(np.linalg.norm(w) - 1.0) < 1e-15

    def test_leading_zero_skipped(self):
        w = normalize_weights([0.0, -2.0])
        np.testing.assert_allclose(w, [0.0, 1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize_weights([0.0, 0.0])


class TestComputeMoments:
    def test_identical_rows_give_zero(self):
        sample = MatchedSample(xs=np.ones((5, 2)), ys=np.full((5, 1), 3.0))
        m = compute_moments(sample)
        assert not m.Sxx.any() and not m.Syy.any() and not m.Sxy.any()

    def test_two_couples_by_hand(self):
        sample = MatchedSample(xs=[[-1.0], [1.0]], ys=[[-1.0], [1.0]])
        m = compute_moments(sample)
        assert m.Sxy[0, 0] == 1.0
        assert m.Sxx[0, 0] == 1.0

    def test_counterexample_cross_moments(self, counterexample_sample_1m):
        sample = counterexample_sample_1m
        m = compute_moments(sample)
        vc = sample.ys[:, 0] - sample.ys[:, 0].mean()
        for column, target in ((0, COV_X1), (1, COV_X2)):
            xc = sample.xs[:, column] - sample.xs[:, column].mean()
            se = (xc * vc).std(ddof=1) / math.sqrt(sample.n)
            assert abs(m.Sxy[column, 0] - target) <= 3 * se

    def test_divisor_is_n(self):
        sample = MatchedSample(xs=[[0.0], [2.0]], ys=[[0.0], [2.0]])
        assert compute_moments(sample).Sxx[0, 0] == 1.0  # divisor n=2, not n-1

    def test_symmetric_psd_and_cauchy_schwarz(self, rng):
        for _ in range(10):
            sample = random_sample(rng, n=150, dx=3, dy=2)
            m = compute_moments(sample)
            np.testing.assert_allclose(m.Sxx, m.Sxx.T, atol=1e-14)
            np.testing.assert_allclose(m.Syy, m.Syy.T, atol=1e-14)
            assert np.linalg.eigvalsh(m.Sxx).min() >= -1e-12
            assert np.linalg.eigvalsh(m.Syy).min() >= -1e-12
            bound = np.sqrt(np.outer(np.diag(m.Sxx), np.diag(m.Syy)))
            assert np.all(np.abs(m.Sxy) <= bound + 1e-12)


class TestCca:
    def test_scalar_case_objective_is_correlation(self, rng):
        xs = rng.normal(size=(300, 1))
        ys = -0.8 * xs + 0.4 * rng.normal(size=(300, 1))
        m = compute_moments(MatchedSample(xs=xs, ys=ys))
        corr = abs(m.Sxy[0, 0]) / math.sqrt(m.Sxx[0, 0] * m.Syy[0, 0])
        result = cca(m)
        assert abs(result.objective - corr) < 1e-12

    def test_gaussian_population_recovery(self):
        spec = gaussian_market([[1, 0.3], [0.3, 1]], [[1, -0.2], [-0.2, 1]],
                               np.array([1.0, 2.0]) / math.sqrt(5.0),
                               np.array([3.0, 1.0]) / math.sqrt(10.0))
        result = cca(population_moments_gaussian(spec))
        assert np.max(np.abs(result.alpha_hat - normalize_weights(spec.alpha))) < 1e-6
        assert np.max(np.abs(result.beta_hat - normalize_weights(spec.beta))) < 1e-6
        assert abs(result.objective - 1.0) < 1e-6

    def test_counterexample_population_ratio(self):
        # exact moments of the benchmark market: identity x covariance, uniform y variance
        report = closed_form_counterexample()
        moments = MomentSet(Sxx=np.eye(2), Syy=np.array([[1.0 / 12.0]]),
                            Sxy=np.array([[report.cov_x1], [report.cov_x2]]))
        result = cca(moments)
        assert abs(result.alpha_hat[1] / result.alpha_hat[0] - CCA_RATIO) < 1e-9
        assert abs(result.alpha_hat[1] / result.alpha_hat[0] - 1.0) > 0.15

    def test_raw_weights_satisfy_unit_variance(self, rng):
        sample = random_sample(rng)
        m = compute_moments(sample)
        result = cca(m)
        a = result.diagnostics["alpha_raw"]
        b = result.diagnostics["beta_raw"]
        assert abs(a @ m.Sxx @ a - 1.0) < 1e-10
        assert abs(b @ m.Syy @ b - 1.0) < 1e-10
        assert 0.0 <= result.objective <= 1.0 + 1e-10

    def test_invariance_under_linear_maps(self, rng):
        sample = random_sample(rng)
        mx = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
        my = np.eye(2) + 0.2 * rng.normal(size=(2, 2))
        mapped = MatchedSample(xs=sample.xs @ mx.T, ys=sample.ys @ my.T)
        r1 = cca(compute_moments(sample))
        r2 = cca(compute_moments(mapped))
        assert abs(r1.objective - r2.objective) < 1e-9
        series1 = sample.xs @ r1.diagnostics["alpha_raw"]
        series2 = mapped.xs @ r2.diagnostics["alpha_raw"]
        gap = min(np.max(np.abs(series1 - series2)), np.max(np.abs(series1 + series2)))
        assert gap < 1e-9

    def test_rank_deficient_rejected(self):
        with pytest.raises(NumericalError):
            cca(MomentSet(Sxx=np.zeros((2, 2)), Syy=np.eye(1), Sxy=np.zeros((2, 1))))


class TestOls:
    def test_exact_linear_recovery(self, rng):
        xs = rng.normal(size=(200, 2))
        alpha = np.array([0.6, -1.1])
        sample = MatchedSample(xs=xs, ys=(xs @ alpha).reshape(-1, 1))
        result = ols_index(sample)
        np.testing.assert_allclose(result.diagnostics["alpha_raw"], alpha, atol=1e-12)
        assert result.diagnostics["residual_variance"] < 1e-24

    def test_agrees_with_cca_for_scalar_y(self, rng):
        for _ in range(20):
            sample = random_sample(rng, n=300, dx=3, dy=1)
            r_ols = ols_index(sample)
            r_cca = cca(compute_moments(sample))
            assert np.max(np.abs(r_ols.alpha_hat - r_cca.alpha_hat)) < 1e-8
            assert np.max(np.abs(r_ols.beta_hat - r_cca.beta_hat)) < 1e-8

    def test_gaussian_market_dy2(self):
        spec = gaussian_market([[1, 0.3], [0.3, 1]], [[1, -0.2], [-0.2, 1]],
                               [1.0, 2.0], [3.0, 1.0])
        sample = simulate_market(spec, 100_000, seed=17)
        result = ols_index(sample)
        assert np.max(np.abs(result.beta_hat - normalize_weights(spec.beta))) < 0.02
        assert np.max(np.abs(result.alpha_hat - normalize_weights(spec.alpha))) < 0.02

    def test_constraint_diagnostics_present(self, rng):
        sample = random_sample(rng, dy=2)
        result = ols_index(sample)
        assert result.diagnostics["constraint_A"] > 0
        assert result.diagnostics["constraint_B"] > 0
        assert result.beta_hat[0] > 0  # first coordinate pinned positive by normalization

    def test_constant_response_is_numerical_error(self, rng):
        # the fit has all-zero x weights; normalize_weights alone would raise ValueError
        sample = MatchedSample(xs=rng.normal(size=(50, 2)), ys=np.full((50, 1), 3.0))
        with pytest.raises(NumericalError, match="all-zero x weights"):
            ols_index(sample)

    def test_collinear_regressors_rejected(self, rng):
        xs = rng.normal(size=(100, 1))
        xs = np.hstack([xs, xs])  # duplicated column
        sample = MatchedSample(xs=xs, ys=rng.normal(size=(100, 1)))
        with pytest.raises(NumericalError):
            ols_index(sample)


def consistency_residual(spec: MarketSpec, report) -> float:
    """|a1 cov_x2 - a2 cov_x1|: zero exactly when the covariance ratio equals
    the weight ratio, written cross-multiplied so a zero weight is no division."""
    a1, a2 = spec.alpha
    return abs(a1 * report.cov_x2 - a2 * report.cov_x1)


class TestConsistencyCondition:
    def test_linear_map_passes(self):
        spec = MarketSpec(dx=2, dy=1, alpha=np.array([1.0, 2.0]) / math.sqrt(5.0), beta=[1.0],
                          p_components=(gaussian(1.0), gaussian(1.0)),
                          q_components=(gaussian(1.0),))
        tol = 1e-8
        report = numeric_counterexample(spec, tol)
        assert consistency_residual(spec, report) <= 10 * tol
        assert abs(spec.alpha[0] / spec.alpha[1] - report.cov_x1 / report.cov_x2) < 1e-6

    def test_counterexample_fails_with_known_ratio(self):
        spec, tol = counterexample_market(), 1e-9
        report = numeric_counterexample(spec, tol)
        assert consistency_residual(spec, report) > 10 * tol
        assert abs(report.cov_x2 / report.cov_x1 - CCA_RATIO) < 1e-6

    def test_degenerate_weight_passes_by_independence(self):
        spec = MarketSpec(dx=2, dy=1, alpha=[1.0, 0.0], beta=[1.0],
                          p_components=(rademacher(), exponential(1.0)),
                          q_components=(uniform01(),))
        tol = 1e-9
        report = numeric_counterexample(spec, tol)
        assert consistency_residual(spec, report) <= 10 * tol
        assert abs(report.cov_x2) <= 1e-8


class TestPopulationMoments:
    def test_rejects_non_gaussian_components(self):
        with pytest.raises(ValueError):
            population_moments_gaussian(counterexample_market())

    def test_diagonal_component_form(self):
        spec = MarketSpec(dx=2, dy=1, alpha=[1.0, 1.0], beta=[2.0],
                          p_components=(gaussian(1.0), gaussian(3.0)),
                          q_components=(gaussian(0.5),))
        m = population_moments_gaussian(spec)
        np.testing.assert_allclose(np.diag(m.Sxx), [1.0, 9.0])
        result = cca(m)
        assert abs(result.objective - 1.0) < 1e-12


# json.dumps(report, sort_keys=True) of mrs_estimate on the benchmark market
# (n = 5,000, seed 61) and on a Gaussian dx=3, dy=2 market (n = 3,000,
# seed 62), recorded while MRS still had its own result type; the report
# file is this dict, so a change that moves it should be deliberate
PINNED_MRS_BENCHMARK = (
    '{"alpha": [0.0, 1.0], "beta": [1.0], "diagnostics": {"bandwidth_rule": "1.06*sd*n^(-1/5)", '
    '"bandwidths": [0.19297677957369433, 0.19551066370809408], "derivative_step": "h/2", "dy": 1, '
    '"eval_point_count": 100, "median_derivatives": [0.0, 0.22485741808314688], "n": 5000, '
    '"ratio_matrix": [[null, 0.0], [null, 1.0]], "response_coordinate": 0, "stable": [false, true]}, '
    '"method": "mrs", "objective": null}'
)
PINNED_MRS_GAUSSIAN_3X2 = (
    '{"alpha": [0.2555288025645933, 0.48479156880226953, 0.8364700627506877], "beta": [1.0, 0.0], '
    '"diagnostics": {"bandwidth_rule": "1.06*sd*n^(-1/5)", '
    '"bandwidths": [0.2163968396404109, 0.21025902835987215, 0.2077007912897887], '
    '"derivative_step": "h/2", "dy": 2, "eval_point_count": 100, '
    '"median_derivatives": [0.24228226189079183, 0.45966011133053514, 0.7931076918655373], "n": 3000, '
    '"ratio_matrix": [[1.0, 0.5429038798724279, 0.31586604110924743], '
    '[1.838245327734012, 1.0, 0.6006850980084704], [3.1456836455411854, 1.6648966996315275, 1.0]], '
    '"response_coordinate": 0, "stable": [false, false, true]}, "method": "mrs", "objective": null}'
)


class TestMrs:
    def test_linear_single_index_ratio(self, rng):
        xs = rng.normal(size=(10_000, 2))
        alpha = np.array([1.0, 2.0]) / math.sqrt(5.0)
        sample = MatchedSample(xs=xs, ys=(xs @ alpha).reshape(-1, 1))
        result = mrs_estimate(sample)
        assert abs(result.diagnostics["ratio_matrix"][0, 1] - 0.5) < 0.1
        assert result.diagnostics["stable"].all()

    def test_independent_response_flagged_unstable(self, rng):
        sample = MatchedSample(xs=rng.normal(size=(10_000, 2)), ys=rng.normal(size=(10_000, 1)))
        result = mrs_estimate(sample)
        assert not result.diagnostics["stable"].any()

    def test_discrete_attribute_has_no_kernel_derivative(self):
        # the coin coordinate of the benchmark market sits 2/h bandwidths from
        # its twin atom, so its fitted partial derivative is numerically zero
        sample = simulate_market(counterexample_market(), 20_000, seed=19)
        derivatives = _derivatives_at(sample, *_mrs_design(sample))
        assert np.max(np.abs(derivatives[:, 0])) < 1e-9
        assert not mrs_estimate(sample).diagnostics["stable"][0]

    def test_derivatives_match_refit_at_shifted_points(self, rng):
        xs = rng.normal(size=(2_000, 2))
        sample = MatchedSample(xs=xs, ys=(xs @ np.array([1.0, 1.0])).reshape(-1, 1))
        _, h = _mrs_design(sample)
        derivatives = _derivatives_at(sample, xs[:5], h)
        for i in range(2):
            step = np.zeros(2)
            step[i] = h[i] / 2.0
            refit = (kernel_regression(sample, xs[:5] + step, h)
                     - kernel_regression(sample, xs[:5] - step, h)) / h[i]
            np.testing.assert_allclose(derivatives[:, i], refit, atol=1e-6)

    def test_zero_variance_attribute_rejected(self):
        sample = MatchedSample(xs=np.column_stack([np.ones(50), np.arange(50.0)]),
                               ys=np.arange(50.0).reshape(-1, 1))
        with pytest.raises(NumericalError):
            mrs_estimate(sample)

    @pytest.mark.parametrize("sample, expected", [
        (lambda: simulate_market(counterexample_market(), 5_000, seed=61), PINNED_MRS_BENCHMARK),
        (lambda: simulate_market(gaussian_market(np.eye(3), np.eye(2), [1.0, 2.0, 3.0], [3.0, 1.0]), 3_000, seed=62),
         PINNED_MRS_GAUSSIAN_3X2),
    ], ids=["benchmark", "gaussian-3x2"])
    def test_report_pinned(self, sample, expected):
        assert json.dumps(mrs_estimate(sample()).to_json_dict(), sort_keys=True) == expected


def broadcast_kernel_regression(sample, points, bandwidths):
    """The (points, n, dx) broadcast form of kernel_regression, kept as its reference."""
    X = sample.xs
    y = sample.ys[:, 0]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    h = np.asarray(bandwidths, dtype=float)
    out = np.empty(pts.shape[0])
    chunk = max(1, int(2e6 // max(1, X.shape[0])))
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        z = (block[:, None, :] - X[None, :, :]) / h
        logw = -0.5 * np.sum(z * z, axis=2)
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        out[start : start + chunk] = (w @ y) / w.sum(axis=1)
    return out


class TestKernelRegression:
    @pytest.mark.parametrize("dx", [1, 2, 3])
    def test_bit_identical_to_broadcast_form(self, rng, dx):
        # n = 2e4 puts 100 points in a block, so 250 points take three blocks
        sample = random_sample(rng, n=20_000, dx=dx, dy=2)
        points = 1.5 * rng.normal(size=(250, dx))
        h = 1.06 * sample.xs.std(axis=0) * sample.n ** -0.2
        expected = broadcast_kernel_regression(sample, points, h)
        assert np.array_equal(kernel_regression(sample, points, h), expected)

    @pytest.mark.parametrize("dx", [8, 9, 17])
    def test_bit_identical_where_numpy_sums_pairwise(self, rng, dx):
        sample = random_sample(rng, n=2_000, dx=dx, dy=1)
        points = rng.normal(size=(4, dx))
        h = 3.0 * sample.xs.std(axis=0)
        expected = broadcast_kernel_regression(sample, points, h)
        assert np.array_equal(kernel_regression(sample, points, h), expected)

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 16, 23, 128, 129, 130, 300])
    def test_pairwise_sum_adds_in_numpy_order(self, rng, count):
        terms = rng.normal(size=(3, 40, count)) ** 2
        total = _pairwise_sum(lambda j: terms[..., j].copy(), 0, count)
        assert np.array_equal(total, np.sum(terms, axis=2))

    @pytest.mark.parametrize("points", [[[0.1], [0.2]], [0.1, 0.2, 0.3], np.zeros((2, 2, 2))],
                             ids=["one_column", "three_values", "three_dims"])
    def test_points_without_dx_columns_rejected(self, rng, points):
        sample = random_sample(rng, n=200, dx=2, dy=1)
        with pytest.raises(ValueError, match="dx=2 columns"):
            kernel_regression(sample, points, [0.3, 0.3])

    @pytest.mark.parametrize(
        "bandwidths",
        [0.3, [0.3], [0.3, 0.3, 0.3], [0.3, math.nan], [math.inf, 0.3], [0.3, 0.0], [-0.3, 0.3]],
        ids=["scalar", "one", "three", "nan", "inf", "zero", "negative"],
    )
    def test_bandwidths_must_be_dx_finite_positive(self, rng, bandwidths):
        sample = random_sample(rng, n=200, dx=2, dy=1)
        with pytest.raises(NumericalError, match="bandwidth degenerate"):
            kernel_regression(sample, [[0.0, 0.0]], bandwidths)
