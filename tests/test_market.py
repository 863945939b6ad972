import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbench import (
    DegenerateIndexError,
    MarketSpec,
    MatchedSample,
    SurplusShape,
    assignment_oracle,
    check_supermodularity,
    counterexample_market,
    gaussian_market,
    rademacher,
    simulate_market,
    surplus,
    uniform01,
)
from matchbench import market
from matchbench.distributions import average_ranks, rank_transform
from matchbench.market import (
    matching_value,
    pair_surplus_matrix,
    rank_sorted_permutation,
)
from matchbench.oracle import population_transfer_map

E2 = math.exp(-2.0)
COV_X1 = (1.0 - E2) / 4.0
COV_X2 = (3.0 * E2 + 1.0) / 8.0


def uniform_1d_market() -> MarketSpec:
    return MarketSpec(
        dx=1, dy=1, alpha=[1.0], beta=[1.0],
        p_components=(uniform01(),), q_components=(uniform01(),),
    )


class TestMarketSpecValidation:
    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            MarketSpec(dx=1, dy=1, alpha=[0.0], beta=[1.0],
                       p_components=(uniform01(),), q_components=(uniform01(),))

    def test_non_spd_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            gaussian_market([[1.0, 2.0], [2.0, 1.0]], [[1.0]], [1.0, 1.0], [1.0])

    def test_both_regimes_on_one_side_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            MarketSpec(dx=1, dy=1, alpha=[1.0], beta=[1.0],
                       p_components=(uniform01(),), p_cov=np.eye(1),
                       q_components=(uniform01(),))

    def test_component_count_must_match_dim(self):
        with pytest.raises(ValueError, match="components"):
            MarketSpec(dx=2, dy=1, alpha=[1.0, 1.0], beta=[1.0],
                       p_components=(uniform01(),), q_components=(uniform01(),))

    def test_json_roundtrip(self):
        for spec in (counterexample_market(),
                     gaussian_market([[1, 0.3], [0.3, 1]], [[2.0]], [1.0, 2.0], [1.0])):
            again = MarketSpec.from_json(spec.to_json())
            assert again.to_json() == spec.to_json()


class TestSimulateMarket:
    def test_identity_market_rank_correlation_one(self):
        sample = simulate_market(uniform_1d_market(), 100, seed=11)
        ru = average_ranks(sample.xs[:, 0])
        rv = average_ranks(sample.ys[:, 0])
        np.testing.assert_array_equal(ru, rv)

    def test_counterexample_covariances(self, counterexample_sample_1m):
        sample = counterexample_sample_1m
        v = sample.ys[:, 0]
        vc = v - v.mean()
        for column, target in ((0, COV_X1), (1, COV_X2)):
            prods = (sample.xs[:, column] - sample.xs[:, column].mean()) * vc
            se = prods.std(ddof=1) / math.sqrt(sample.n)
            assert abs(prods.mean() - target) <= 3 * se

    def test_comonotone_rank_alignment(self):
        spec = counterexample_market()
        sample = simulate_market(spec, 5000, seed=3)
        u = sample.x_index(spec.alpha)
        v = sample.y_index(spec.beta)
        np.testing.assert_array_equal(np.argsort(u, kind="stable"), np.argsort(v, kind="stable"))

    def test_sample_level_comonotone_identity(self):
        spec = counterexample_market()
        sample = simulate_market(spec, 2000, seed=8)
        np.testing.assert_array_equal(
            rank_transform(sample.x_index(spec.alpha)), rank_transform(sample.y_index(spec.beta))
        )

    def test_determinism(self):
        spec = counterexample_market()
        a = simulate_market(spec, 500, seed=21)
        b = simulate_market(spec, 500, seed=21)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)

    def test_degenerate_index_reported(self):
        spec = MarketSpec(dx=1, dy=1, alpha=[1.0], beta=[1.0],
                          p_components=(rademacher(),), q_components=(uniform01(),))
        raised = False
        for seed in range(40):
            try:
                simulate_market(spec, 2, seed=seed)
            except DegenerateIndexError:
                raised = True
                break
        assert raised, "no seed produced a constant two-draw coin index"

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            simulate_market(uniform_1d_market(), 1, seed=0)


class TestTransferMap:
    """The simulated coupling follows the population transfer map."""

    def test_identity_within_sampling_noise(self):
        sample = simulate_market(uniform_1d_market(), 100_000, seed=5)
        assert np.max(np.abs(sample.ys[:, 0] - sample.xs[:, 0])) < 0.01

    def test_gaussian_map_linear(self):
        spec = gaussian_market([[1, 0.3], [0.3, 1]], [[1, -0.2], [-0.2, 1]], [1.0, 2.0], [3.0, 1.0])
        sample = simulate_market(spec, 100_000, seed=6)
        u, v = sample.x_index(spec.alpha), sample.y_index(spec.beta)
        slope, intercept = np.polyfit(u, v, 1)
        residual = v - (slope * u + intercept)
        assert 1.0 - residual.var() / v.var() >= 0.999

    def test_counterexample_map_is_the_mixture_cdf(self):
        spec = counterexample_market()
        sample = simulate_market(spec, 100_000, seed=7)
        tmap = population_transfer_map(spec, 1e-9)
        assert np.max(np.abs(sample.ys[:, 0] - tmap(sample.x_index(spec.alpha)))) < 0.01


class TestSurplus:
    def test_product_value(self):
        spec = MarketSpec(dx=2, dy=1, alpha=[1.0, 1.0], beta=[1.0],
                          p_components=(uniform01(), uniform01()), q_components=(uniform01(),))
        assert surplus(spec, np.array([1.5, 0.5]), np.array([3.0])) == 6.0

    def test_depends_only_on_selected_coordinates(self):
        spec = MarketSpec(dx=3, dy=1, alpha=[1.0, 0.0, 0.0], beta=[1.0],
                          p_components=(uniform01(),) * 3, q_components=(uniform01(),))
        assert surplus(spec, np.array([2.0, 9.0, -4.0]), np.array([1.5])) == 3.0

    def test_dimension_mismatch(self):
        spec = uniform_1d_market()
        with pytest.raises(ValueError):
            surplus(spec, np.array([1.0, 2.0]), np.array([1.0]))


class TestSupermodularity:
    def test_product_true(self):
        assert check_supermodularity(SurplusShape.product(), [0.0, 1.0], [0.0, 1.0])

    def test_negated_product_false(self):
        assert not check_supermodularity(SurplusShape.custom(lambda s, t: -s * t), [0.0, 1.0], [0.0, 1.0])

    def test_min_true(self):
        shape = SurplusShape.custom(lambda s, t: min(s, t))
        assert check_supermodularity(shape, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])

    def test_factory_rejects_submodular(self):
        with pytest.raises(ValueError):
            SurplusShape.custom_supermodular(lambda s, t: -s * t, [0.0, 1.0], [0.0, 1.0])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            check_supermodularity(SurplusShape.product(), [0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            check_supermodularity(SurplusShape.product(), [1.0, 0.0], [0.0, 1.0])

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=6, unique=True),
           st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=6, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_product_supermodular_on_any_grid(self, s, t):
        assert check_supermodularity(SurplusShape.product(), sorted(s), sorted(t))


class TestAssignmentOracle:
    def test_two_point_supermodular_sort(self):
        spec = uniform_1d_market()
        perm, value = assignment_oracle([[1.0], [2.0]], [[1.0], [2.0]], spec)
        assert perm == (0, 1)
        assert value == 5.0

    def test_two_point_submodular_antisorts(self):
        spec = MarketSpec(dx=1, dy=1, alpha=[1.0], beta=[1.0],
                          p_components=(uniform01(),), q_components=(uniform01(),),
                          phi=SurplusShape.custom(lambda s, t: -s * t))
        perm, value = assignment_oracle([[1.0], [2.0]], [[1.0], [2.0]], spec)
        assert perm == (1, 0)
        assert value == -4.0

    def test_matches_rank_sorted_matching(self, rng):
        spec = uniform_1d_market()
        for _ in range(12):
            n = int(rng.integers(2, 9))
            xs = rng.normal(size=(n, 1))
            ys = rng.normal(size=(n, 1))
            perm, value = assignment_oracle(xs, ys, spec)
            sorted_perm = rank_sorted_permutation(xs, ys, spec)
            pair = pair_surplus_matrix(xs, ys, spec)
            assert value == matching_value(pair, sorted_perm)
            assert perm == sorted_perm

    def test_matches_rank_sorted_under_custom_supermodular(self, rng):
        shape = SurplusShape.custom_supermodular(
            lambda s, t: s * t + min(s, t), [-2.0, 0.0, 2.0], [-2.0, 0.0, 2.0]
        )
        spec = MarketSpec(dx=1, dy=1, alpha=[1.0], beta=[1.0],
                          p_components=(uniform01(),), q_components=(uniform01(),),
                          phi=shape)
        for _ in range(8):
            n = int(rng.integers(2, 8))
            xs = rng.normal(size=(n, 1))
            ys = rng.normal(size=(n, 1))
            _, value = assignment_oracle(xs, ys, spec)
            pair = pair_surplus_matrix(xs, ys, spec)
            assert value == matching_value(pair, rank_sorted_permutation(xs, ys, spec))

    def test_rejects_large_n(self):
        spec = uniform_1d_market()
        xs = np.arange(11.0).reshape(-1, 1)
        with pytest.raises(ValueError):
            assignment_oracle(xs, xs, spec)


class TestCsvRoundTrip:
    def test_values_and_bytes(self, tmp_path):
        spec = counterexample_market()
        sample = simulate_market(spec, 200, seed=13)
        path = tmp_path / "sample.csv"
        sample.to_csv(path)
        again = MatchedSample.from_csv(path)
        np.testing.assert_array_equal(sample.xs, again.xs)
        np.testing.assert_array_equal(sample.ys, again.ys)
        path2 = tmp_path / "sample2.csv"
        again.to_csv(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bytes_match_csv_writer_across_blocks(self, tmp_path):
        n = market._CSV_BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 2))
        xs[:3] = [[0.0, -0.0], [5e-324, 1.7976931348623157e308], [0.1, 123456789012345678.0]]
        sample = MatchedSample(xs=xs, ys=np.arange(n, dtype=float).reshape(-1, 1) / 3.0)
        path = tmp_path / "sample.csv"
        sample.to_csv(path)
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(["x1", "x2", "y1"])
        for xr, yr in zip(sample.xs, sample.ys):
            writer.writerow([format(v, ".17g") for v in xr] + [format(v, ".17g") for v in yr])
        assert path.read_bytes() == reference.getvalue().encode()
