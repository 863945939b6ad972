import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from matchbench import (
    DistributionModel,
    counterexample_market,
    exponential,
    gaussian,
    rademacher,
    uniform01,
)
from matchbench.distributions import (
    average_ranks,
    scaled_cdf,
    scaled_quantile,
    scaled_sf,
    seed_streams,
)
from matchbench.oracle import population_transfer_map

ALL_KINDS = [gaussian(0.7), gaussian(2.0), rademacher(), exponential(1.0), exponential(3.0), uniform01()]
CONTINUOUS = [d for d in ALL_KINDS if d.is_continuous]


def draw(dist: DistributionModel, n: int, seed: int) -> np.ndarray:
    return dist.draw(n, seed_streams(seed, 1)[0])


class TestSampling:
    def test_rademacher_support(self):
        values = draw(rademacher(), 4, seed=1)
        assert set(np.unique(values)) <= {-1.0, 1.0}

    def test_exponential_mean(self):
        values = draw(exponential(1.0), 10**6, seed=2)
        assert abs(values.mean() - 1.0) < 0.005

    def test_uniform_variance(self):
        values = draw(uniform01(), 10**6, seed=3)
        assert abs(values.var() - 1.0 / 12.0) < 0.001

    def test_deterministic_per_seed(self):
        a = draw(gaussian(1.0), 100, seed=5)
        b = draw(gaussian(1.0), 100, seed=5)
        c = draw(gaussian(1.0), 100, seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_streams_independent_of_consumption_order(self):
        s1 = seed_streams(9, 3)
        s2 = seed_streams(9, 3)
        first = s1[2].normal(size=4)
        _ = s2[0].normal(size=100)  # consuming another stream first must not matter
        np.testing.assert_array_equal(first, s2[2].normal(size=4))


class TestCdfQuantile:
    def test_exponential_cdf_values(self):
        d = exponential(1.0)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(-1.0) == 0.0
        assert abs(d.cdf(2.0) - (1.0 - math.exp(-2.0))) < 1e-15

    def test_quantile_examples(self):
        assert uniform01().quantile(0.5) == 0.5
        assert abs(exponential(1.0).quantile(1.0 - math.exp(-2.0)) - 2.0) < 1e-12
        assert rademacher().quantile(0.25) == -1.0
        assert rademacher().quantile(0.5) == -1.0
        assert rademacher().quantile(0.75) == 1.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_quantile_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            uniform01().quantile(p)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: f"{d.kind}-{d.param}")
    def test_cdf_monotone(self, dist, rng):
        z = np.sort(rng.uniform(-10, 10, size=10_000))
        values = dist.cdf(z)
        assert np.all(np.diff(values) >= 0)
        assert np.all((values >= 0) & (values <= 1))

    @pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: f"{d.kind}-{d.param}")
    def test_quantile_cdf_roundtrip(self, dist, rng):
        p = rng.uniform(0.001, 0.999, size=10_000)
        z = dist.quantile(p)
        assert np.max(np.abs(dist.quantile(dist.cdf(z)) - z)) < 1e-10

    def test_invalid_kind_and_params(self):
        with pytest.raises(ValueError):
            DistributionModel("cauchy")
        with pytest.raises(ValueError):
            DistributionModel("gaussian", -1.0)
        with pytest.raises(ValueError):
            DistributionModel("uniform01", 2.0)

    def test_json_roundtrip(self):
        for d in ALL_KINDS:
            assert DistributionModel.from_json(d.to_json()) == d


class TestUpperTail:
    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: f"{d.kind}-{d.param}")
    def test_sf_complements_cdf(self, dist, rng):
        z = np.concatenate([rng.uniform(-5, 5, size=1000), [-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(dist.cdf(z) + dist.sf(z), 1.0, atol=1e-15)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: f"{d.kind}-{d.param}")
    def test_isf_is_quantile_of_complement(self, dist, rng):
        s = np.concatenate([rng.uniform(0.001, 0.999, size=1000), [0.25, 0.5, 0.75]])
        np.testing.assert_allclose(dist.isf(s), dist.quantile(1.0 - s), rtol=1e-9, atol=1e-12)

    def test_far_tail_keeps_precision(self):
        assert gaussian(1.0).sf(10.0) == pytest.approx(0.5 * math.erfc(10.0 / math.sqrt(2.0)), rel=1e-14)
        assert exponential(2.0).sf(25.0) == pytest.approx(math.exp(-50.0), rel=1e-14)
        for dist, z in ((gaussian(1.0), 30.0), (gaussian(2.5), 60.0), (exponential(1.0), 700.0)):
            assert dist.isf(dist.sf(z)) == pytest.approx(z, rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.1, 1.5])
    def test_isf_rejects_out_of_range(self, s):
        with pytest.raises(ValueError):
            exponential(1.0).isf(s)

    @pytest.mark.parametrize("tail", ["quantile", "isf"])
    @pytest.mark.parametrize("dist", [gaussian(0.7), rademacher(), exponential(1.0), uniform01()],
                             ids=lambda d: d.kind)
    def test_nan_probability_rejected(self, dist, tail):
        # nan fails every comparison, so the range check must not let it through
        for p in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="strictly inside"):
                getattr(dist, tail)(p)


class TestScaledHelpers:
    def test_scaled_quantile_inverts_scaled_cdf(self, rng):
        for dist in CONTINUOUS:
            for scale in (2.0, -0.5):
                p = rng.uniform(0.01, 0.99, size=100)
                t = scaled_quantile(dist, scale, p)
                np.testing.assert_allclose(scaled_cdf(dist, scale, t), p, atol=1e-10)

    @pytest.mark.parametrize("scale", [2.0, -0.5])
    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: f"{d.kind}-{d.param}")
    def test_scaled_sf_complements_scaled_cdf(self, dist, scale, rng):
        t = rng.uniform(-4, 4, size=500)
        np.testing.assert_allclose(scaled_cdf(dist, scale, t) + scaled_sf(dist, scale, t), 1.0, atol=1e-15)

    def test_negative_scale_reflection_keeps_tail(self):
        # P(-Z <= -40) = P(Z >= 40) = e^-40, which 1 - cdf(40) rounds to 0
        assert scaled_cdf(exponential(1.0), -1.0, -40.0) == pytest.approx(math.exp(-40.0), rel=1e-14)
        # ... and the quantile of -Z at that level is -40, where 1 - p rounds to 1
        assert scaled_quantile(exponential(1.0), -1.0, math.exp(-40.0)) == pytest.approx(-40.0, rel=1e-14)

    @pytest.mark.parametrize("z", [6.0, 8.0, 9.0, 12.0, 30.0])
    def test_complement_keeps_upper_tail_of_quantile(self, z):
        d = gaussian(1.0)
        assert scaled_quantile(d, 1.0, d.cdf(-z), d.sf(-z)) == pytest.approx(-z, rel=1e-12)
        assert scaled_quantile(d, 1.0, d.cdf(z), d.sf(z)) == pytest.approx(z, rel=1e-12)

    def test_complement_matches_plain_quantile_in_the_body(self, rng):
        p = rng.uniform(0.01, 0.99, size=200)
        for dist in CONTINUOUS:
            for scale in (2.0, -0.5):
                np.testing.assert_allclose(
                    scaled_quantile(dist, scale, p, 1.0 - p), scaled_quantile(dist, scale, p), rtol=1e-12, atol=1e-12
                )

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled_cdf(uniform01(), 0.0, 0.3)


# the first Gaussian tail call imports scipy.special; four threads make it
# at once, and each result must equal the serial one bit for bit
FIRST_GAUSSIAN_CALL_FROM_THREADS = """
import sys, threading
import numpy as np
from matchbench.distributions import gaussian, scaled_cdf, scaled_quantile, scaled_sf
assert "scipy.special" not in sys.modules
dist, t = gaussian(0.7), np.linspace(-40.0, 40.0, 2001)
p = np.linspace(0.0, 1.0, 2002)[1:-1]
def calls():
    return [scaled_cdf(dist, -1.5, t), scaled_sf(dist, 2.0, t), scaled_quantile(dist, -0.5, p, 1.0 - p)]
barrier, results = threading.Barrier(4), [None] * 4
def work(i):
    barrier.wait()
    results[i] = calls()
threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
serial = [a.tobytes() for a in calls()]
print(all([a.tobytes() for a in r] == serial for r in results))
"""


def test_first_gaussian_call_from_threads(fresh_python):
    assert fresh_python("-c", FIRST_GAUSSIAN_CALL_FROM_THREADS).strip() == "True"


class TestEmpiricalCDF:
    """A sample's own empirical CDF is its average ranks over n + 1, with
    ties sharing the mean of their positions."""

    def test_rank_of_three(self):
        assert average_ranks([3, 1, 2])[2] == 2.0

    def test_average_tie_rule(self):
        assert average_ranks([1, 1, 2])[0] == 1.5

    def test_single_point(self):
        assert average_ranks([5])[0] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            average_ranks([])

    def test_order_statistics(self, rng):
        values = rng.normal(size=100)
        out = average_ranks(values)
        np.testing.assert_array_equal(out[np.argsort(values)], np.arange(1, 101))

    def test_mean_exactly_half(self, rng):
        distinct = rng.normal(size=257)
        assert np.mean(average_ranks(distinct) / 258) == 0.5
        tied = rng.integers(0, 5, size=200).astype(float)
        assert np.mean(average_ranks(tied) / 201) == 0.5

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_average_rank_convention(self, values):
        got = average_ranks(values)
        np.testing.assert_allclose(got, rankdata(values, method="average"), atol=0)

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_interior(self, values):
        order = np.argsort(values, kind="stable")
        out = average_ranks(values)[order] / (len(values) + 1)
        assert np.all(np.diff(out) >= 0)
        assert np.all((out > 0) & (out < 1))


def _searchsorted_ranks(values) -> np.ndarray:
    """The reference: the average rank of each value is its left insertion
    point into the sorted copy plus the mean 1-based position within its tie
    block, both read off by searchsorted."""
    arr = np.asarray(values, dtype=float)
    ordered = np.sort(arr)
    lo = np.searchsorted(ordered, arr, side="left")
    hi = np.searchsorted(ordered, arr, side="right")
    return (lo + (hi - lo + 1) / 2.0).astype(float)


class TestAverageRanks:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rng.normal(size=5000),
            lambda rng: np.round(rng.normal(size=5000), 1),
            lambda rng: rademacher().draw(5000, rng),
            lambda rng: np.full(300, 2.5),
            lambda rng: np.array([7.0]),
            lambda rng: np.array([0.0, -0.0, 1.0, -0.0, -1.0, 0.0]),
        ],
        ids=["continuous", "rounded", "rademacher", "all_equal", "single", "signed_zeros"],
    )
    def test_bit_identical_to_searchsorted(self, rng, make):
        values = make(rng)
        got = average_ranks(values)
        assert got.dtype == np.float64
        assert got.tobytes() == _searchsorted_ranks(values).tobytes()

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50),
        st.lists(st.integers(0, 49), max_size=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_with_forced_duplicates(self, values, picks):
        values = values + [values[i % len(values)] for i in picks]
        assert average_ranks(values).tobytes() == _searchsorted_ranks(values).tobytes()

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50),
        st.lists(st.integers(0, 49), max_size=50),
        st.lists(st.sampled_from([0.0, -0.0]), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_negation_reverses_ranks_exactly(self, values, picks, zeros):
        # the identity behind the 1-D rank shortcut and the antipodal half
        # of the Spearman grid: the ranks of -u are n + 1 - r_u, ties included
        values = values + [values[i % len(values)] for i in picks] + zeros
        arr = np.array(values)
        expected = (arr.size + 1) - average_ranks(arr)
        assert average_ranks(-arr).tobytes() == expected.tobytes()

    def test_rank_transform_is_the_empirical_cdf(self, rng):
        values = np.round(rng.normal(size=1000), 1)
        expected = _searchsorted_ranks(values) / (values.size + 1)
        assert (average_ranks(values) / (values.size + 1)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            average_ranks([1.0, bad, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_ranks([])


class TestMixtureIndexCdf:
    """With a U[0, 1] partner index, the benchmark market's population
    transfer map is the CDF of its x index (X1 + X2)/sqrt(2): a two-atom
    mixture of shifted exponentials. The map keeps its probabilities at
    or above the smallest positive double, so below the support it reads
    5e-324 rather than 0."""

    T = staticmethod(population_transfer_map(counterexample_market(), 1e-9))

    def test_infimum_of_support(self):
        assert self.T(-1.0 / math.sqrt(2.0)) <= 1e-300

    def test_at_lower_atom_edge(self):
        expected = 0.5 * (1.0 - math.exp(-2.0))
        assert abs(self.T(1.0 / math.sqrt(2.0)) - expected) < 1e-15

    def test_upper_limit(self):
        assert abs(self.T(60.0) - 1.0) < 1e-15

    def test_monotone_valid_cdf(self):
        z = np.linspace(-2, 30, 5000)
        out = self.T(z)
        assert np.all(np.diff(out) >= 0)
        assert out[0] <= 1e-300 and abs(out[-1] - 1.0) < 1e-12

    def test_against_simulated_index(self):
        n = 10**6
        s1, s2 = seed_streams(77, 2)
        x1 = rademacher().draw(n, s1)
        x2 = exponential(1.0).draw(n, s2)
        index = (x1 + x2) / math.sqrt(2.0)
        for q in (-0.5, 0.0, 0.3, 0.7071, 1.5, 3.0):
            p = self.T(q)
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(np.mean(index <= q) - p) <= 3 * se + 1e-9
