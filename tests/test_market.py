import csv
import hashlib
import io
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from matchbench import (
    DegenerateIndexError,
    MarketSpec,
    MatchedSample,
    assignment_oracle,
    counterexample_market,
    gaussian,
    gaussian_market,
    rademacher,
    simulate_market,
    uniform01,
)
from matchbench import market
from matchbench.cli import _gaussian_comparison_market
from matchbench.distributions import average_ranks
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
            average_ranks(sample.x_index(spec.alpha)), average_ranks(sample.y_index(spec.beta))
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

    def test_x_side_error_comes_first(self):
        spec = MarketSpec(dx=1, dy=1, alpha=[1.0], beta=[1.0],
                          p_components=(gaussian(1e308),), q_components=(gaussian(1e308),))
        with pytest.raises(ValueError, match="^alpha/p_components: the x-side index overflows"):
            simulate_market(spec, 100, seed=0)

    def test_peaks_under_one_side_twice_at_one_million(self):
        simulate_market(counterexample_market(), 10, seed=0)
        tracemalloc.start()
        try:
            simulate_market(counterexample_market(), 10**6, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the sorted x side held while the y side is drawn, indexed and its
        # values sorted reads 40.1 MiB; gathering the y side through its
        # argsort permutation read 46.7 MiB, and drawing both sides before
        # sorting either read 69.6 MiB
        assert peak < 55 * 2**20


# keys with ties by construction: each entry is drawn from a small pool
# that mixes 0.0 and -0.0, both infinities and nan with ordinary floats
_TIED_KEYS = st.lists(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -2.5]) | st.floats(),
    min_size=1, max_size=6,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))


_ABOVE_1_7 = math.nextafter(1.7, 2.0)
# one-column draws with forced duplicates: each entry comes from a small pool
# that mixes ±0.0 and 1.7 with its upper neighbour among ordinary floats
_COLUMN_VALUES = st.lists(
    st.sampled_from([0.0, -0.0, 1.7, _ABOVE_1_7, -2.5]) | st.floats(-1e100, 1e100),
    min_size=1, max_size=6,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=40)) | st.lists(
    st.floats(-1e100, 1e100), min_size=2, max_size=40
)


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestCouplingOrder:
    @settings(max_examples=300, deadline=None)
    @given(keys=_TIED_KEYS | st.lists(st.floats(), min_size=1, max_size=40))
    @example(keys=[1.0])
    @example(keys=[2.0, 1.0])
    @example(keys=[1.0, 1.0])
    @example(keys=[3.0] * 25)
    @example(keys=[0.0, -0.0, 0.0])
    @example(keys=[math.inf, -math.inf, math.inf])
    @example(keys=[math.nan, 1.0, math.nan])
    @example(keys=[math.nan])
    @example(keys=[math.nan if i % 3 else float(-i) for i in range(40)])  # nans the default sort reorders
    def test_equals_the_stable_argsort(self, keys):
        index = np.array(keys, dtype=float)
        got = market._coupling_order(index)
        want = np.argsort(index, kind="stable")
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "p_components, kinds",
        [
            ((uniform01(),), []),
            ((rademacher(),), []),
            ((uniform01(), uniform01()), [None]),
            ((rademacher(), rademacher()), [None, "stable"]),
        ],
        ids=["tie-free", "coin-only", "two-attribute-tie-free", "two-coins"],
    )
    def test_only_a_tied_index_takes_the_stable_sort(self, monkeypatch, p_components, kinds):
        """A one-attribute side sorts its values and calls no argsort (a coin's
        equal values have equal bits); a wider side argsorts its index, and
        again with the stable sort only when the index has a tie."""
        spec = MarketSpec(dx=len(p_components), dy=1, alpha=[1.0] * len(p_components), beta=[1.0],
                          p_components=p_components, q_components=(uniform01(),))
        argsort, seen = np.argsort, []

        def counting(a, *args, kind=None, **kwargs):
            seen.append(kind)
            return argsort(a, *args, kind=kind, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        simulate_market(spec, 1000, seed=4)
        assert seen == kinds

    @settings(max_examples=300, deadline=None)
    @given(values=_COLUMN_VALUES, weight=st.sampled_from([1.0, -1.0, 3.0, -0.7, 0.95, -1 / 3, 1e-3]))
    @example(values=[_ABOVE_1_7, 1.7, 0.5], weight=0.95)  # distinct values whose index rounds equal
    @example(values=[1.0, -0.0, 1.0, 0.0, 2.0], weight=-0.7)
    @example(values=[2.5, 2.5, -1.0, 2.5, -1.0], weight=-3.0)
    @example(values=[5e-324, 1e-323, 1.0], weight=1e-3)  # subnormals whose index underflows to 0
    def test_value_path_gives_the_stable_gather(self, values, weight):
        draws = np.array(values)[:, None]
        w = np.array([weight])
        assume(np.var(draws @ w) > 0.0)
        want = np.take(draws, np.argsort(draws @ w, kind="stable"), axis=0)
        ordered = market._sorted_column(draws[:, 0], w)
        if ordered is not None:
            assert ordered[:, None].tobytes() == want.tobytes()
        with mock.patch.object(market, "_draw_side", return_value=draws.copy()):
            side = market._sorted_side("y", "beta/q_components", None, None, w, draws.shape[0], None)
        assert side.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "values, weight, takes_values",
        [
            ([2.5, 2.5, -1.0, 2.5], -3.0, True),
            ([_ABOVE_1_7, 1.7, 0.5], 0.95, False),
            ([_ABOVE_1_7, 1.7, 0.5], 1.0, True),
            ([1.0, 0.0, 2.0], 1.0, False),
            ([1.0, -0.0, 2.0], -1.0, False),
        ],
        ids=["duplicates", "index-rounds-equal", "index-distinct", "zero", "negative-zero"],
    )
    def test_value_path_steps_aside(self, values, weight, takes_values):
        ordered = market._sorted_column(np.array(values), np.array([weight]))
        assert (ordered is not None) == takes_values

    @pytest.mark.parametrize("weight", [1.0, -0.7, 0.95, -1 / 3, 1e-3, 12345.678])
    def test_column_product_is_the_index(self, rng, weight):
        draws = rng.standard_normal((100_001, 1)) * np.exp(rng.uniform(-300.0, 300.0, (100_001, 1)))
        w = np.array([weight])
        column = draws[:, 0].copy()
        assert (column[:, None] @ w).tobytes() == (draws @ w).tobytes()

    # recorded when each side was ordered by the stable argsort alone and
    # gathered by fancy indexing: the faster order must not move a byte
    def test_benchmark_market_bytes_are_pinned(self, counterexample_sample_1m):
        assert sha256(counterexample_sample_1m.xs) == "a2d66847ebbf68a4d4c6a753c7fd745339297a4dbd2cc6c1bf9350c015361814"
        assert sha256(counterexample_sample_1m.ys) == "731b85819adcc4becd8974c70f7849d345f47e5cfd76fa7d7328cd130cd34c60"

    def test_gaussian_comparison_market_bytes_are_pinned(self):
        sample = simulate_market(_gaussian_comparison_market(), 1_000_000, seed=0)
        assert sha256(sample.xs) == "946b72ed03587f6e3942510f01653a5db8418295b91247f5b1d2b8360a62b8b4"
        assert sha256(sample.ys) == "6ec0ab2b9ce4b5ba56e4eeff624db6d8fc5e1a4fb6e1abc8f8d10d74954943a5"


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


def anti_market() -> MarketSpec:
    """The product surplus with the y weight negated: u*(-v) is -(u*v)
    exactly, a submodular surplus."""
    return MarketSpec(
        dx=1, dy=1, alpha=[1.0], beta=[-1.0],
        p_components=(uniform01(),), q_components=(uniform01(),),
    )


def second_differences(pair: np.ndarray) -> np.ndarray:
    return pair[1:, 1:] - pair[1:, :-1] - pair[:-1, 1:] + pair[:-1, :-1]


class TestSurplus:
    """The surplus of a couple is the product of the two indices."""

    def test_product_value(self):
        spec = MarketSpec(dx=2, dy=1, alpha=[1.0, 1.0], beta=[1.0],
                          p_components=(uniform01(), uniform01()), q_components=(uniform01(),))
        assert pair_surplus_matrix([[1.5, 0.5]], [[3.0]], spec)[0, 0] == 6.0

    def test_depends_only_on_selected_coordinates(self):
        spec = MarketSpec(dx=3, dy=1, alpha=[1.0, 0.0, 0.0], beta=[1.0],
                          p_components=(uniform01(),) * 3, q_components=(uniform01(),))
        assert pair_surplus_matrix([[2.0, 9.0, -4.0]], [[1.5]], spec)[0, 0] == 3.0

    def test_dimension_mismatch(self):
        spec = uniform_1d_market()
        with pytest.raises(ValueError):
            pair_surplus_matrix([[1.0, 2.0]], [[1.0]], spec)


class TestSupermodularity:
    """Sorting is optimal because the product surplus has nonnegative
    second differences on every increasing grid."""

    def test_product_true(self):
        pair = pair_surplus_matrix([[0.0], [1.0]], [[0.0], [1.0]], uniform_1d_market())
        assert np.all(second_differences(pair) >= 0)

    def test_negated_product_false(self):
        pair = pair_surplus_matrix([[0.0], [1.0]], [[0.0], [1.0]], anti_market())
        assert not np.all(second_differences(pair) >= 0)

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=6, unique=True),
           st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=6, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_product_supermodular_on_any_grid(self, s, t):
        xs = np.array(sorted(s)).reshape(-1, 1)
        ys = np.array(sorted(t)).reshape(-1, 1)
        assert np.all(second_differences(pair_surplus_matrix(xs, ys, uniform_1d_market())) >= -1e-12)


class TestAssignmentOracle:
    def test_two_point_supermodular_sort(self):
        spec = uniform_1d_market()
        perm, value = assignment_oracle([[1.0], [2.0]], [[1.0], [2.0]], spec)
        assert perm == (0, 1)
        assert value == 5.0

    def test_two_point_submodular_antisorts(self):
        perm, value = assignment_oracle([[1.0], [2.0]], [[1.0], [2.0]], anti_market())
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

    def test_matches_the_permutation_loop(self, rng):
        # reference: every permutation in lexicographic order, the first strict maximum wins
        def loop_oracle(xs, ys, spec):
            pair = pair_surplus_matrix(xs, ys, spec)
            best_value, best_perm = -math.inf, None
            for perm in itertools.permutations(range(len(xs))):
                value = matching_value(pair, perm)
                if value > best_value:
                    best_value, best_perm = value, perm
            return best_perm, best_value

        product = uniform_1d_market()
        anti = anti_market()
        for trial in range(40):
            n = int(rng.integers(1, 8))
            xs = rng.normal(size=(n, 1))
            # every other draw has tied y values, so several permutations attain the maximum
            ys = rng.integers(0, 3, size=(n, 1)).astype(float) if trial % 2 else rng.normal(size=(n, 1))
            for spec in (product, anti):
                assert assignment_oracle(xs, ys, spec) == loop_oracle(xs, ys, spec)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy_assignment(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(1, 8):
            xs = rng.normal(size=(n, 1))
            ys = rng.normal(size=(n, 1))
            for spec in (uniform_1d_market(), anti_market()):
                pair = pair_surplus_matrix(xs, ys, spec)
                _, cols = linear_sum_assignment(pair, maximize=True)
                assert assignment_oracle(xs, ys, spec)[1] == matching_value(pair, cols)

    def test_scipy_assignment_sorts_a_large_market(self, rng):
        n = 1000
        xs = rng.normal(size=(n, 1))
        ys = rng.normal(size=(n, 1))
        product = uniform_1d_market()
        pair = pair_surplus_matrix(xs, ys, product)
        _, cols = linear_sum_assignment(pair, maximize=True)
        assert matching_value(pair, cols) == matching_value(pair, rank_sorted_permutation(xs, ys, product))
        # negated beta: the optimum pairs the i-th smallest x with the i-th largest y
        pair = pair_surplus_matrix(xs, ys, anti_market())
        _, cols = linear_sum_assignment(pair, maximize=True)
        reversed_ranks = np.empty(n, dtype=int)
        reversed_ranks[np.argsort(xs[:, 0])] = np.argsort(ys[:, 0])[::-1]
        assert matching_value(pair, cols) == matching_value(pair, reversed_ranks)

    def test_rejects_large_n(self):
        spec = uniform_1d_market()
        xs = np.arange(11.0).reshape(-1, 1)
        with pytest.raises(ValueError):
            assignment_oracle(xs, xs, spec)


# What from_csv gives for each file: its rows as (x1, y1), or the error it
# raises with "{path}" for the file's path. loadtxt reads some of these files
# and refuses others, which the row loop then reads; either way the outcome,
# the values' bits and the line an error names are the same.
READER_TABLE = [
    ("blank_line", "x1,y1\n1,2\n\n3,4\n", [[1, 2], [3, 4]]),
    ("whitespace_line", "x1,y1\n1,2\n \t\n3,4\n", "{path} line 3: expected 2 finite numbers, got [' \\t']"),
    ("hash_line", "x1,y1\n# note\n1,2\n", "{path} line 2: expected 2 finite numbers, got ['# note']"),
    ("trailing_hash", "x1,y1\n1,2 # note\n", "{path} line 2: expected 2 finite numbers, got ['1', '2 # note']"),
    ("quoted_field", 'x1,y1\n"1",2\n', [[1, 2]]),
    ("underscore", "x1,y1\n1_0,2\n", [[10, 2]]),
    ("padded", "x1,y1\n 1 , 2\n", [[1, 2]]),
    ("tab", "x1,y1\n\t1,2\t\n", [[1, 2]]),
    ("non_breaking_space", "x1,y1\n\u00a01,2\n", [[1, 2]]),
    ("nan", "x1,y1\n1,2\nnan,4\n", "{path} line 3: expected 2 finite numbers, got ['nan', '4']"),
    ("overflow", "x1,y1\n1e400,2\n", "{path} line 2: expected 2 finite numbers, got ['1e400', '2']"),
    ("hex", "x1,y1\n0x10,2\n", "{path} line 2: expected 2 finite numbers, got ['0x10', '2']"),
    ("complex", "x1,y1\n1j,2\n", "{path} line 2: expected 2 finite numbers, got ['1j', '2']"),
    ("fortran_exponent", "x1,y1\n1d2,2\n", "{path} line 2: expected 2 finite numbers, got ['1d2', '2']"),
    ("trailing_comma", "x1,y1\n1,2,\n", "{path} line 2: expected 2 finite numbers, got ['1', '2', '']"),
    ("short_row", "x1,y1\n1,2\n3\n", "{path} line 3: expected 2 finite numbers, got ['3']"),
    ("semicolon", "x1,y1\n1;2\n", "{path} line 2: expected 2 finite numbers, got ['1;2']"),
    ("lf", "x1,y1\n1,2\n3,4\n", [[1, 2], [3, 4]]),
    ("cr_only", "x1,y1\r1,2\r3,4\r", [[1, 2], [3, 4]]),
    ("header_only", "x1,y1\r\n", "{path}: sample file has no rows"),
    ("bom_header", "\ufeffx1,y1\n1,2\n", "{path} line 1: unexpected sample header ['\\ufeffx1', 'y1']"),
    ("wrong_header", "x1,y2,y1\n1,2,3\n", "{path} line 1: unexpected sample header ['x1', 'y2', 'y1']"),
    ("arabic_indic_digit", "x1,y1\n\u0661,2\n", [[1, 2]]),
    ("extremes", "x1,y1\n5e-324,-0.0\n1.7976931348623157e308,0\n", [[5e-324, -0.0], [1.7976931348623157e308, 0.0]]),
    # bytes, not text: the third line, then the header, is not UTF-8
    ("not_utf8", b"x1,x2,y1\n1,2,3\n1,\xff\xfe,3\n", "{path} line 3: byte 0xff is not UTF-8 text"),
    ("header_not_utf8", b"x1,\xffx2,y1\n1,2,3\n", "{path} line 1: byte 0xff is not UTF-8 text"),
]


class TestCsvRoundTrip:
    @pytest.mark.parametrize("text, expected", [case[1:] for case in READER_TABLE],
                             ids=[case[0] for case in READER_TABLE])
    def test_reader_outcome_pinned(self, tmp_path, text, expected):
        path = tmp_path / "sample.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        if isinstance(expected, str):
            with pytest.raises(ValueError) as exc:
                MatchedSample.from_csv(path)
            assert str(exc.value) == expected.format(path=path)
        else:
            sample = MatchedSample.from_csv(path)
            assert np.hstack([sample.xs, sample.ys]).tobytes() == np.array(expected, dtype=float).tobytes()

    def test_reading_peaks_near_the_array_size(self, tmp_path):
        n = 100_000
        path = tmp_path / "sample.csv"
        simulate_market(counterexample_market(), n, seed=17).to_csv(path)
        tracemalloc.start()
        try:
            sample = MatchedSample.from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.n == n
        # a list of Python floats per row took 9.3 times the array
        assert peak <= 2 * n * 3 * 8

    def test_writing_peaks_under_a_bound_that_does_not_grow_with_n(self, tmp_path):
        sample = simulate_market(counterexample_market(), 200_000, seed=17)
        sample.to_csv(tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            sample.to_csv(tmp_path / "sample.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole-sample hstack and 65,536-row blocks of Python floats read 14.7 MiB
        assert peak < 1.5 * 2**20

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
        again = MatchedSample.from_csv(path)
        assert again.xs.tobytes() == sample.xs.tobytes()
        assert again.ys.tobytes() == sample.ys.tobytes()
